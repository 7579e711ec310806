"""Bures-Wasserstein geometry on symmetric positive definite matrices.

Distances, optimal-transport maps between SPD matrices, and the differential
of the transport map in its base point, together with a fixed orthonormal
coordinate system for the space of symmetric matrices that the rest of the
package shares.

All matrices are real, validated to be symmetric within a relative tolerance
of 1e-12 (and symmetrized), with eigenvalues required to exceed ``EPS_PD``
(1e-10) relative to the largest eigenvalue.
"""

import functools

import numpy as np

from .errors import IllConditionedError, InvalidInputError

EPS_PD = 1e-10

_SYM_RTOL = 1e-12


def sym_part(a):
    """Symmetric part (a + a.T) / 2, applied over the last two axes."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def not_pd(vals, eps_pd=EPS_PD):
    """Relative positive-definiteness test, batched over leading axes.

    ``vals`` holds ascending eigenvalues along its last axis. True where the
    smallest does not exceed ``eps_pd`` times the largest (clipped at zero).
    """
    return vals[..., 0] <= eps_pd * np.maximum(vals[..., -1], 0.0)


def _as_square(a, name):
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name}: not a real matrix: {exc}") from None
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name}: non-finite entries")
    return a


def _validated_eigh(a, name):
    """Symmetrize, eigendecompose and enforce positive definiteness."""
    a = _as_square(a, name)
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > _SYM_RTOL * scale:
        raise InvalidInputError(f"{name}: not symmetric within relative tolerance {_SYM_RTOL}")
    a = sym_part(a)
    vals, vecs = np.linalg.eigh(a)
    if not_pd(vals):
        raise IllConditionedError(
            f"{name}: not positive definite at relative threshold {EPS_PD} "
            f"(eigenvalue range [{vals[0]:.6g}, {vals[-1]:.6g}])"
        )
    return a, vals, vecs


def _sqrt_pair(vals, vecs):
    # square root and inverse square root from one eigendecomposition
    r = np.sqrt(vals)
    w = (vecs * r) @ vecs.T
    wi = (vecs / r) @ vecs.T
    return sym_part(w), sym_part(wi)


def wasserstein_distance(a, b):
    """Bures-Wasserstein distance between two SPD matrices.

    W(A, B) = [tr A + tr B - 2 tr (A^{1/2} B A^{1/2})^{1/2}]^{1/2},
    with the bracket clamped at zero before the outer square root so that
    nearly identical inputs cannot produce NaN.
    """
    a, va, ua = _validated_eigh(a, "wasserstein_distance: first argument")
    b, _, _ = _validated_eigh(b, "wasserstein_distance: second argument")
    if a.shape != b.shape:
        raise InvalidInputError(
            f"wasserstein_distance: dimension mismatch {a.shape} vs {b.shape}"
        )
    w, _ = _sqrt_pair(va, ua)
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(w @ b @ w), 0.0, None)).sum()
    sq = np.trace(a) + np.trace(b) - 2.0 * cross
    return float(np.sqrt(max(sq, 0.0)))


def ot_map(base, target):
    """Optimal-transport map T from ``base`` to ``target``.

    T = base^{-1/2} (base^{1/2} target base^{1/2})^{1/2} base^{-1/2}; T is
    symmetric positive definite and satisfies T base T = target.
    """
    base, vb, ub = _validated_eigh(base, "ot_map: base")
    target, _, _ = _validated_eigh(target, "ot_map: target")
    if base.shape != target.shape:
        raise InvalidInputError(f"ot_map: dimension mismatch {base.shape} vs {target.shape}")
    w, wi = _sqrt_pair(vb, ub)
    mid = sym_part(w @ target @ w)
    mv, mu = np.linalg.eigh(mid)
    root = (mu * np.sqrt(np.clip(mv, 0.0, None))) @ mu.T
    return sym_part(wi @ root @ wi)


# ---------------------------------------------------------------------------
# coordinates on the space of symmetric matrices
# ---------------------------------------------------------------------------

def sym_dim(d):
    """Dimension d(d+1)/2 of the space of symmetric d x d matrices."""
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def _offdiag_indices(d):
    r, c = np.triu_indices(d, k=1)
    r.flags.writeable = False
    c.flags.writeable = False
    return r, c


def sym_coords(h):
    """Coordinates of symmetric matrices in the fixed orthonormal basis.

    The basis lists the diagonal units E_ii first (i ascending), then
    (E_ij + E_ji)/sqrt(2) for i < j in lexicographic order. Accepts
    (..., d, d); returns (..., m). Near-symmetric input is projected onto its
    symmetric part.
    """
    h = np.asarray(h, dtype=float)
    d = h.shape[-1]
    r, c = _offdiag_indices(d)
    idx = np.arange(d)
    diag = h[..., idx, idx]
    off = (h[..., r, c] + h[..., c, r]) * (0.5 * np.sqrt(2.0))
    return np.concatenate([diag, off], axis=-1)


def sym_from_coords(v, d=None):
    """Inverse of :func:`sym_coords`; accepts (..., m), returns (..., d, d)."""
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    if d is None:
        d = int((np.sqrt(8 * m + 1) - 1) / 2 + 0.5)
    if sym_dim(d) != m:
        raise InvalidInputError(f"sym_from_coords: length {m} is not a triangular number")
    out = np.zeros(v.shape[:-1] + (d, d))
    idx = np.arange(d)
    out[..., idx, idx] = v[..., :d]
    r, c = _offdiag_indices(d)
    off = v[..., d:] / np.sqrt(2.0)
    out[..., r, c] = off
    out[..., c, r] = off
    return out


class SymOperator:
    """Linear operator on symmetric d x d matrices in the fixed basis.

    Stored as a dense m x m matrix with m = d(d+1)/2, acting on
    :func:`sym_coords` coordinate vectors.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, dim, matrix):
        matrix = np.asarray(matrix, dtype=float)
        m = sym_dim(int(dim))
        if matrix.shape != (m, m):
            raise InvalidInputError(
                f"SymOperator: matrix shape {matrix.shape} does not match dim {dim}"
            )
        if not np.all(np.isfinite(matrix)):
            raise InvalidInputError("SymOperator: non-finite entries")
        self.dim = int(dim)
        self.matrix = matrix

    def apply(self, h):
        """Apply to one symmetric matrix or a stack (..., d, d)."""
        h = np.asarray(h, dtype=float)
        if h.shape[-2:] != (self.dim, self.dim):
            raise InvalidInputError(
                f"SymOperator.apply: expected trailing shape {(self.dim, self.dim)}, got {h.shape}"
            )
        return sym_from_coords(sym_coords(h) @ self.matrix.T, self.dim)

    def __repr__(self):
        return f"SymOperator(dim={self.dim})"


# ---------------------------------------------------------------------------
# transport maps and base-point differentials, batched over targets
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _congruence_indices(d):
    """Gather indices that give sym_coords(K^T B_j K) straight from the entries of K.

    With basis element j on index pair (a, b) and coordinate c on (p, q),
    the coordinate is f_j f_c (K_ap K_bq + K_aq K_bp), where f is 1/sqrt(2)
    on diagonal pairs and 1 off the diagonal. Returns the flat indices of
    K_ap, K_bq, K_aq, K_bp, each (m, m), and the (m, m) scale f_j f_c.
    """
    r, c = _offdiag_indices(d)
    diag = np.arange(d)
    first = np.concatenate([diag, r])
    second = np.concatenate([diag, c])
    f = np.where(np.arange(sym_dim(d)) < d, np.sqrt(0.5), 1.0)
    a, b = first[:, None], second[:, None]
    p, q = first[None, :], second[None, :]
    out = (a * d + p, b * d + q, a * d + q, b * d + p, f[:, None] * f[None, :])
    for arr in out:
        arr.flags.writeable = False
    return out


class TransportBatch:
    """OT maps and base-point differentials from one base to many targets.

    Shares the eigendecompositions of the base and of the congruences
    base^{1/2} Q_i base^{1/2} between the maps and the differentials; this is
    the workhorse behind the operator assembly. Targets are assumed
    symmetric and positive semidefinite (eigenvalues of the congruence are
    clipped at zero); the base is validated strictly. :meth:`from_state`
    builds a batch from an eigen-state already at hand, such as the one the
    Frechet mean solver holds at its final iterate.
    """

    def __init__(self, base, targets):
        base, vals, vecs = _validated_eigh(base, "TransportBatch: base")
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 2:
            targets = targets[None]
        if targets.ndim != 3 or targets.shape[-2:] != base.shape:
            raise InvalidInputError(
                f"TransportBatch: targets shape {targets.shape} incompatible with base {base.shape}"
            )
        w, wi = _sqrt_pair(vals, vecs)
        mu, v = np.linalg.eigh(sym_part(w @ targets @ w))
        self._set_state(wi, v, np.sqrt(np.clip(mu, 0.0, None)))

    @classmethod
    def from_state(cls, wi, vecs, sqrt_mu):
        """Batch from an existing eigen-state, with no new eigendecomposition.

        ``wi`` is base^{-1/2}; ``vecs[i]`` and ``sqrt_mu[i] ** 2`` are the
        eigenvectors and eigenvalues of base^{1/2} Q_i base^{1/2}. The
        caller vouches for the state; nothing is validated.
        """
        batch = cls.__new__(cls)
        batch._set_state(wi, vecs, sqrt_mu)
        return batch

    def _set_state(self, wi, vecs, sqrt_mu):
        self.d = wi.shape[0]
        self.sqrt_mu = sqrt_mu   # (k, d)
        self.k = wi @ vecs       # (k, d, d): K_i = base^{-1/2} V_i

    def maps(self):
        """Transport maps T_i = K_i diag(sqrt mu_i) K_i^T, with T_i base T_i = Q_i; (k, d, d)."""
        k = self.k
        return sym_part((k * self.sqrt_mu[:, None, :]) @ k.transpose(0, 2, 1))

    def dt_factors(self):
        """Factors (cong, gamma) of the base-point differentials.

        The differential of the transport map in its base point acts as
        dT_i[H] = -K_i ((K_i^T H K_i) o Gamma_i) K_i^T with K_i = base^{-1/2} V_i
        and Gamma_ab = sqrt(mu_a mu_b) / (sqrt(mu_a) + sqrt(mu_b)); this is the
        unique solution of dT (S T_i) + (T_i S) dT = -T_i H T_i.

        Returns ``cong`` of shape (k, m, m) with cong[i, j] = sym_coords(
        K_i^T B_j K_i) for the fixed basis elements B_j, and ``gamma`` of
        shape (k, m), the Hadamard multipliers packed in coordinate order.
        The operator matrix of dT_i is -cong_i diag(gamma_i) cong_i^T.
        """
        d, s = self.d, self.sqrt_mu
        denom = s[:, :, None] + s[:, None, :]
        num = s[:, :, None] * s[:, None, :]
        gam = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
        idx_d = np.arange(d)
        r, c = _offdiag_indices(d)
        gamma = np.concatenate([gam[:, idx_d, idx_d], gam[:, r, c]], axis=-1)
        ap, bq, aq, bp, scale = _congruence_indices(d)
        # rows of the (d*d, k) transpose are contiguous, so the gathers are cheap;
        # cong is returned as a (k, m, m) view of the (m, m, k) result
        kt = self.k.reshape(self.k.shape[0], d * d).T.copy()
        prods = kt[ap] * kt[bq]
        prods += kt[aq] * kt[bp]
        prods *= scale[:, :, None]
        return prods.transpose(2, 0, 1), gamma


def weighted_dt_matrix(cong, gamma, coeffs):
    """Matrix of sum_i coeffs[i] * dT_i from :meth:`TransportBatch.dt_factors`."""
    coeffs = np.asarray(coeffs, dtype=float)
    m = cong.shape[-1]
    by_basis = cong.transpose(1, 2, 0)  # (m, m, k); contiguous for dt_factors output
    scaled = by_basis * (gamma * coeffs[:, None]).T
    mat = -(scaled.reshape(m, -1) @ by_basis.reshape(m, -1).T)
    return sym_part(mat)


def ot_map_differential(base, target):
    """Differential of the transport map in its base point, as a SymOperator.

    For T = ot_map(base, target), the returned operator maps a symmetric
    perturbation H of the base to the solution dT[H] of
    dT (base T) + (T base) dT = -T H T. Self-adjoint with nonpositive
    spectrum when target is positive definite.
    """
    target, _, _ = _validated_eigh(target, "ot_map_differential: target")
    batch = TransportBatch(base, target[None])
    cong, gamma = batch.dt_factors()
    return SymOperator(batch.d, weighted_dt_matrix(cong, gamma, np.ones(1)))
