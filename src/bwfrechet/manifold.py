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


def not_pd(vals):
    """Relative positive-definiteness test, batched over leading axes.

    ``vals`` holds ascending eigenvalues along its last axis. True where the
    smallest does not exceed ``EPS_PD`` times the largest (clipped at zero).
    """
    return vals[..., 0] <= EPS_PD * np.maximum(vals[..., -1], 0.0)


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


def _pair_batch(base, target, name, first="base", second="target"):
    """Validate a base and a target and build the batch from one to the other."""
    base, vals, vecs = _validated_eigh(base, f"{name}: {first}")
    target, _, _ = _validated_eigh(target, f"{name}: {second}")
    if base.shape != target.shape:
        raise InvalidInputError(f"{name}: dimension mismatch {base.shape} vs {target.shape}")
    return base, target, TransportBatch.from_eigh(vals, vecs, target[None])


def wasserstein_distance(a, b):
    """Bures-Wasserstein distance between two SPD matrices.

    W(A, B)^2 = tr A + tr B - 2 tr (A^{1/2} B A^{1/2})^{1/2}
    = ||(T - I) A^{1/2}||_F^2, with T = ot_map(a, b). The norm is computed
    from T, so nearly identical inputs keep their relative accuracy where
    the trace form cancels.
    """
    a, _, batch = _pair_batch(a, b, "wasserstein_distance", "first argument", "second argument")
    return float(np.linalg.norm((batch.maps()[0] - np.eye(a.shape[0])) @ batch.root))


def ot_map(base, target):
    """Optimal-transport map T from ``base`` to ``target``.

    T = base^{-1/2} (base^{1/2} target base^{1/2})^{1/2} base^{-1/2}; T is
    symmetric positive definite and satisfies T base T = target.
    """
    return _pair_batch(base, target, "ot_map")[2].maps()[0]


# ---------------------------------------------------------------------------
# coordinates on the space of symmetric matrices
# ---------------------------------------------------------------------------

def sym_dim(d):
    """Dimension d(d+1)/2 of the space of symmetric d x d matrices."""
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def _pair_indices(d):
    """Index pairs s <-> (first[s] <= second[s]) in coordinate order, and their gathers.

    The diagonal pairs come first, then i < j in lexicographic order. Also
    returns the coordinate weights f (1/2 on diagonal pairs, 1/sqrt(2) off
    them), so that coordinate s of H is f_s (H[first, second] +
    H[second, first]), and the two flat (m, m) gathers into a pair-space
    matrix with which :func:`weighted_dt_matrix` realigns it.
    """
    r, c = np.triu_indices(d, k=1)
    first = np.concatenate([np.arange(d), r])
    second = np.concatenate([np.arange(d), c])
    m = sym_dim(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(m)
    x, y = first[:, None], second[:, None]
    f = np.where(np.arange(m) < d, 0.5, np.sqrt(0.5))
    out = (first, second, f,
           pair[x, first] * m + pair[y, second], pair[x, second] * m + pair[y, first])
    for arr in out:
        arr.flags.writeable = False
    return out


def sym_coords(h):
    """Coordinates of symmetric matrices in the fixed orthonormal basis.

    The basis lists the diagonal units E_ii first (i ascending), then
    (E_ij + E_ji)/sqrt(2) for i < j in lexicographic order. Accepts
    (..., d, d); returns (..., m). Near-symmetric input is projected onto its
    symmetric part.
    """
    h = np.asarray(h, dtype=float)
    first, second, f = _pair_indices(h.shape[-1])[:3]
    return (h[..., first, second] + h[..., second, first]) * f


def sym_from_coords(v, d=None):
    """Inverse of :func:`sym_coords`; accepts (..., m), returns (..., d, d)."""
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    if d is None:
        d = int((np.sqrt(8 * m + 1) - 1) / 2 + 0.5)
    if sym_dim(d) != m:
        raise InvalidInputError(f"sym_from_coords: length {m} is not a triangular number")
    first, second, f = _pair_indices(d)[:3]
    out = np.zeros(v.shape[:-1] + (d, d))
    out[..., first, second] = out[..., second, first] = v / (2.0 * f)
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

class TransportBatch:
    """OT maps and base-point differentials from one base to many targets.

    Holds the transport eigen-state from base S to targets Q_i: W = S^{1/2}
    (``root``) and W^{-1}, and the eigenvectors V_i and eigenvalue roots
    ``sqrt_mu[i]`` of the congruences W Q_i W. The maps, their weighted mean
    and the differentials all read it, and only this class builds it: the
    constructor validates the base strictly, and :meth:`from_eigh` builds it
    from an eigendecomposition of the base at hand, as the Frechet mean
    solver does at each iterate. Targets are assumed symmetric and positive
    semidefinite (eigenvalues of the congruence are clipped at zero).
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
        self._build(vals, vecs, targets)

    @classmethod
    def from_eigh(cls, vals, vecs, targets):
        """Batch from the eigenpairs of a positive definite base; nothing is validated."""
        batch = cls.__new__(cls)
        batch._build(vals, vecs, targets)
        return batch

    def _build(self, vals, vecs, targets):
        half = np.sqrt(vals)
        self.root = w = (vecs * half) @ vecs.T
        self._wi = (vecs / half) @ vecs.T
        mu, self._vecs = np.linalg.eigh(sym_part(w @ targets @ w))
        self.sqrt_mu = np.sqrt(np.clip(mu, 0.0, None))   # (k, d)
        self.d = vals.shape[0]

    def mean_map(self, weights):
        """Weighted mean (1/k) sum_i weights[i] T_i of the transport maps.

        With T_i = W^{-1} V_i diag(sqrt_mu_i) V_i^T W^{-1} and V = [V_1 ... V_k]
        (d x kd), the mean is W^{-1} (V diag(weights o sqrt_mu) V^T) W^{-1} / k,
        one GEMM over the kd columns.
        """
        vecs = self._vecs.transpose(1, 0, 2).reshape(self.d, -1)
        scale = (weights[:, None] * self.sqrt_mu).reshape(-1)
        p = (vecs * scale) @ vecs.T / weights.shape[0]
        return sym_part(self._wi @ p @ self._wi)

    def maps(self):
        """Maps T_i = K_i diag(sqrt mu_i) K_i^T, K_i = base^{-1/2} V_i; T_i base T_i = Q_i."""
        k = self._wi @ self._vecs
        return sym_part((k * self.sqrt_mu[:, None, :]) @ k.transpose(0, 2, 1))

    def centred_coords(self, pairs):
        """sym_coords(T_i - I) from the ``pairs`` of :meth:`dt_factors`; (k, m).

        Coordinate s <-> (a <= a') is 2 f_s T_i[a, a'] = 2 f_s sum_p sqrt_mu[i, p]
        pairs[i, p, s], less 1 on the d diagonal coordinates."""
        out = (self.sqrt_mu[:, None, :] @ pairs)[:, 0] * (2.0 * _pair_indices(self.d)[2])
        out[:, : self.d] -= 1.0
        return out

    def dt_factors(self):
        """Factors (pairs, gamma) of the base-point differentials.

        The differential of the transport map in its base point acts as
        dT_i[H] = -K_i ((K_i^T H K_i) o Gamma_i) K_i^T with K_i = base^{-1/2} V_i
        and Gamma_pq = sqrt(mu_p mu_q) / (sqrt(mu_p) + sqrt(mu_q)); this is the
        unique solution of dT (S T_i) + (T_i S) dT = -T_i H T_i. On vec(H) it
        is -(K_i (x) K_i) diag(vec Gamma_i) (K_i (x) K_i)^T, with entry
        ((a, b), (a', b')) = -sum_pq (K_ap K_a'p) Gamma_pq (K_bq K_b'q).

        Returns ``pairs`` (k, d, m), pairs[i, p, s] = K_ap K_a'p over the m
        index pairs s <-> (a <= a') in coordinate order, and ``gamma``
        (k, d, d), the full Gamma_i.
        """
        s = self.sqrt_mu
        num, denom = s[:, :, None] * s[:, None, :], s[:, :, None] + s[:, None, :]
        gamma = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
        first, second = _pair_indices(self.d)[:2]
        kt = self._vecs.transpose(0, 2, 1) @ self._wi   # K_i^T, contiguous
        pairs = kt[..., first]
        pairs *= kt[..., second]
        return pairs, gamma


def weighted_dt_matrix(pairs, gamma, coeffs):
    """Matrix of sum_i coeffs[i] * dT_i from :meth:`TransportBatch.dt_factors`.

    In pair space, M = sum_i pairs_i^T (coeffs[i] Gamma_i) pairs_i (one
    batched product and one m x kd x m GEMM) holds entry ((a, b), (a', b'))
    of -sum_i coeffs[i] dT_i on vec(H) at M[(a, a'), (b, b')]. The operator
    in :func:`sym_coords` realigns M + M^T: entry (c, j), c on index pair
    (x, y) and j on (a, b), is -f_c f_j ((M + M^T)[(x, a), (y, b)] +
    (M + M^T)[(x, b), (y, a)]), and comes out exactly symmetric.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    m = pairs.shape[-1]
    right = (gamma * coeffs[:, None, None]) @ pairs
    mat = right.reshape(-1, m).T @ pairs.reshape(-1, m)
    mat = (mat + mat.T).reshape(-1)
    f, xa_yb, xb_ya = _pair_indices(gamma.shape[-1])[2:]
    return -np.outer(f, f) * (mat[xa_yb] + mat[xb_ya])


def ot_map_differential(base, target):
    """Differential of the transport map in its base point, as a SymOperator.

    For T = ot_map(base, target), the returned operator maps a symmetric
    perturbation H of the base to the solution dT[H] of
    dT (base T) + (T base) dT = -T H T. Self-adjoint with nonpositive
    spectrum when target is positive definite.
    """
    batch = _pair_batch(base, target, "ot_map_differential")[2]
    return SymOperator(batch.d, weighted_dt_matrix(*batch.dt_factors(), np.ones(1)))
