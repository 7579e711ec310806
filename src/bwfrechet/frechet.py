"""Weighted Frechet means and global Frechet regression for SPD responses.

The conditional mean estimator is the minimizer of a linearly reweighted sum
of squared Bures-Wasserstein distances; the weights come from the covariate
second-moment structure and can be negative, so the objective is minimized by
projected gradient descent with backtracking rather than a fixed-point sweep.
"""

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidInputError,
    SingularError,
)
from .manifold import EPS_PD, not_pd, sym_part


def is_integer(value):
    """True for an integral number that is not a bool, the rule for every integer input."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate_responses(responses, eps_pd, name="responses"):
    responses = np.asarray(responses, dtype=float)
    if responses.ndim != 3 or responses.shape[-1] != responses.shape[-2]:
        raise InvalidInputError(f"{name}: expected shape (n, d, d), got {responses.shape}")
    if responses.shape[0] < 1:
        raise InvalidInputError(f"{name}: need at least one matrix")
    if not np.all(np.isfinite(responses)):
        raise InvalidInputError(f"{name}: non-finite entries")
    scale = np.abs(responses).max()
    asym = np.abs(responses - responses.transpose(0, 2, 1)).max()
    if scale > 0 and asym > 1e-12 * scale:
        worst = int(np.abs(responses - responses.transpose(0, 2, 1)).max(axis=(1, 2)).argmax())
        raise InvalidInputError(f"{name}: matrix for sample {worst} is not symmetric")
    responses = sym_part(responses)
    vals = np.linalg.eigvalsh(responses)
    bad = not_pd(vals, eps_pd)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidInputError(
            f"{name}: matrix for sample {i} is not positive definite "
            f"(eigenvalue range [{vals[i, 0]:.6g}, {vals[i, -1]:.6g}])"
        )
    return responses


@dataclass(frozen=True)
class CovariateMoments:
    """First and second moments of a covariate sample.

    ``cov`` uses divisor n, so it is exactly the average of outer products of
    centered rows; the regression weights average to one over the sample
    because of that normalization. ``p1`` marks how many leading
    coordinates form the retained block; the trailing coordinates are the
    block whose partial effect is under test.

    Inverses of ``cov`` and of its leading p1 x p1 block are computed once
    and kept when they satisfy a residual check; operations needing a
    missing inverse raise ``SingularError``.
    """

    mean: np.ndarray
    cov: np.ndarray
    p1: int
    n: int
    cov_inv: np.ndarray | None = field(default=None, repr=False)
    cov11_inv: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_covariates(cls, covariates, p1):
        x = np.asarray(covariates, dtype=float)
        if x.ndim != 2:
            raise InvalidInputError(f"covariates: expected shape (n, p), got {x.shape}")
        n, p = x.shape
        if n < 1:
            raise InvalidInputError("covariates: need at least one row")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("covariates: non-finite entries")
        p1 = int(p1)
        if not 0 <= p1 <= p:
            raise InvalidInputError(f"p1 must lie in [0, {p}], got {p1}")
        mean = x.mean(axis=0)
        xc = x - mean
        cov = (xc.T @ xc) / n
        cov = sym_part(cov)
        cov_inv = _checked_inverse(cov)
        if p1 > 0:
            cov11_inv = _checked_inverse(cov[:p1, :p1])
        else:
            cov11_inv = np.zeros((0, 0))
        mean.flags.writeable = False
        cov.flags.writeable = False
        return cls(mean=mean, cov=cov, p1=p1, n=n, cov_inv=cov_inv, cov11_inv=cov11_inv)

    @property
    def p(self):
        return self.mean.shape[0]

    def require_cov_inv(self):
        if self.cov_inv is None:
            raise SingularError("covariate second-moment matrix is singular")
        return self.cov_inv

    def require_cov11_inv(self):
        if self.cov11_inv is None:
            raise SingularError("second-moment matrix of the tested block is singular")
        return self.cov11_inv


def _checked_inverse(a):
    if a.size == 0:
        return np.zeros((0, 0))
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inv)):
        return None
    resid = np.abs(a @ inv - np.eye(a.shape[0])).max()
    if resid > 1e-8:
        return None
    inv = sym_part(inv)
    inv.flags.writeable = False
    return inv


@dataclass(frozen=True)
class Dataset:
    """Paired covariate rows and SPD responses.

    ``p1`` is the number of leading covariate coordinates that are retained
    (conditioned on); the trailing coordinates form the block whose partial
    effect is under test. Responses are validated to be symmetric positive
    definite on construction, so downstream fitting code can skip per-call
    checks.
    """

    covariates: np.ndarray
    responses: np.ndarray
    p1: int

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise InvalidInputError(f"covariates: expected shape (n, p), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("covariates: non-finite entries")
        q = _validate_responses(self.responses, EPS_PD)
        if q.shape[0] != x.shape[0]:
            raise InvalidInputError(
                f"sample mismatch: {x.shape[0]} covariate rows vs {q.shape[0]} responses"
            )
        if not is_integer(self.p1):
            raise InvalidInputError(f"p1 must be an integer, got {self.p1!r}")
        p1 = int(self.p1)
        if not 0 <= p1 <= x.shape[1]:
            raise InvalidInputError(f"p1 must lie in [0, {x.shape[1]}], got {self.p1}")
        x = x.copy()
        x.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", q)
        object.__setattr__(self, "p1", p1)

    @property
    def n(self):
        return self.covariates.shape[0]

    @property
    def p(self):
        return self.covariates.shape[1]

    @property
    def d(self):
        return self.responses.shape[-1]

    def subset(self, indices):
        """New dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices)
        return Dataset(self.covariates[idx], self.responses[idx], self.p1)


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the weighted Frechet mean descent.

    A fit stops when the gradient norm is at most ``grad_tol`` times the
    trace of the iterate, after ``max_iters`` iterations, or when the line
    search finds no descent step. ``eps_pd`` is the relative threshold below
    which an iterate counts as not positive definite.
    """

    max_iters: int = 500
    grad_tol: float = 1e-8
    eps_pd: float = EPS_PD

    def __post_init__(self):
        if not is_integer(self.max_iters) or self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.grad_tol <= 0:
            raise InvalidInputError("grad_tol must be positive")


# Backtracking line search: the step lengths tried in turn, 1, 1/2, ..., 2^-26;
# when none of them lowers the objective the descent stops.
_STEPS = tuple(0.5**k for k in range(27))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one weighted Frechet mean computation."""

    mean: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    objective: float


def _eval_state(s, qs, trq, eps_pd):
    """Objective pieces at iterate s: roots of W Q_i W and squared distances.

    W = S^{1/2}. Returns (W^{-1}, V, r, d2), or None when s is not positive
    definite at ``eps_pd``.
    """
    vals, vecs = np.linalg.eigh(s)
    if not_pd(vals, eps_pd):
        return None
    root = np.sqrt(vals)
    w, wi = (vecs * root) @ vecs.T, (vecs / root) @ vecs.T
    mid = w @ qs @ w
    mvals, mvecs = np.linalg.eigh(sym_part(mid))
    r = np.sqrt(np.clip(mvals, 0.0, None))
    d2 = np.trace(s) + trq - 2.0 * r.sum(axis=1)
    return wi, mvecs, r, d2


def _initial_iterate(qs, weights, eps_pd):
    """The weighted Euclidean average of the responses, if positive definite.

    Otherwise, as negative weights can make it, the square of the plain mean
    of the responses' square roots.
    """
    start = sym_part(np.tensordot(weights, qs, axes=(0, 0)) / max(weights.sum(), 1.0))
    if not_pd(np.linalg.eigvalsh(start), eps_pd):
        vals, vecs = np.linalg.eigh(qs)
        roots = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.transpose(0, 2, 1)
        mean_root = roots.mean(axis=0)
        start = sym_part(mean_root @ mean_root)
    return start


def _gradient(weights, wi, mvecs, r, wbar):
    """Gradient (1/n) sum_i w_i T_i - mean(w) I from the eigen-state at an iterate.

    T_i = W^{-1} V_i diag(r_i) V_i^T W^{-1}. The contraction stays a plain
    ``einsum``: a BLAS ``tensordot`` is about 9x faster at n = 400, d = 6,
    but its different rounding moves fits that stall at the rounding floor
    of the objective, and which of them count as converged changes with it.
    """
    p = np.einsum("i,iab,ib,icb->ac", weights, mvecs, r, mvecs) / weights.shape[0]
    return sym_part(wi @ p @ wi) - wbar * np.eye(wi.shape[0])


def _fit_mean(qs, weights, options):
    """Descent loop on pre-validated response stack ``qs``.

    Each pass computes the gradient at the current iterate and stops when
    its norm is at most ``grad_tol`` times the iterate's trace (converged) or
    when ``max_iters`` steps have been taken; otherwise it takes the longest
    step in ``_STEPS`` that keeps the iterate positive definite and lowers
    the objective, and stops unconverged when none does. ``iterations``
    reports min(steps taken + 1, ``max_iters``).

    Returns the ``FitResult`` and the eigen-state (W^{-1}, V, r) at the
    returned mean S: W = S^{1/2}, and V_i, r_i**2 are the eigenvectors and
    eigenvalues of W Q_i W, so the transport map from S to Q_i is
    W^{-1} V_i diag(r_i) V_i^T W^{-1} (see ``TransportBatch.from_state``).

    Raises ``IllConditionedError`` when the initial iterate is not positive
    definite at the solver threshold.
    """
    n, d = qs.shape[0], qs.shape[-1]
    trq = np.trace(qs, axis1=1, axis2=2)
    eye = np.eye(d)
    s = _initial_iterate(qs, weights, options.eps_pd)
    state = _eval_state(s, qs, trq, options.eps_pd)
    if state is None:
        raise IllConditionedError(
            "initial iterate is not positive definite at the solver threshold"
        )
    wi, mvecs, r, d2 = state
    obj = float(np.dot(weights, d2) / n)
    wbar = weights.mean()
    steps = 0
    while True:
        # gradient-like direction: average of weighted transport maps minus identity
        g = _gradient(weights, wi, mvecs, r, wbar)
        grad_norm = float(np.linalg.norm(g))
        converged = bool(grad_norm <= options.grad_tol * np.trace(s))
        if converged or steps == options.max_iters:
            break
        gvals = np.linalg.eigvalsh(g)
        for eta in _STEPS:
            if 1.0 + eta * gvals[0] <= options.eps_pd:
                continue
            step = eye + eta * g
            cand = sym_part(step @ s @ step)
            state = _eval_state(cand, qs, trq, options.eps_pd)
            if state is None:
                continue
            cand_obj = float(np.dot(weights, state[3]) / n)
            if cand_obj < obj:
                s = cand
                wi, mvecs, r, d2 = state
                obj = cand_obj
                break
        else:
            break
        steps += 1

    iterations = min(steps + 1, options.max_iters)
    if not converged:
        warnings.warn(
            f"weighted Frechet mean did not converge in {iterations} iterations "
            f"(gradient norm {grad_norm:.3g}); returning best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    fit = FitResult(
        mean=s,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        objective=obj,
    )
    return fit, (wi, mvecs, r)


def weighted_frechet_mean(responses, weights, options=None):
    """Weighted Frechet mean of SPD matrices under the BW metric.

    Parameters
    ----------
    responses : array_like, shape (n, d, d)
        SPD matrices.
    weights : array_like, shape (n,)
        Real weights, possibly negative; their sum must be positive.
    options : SolverOptions, optional

    Returns
    -------
    FitResult
        ``converged`` is False when the descent stalled before reaching the
        gradient tolerance; the best iterate found is still returned and a
        RuntimeWarning is emitted.
    """
    options = options or SolverOptions()
    qs = _validate_responses(responses, options.eps_pd)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (qs.shape[0],):
        raise InvalidInputError(
            f"weights: expected shape ({qs.shape[0]},), got {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError("weights: non-finite entries")
    if weights.sum() <= 0:
        raise InvalidInputError("weights must have positive sum")
    return _fit_mean(qs, weights, options)[0]


def regression_weights(x, covariates, moments):
    """Linear regression weights w(x, X_i) = 1 + (x - mean)' cov^{-1} (X_i - mean).

    These average to one over the sample used to build ``moments``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (moments.p,):
        raise InvalidInputError(f"x: expected shape ({moments.p},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x: non-finite entries")
    inv = moments.require_cov_inv()
    xc = np.asarray(covariates, dtype=float) - moments.mean
    return 1.0 + xc @ (inv @ (x - moments.mean))


def frechet_regress(data, x, moments=None, options=None):
    """Global Frechet regression estimate of the conditional mean at ``x``.

    Parameters
    ----------
    data : Dataset
    x : array_like, shape (p,)
        Query covariate value.
    moments : CovariateMoments, optional
        Defaults to the moments of ``data.covariates``; pass explicitly to
        reuse across queries or to fit against a different reference sample.
    options : SolverOptions, optional

    Returns
    -------
    FitResult
    """
    if moments is None:
        moments = CovariateMoments.from_covariates(data.covariates, data.p1)
    options = options or SolverOptions()
    w = regression_weights(x, data.covariates, moments)
    if w.sum() <= 0:
        raise InvalidInputError("regression weights at x have nonpositive sum")
    return _fit_mean(data.responses, w, options)[0]
