"""Weighted Frechet means and global Frechet regression for SPD responses.

The conditional mean estimator is the minimizer of a linearly reweighted sum
of squared Bures-Wasserstein distances; the weights come from the covariate
second-moment structure and can be negative, so the objective is minimized by
projected gradient descent with backtracking rather than a fixed-point sweep.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidInputError,
    SingularError,
)
from .manifold import EPS_PD, TransportBatch, not_pd, spd_eigh, sym_part


def is_integer(value):
    """True for an integral number that is not a bool, the rule for every integer input."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """True for a finite real number that is not a bool, the rule for every real input."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# the rule for each field annotation that check_fields enforces, and how its
# error names it
_FIELD_RULES = {
    int: (is_integer, "an integer"),
    float: (is_real, "a number"),
    int | None: (lambda value: value is None or is_integer(value), "an integer or None"),
}


def check_fields(obj, error=InvalidInputError):
    """Raise ``error`` at the first field of dataclass ``obj`` that breaks its annotation's rule."""
    for f in fields(obj):
        check, what = _FIELD_RULES.get(f.type, (None, None))
        value = getattr(obj, f.name)
        if check is not None and not check(value):
            raise error(f"{f.name} must be {what}, got {value!r}")


def _validate_responses(responses, name="responses"):
    responses = np.asarray(responses, dtype=float)
    if responses.ndim != 3 or responses.shape[0] < 1:
        raise InvalidInputError(f"{name}: expected shape (n, d, d), n >= 1, got {responses.shape}")
    return spd_eigh(responses, name, InvalidInputError)[0]


def _check_covariates(x, p1):
    """Covariate rule: a finite (n, p) array, n >= 1, and p1 an integer in [0, p]; returns int(p1)."""
    if x.ndim != 2:
        raise InvalidInputError(f"covariates: expected shape (n, p), got {x.shape}")
    if x.shape[0] < 1:
        raise InvalidInputError("covariates: need at least one row")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("covariates: non-finite entries")
    if not is_integer(p1):
        raise InvalidInputError(f"p1 must be an integer, got {p1!r}")
    if not 0 <= p1 <= x.shape[1]:
        raise InvalidInputError(f"p1 must lie in [0, {x.shape[1]}], got {p1}")
    return int(p1)


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
        p1 = _check_covariates(x, p1)
        n = x.shape[0]
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
        p1 = _check_covariates(x, self.p1)
        q = _validate_responses(self.responses)
        if q.shape[0] != x.shape[0]:
            raise InvalidInputError(
                f"sample mismatch: {x.shape[0]} covariate rows vs {q.shape[0]} responses"
            )
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
    """Stopping rule of the weighted Frechet mean descent.

    A fit stops when the gradient norm is at most ``grad_tol`` sqrt(d), a
    verdict free of the responses' units, after ``max_iters`` iterations, or
    when the line search accepts no step. Every iterate is positive definite
    at ``manifold.EPS_PD``, the one threshold of the package.
    """

    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        check_fields(self)
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.grad_tol <= 0:
            raise InvalidInputError(f"grad_tol must be positive, got {self.grad_tol}")


# Backtracking line search: the step lengths tried in turn, 1, 1/2, ..., 2^-26;
# when none of them is accepted the descent stops.
_STEPS = tuple(0.5**k for k in range(27))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one weighted Frechet mean computation."""

    mean: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    objective: float


def _eval_state(s, qs, trq):
    """Objective pieces at iterate s: the transports to the responses and squared distances.

    Returns (batch, d2), with ``batch`` the ``TransportBatch`` from s to the
    responses, or None when s is not positive definite.
    """
    vals, vecs = np.linalg.eigh(s)
    if not_pd(vals):
        return None
    batch = TransportBatch.from_eigh(vals, vecs, qs)
    d2 = np.trace(s) + trq - 2.0 * batch.sqrt_mu.sum(axis=1)
    return batch, d2


def start_state(qs):
    """The start of every fit on response stack ``qs``, evaluated once.

    The start is the plain Euclidean mean of the responses, whatever the
    weights, so one evaluation serves every fit on the same responses.
    Returns (s, trq, batch, d2): the start, the responses' traces, and
    :func:`_eval_state` at the start.

    Raises ``IllConditionedError`` when the start is not positive definite;
    for responses that pass ``_validate_responses`` this cannot happen, as
    the mean's ratio lambda_min / lambda_max is at least the smallest such
    ratio among the responses, so the check is only a safeguard.
    """
    trq = np.trace(qs, axis1=1, axis2=2)
    s = qs.mean(axis=0)
    state = _eval_state(s, qs, trq)
    if state is None:
        raise IllConditionedError("initial iterate is not positive definite")
    return (s, trq) + state


def _fit_mean(qs, weights, options, start=None):
    """Descent loop on pre-validated response stack ``qs``.

    Starts from ``start``, the :func:`start_state` of ``qs``, which is built
    here when not given. Each pass computes the gradient at the current
    iterate and stops when its norm is at most ``grad_tol`` sqrt(d), with
    sqrt(d) the norm of I (converged), or when ``max_iters`` steps have been
    taken; otherwise it takes the longest step in ``_STEPS`` that keeps the
    iterate positive definite and is accepted, and stops unconverged when
    none is. The gradient is a combination of transport maps, which Q -> cQ
    leaves unchanged, so the verdict does not depend on the units of Q.
    A step is accepted when it lowers the objective by more than the
    objective's rounding floor 16 eps sum_i |w_i| (tr S + tr Q_i +
    2 sum_p sqrt(mu_ip) + max_p mu_ip sum_p mu_ip^(-1/2)) / n, the last term
    the roots' error from eigenvalues off by eps max_p mu_ip (zero roots add
    nothing), or when its objective lies within that floor of the current
    one and it lowers the gradient norm: there the objective cannot rank the
    two iterates, and the gradient, which has no cancellation, can.
    ``iterations`` reports min(steps taken + 1, ``max_iters``), and
    ``converged`` alone reports an unconverged fit: this loop never warns.

    Returns the ``FitResult`` and the ``TransportBatch`` from the returned
    mean to the responses, which the solver built at that iterate.
    """
    s, trq, batch, d2 = start_state(qs) if start is None else start
    n, eye = qs.shape[0], np.eye(qs.shape[-1])
    wbar = weights.mean()
    eps = np.finfo(float).eps

    def gradient(batch):
        # average of weighted transport maps minus identity, and its norm
        g = batch.mean_map(weights) - wbar * eye
        return g, float(np.linalg.norm(g))

    obj = float(np.dot(weights, d2) / n)
    g, grad_norm = gradient(batch)
    steps = 0
    while True:
        converged = bool(grad_norm <= options.grad_tol * math.sqrt(qs.shape[-1]))
        if converged or steps == options.max_iters:
            break
        root = batch.sqrt_mu
        inv = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        noise = np.trace(s) + trq + 2.0 * root.sum(axis=1) + root[:, -1] ** 2 * inv.sum(axis=1)
        floor = 16.0 * eps * float(np.dot(np.abs(weights), noise)) / n
        gvals = np.linalg.eigvalsh(g)
        for eta in _STEPS:
            if 1.0 + eta * gvals[0] <= EPS_PD:
                continue
            step = eye + eta * g
            cand = sym_part(step @ s @ step)
            state = _eval_state(cand, qs, trq)
            if state is None:
                continue
            cand_obj = float(np.dot(weights, state[1]) / n)
            if cand_obj > obj + floor:
                continue
            cand_g, cand_norm = gradient(state[0])
            if cand_obj < obj - floor or cand_norm < grad_norm:
                s, batch, obj, g, grad_norm = cand, state[0], cand_obj, cand_g, cand_norm
                break
        else:
            break
        steps += 1

    fit = FitResult(
        mean=s,
        converged=converged,
        iterations=min(steps + 1, options.max_iters),
        grad_norm=grad_norm,
        objective=obj,
    )
    return fit, batch


def _reported(fit):
    """Warn, at the line that called the public fit function, when ``fit`` did not converge."""
    if not fit.converged:
        warnings.warn(
            f"weighted Frechet mean did not converge in {fit.iterations} iterations "
            f"(gradient norm {fit.grad_norm:.3g}); returning best iterate",
            RuntimeWarning,
            stacklevel=3,
        )
    return fit


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
    qs = _validate_responses(responses)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (qs.shape[0],):
        raise InvalidInputError(
            f"weights: expected shape ({qs.shape[0]},), got {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError("weights: non-finite entries")
    if weights.sum() <= 0:
        raise InvalidInputError("weights must have positive sum")
    return _reported(_fit_mean(qs, weights, options)[0])


def regression_weights(x, covariates, moments):
    """Linear regression weights w(x, X_i) = 1 + (x - mean)' cov^{-1} (X_i - mean).

    These average to one over the sample used to build ``moments``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (moments.p,):
        raise InvalidInputError(f"x: expected shape ({moments.p},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x: non-finite entries")
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[1] != moments.p:
        raise InvalidInputError(f"covariates: need {moments.p} columns, got shape {covariates.shape}")
    return 1.0 + (covariates - moments.mean) @ (moments.require_cov_inv() @ (x - moments.mean))


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
        An unconverged fit warns as in :func:`weighted_frechet_mean`.
    """
    if moments is None:
        moments = CovariateMoments.from_covariates(data.covariates, data.p1)
    options = options or SolverOptions()
    w = regression_weights(x, data.covariates, moments)
    if w.sum() <= 0:
        raise InvalidInputError("regression weights at x have nonpositive sum")
    return _reported(_fit_mean(data.responses, w, options)[0])
