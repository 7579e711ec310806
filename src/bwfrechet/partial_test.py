"""Sample-split partial-effect test for Frechet regression on SPD responses.

The null hypothesis is that the trailing covariate block has no partial
effect on the conditional Frechet mean given the leading (retained) block.
The data are split in half. First-half fits define the regression operator
and a linear imputation of the trailing block from the retained block; the
statistic aggregates, over second-half points, the curvature-weighted
discrepancy between the fit at the observed covariates and the fit with the
trailing block imputed away. The null distribution is a weighted chi-squared
mixture whose weights are the eigenvalues of a kernel over the fitting half
that mirrors the first-order expansion of the statistic, calibrated by Monte
Carlo.

Both the statistic and the kernel come from the transport maps at the
imputed evaluation points. They are accumulated point by point from each
fit's final solver state, in fixed-size blocks and in index order, so the
transports are never stored: memory is O(n1^2) for the kernel plus one
block of solver states, and results are bit-identical for any thread count.
"""

import contextlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnreliableResultError
from .frechet import (
    CovariateMoments,
    Dataset,
    SolverOptions,
    _fit_mean,
    regression_weights,
)
from .manifold import (
    TransportBatch,
    sym_coords,
    sym_dim,
    sym_part,
    weighted_dt_matrix,
)


@dataclass(frozen=True)
class SplitDataset:
    """A dataset with a fixed half split and cached first-half moments.

    The first ``n1`` rows are the fitting half, the remaining ``n2`` rows the
    evaluation half. ``moments`` are first-half covariate moments (divisor
    n1).
    """

    data: Dataset
    n1: int
    n2: int
    moments: CovariateMoments

    @property
    def first_covariates(self):
        return self.data.covariates[: self.n1]

    @property
    def second_covariates(self):
        return self.data.covariates[self.n1 :]

    @property
    def first_responses(self):
        return self.data.responses[: self.n1]

    @property
    def second_responses(self):
        return self.data.responses[self.n1 :]


def split_dataset(data, permute_seed=None):
    """Split a dataset in half for the partial-effect test.

    The first ceil(n/2) rows form the fitting half. Pass ``permute_seed`` to
    apply a seeded random permutation before splitting; by default the given
    row order is kept, which preserves reproducibility for data that are
    already exchangeable.
    """
    if data.n < 4:
        raise InvalidInputError(f"need at least 4 samples to split, got {data.n}")
    if data.p1 < 1:
        raise InvalidInputError("the retained block must contain at least one covariate")
    if data.p - data.p1 < 1:
        raise InvalidInputError(
            "the tested trailing block must contain at least one covariate (p1 < p)"
        )
    if permute_seed is not None:
        perm = np.random.default_rng(np.random.SeedSequence(permute_seed)).permutation(data.n)
        data = data.subset(perm)
    n1 = (data.n + 1) // 2
    n2 = data.n - n1
    moments = CovariateMoments.from_covariates(data.covariates[:n1], data.p1)
    return SplitDataset(data=data, n1=n1, n2=n2, moments=moments)


def impute_z(y, moments):
    """Best linear prediction of the trailing block from the retained block.

    zhat(y) = mean_z + cov_zy cov_yy^{-1} (y - mean_y), with all moments taken
    from ``moments``. Accepts a single row (p1,) or a stack (k, p1).
    """
    y = np.asarray(y, dtype=float)
    p1 = moments.p1
    if p1 < 1:
        raise InvalidInputError("imputation requires a nonempty retained block")
    if y.shape[-1] != p1:
        raise InvalidInputError(f"y: expected trailing dimension {p1}, got {y.shape}")
    inv11 = moments.require_cov11_inv()
    cov21 = moments.cov[p1:, :p1]
    yc = y - moments.mean[:p1]
    return moments.mean[p1:] + yc @ inv11 @ cov21.T


def imputed_covariates(x, moments):
    """Covariate rows with the trailing block replaced by its imputation."""
    x = np.asarray(x, dtype=float)
    p1 = moments.p1
    y = x[..., :p1]
    return np.concatenate([y, impute_z(y, moments)], axis=-1)


# Imputed points fitted and evaluated together: the solver states of one
# block, O(_BLOCK n1 d^2) doubles, are all the evaluation holds besides the
# n1 x n1 kernel.
_BLOCK = 32


@contextlib.contextmanager
def _fit_pool(threads):
    """Thread pool for the fits (None for one thread), with solver warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                yield pool
        else:
            yield None


def _fit_rows(q, x_fit, moments, rows, options, pool):
    """Regression fits at covariate ``rows``, in order, without solver state."""
    def fit(x):
        return _fit_mean(q, regression_weights(x, x_fit, moments), options)[0]

    return [fit(x) for x in rows] if pool is None else list(pool.map(fit, rows))


def _evaluation_fits(q, x_fit, moments, x_eval, x_hat, options, pool):
    """Fits at the evaluation rows and at their imputations, streamed into the test.

    Every fit uses the responses ``q`` with weights from the fitting rows
    ``x_fit`` and their ``moments``. The imputed rows ``x_hat`` are fitted
    in blocks of ``_BLOCK`` (on ``pool`` when given), and each point k is
    then evaluated from its solver's final eigen-state, in index order:

    - the transports T_ki to every response, whose centred coordinates,
      scaled by the regression-weight gap dw_k = w(x_k) - w(xhat_k),
      form the rows U_k that the kernel sum_k U_k U_k^T / n^2 adds up;
    - the m x m matrix of the curvature H_k = -(1/n) sum_i w_i dT_i, which
      gives the statistic term ||H_k (observed fit - imputed fit)||_F^2
      and the smallest curvature eigenvalue, and is then dropped.

    Reductions run in this fixed order, so results are bit-identical for
    any thread count, and no n_eval x n x d x d transport stack exists.

    Returns (fits at ``x_eval``, fits at ``x_hat``, statistic, kernel,
    smallest curvature eigenvalue).
    """
    n, d = q.shape[0], q.shape[-1]
    m = sym_dim(d)
    fits_observed = _fit_rows(q, x_fit, moments, x_eval, options, pool)
    dw_map = moments.require_cov_inv() @ (x_fit - moments.mean).T
    gap = x_eval - x_hat
    eye = np.eye(d)

    def fit(w):
        return _fit_mean(q, w, options)

    fits_imputed = []
    kernel = np.zeros((n, n))
    total = 0.0
    min_eig = np.inf
    for start in range(0, len(x_eval), _BLOCK):
        rows = range(start, min(start + _BLOCK, len(x_eval)))
        weights = [regression_weights(x_hat[k], x_fit, moments) for k in rows]
        fitted = [fit(w) for w in weights] if pool is None else list(pool.map(fit, weights))
        dw = gap[start : rows.stop] @ dw_map
        u = np.empty((n, len(rows), m))
        for j, (k, w, (result, state)) in enumerate(zip(rows, weights, fitted)):
            batch = TransportBatch.from_state(*state)
            cong, gamma = batch.dt_factors()
            hessian = -weighted_dt_matrix(cong, gamma, w / n)
            image = hessian @ sym_coords(fits_observed[k].mean - result.mean)
            total += float(image @ image)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(hessian)[0]))
            u[:, j] = dw[j][:, None] * sym_coords(batch.maps() - eye)
            fits_imputed.append(result)
        flat = u.reshape(n, -1)
        kernel += flat @ flat.T
    kernel = sym_part(kernel / (n * n))
    kernel.flags.writeable = False
    return fits_observed, fits_imputed, total, kernel, min_eig


def _means(results):
    return np.stack([r.mean for r in results])


@dataclass
class FirstHalfFit:
    """The first-half regression fits and what the test builds from them.

    ``means_first[k]`` is the fit at the k-th first-half covariate row,
    ``means_second[k]`` the fit at the k-th second-half row, and
    ``means_second_imputed[k]`` the fit at that row with the trailing block
    imputed from the retained block (``xhat_second[k]``). ``discrepancy``
    is the statistic before its reliability gate and ``kernel`` the n1 x n1
    calibration kernel; both are accumulated point by point while the
    imputed fits run, so the transport maps and curvature operators at the
    imputed points are never stored and the memory held is O(n1^2).
    ``min_hessian_eigenvalue`` is the smallest curvature eigenvalue over
    those points. All fits use first-half responses and first-half
    moments only; ``n_fits`` and ``nonconverged`` count all of them.
    """

    split: SplitDataset
    options: SolverOptions
    xhat_second: np.ndarray
    means_first: np.ndarray
    means_second: np.ndarray
    means_second_imputed: np.ndarray
    discrepancy: float
    kernel: np.ndarray
    n_fits: int
    nonconverged: int
    min_hessian_eigenvalue: float


def fit_first_half(split, options=None, threads=1):
    """Run every regression fit the partial-effect test needs.

    Fits are mutually independent, so ``threads`` > 1 distributes them over a
    thread pool; results are assembled in index order and are bit-identical
    for any thread count.
    """
    options = options or SolverOptions()
    m = split.moments
    q1 = split.first_responses
    x1 = split.first_covariates
    xhat2 = imputed_covariates(split.second_covariates, m)
    with _fit_pool(threads) as pool:
        fits_first = _fit_rows(q1, x1, m, x1, options, pool)
        fits_second, fits_imputed, discrepancy, kernel, min_eig = _evaluation_fits(
            q1, x1, m, split.second_covariates, xhat2, options, pool
        )
    results = fits_first + fits_second + fits_imputed
    return FirstHalfFit(
        split=split,
        options=options,
        xhat_second=xhat2,
        means_first=_means(fits_first),
        means_second=_means(fits_second),
        means_second_imputed=_means(fits_imputed),
        discrepancy=discrepancy,
        kernel=kernel,
        n_fits=len(results),
        nonconverged=sum(not r.converged for r in results),
        min_hessian_eigenvalue=min_eig,
    )


def _check_reliability(nonconverged, n_fits, max_nonconverged):
    frac = nonconverged / max(n_fits, 1)
    if frac > max_nonconverged:
        raise UnreliableResultError(
            f"{nonconverged} of {n_fits} regression fits did not converge "
            f"(fraction {frac:.3f} exceeds {max_nonconverged})"
        )


def test_statistic(fit, max_nonconverged=0.05):
    """Curvature-weighted discrepancy statistic over the evaluation half.

    Sums, over second-half points, the squared Frobenius norm of the
    imputed-point curvature operator applied to the difference between the
    observed-covariate fit and the imputed-covariate fit. Raises
    ``UnreliableResultError`` when too many underlying fits failed to
    converge.
    """
    _check_reliability(fit.nonconverged, fit.n_fits, max_nonconverged)
    return fit.discrepancy


def kernel_matrix(fit):
    """Calibration kernel over the fitting half, shape (n1, n1), read-only.

    Mirrors the expansion of the statistic itself: the influence of fitting
    sample i at evaluation point k is the regression-weight gap between the
    observed and the imputed covariate row times the centered transport from
    the imputed-point base toward response i. Entry (i, j) sums the
    Frobenius inner products of these influences over evaluation points, so
    the total of the clipped eigenvalues tracks the sampling expectation of
    the statistic. Symmetric PSD by construction; :func:`fit_first_half`
    accumulates it.
    """
    return fit.kernel


def null_eigenvalues(kernel):
    """Eigenvalues of the kernel, clipped at zero, descending."""
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise InvalidInputError(f"kernel: expected a square matrix, got {kernel.shape}")
    if not np.all(np.isfinite(kernel)):
        raise InvalidInputError("kernel: non-finite entries")
    scale = max(np.abs(kernel).max(), 1e-300)
    if np.abs(kernel - kernel.T).max() > 1e-10 * scale:
        raise InvalidInputError("kernel: not symmetric")
    vals = np.linalg.eigvalsh(sym_part(kernel))
    return np.clip(vals, 0.0, None)[::-1].copy()


# ---------------------------------------------------------------------------
# chi-squared mixture calibration
# ---------------------------------------------------------------------------

def _validated_lambdas(lambdas):
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.size and not np.all(np.isfinite(lam)):
        raise InvalidInputError("mixture weights: non-finite entries")
    if lam.size and lam.min() < 0:
        raise InvalidInputError("mixture weights must be nonnegative")
    return lam


def _mixture_draws(lambdas, draws, seed):
    """Monte Carlo sample of sum_j lambda_j chi2_1, deterministic in ``seed``.

    Generated in fixed-size chunks in a fixed order so the result depends
    only on (lambdas, draws, seed).
    """
    lam = _validated_lambdas(lambdas)
    draws = int(draws)
    if draws < 1000:
        raise InvalidInputError(f"need at least 1000 Monte Carlo draws, got {draws}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty(draws)
    width = max(lam.size, 1)
    chunk = max(1, int(4_000_000 // width))
    for start in range(0, draws, chunk):
        stop = min(start + chunk, draws)
        z = rng.standard_normal((stop - start, lam.size))
        out[start:stop] = np.square(z) @ lam
    return out


def _quantile_from_draws(draw_values, alpha):
    b = draw_values.size
    k = math.ceil(b * (1.0 - alpha))
    k = min(max(k, 1), b)
    return float(np.partition(draw_values, k - 1)[k - 1])


def _p_from_draws(draw_values, statistic):
    b = draw_values.size
    return float((1 + int((draw_values >= statistic).sum())) / (b + 1))


def mixture_quantile(lambdas, alpha, draws=100_000, seed=0):
    """Upper-alpha quantile of the weighted chi-squared mixture.

    Uses the ceil(B(1-alpha))-th order statistic of B seeded Monte Carlo
    draws of sum_j lambda_j chi2_1.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    return _quantile_from_draws(_mixture_draws(lambdas, draws, seed), alpha)


def p_value(statistic, lambdas, draws=100_000, seed=0):
    """Monte Carlo p-value (1 + #{draws >= statistic}) / (B + 1)."""
    statistic = float(statistic)
    if not np.isfinite(statistic):
        raise InvalidInputError("statistic must be finite")
    return _p_from_draws(_mixture_draws(lambdas, draws, seed), statistic)


# ---------------------------------------------------------------------------
# end-to-end test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestOptions:
    """Options for :func:`run_partial_test`."""

    alpha: float = 0.05
    mc_draws: int = 100_000
    seed: int = 0
    threads: int = 1
    permute_seed: int | None = None
    max_nonconverged: float = 0.05
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.threads < 1:
            raise InvalidInputError("threads must be at least 1")
        if not 0.0 <= self.max_nonconverged <= 1.0:
            raise InvalidInputError("max_nonconverged must lie in [0, 1]")


@dataclass(frozen=True)
class TestDiagnostics:
    """Reliability counters from one run of the partial-effect test."""

    n1: int
    n2: int
    n_fits: int
    nonconverged: int
    min_hessian_eigenvalue: float


@dataclass(frozen=True)
class TestResult:
    """Outcome of the partial-effect test."""

    statistic: float
    p_value: float
    quantile: float
    reject: bool
    alpha: float
    eigenvalues: np.ndarray
    mc_draws: int
    seed: int
    diagnostics: TestDiagnostics


def run_partial_test(data, options=None):
    """Test whether the trailing covariate block has a partial effect.

    Splits the data, fits the fitting half, computes the discrepancy
    statistic over the evaluation half, calibrates against the estimated
    chi-squared mixture, and compares at level alpha. The quantile and the
    p-value are computed from one shared set of Monte Carlo draws; the
    public :func:`mixture_quantile` and :func:`p_value` regenerate the same
    draws from the same seed.

    Raises
    ------
    InvalidInputError
        If the trailing covariate block is empty (p1 == p) or the data are
        too small to split.
    UnreliableResultError
        If more than ``options.max_nonconverged`` of the regression fits
        failed to converge.
    """
    options = options or TestOptions()
    if data.p1 < 1 or data.p1 >= data.p:
        raise InvalidInputError(
            "the partial-effect test needs a nonempty retained block and a "
            f"nonempty tested trailing block; got p1={data.p1}, p={data.p}"
        )
    split = split_dataset(data, options.permute_seed)
    fit = fit_first_half(split, options.solver, options.threads)
    statistic = test_statistic(fit, options.max_nonconverged)
    kernel = kernel_matrix(fit)
    lam = null_eigenvalues(kernel)
    draw_values = _mixture_draws(lam, options.mc_draws, options.seed)
    quantile = _quantile_from_draws(draw_values, options.alpha)
    pval = _p_from_draws(draw_values, statistic)
    diagnostics = TestDiagnostics(
        n1=split.n1,
        n2=split.n2,
        n_fits=fit.n_fits,
        nonconverged=fit.nonconverged,
        min_hessian_eigenvalue=fit.min_hessian_eigenvalue,
    )
    return TestResult(
        statistic=statistic,
        p_value=pval,
        quantile=quantile,
        reject=bool(statistic > quantile),
        alpha=options.alpha,
        eigenvalues=lam,
        mc_draws=options.mc_draws,
        seed=options.seed,
        diagnostics=diagnostics,
    )


def no_split_statistic(data, options=None):
    """Full-sample analogue of the discrepancy statistic, for diagnostics only.

    The statistic of :func:`test_statistic` computed by the same code with
    every sample used for fitting, imputation and evaluation, so its null
    distribution is not the calibrated mixture; no p-value is defined for
    it. Useful for measuring what the half split costs.

    Raises ``UnreliableResultError`` when more than
    ``options.max_nonconverged`` of its 2n fits failed to converge, as
    :func:`run_partial_test` does.
    """
    options = options or TestOptions()
    if data.p1 < 1 or data.p1 >= data.p:
        raise InvalidInputError(
            "the no-split diagnostic needs a nonempty retained block and a "
            f"nonempty tested trailing block; got p1={data.p1}, p={data.p}"
        )
    x = data.covariates
    moments = CovariateMoments.from_covariates(x, data.p1)
    with _fit_pool(options.threads) as pool:
        fits_observed, fits_imputed, discrepancy, _, _ = _evaluation_fits(
            data.responses, x, moments, x, imputed_covariates(x, moments),
            options.solver, pool,
        )
    results = fits_observed + fits_imputed
    _check_reliability(
        sum(not r.converged for r in results), len(results), options.max_nonconverged
    )
    return discrepancy
