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
"""

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
    SymOperator,
    TransportBatch,
    sym_coords,
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


def _evaluation_fits(q, x_fit, moments, observed, imputed, options, threads, transports=None):
    """Regression fits at observed and imputed rows, and the curvature at the latter.

    Every fit uses the responses ``q`` with weights from the fitting rows
    ``x_fit`` and their ``moments``. At the k-th imputed fit the curvature
    operator -(1/n) sum_i w_i dT_i is formed under that point's weights, and
    the transport maps to every response are stored in ``transports[k]``
    when an array is given. Fits are mutually independent, so ``threads`` >
    1 spreads them over a thread pool; results are assembled in index order
    and are bit-identical for any thread count. The curvature runs after
    all fits, in index order: built inside each fit's task, it made
    :func:`fit_first_half` about 20% slower at n = 800 (example 1, d = 6).

    Returns (fits at ``observed``, fits at ``imputed``, curvature operators).
    """
    n, d = q.shape[0], q.shape[-1]
    n_obs = len(observed)
    imputed_weights = [regression_weights(x, x_fit, moments) for x in imputed]

    def fit_at(j):
        if j < n_obs:
            w = regression_weights(observed[j], x_fit, moments)
        else:
            w = imputed_weights[j - n_obs]
        return _fit_mean(q, w, options)

    jobs = range(n_obs + len(imputed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(fit_at, jobs))
        else:
            results = [fit_at(j) for j in jobs]

    curvatures = []
    for k, (result, w) in enumerate(zip(results[n_obs:], imputed_weights)):
        batch = TransportBatch(result.mean, q)
        if transports is not None:
            transports[k] = batch.maps()
        cong, gamma = batch.dt_factors()
        curvatures.append(SymOperator(d, -weighted_dt_matrix(cong, gamma, w / n)))
    return results[:n_obs], results[n_obs:], curvatures


def _discrepancy(means_observed, means_imputed, curvatures):
    """Sum over evaluation points k of ||H_k (observed fit - imputed fit)||_F^2."""
    total = 0.0
    for delta, hessian in zip(means_observed - means_imputed, curvatures):
        image = hessian.apply(delta)
        total += float(np.sum(image * image))
    return total


def _means(results):
    return np.stack([r.mean for r in results])


@dataclass
class FirstHalfFit:
    """The first-half regression fits that the statistic and the kernel reuse.

    ``means_first[k]`` is the fit at the k-th first-half covariate row,
    ``means_second[k]`` the fit at the k-th second-half row, and
    ``means_second_imputed[k]`` the fit at that row with the trailing block
    imputed from the retained block (``xhat_second[k]``).
    ``hessians_imputed[k]`` is the curvature operator at
    ``means_second_imputed[k]`` under the imputed-point weights, and
    ``transports_imputed[k, i]`` the transport map from that base to the
    i-th first-half response. All fits use first-half responses and
    first-half moments only; ``n_fits`` and ``nonconverged`` count all of
    them.
    """

    split: SplitDataset
    options: SolverOptions
    xhat_second: np.ndarray
    means_first: np.ndarray
    means_second: np.ndarray
    means_second_imputed: np.ndarray
    hessians_imputed: list
    transports_imputed: np.ndarray
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
    observed = np.concatenate([x1, split.second_covariates], axis=0)
    transports = np.empty((split.n2, split.n1, split.data.d, split.data.d))
    fits_observed, fits_imputed, hessians = _evaluation_fits(
        q1, x1, m, observed, xhat2, options, threads, transports
    )
    results = fits_observed + fits_imputed
    means = _means(fits_observed)
    min_eig = min((float(np.linalg.eigvalsh(h.matrix)[0]) for h in hessians), default=np.inf)
    return FirstHalfFit(
        split=split,
        options=options,
        xhat_second=xhat2,
        means_first=means[: split.n1],
        means_second=means[split.n1 :],
        means_second_imputed=_means(fits_imputed),
        hessians_imputed=hessians,
        transports_imputed=transports,
        n_fits=len(results),
        nonconverged=sum(1 for r in results if not r.converged),
        min_hessian_eigenvalue=float(min_eig),
    )


def _check_reliability(fit, max_nonconverged):
    frac = fit.nonconverged / max(fit.n_fits, 1)
    if frac > max_nonconverged:
        raise UnreliableResultError(
            f"{fit.nonconverged} of {fit.n_fits} regression fits did not converge "
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
    _check_reliability(fit, max_nonconverged)
    return _discrepancy(fit.means_second, fit.means_second_imputed, fit.hessians_imputed)


def kernel_matrix(fit):
    """Calibration kernel over the fitting half, shape (n1, n1).

    Mirrors the expansion of the statistic itself: the influence of fitting
    sample i at evaluation point k is the regression-weight gap between the
    observed and the imputed covariate row times the centered transport from
    the imputed-point base toward response i. Entry (i, j) sums the
    Frobenius inner products of these influences over evaluation points, so
    the total of the clipped eigenvalues tracks the sampling expectation of
    the statistic. Symmetric PSD by construction.
    """
    split = fit.split
    m = split.moments
    n1 = split.n1
    inv = m.require_cov_inv()
    x1c = split.first_covariates - m.mean
    gap = split.second_covariates - fit.xhat_second
    dw = gap @ inv @ x1c.T  # (n2, n1) weight differences
    eye = np.eye(split.data.d)
    stacks = sym_coords(fit.transports_imputed - eye)  # (n2, n1, m)
    u = dw[:, :, None] * stacks
    kern = np.tensordot(u, u, axes=([0, 2], [0, 2])) / (n1 * n1)
    return sym_part(kern)


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
    """
    options = options or TestOptions()
    if data.p1 < 1 or data.p1 >= data.p:
        raise InvalidInputError(
            "the no-split diagnostic needs a nonempty retained block and a "
            f"nonempty tested trailing block; got p1={data.p1}, p={data.p}"
        )
    x = data.covariates
    moments = CovariateMoments.from_covariates(x, data.p1)
    fits_observed, fits_imputed, hessians = _evaluation_fits(
        data.responses, x, moments, x, imputed_covariates(x, moments),
        options.solver, options.threads,
    )
    return _discrepancy(_means(fits_observed), _means(fits_imputed), hessians)
