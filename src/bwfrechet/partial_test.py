"""Sample-split partial-effect test for Frechet regression on SPD responses.

The null hypothesis is that the trailing covariate block has no partial
effect on the conditional Frechet mean given the leading (retained) block.
The data are split in half. First-half fits define the regression operator
and a linear imputation of the trailing block from the retained block; the
statistic aggregates, over second-half points, the curvature-weighted
discrepancy between the fit at the observed covariates and the fit with the
trailing block imputed away. The null distribution is a weighted chi-squared
mixture whose weights are the eigenvalues of a kernel over the fitting half
that mirrors the first-order expansion of the statistic. Its p-value and
quantile are computed exactly, by inverting the mixture's characteristic
function on a fixed trapezoid grid along a steepest-descent path, with no
random draws: the error is about 1e-14 absolute, and about 1e-13 relative in
the upper tail.

Both the statistic and the kernel come from the transport maps at the
imputed evaluation points. Each point is evaluated straight off its fit, in
index order, from the ``TransportBatch`` the solver holds at the mean, so no
transport is stored: with one thread the memory is the n1 x n1 kernel plus
one batch, and results are bit-identical for any thread count.
"""

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnreliableResultError
from .frechet import (
    CovariateMoments,
    Dataset,
    SolverOptions,
    _fit_mean,
    check_fields,
    is_integer,
    regression_weights,
    start_state,
)
from .manifold import (
    sym_coords,
    sym_dim,
    sym_part,
    weighted_dt_matrix,
)


@dataclass(frozen=True)
class SplitDataset:
    """A dataset split into fitting and evaluation rows.

    ``fit_rows`` and ``eval_rows`` are read-only index arrays into ``data``,
    the rows of the fitting and of the evaluation half; ``moments`` are the
    fitting rows' covariate moments (divisor n1). The swapped direction is
    ``SplitDataset(data, eval_rows, fit_rows, moments of the eval rows)``.
    """

    data: Dataset
    fit_rows: np.ndarray
    eval_rows: np.ndarray
    moments: CovariateMoments

    @property
    def n1(self):
        return self.fit_rows.size

    @property
    def n2(self):
        return self.eval_rows.size

    @property
    def first_covariates(self):
        return self.data.covariates[self.fit_rows]

    @property
    def second_covariates(self):
        return self.data.covariates[self.eval_rows]

    @property
    def first_responses(self):
        return self.data.responses[self.fit_rows]


def split_dataset(data, permute_seed=None):
    """Split a dataset in half for the partial-effect test.

    The first ceil(n/2) rows form the fitting half. Pass ``permute_seed`` to
    take the rows in a seeded random order instead; by default the given
    row order is kept, which preserves reproducibility for data that are
    already exchangeable. Either way ``data`` itself is neither copied nor
    checked again.
    """
    if data.n < 4:
        raise InvalidInputError(f"need at least 4 samples to split, got {data.n}")
    if data.p1 < 1:
        raise InvalidInputError("the retained block must contain at least one covariate")
    if data.p - data.p1 < 1:
        raise InvalidInputError(
            "the tested trailing block must contain at least one covariate (p1 < p)"
        )
    rows = np.arange(data.n)
    if permute_seed is not None:
        if not is_integer(permute_seed) or permute_seed < 0:
            raise InvalidInputError(f"permute_seed must be an integer >= 0, got {permute_seed!r}")
        rows = np.random.default_rng(np.random.SeedSequence(permute_seed)).permutation(data.n)
    rows.flags.writeable = False
    n1 = (data.n + 1) // 2
    moments = CovariateMoments.from_covariates(data.covariates[rows[:n1]], data.p1)
    return SplitDataset(data, rows[:n1], rows[n1:], moments)


def imputed_covariates(x, moments):
    """Covariate rows with the trailing block replaced by its imputation.

    The imputation is the best linear prediction of the trailing block z from
    the retained block y, zhat(y) = mean_z + cov_zy cov_yy^{-1} (y - mean_y),
    with all moments taken from ``moments``. Accepts a single row (p,) or a
    stack (k, p).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != moments.p:
        raise InvalidInputError(f"x: expected trailing dimension {moments.p}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x: non-finite entries")
    p1 = moments.p1
    y = x[..., :p1]
    yc = y - moments.mean[:p1]
    zhat = moments.mean[p1:] + yc @ moments.require_cov11_inv() @ moments.cov[p1:, :p1].T
    return np.concatenate([y, zhat], axis=-1)


# Evaluation points whose kernel rows are added together, and which a thread
# pool fits at a time; the rows are added in square tiles of side _TILE.
_BLOCK = 8
_TILE = 128


def _add_gram(kernel, rows):
    """kernel += rows @ rows.T in place: each diagonal tile is a symmetric rank-k
    update, each off-diagonal one is added at both places, so symmetry is exact."""
    for i in range(0, rows.shape[0], _TILE):
        a = rows[i : i + _TILE]
        kernel[i : i + _TILE, i : i + _TILE] += a @ a.T
        for j in range(i + _TILE, rows.shape[0], _TILE):
            tile = a @ rows[j : j + _TILE].T
            kernel[i : i + _TILE, j : j + _TILE] += tile
            kernel[j : j + _TILE, i : i + _TILE] += tile.T


@dataclass
class FirstHalfFit:
    """The first-half regression fits and what the test builds from them.

    ``means_second[k]`` is the fit at the k-th second-half covariate row and
    ``means_second_imputed[k]`` the fit at that row with the trailing block
    imputed from the retained block. ``discrepancy`` is the statistic
    before its reliability gate and ``kernel`` the exactly symmetric n1 x n1
    calibration kernel, both accumulated point by point, with no transport stored.
    ``min_hessian_eigenvalue`` is the smallest curvature eigenvalue over
    those points. All fits use first-half responses and first-half
    moments only, and all start from ``start``, the
    :func:`frechet.start_state` of the first-half responses; ``n_fits`` and
    ``nonconverged`` count the 2 n2 fits at the observed and the imputed
    second-half rows, the only fits the statistic and the kernel read.
    """

    split: SplitDataset
    options: SolverOptions
    start: tuple = field(repr=False)
    means_second: np.ndarray
    means_second_imputed: np.ndarray
    discrepancy: float
    kernel: np.ndarray
    n_fits: int
    nonconverged: int
    min_hessian_eigenvalue: float

    @functools.cached_property
    def means_first(self):
        """Fits at the first-half covariate rows, computed on first read.

        The test reads none of them, so they are not counted in ``n_fits``
        or ``nonconverged``; the benchmark's fit probe
        (``perfbench/workloads.py``) replays them.
        """
        s = self.split
        q1, x1, m = s.first_responses, s.first_covariates, s.moments
        fits = [_fit_mean(q1, regression_weights(x, x1, m), self.options, self.start)[0] for x in x1]
        return np.stack([r.mean for r in fits])


def fit_first_half(split, options=None, threads=1):
    """Run the 2 n2 regression fits the partial-effect test reads.

    These are the fits at the second-half covariate rows x_k and at their
    imputations xhat_k, all with first-half responses, covariates and
    moments. Every fit starts from the :func:`frechet.start_state` of the
    first-half responses, which is evaluated once here, so a fit costs only
    the evaluations of its steps, and each equals the fit that
    ``frechet_regress`` returns at the same row, bit for bit. One task per
    point k returns both of its fits, and the point is evaluated as soon as
    its task returns, in index order, from the pair factor of the
    ``TransportBatch`` that the solver returns with its imputed fit:

    - the m x m matrix of the curvature H_k = -(1/n1) sum_i w_i dT_i, which
      gives the statistic term ||H_k (observed fit - imputed fit)||_F^2
      and the smallest curvature eigenvalue;
    - the centred coordinates of the transports T_ki to every first-half
      response, scaled by the regression-weight gap dw_k = w(x_k) -
      w(xhat_k) of its two fits: the rows U_k of the exactly symmetric kernel
      sum_k U_k U_k^T / n1^2, added in place ``_BLOCK`` points at a time.

    With one thread, one point's fits and batch are all that is live; with
    ``threads`` > 1 a thread pool runs the tasks of ``_BLOCK`` points at a
    time and holds that block. Reductions run in index order in the calling
    thread, so results are bit-identical for any thread count.
    """
    options = options or SolverOptions()
    m = split.moments
    q1 = split.first_responses
    x1 = split.first_covariates
    x2 = split.second_covariates
    xhat2 = imputed_covariates(x2, m)
    n1, d = q1.shape[0], q1.shape[-1]
    start = start_state(q1)

    def fit_point(k):
        # both fits of point k, at the observed and the imputed row, their
        # weight gap, and the imputed row's weights and transports
        w_observed = regression_weights(x2[k], x1, m)
        w = regression_weights(xhat2[k], x1, m)
        observed = _fit_mean(q1, w_observed, options, start)[0]
        return observed, w_observed - w, w, _fit_mean(q1, w, options, start)

    fits_observed = []
    fits_imputed = []
    kernel = np.zeros((n1, n1))
    discrepancy = 0.0
    min_eig = np.inf
    runner = contextlib.nullcontext()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # deferred: concurrent.futures loads logging

        runner = ThreadPoolExecutor(max_workers=threads)
    with runner as pool:
        fit_map = map if pool is None else pool.map
        for first in range(0, split.n2, _BLOCK):
            rows = range(first, min(first + _BLOCK, split.n2))
            u = np.empty((n1, len(rows), sym_dim(d)))
            for j, (observed, dw, w, (result, batch)) in enumerate(fit_map(fit_point, rows)):
                pairs, gamma = batch.dt_factors()
                hessian = -weighted_dt_matrix(pairs, gamma, w / n1)
                image = hessian @ sym_coords(observed.mean - result.mean)
                discrepancy += float(image @ image)
                min_eig = min(min_eig, float(np.linalg.eigvalsh(hessian)[0]))
                u[:, j] = dw[:, None] * batch.centred_coords(pairs)
                fits_observed.append(observed)
                fits_imputed.append(result)
            _add_gram(kernel, u.reshape(n1, -1))
    kernel /= n1 * n1
    kernel.flags.writeable = False
    results = fits_observed + fits_imputed
    return FirstHalfFit(
        split=split,
        options=options,
        start=start,
        means_second=np.stack([r.mean for r in fits_observed]),
        means_second_imputed=np.stack([r.mean for r in fits_imputed]),
        discrepancy=discrepancy,
        kernel=kernel,
        n_fits=len(results),
        nonconverged=sum(not r.converged for r in results),
        min_hessian_eigenvalue=min_eig,
    )


def test_statistic(fit, max_nonconverged=0.05):
    """Curvature-weighted discrepancy statistic over the evaluation half.

    Sums, over second-half points, the squared Frobenius norm of the
    imputed-point curvature operator applied to the difference between the
    observed-covariate fit and the imputed-covariate fit. Raises
    ``UnreliableResultError`` when more than ``max_nonconverged`` of those
    2 n2 fits (``fit.n_fits``) failed to converge.
    """
    frac = fit.nonconverged / max(fit.n_fits, 1)
    if frac > max_nonconverged:
        raise UnreliableResultError(
            f"{fit.nonconverged} of {fit.n_fits} regression fits did not converge "
            f"(fraction {frac:.3f} exceeds {max_nonconverged})"
        )
    return fit.discrepancy


def kernel_matrix(fit):
    """Calibration kernel over the fitting half, shape (n1, n1), read-only.

    Mirrors the expansion of the statistic itself: the influence of fitting
    sample i at evaluation point k is the regression-weight gap between the
    observed and the imputed covariate row times the centered transport from
    the imputed-point base toward response i. Entry (i, j) sums the
    Frobenius inner products of these influences over evaluation points, so
    the total of the clipped eigenvalues tracks the sampling expectation of
    the statistic. PSD by construction and exactly symmetric;
    :func:`fit_first_half` accumulates it.
    """
    return fit.kernel


def null_eigenvalues(kernel):
    """Eigenvalues of the kernel, clipped at zero, descending; a kernel that is
    not exactly symmetric must be so to 1e-10 and is symmetrized first."""
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1] or kernel.size == 0:
        raise InvalidInputError(f"kernel: expected a non-empty square matrix, got {kernel.shape}")
    if not np.all(np.isfinite(kernel)):
        raise InvalidInputError("kernel: non-finite entries")
    if not np.array_equal(kernel, kernel.T):
        scale = max(np.abs(kernel).max(), 1e-300)
        if np.abs(kernel - kernel.T).max() > 1e-10 * scale:
            raise InvalidInputError("kernel: not symmetric")
        kernel = sym_part(kernel)
    vals = np.linalg.eigvalsh(kernel)
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
    # weights at or below the rounding floor of the kernel's eigenvalues move
    # the law by less than that floor, and dropping them keeps the grid small
    lam = np.sort(lam[lam > 0])[::-1]
    return lam[lam > lam[0] * np.finfo(float).eps] if lam.size else lam


# Trapezoid step along the path, as a fraction of its scale: the Gaussian
# width s at the crossing, or less where the pole at 0 or the largest
# weight's branch point is nearer. The error falls geometrically with the
# step; at 1/12 it was below rounding for every tested law (1/8 left 1e-9).
_STEP = 1.0 / 12.0
# The path ends where the integrand has fallen e^-40 below its crossing value.
_DEPTH = 40.0
# Points along the path, in units of the Gaussian width s, scanned for its
# end; they bound it at 1000 widths (12000 nodes). Laws tested with up to
# 400 weights spread over 12 decades ended within 200 widths.
_SCAN = np.geomspace(1.0, 1e3, 25)
_SADDLE_ITERS = 100
_QUANTILE_ITERS = 200
# Newton converges quadratically; a step this small leaves an error far below it.
_QUANTILE_RTOL = 1e-12


def _mixture_tail(x, lam):
    """P(Q > x) and the density of Q at x, for Q = sum_j lam_j chi2_1.

    ``lam`` holds the weights from :func:`_validated_lambdas` (positive,
    descending) and ``x`` > 0. Gil-Pelaez inversion of the characteristic
    function prod_j (1 - 2i lam_j u)^(-1/2), written with z = -iu as the
    Laplace inversion F(x) = (1/2 pi i) int exp(z x) M(z) dz / z with
    M(z) = prod_j (1 + 2 lam_j z)^(-1/2). Along the real u axis the
    integrand decays only like u^(-1 - r/2) for r weights. The path is
    instead turned into the half-plane where exp(z x) decays: it crosses the
    real axis at the saddle point c of K(z) = z x + log M(z), where it is the
    direction of steepest descent, and bends to a 45-degree ray,
    z(y) = c + iy - (sqrt(y^2 + s^2) - s) with s = K''(c)^(-1/2). Where the
    path bends by no more than it rises, |exp K(z)| never exceeds exp K(c),
    so the fixed-step trapezoid sum has no cancellation and converges
    geometrically (Rice, SIAM J. Sci. Stat. Comput. 1980, integrates along
    a similar path for quadratic forms). A crossing left of the pole at 0
    (x above the mean) gives -P(Q > x) directly, so upper tails keep their
    relative accuracy; a crossing right of it gives the CDF. The crossing
    keeps at least s/2 from the pole.
    """
    ell = lam / x  # the law of Q / x, evaluated at 1
    # points are held as v = z - branch, the offset from the largest weight's
    # branch point, so that 1 + 2 ell z = base + 2 ell v keeps its digits
    branch = -0.5 / ell[0]
    base = 1.0 - ell / ell[0]

    def log_k(v):
        return branch + v - 0.5 * np.log(base + 2.0 * np.multiply.outer(v, ell)).sum(axis=-1)

    def curvature(v):
        t = ell / (base + 2.0 * ell * v)
        return 2.0 * (t @ t)

    # K'(z) = 1 - sum ell/(1 + 2 ell z) is concave and increasing, so Newton
    # steps from a point left of its root rise monotonically onto it
    v = 0.25
    for _ in range(_SADDLE_ITERS):
        t = ell / (base + 2.0 * ell * v)
        step = (1.0 - t.sum()) / (2.0 * (t @ t))
        v -= step
        if abs(step) <= 1e-14 * v:
            break
    s0 = curvature(v) ** -0.5
    upper = branch + v <= -0.5 * s0
    if not upper:
        v = max(v, 0.5 * s0 - branch)
    c = branch + v
    s = curvature(v) ** -0.5

    def path(y):
        return v + 1j * y - (np.hypot(y, s) - s)

    scan = path(s * _SCAN)
    size = (log_k(scan) - np.log(branch + scan)).real
    above = np.flatnonzero(size > log_k(v).real - math.log(abs(c)) - _DEPTH)
    length = s * _SCAN[min(above[-1] + 1, _SCAN.size - 1)] if above.size else s
    h = _STEP * min(s, math.sqrt(2.0) * v, 2.0 * abs(c))
    y = h * np.arange(math.ceil(length / h) + 1)
    vs = path(y)
    # (1/2 pi i) dz/dy, doubled: the path is conjugate-symmetric, so the
    # integral is twice the real part over its upper half
    terms = np.exp(log_k(vs)) * (1.0 + 1j * y / np.hypot(y, s)) * (h / math.pi)
    terms[0] *= 0.5
    density = float(terms.real.sum()) / x
    part = float((terms / (branch + vs)).real.sum())
    sf = -part if upper else 1.0 - part
    return min(max(sf, 0.0), 1.0), density


def _quantile(lam, alpha):
    """Upper-alpha quantile by a bracketed Newton solve on log P(Q > x).

    The law has a log-concave density, so log P(Q > x) is concave and Newton
    steps from above the root fall monotonically onto it; the start
    2 log(2) sum(lam) + 4 lam_max log(1/alpha) lies above it by the Chernoff
    bound at z = -1/(4 lam_max). A step that leaves the bracket bisects it.
    """
    if not lam.size:
        return 0.0
    lo, hi = 0.0, 2.0 * math.log(2.0) * float(lam.sum()) - 4.0 * lam[0] * math.log(alpha)
    x = hi
    for _ in range(_QUANTILE_ITERS):
        sf, density = _mixture_tail(x, lam)
        if sf == alpha:
            break
        if sf > alpha:
            lo = x
        else:
            hi = x
        nxt = math.nan
        if sf > 0.0 and density > 0.0:
            nxt = x + sf * (math.log(sf) - math.log(alpha)) / density
            if abs(nxt - x) <= _QUANTILE_RTOL * x:
                return nxt
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return x


def mixture_quantile(lambdas, alpha, draws=100_000, seed=0):
    """Upper-alpha quantile of the weighted chi-squared mixture sum_j lambda_j chi2_1.

    ``alpha`` may be a number (returns a float) or an array of levels
    (returns an array). Computed by exact inversion (:func:`_mixture_tail`),
    so the result is deterministic; ``draws`` and ``seed`` are accepted for
    compatibility with the former Monte Carlo calibration and are ignored.
    All-zero weights give 0.
    """
    levels = np.asarray(alpha, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    lam = _validated_lambdas(lambdas)
    out = np.array([_quantile(lam, a) for a in levels.reshape(-1)]).reshape(levels.shape)
    return float(out) if out.ndim == 0 else out


def p_value(statistic, lambdas, draws=100_000, seed=0):
    """P(sum_j lambda_j chi2_1 >= statistic), by exact inversion.

    ``statistic`` may be a number (returns a float) or an array (returns an
    array). The absolute error is about 1e-14 for any statistic, and the
    relative error stays near 1e-13 in the upper tail as well; p-values
    below 1e-300 underflow to 0. ``draws`` and ``seed`` are accepted for
    compatibility with the former Monte Carlo calibration and are ignored.
    """
    stats = np.asarray(statistic, dtype=float)
    if not np.all(np.isfinite(stats)):
        raise InvalidInputError("statistic must be finite")
    lam = _validated_lambdas(lambdas)

    def tail(t):
        if t <= 0.0:
            return 1.0
        return _mixture_tail(t, lam)[0] if lam.size else 0.0

    out = np.array([tail(t) for t in stats.reshape(-1)]).reshape(stats.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# end-to-end test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestOptions:
    """Options for :func:`run_partial_test`.

    ``mc_draws`` and ``seed`` are kept for compatibility with the former Monte
    Carlo calibration: they are echoed in the result and have no effect.
    """

    alpha: float = 0.05
    mc_draws: int = 100_000
    seed: int = 0
    threads: int = 1
    permute_seed: int | None = None
    max_nonconverged: float = 0.05
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        check_fields(self)
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
    mc_draws: int
    seed: int
    eigenvalues: np.ndarray
    diagnostics: TestDiagnostics


def run_partial_test(data, options=None):
    """Test whether the trailing covariate block has a partial effect.

    Splits the data, fits the fitting half, computes the discrepancy
    statistic over the evaluation half, calibrates against the estimated
    chi-squared mixture, and compares at level alpha. The quantile and the
    p-value come from the exact inversion in :func:`mixture_quantile` and
    :func:`p_value`, so the result uses no random numbers unless
    ``options.permute_seed`` is set; ``options.mc_draws`` and
    ``options.seed`` are echoed in the result and have no effect.

    Raises
    ------
    InvalidInputError
        If the trailing covariate block is empty (p1 == p) or the data are
        too small to split.
    UnreliableResultError
        If more than ``options.max_nonconverged`` of the 2 n2 regression
        fits at the evaluation half's observed and imputed rows failed to
        converge.
    """
    options = options or TestOptions()
    split = split_dataset(data, options.permute_seed)
    fit = fit_first_half(split, options.solver, options.threads)
    statistic = test_statistic(fit, options.max_nonconverged)
    kernel = kernel_matrix(fit)
    lam = null_eigenvalues(kernel)
    quantile = mixture_quantile(lam, options.alpha)
    pval = p_value(statistic, lam)
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
        alpha=float(options.alpha),
        mc_draws=int(options.mc_draws),
        seed=int(options.seed),
        eigenvalues=lam,
        diagnostics=diagnostics,
    )
