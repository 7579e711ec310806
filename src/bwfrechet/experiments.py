"""Monte Carlo studies of the partial-effect test and the regression fit.

Every study runs its trials through one loop over trial indices: each point
of the power curve is the size study at that effect size, and each row of
the consistency study runs the same loop on the configuration at that sample
size (``power_configs`` and ``consistency_configs`` build these
configurations).

Every trial derives its data seed (and a calibration seed, echoed in the
test options but unused now that the calibration is exact) from the study
root seed and the trial index alone, so trials are reproducible one by one,
the same trial sees the same data across effect sizes (a power curve at zero
effect reproduces the size study exactly), and, combined with the
generator's nested substreams, the same trial sees nested datasets across
sample sizes in the consistency study. Failed trials are recorded with the
error message rather than dropped.
"""

import functools
from dataclasses import dataclass, fields, replace
from itertools import product, repeat

import numpy as np

from .errors import BwfrechetError, InvalidInputError
from .frechet import (
    CovariateMoments,
    SolverOptions,
    _fit_mean,
    check_fields,
    is_integer,
    is_real,
    regression_weights,
    start_state,
)
from .partial_test import (
    TestOptions,
    imputed_covariates,
    mixture_quantile,
    p_value,
    run_partial_test,
    split_dataset,
)
from .simgen import SimConfig, generate, population_qstar


# a tuple field holds one item or more: numbers, and for n_grid counts
_ITEM_RULES = {"n_grid": (is_integer, "a non-empty list of integers")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the simulation studies.

    ``mc_draws`` is kept for compatibility with the former Monte Carlo
    calibration and has no effect: every test is calibrated exactly.
    """

    example: int = 1
    n: int = 200
    p_y: int = 3
    p_z: int = 3
    d: int = 6
    delta_z: float = 0.0
    trials: int = 200
    alpha: float = 0.05
    mc_draws: int = 100_000
    seed: int = 0
    threads: int = 1
    processes: int = 1
    max_nonconverged: float = 0.05
    delta_grid: tuple = (0.0, 0.1, 0.2, 0.3)
    n_grid: tuple = (100, 200, 400, 800)
    consistency_trials: int = 20
    lattice: tuple = (-0.5, 0.0, 0.5)

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):
            if f.type is tuple:
                value = getattr(self, f.name)
                check, what = _ITEM_RULES.get(f.name, (is_real, "a non-empty list of numbers"))
                if not (isinstance(value, (tuple, list)) and value and all(map(check, value))):
                    raise InvalidInputError(f"{f.name} must be {what}, got {value!r}")
                object.__setattr__(self, f.name, tuple(value))
        if self.trials < 1 or self.consistency_trials < 1:
            raise InvalidInputError("trial counts must be positive")
        if self.processes < 1:
            raise InvalidInputError("processes must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        self.test_options(seed=0)  # validate the test settings up front

    def test_options(self, seed):
        """Options for one trial's test; ``seed`` is echoed in its result."""
        return TestOptions(
            alpha=self.alpha,
            mc_draws=self.mc_draws,
            seed=seed,
            threads=self.threads,
            max_nonconverged=self.max_nonconverged,
        )

    def sim_config(self, seed=0):
        return SimConfig(
            example=self.example,
            n=self.n,
            p_y=self.p_y,
            p_z=self.p_z,
            d=self.d,
            delta_z=self.delta_z,
            seed=seed,
        )


def power_configs(config):
    """The configuration of each point of the power curve, one per ``delta_grid`` value."""
    return [replace(config, delta_z=float(delta)) for delta in config.delta_grid]


def consistency_configs(config):
    """The configuration of each row of the consistency study, one per ``n_grid`` value."""
    return [replace(config, n=int(n)) for n in config.n_grid]


def trial_seeds(root_seed, trial_index):
    """Derive (data_seed, mc_seed) for one trial from the study root seed.

    A pure function of (root_seed, trial_index): independent of the effect
    size, the sample size and the order in which trials run.
    """
    ss = np.random.SeedSequence(int(root_seed), spawn_key=(int(trial_index),))
    children = ss.spawn(2)
    data_seed = int(children[0].generate_state(1, np.uint64)[0])
    mc_seed = int(children[1].generate_state(1, np.uint64)[0])
    return data_seed, mc_seed


@dataclass(frozen=True)
class TrialRecord:
    """One test trial; a failed trial keeps the outcome defaults (None, and 0 for the counts)."""

    index: int
    data_seed: int
    mc_seed: int
    statistic: float | None = None
    p_value: float | None = None
    quantile: float | None = None
    reject: bool | None = None
    nonconverged: int = 0
    n_fits: int = 0
    eigenvalues: tuple | None = None
    error: str | None = None


def _run_test_trial(config, index):
    data_seed, mc_seed = trial_seeds(config.seed, index)
    record = functools.partial(TrialRecord, index=index, data_seed=data_seed, mc_seed=mc_seed)
    try:
        data, _ = generate(config.sim_config(seed=data_seed))
        result = run_partial_test(data, config.test_options(mc_seed))
        return record(
            statistic=result.statistic,
            p_value=result.p_value,
            quantile=result.quantile,
            reject=result.reject,
            nonconverged=result.diagnostics.nonconverged,
            n_fits=result.diagnostics.n_fits,
            eigenvalues=tuple(float(v) for v in result.eigenvalues),
        )
    except BwfrechetError as exc:
        return record(
            error=f"{type(exc).__name__}: {exc}",
        )


def _map_trials(config, worker, trials):
    """Run ``worker(config, index)`` for each trial index, in order, inline or over processes."""
    # the pool starts all its workers up front, so it gets no more than there are trials
    if config.processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: it loads multiprocessing and logging

        with ProcessPoolExecutor(max_workers=min(config.processes, trials)) as pool:
            return list(pool.map(worker, repeat(config), range(trials)))
    return list(map(worker, repeat(config), range(trials)))


def clopper_pearson(successes, total, level=0.95):
    """Exact binomial confidence interval for a proportion."""
    if not (is_integer(successes) and is_integer(total)):
        raise InvalidInputError(
            f"successes and total must be integers, got {successes!r} and {total!r}"
        )
    if not 0 <= successes <= total or total < 1:
        raise InvalidInputError("need 0 <= successes <= total with total >= 1")
    if not (is_real(level) and 0.0 < level < 1.0):
        raise InvalidInputError(f"level must be a number in (0, 1), got {level!r}")
    from scipy import stats  # deferred: scipy.stats is most of the package's import time

    tail = (1.0 - level) / 2.0
    if successes == 0:
        low = 0.0
    else:
        low = float(stats.beta.ppf(tail, successes, total - successes + 1))
    if successes == total:
        high = 1.0
    else:
        high = float(stats.beta.ppf(1.0 - tail, successes + 1, total - successes))
    return low, high


@dataclass(frozen=True)
class SizeStudyResult:
    """Null rejection rate with an exact binomial confidence interval."""

    config: ExperimentConfig
    records: tuple
    completed: int
    rejections: int
    rejection_rate: float
    ci_low: float
    ci_high: float


def run_size_study(config):
    """Rejection rate of the test over repeated draws at the configured effect.

    With ``delta_z`` zero (the default) this is the empirical size at level
    ``alpha``.
    """
    records = _map_trials(config, _run_test_trial, config.trials)
    completed = [r for r in records if r.error is None]
    rejections = sum(1 for r in completed if r.reject)
    rate = rejections / len(completed) if completed else float("nan")
    if completed:
        low, high = clopper_pearson(rejections, len(completed))
    else:
        low, high = float("nan"), float("nan")
    return SizeStudyResult(
        config=config,
        records=tuple(records),
        completed=len(completed),
        rejections=rejections,
        rejection_rate=rate,
        ci_low=low,
        ci_high=high,
    )


@dataclass(frozen=True)
class PowerPoint:
    delta: float
    completed: int
    rejections: int
    power: float
    ci_low: float
    ci_high: float
    records: tuple


@dataclass(frozen=True)
class PowerCurveResult:
    config: ExperimentConfig
    points: tuple


def run_power_curve(config):
    """Rejection rate against the trailing-block effect size.

    Trial seeds are shared across the grid, so the point at effect zero is
    the size study on the same data draws.
    """
    points = []
    for point in power_configs(config):
        study = run_size_study(point)
        points.append(
            PowerPoint(
                delta=point.delta_z,
                completed=study.completed,
                rejections=study.rejections,
                power=study.rejection_rate,
                ci_low=study.ci_low,
                ci_high=study.ci_high,
                records=study.records,
            )
        )
    return PowerCurveResult(config=config, points=tuple(points))


# ---------------------------------------------------------------------------
# estimator consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyTrial:
    """One consistency trial; a failed trial keeps the outcome defaults."""

    n: int
    index: int
    data_seed: int
    sup_error: float | None = None
    nonconverged: int = 0
    error: str | None = None


@dataclass(frozen=True)
class ConsistencyRow:
    n: int
    completed: int
    median_sup_error: float
    mean_sup_error: float


@dataclass(frozen=True)
class ConsistencyResult:
    config: ExperimentConfig
    rows: tuple
    trials: tuple


def _evaluation_lattice(config):
    """Retained-block lattice points inside the unit ball, as full rows.

    The covariates are centered and independent in the population, so the
    population imputation of the trailing block is identically zero; each
    lattice point y maps to the full row (y, 0, ..., 0).
    """
    points = [
        y for y in product(config.lattice, repeat=config.p_y)
        if float(np.linalg.norm(y)) <= 1.0
    ]
    if not points:
        raise InvalidInputError("evaluation lattice is empty inside the unit ball")
    y = np.asarray(points, dtype=float)
    return np.concatenate([y, np.zeros((y.shape[0], config.p_z))], axis=1)


def _run_consistency_trial(config, index):
    data_seed, _ = trial_seeds(config.seed, index)
    trial = functools.partial(ConsistencyTrial, n=config.n, index=index, data_seed=data_seed)
    try:
        data, truth = generate(config.sim_config(seed=data_seed))
        lattice = _evaluation_lattice(config)
        first_moments = split_dataset(data).moments
        full_moments = CovariateMoments.from_covariates(data.covariates, data.p1)
        start = start_state(data.responses)
        worst = 0.0
        nonconverged = 0
        for row in lattice:
            xhat = imputed_covariates(row, first_moments)
            w = regression_weights(xhat, data.covariates, full_moments)
            fit = _fit_mean(data.responses, w, SolverOptions(), start)[0]
            nonconverged += not fit.converged
            target = population_qstar(truth, row)
            worst = max(worst, float(np.linalg.norm(fit.mean - target)))
        return trial(
            sup_error=worst,
            nonconverged=nonconverged,
        )
    except BwfrechetError as exc:
        return trial(
            error=f"{type(exc).__name__}: {exc}",
        )


def run_consistency_study(config):
    """Sup-norm fitting error over the evaluation lattice as n grows.

    For each sample size, each trial fits the regression at every lattice
    point with the trailing block imputed from first-half moments and
    measures the Frobenius distance to the population minimizer; the trial
    contributes the worst lattice error, and rows summarize the median and
    mean over trials. Trial seeds are shared across sample sizes, so the
    datasets are nested in n.
    """
    rows = []
    all_trials = []
    for point in consistency_configs(config):
        trials = _map_trials(point, _run_consistency_trial, point.consistency_trials)
        all_trials.extend(trials)
        done = [t.sup_error for t in trials if t.error is None]
        rows.append(
            ConsistencyRow(
                n=point.n,
                completed=len(done),
                median_sup_error=float(np.median(done)) if done else float("nan"),
                mean_sup_error=float(np.mean(done)) if done else float("nan"),
            )
        )
    return ConsistencyResult(config=config, rows=tuple(rows), trials=tuple(all_trials))


# ---------------------------------------------------------------------------
# distributional diagnostics
# ---------------------------------------------------------------------------

def pooled_eigenvalues(spectra):
    """Rank-wise mean of equally long eigenvalue tuples."""
    if not spectra:
        raise InvalidInputError("need at least one spectrum")
    lengths = {len(s) for s in spectra}
    if len(lengths) != 1:
        raise InvalidInputError(f"spectra have mixed lengths {sorted(lengths)}")
    return np.asarray(spectra, dtype=float).mean(axis=0)


def _finite_statistics(statistics):
    statistics = np.asarray(statistics, dtype=float).reshape(-1)
    if statistics.size < 1 or not np.all(np.isfinite(statistics)):
        raise InvalidInputError("statistics must be a nonempty finite array")
    return statistics


def qq_data(statistics, lambdas, mc_draws=100_000, seed=0):
    """Quantile pairs (mixture reference, observed statistic), ascending.

    Reference quantiles are the exact upper-(1 - level) quantiles of the
    weighted chi-squared mixture at levels (i - 1/2) / N. ``mc_draws`` and
    ``seed`` are accepted for compatibility and are ignored.
    """
    observed = np.sort(_finite_statistics(statistics))
    levels = (np.arange(1, observed.size + 1) - 0.5) / observed.size
    reference = mixture_quantile(lambdas, 1.0 - levels)
    return np.column_stack([reference, observed])


def mixture_ks_distance(statistics, lambdas, mc_draws=100_000, seed=0):
    """One-sample Kolmogorov-Smirnov distance to the exact mixture CDF.

    ``mc_draws`` and ``seed`` are accepted for compatibility and are ignored.
    """
    observed = np.sort(_finite_statistics(statistics))
    cdf = 1.0 - p_value(observed, lambdas)
    ranks = np.arange(1, observed.size + 1) / observed.size
    return float(max((ranks - cdf).max(), (cdf - ranks + 1.0 / observed.size).max()))
