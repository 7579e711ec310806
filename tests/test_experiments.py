import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import bwfrechet
from bwfrechet import experiments as ex
from bwfrechet.errors import InvalidInputError
from bwfrechet.experiments import (
    ExperimentConfig,
    clopper_pearson,
    mixture_ks_distance,
    pooled_eigenvalues,
    qq_data,
    run_consistency_study,
    run_power_curve,
    run_size_study,
    trial_seeds,
)
from mixture_oracle import mixture_draws


def tiny_config(**kw):
    base = dict(
        example=1,
        n=16,
        p_y=2,
        p_z=1,
        d=3,
        trials=4,
        mc_draws=2000,
        seed=11,
        max_nonconverged=1.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeding and config
# ---------------------------------------------------------------------------


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone was most of the package's import time, and
    # scipy.integrate, scipy.optimize or scipy.special would each add a
    # large share of it; only the study helper that needs scipy loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(bwfrechet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, bwfrechet, bwfrechet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_trial_seeds_pure_function():
    a = trial_seeds(7, 0)
    b = trial_seeds(7, 0)
    assert a == b
    assert trial_seeds(7, 1) != a
    assert trial_seeds(8, 0) != a
    for s in a:
        assert isinstance(s, int) and 0 <= s < 2**64


def test_experiment_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(trials=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(consistency_trials=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(processes=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(threads=0)
    with pytest.raises(InvalidInputError, match="seed"):
        ExperimentConfig(seed=-1)
    for key, value in (("trials", "2"), ("seed", 1.5), ("alpha", None),
                       ("delta_grid", ("a",)), ("n_grid", 100), ("lattice", (float("nan"),)),
                       ("n_grid", (24.9,)), ("n_grid", [24, 48.0])):
        with pytest.raises(InvalidInputError, match=key):
            ExperimentConfig(**{key: value})
    assert ExperimentConfig(delta_grid=[0.0, 0.2]).delta_grid == (0.0, 0.2)


def test_clopper_pearson_against_beta_quantiles():
    low, high = clopper_pearson(3, 100)
    assert_allclose(low, stats.beta.ppf(0.025, 3, 98), rtol=1e-12)
    assert_allclose(high, stats.beta.ppf(0.975, 4, 97), rtol=1e-12)
    assert clopper_pearson(0, 20)[0] == 0.0
    assert clopper_pearson(20, 20)[1] == 1.0
    low, high = clopper_pearson(10, 20, level=0.9)
    assert low < 0.5 < high
    with pytest.raises(InvalidInputError):
        clopper_pearson(5, 4)
    with pytest.raises(InvalidInputError):
        clopper_pearson(-1, 4)


# ---------------------------------------------------------------------------
# size and power studies
# ---------------------------------------------------------------------------


def test_size_study_smoke_and_reproducibility():
    cfg = tiny_config()
    res = run_size_study(cfg)
    assert res.completed == 4 and len(res.records) == 4
    assert res.rejections == sum(1 for r in res.records if r.reject)
    assert 0.0 <= res.ci_low <= res.rejection_rate <= res.ci_high <= 1.0
    for rec in res.records:
        assert rec.error is None
        assert rec.statistic >= 0.0
        assert 0.0 < rec.p_value <= 1.0
        assert len(rec.eigenvalues) == (cfg.n + 1) // 2
    again = run_size_study(cfg)
    assert [r.statistic for r in again.records] == [r.statistic for r in res.records]
    assert [r.p_value for r in again.records] == [r.p_value for r in res.records]


def test_power_curve_shares_data_draws_across_deltas():
    cfg = tiny_config(trials=3, delta_grid=(0.0, 0.3))
    res = run_power_curve(cfg)
    assert [pt.delta for pt in res.points] == [0.0, 0.3]
    for pt in res.points:
        assert pt.completed == 3
        assert pt.rejections == sum(1 for r in pt.records if r.reject)
    null_seeds = [r.data_seed for r in res.points[0].records]
    alt_seeds = [r.data_seed for r in res.points[1].records]
    assert null_seeds == alt_seeds
    # same data seed, different effect: the statistics must differ
    assert res.points[0].records[0].statistic != res.points[1].records[0].statistic


def test_process_pool_gives_the_inline_records():
    cfg = tiny_config(trials=2, delta_grid=(0.0, 0.3), n_grid=(16, 24), consistency_trials=2)
    pooled = replace(cfg, processes=2)
    assert run_size_study(pooled).records == run_size_study(cfg).records
    assert ([pt.records for pt in run_power_curve(pooled).points]
            == [pt.records for pt in run_power_curve(cfg).points])
    assert run_consistency_study(pooled).trials == run_consistency_study(cfg).trials


def test_failed_trials_are_recorded_not_raised():
    cfg = tiny_config(p_z=0, trials=2)  # generator rejects an empty tested block
    res = run_size_study(cfg)
    assert res.completed == 0
    assert np.isnan(res.rejection_rate)
    for rec in res.records:
        assert rec.error is not None and "InvalidConfigError" in rec.error
        assert rec.statistic is None and rec.reject is None


# ---------------------------------------------------------------------------
# consistency study
# ---------------------------------------------------------------------------


def test_evaluation_lattice_inside_unit_ball():
    cfg = tiny_config(p_y=2, p_z=2, lattice=(-1.0, 0.0, 1.0))
    rows = ex._evaluation_lattice(cfg)
    assert rows.shape == (5, 4)  # axis points and the origin
    assert np.all(np.linalg.norm(rows[:, :2], axis=1) <= 1.0)
    assert_allclose(rows[:, 2:], 0.0, atol=0)
    with pytest.raises(InvalidInputError):
        ex._evaluation_lattice(tiny_config(p_y=1, lattice=(2.0,)))


def test_consistency_error_shrinks_with_n():
    cfg = tiny_config(
        trials=1,
        consistency_trials=3,
        n_grid=(40, 160),
        lattice=(-0.5, 0.0, 0.5),
    )
    res = run_consistency_study(cfg)
    assert [row.n for row in res.rows] == [40, 160]
    assert all(row.completed == 3 for row in res.rows)
    assert res.rows[1].median_sup_error < res.rows[0].median_sup_error
    # same data seeds at both sample sizes
    first = [t.data_seed for t in res.trials if t.n == 40]
    second = [t.data_seed for t in res.trials if t.n == 160]
    assert first == second


# ---------------------------------------------------------------------------
# distributional diagnostics
# ---------------------------------------------------------------------------


def test_pooled_eigenvalues_rankwise_mean():
    got = pooled_eigenvalues([(4.0, 1.0), (2.0, 0.0)])
    assert_allclose(got, [3.0, 0.5], atol=0)
    with pytest.raises(InvalidInputError):
        pooled_eigenvalues([])
    with pytest.raises(InvalidInputError):
        pooled_eigenvalues([(1.0,), (1.0, 2.0)])


def test_qq_data_shape_and_order():
    lam = np.array([2.0, 1.0, 0.5])
    sample = mixture_draws(lam, 1000, seed=99)[:400]
    pairs = qq_data(sample, lam, mc_draws=20_000, seed=1)
    assert pairs.shape == (400, 2)
    assert np.all(np.diff(pairs[:, 0]) >= 0)
    assert np.all(np.diff(pairs[:, 1]) >= 0)
    assert np.all(pairs >= 0)
    # matched distributions stay near the diagonal in the bulk
    mid = slice(100, 300)
    assert_allclose(pairs[mid, 0], pairs[mid, 1], rtol=0.25)
    with pytest.raises(InvalidInputError):
        qq_data([], lam)


def test_mixture_ks_distance_separates_matched_from_scaled():
    lam = np.array([2.0, 1.0, 0.5])
    sample = mixture_draws(lam, 1000, seed=7)[:500]
    near = mixture_ks_distance(sample, lam, mc_draws=50_000, seed=2)
    far = mixture_ks_distance(3.0 * sample, lam, mc_draws=50_000, seed=2)
    assert near < 0.08
    assert far > 0.3
    with pytest.raises(InvalidInputError):
        mixture_ks_distance([np.inf], lam)


def test_qq_and_ks_use_the_exact_law():
    # equal weights are a scaled chi-squared law, which scipy knows exactly
    lam = np.full(3, 0.5)
    sample = mixture_draws(lam, 1000, seed=5)[:300]
    pairs = qq_data(sample, lam)
    levels = (np.arange(1, 301) - 0.5) / 300
    assert_allclose(pairs[:, 0], 0.5 * stats.chi2.ppf(levels, 3), rtol=1e-10)
    ks = mixture_ks_distance(sample, lam, mc_draws=1, seed=123)
    reference = stats.kstest(sample, stats.chi2(3, scale=0.5).cdf).statistic
    assert ks == pytest.approx(reference, abs=1e-12)
    assert mixture_ks_distance(sample, lam) == ks
