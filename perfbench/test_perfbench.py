"""The benchmark's own tests: its references are right and its checks bite.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402


def _spd(rng, k, d):
    a = rng.standard_normal((k, d, d))
    return a @ np.swapaxes(a, -1, -2) + d * np.eye(d)


def test_imhof_matches_chi2():
    for k in (1, 2, 5):
        for x in (0.3, 2.0, 9.0):
            assert checks.mixture_sf(x, np.ones(k)) == pytest.approx(stats.chi2.sf(x, k), abs=1e-9)


def test_imhof_matches_monte_carlo():
    lam = np.array([2.0, 1.0, 0.5, 0.25, 0.1])
    draws = (np.random.default_rng(0).standard_normal((400_000, lam.size)) ** 2) @ lam
    for x in (1.0, 4.0, 10.0):
        p = (draws > x).mean()
        assert abs(checks.mixture_sf(x, lam) - p) < 5 * np.sqrt(p * (1 - p) / draws.size)


def test_calibration_check_rejects_a_wrong_p_value():
    lam = np.array([1.0, 0.5])
    p = checks.mixture_sf(3.0, lam)
    q = 5.991464547107979  # any quantile: the p-value is checked first
    with pytest.raises(checks.CheckFailed, match="p-value"):
        checks.check_calibration(3.0, p + 0.01, q, lam, 0.05, 100_000)


def test_dt_solves_the_sylvester_equation():
    rng = np.random.default_rng(1)
    base, target, delta = _spd(rng, 1, 4)[0], _spd(rng, 1, 4)[0], _spd(rng, 1, 4)[0]
    t = checks.transports(base[None], target[None])[0, 0]
    assert np.allclose(t @ base @ t, target)
    x = checks._dt(base, t, delta)
    assert np.allclose(x @ base @ t + t @ base @ x, -t @ delta @ t)


def _example1(n, seed):
    from bwfrechet import SimConfig, generate, kernel_matrix, null_eigenvalues
    from bwfrechet import fit_first_half, split_dataset, test_statistic

    data, _ = generate(SimConfig(example=1, n=n, p_y=3, p_z=3, d=6, seed=seed))
    fit = fit_first_half(split_dataset(data))
    return data, fit, test_statistic(fit), null_eigenvalues(kernel_matrix(fit))


def test_references_agree_with_the_program_and_catch_perturbations():
    data, fit, statistic, lam = _example1(200, 5)
    x, q = data.covariates, data.responses
    ref_stat, ref_eig, ref_trace = checks.ex1_closed_form(x, q, data.p1)
    assert abs(ref_stat - statistic) <= 1e-9 * statistic
    assert checks.rel_err(lam, ref_eig) <= 1e-9
    stat2, trace2, resid = checks.statistic_and_trace(x, q, data.p1, fit.means_second, fit.means_second_imputed)
    assert abs(stat2 - statistic) <= 1e-8 * statistic
    assert abs(trace2 - ref_trace) <= 1e-8 * ref_trace
    assert resid.max() <= 1e-6

    bent = fit.means_second.copy()
    bent[3] *= 1.0 + 1e-4
    stat3, _, resid3 = checks.statistic_and_trace(x, q, data.p1, bent, fit.means_second_imputed)
    assert resid3.max() > 1e-6
    assert abs(stat3 - statistic) > 1e-8 * statistic


def test_selfcheck_runs_every_workload():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--selfcheck"], capture_output=True,
                          text=True, timeout=900, cwd=HERE.parent)
    assert done.returncode == 0, done.stdout + done.stderr
