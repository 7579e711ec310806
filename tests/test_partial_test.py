import functools
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bwfrechet.errors import InvalidInputError, UnreliableResultError
from bwfrechet.frechet import (
    CovariateMoments,
    Dataset,
    SolverOptions,
    frechet_regress,
    regression_weights,
    weighted_frechet_mean,
)
from bwfrechet.manifold import (
    SymOperator,
    TransportBatch,
    ot_map,
    ot_map_differential,
    sym_coords,
    sym_dim,
)
from bwfrechet import frechet
# the module is imported as a whole because two of its public names start
# with Test/test_ and would otherwise be collected by pytest
from bwfrechet import partial_test as pt
from bwfrechet.partial_test import (
    SplitDataset,
    fit_first_half,
    imputed_covariates,
    kernel_matrix,
    mixture_quantile,
    null_eigenvalues,
    p_value,
    run_partial_test,
    split_dataset,
)
from bwfrechet.simgen import SimConfig, generate, haar_orthogonal
from closed_form_oracle import closed_form_test, mixture_sf
from mixture_oracle import mixture_draws, standard_error
from sylvester_oracle import weighted_dt_reference

QUIET = SolverOptions(grad_tol=1e-9)


def random_spd_stack(rng, n, d, spread=1.0):
    a = rng.standard_normal((n, d, d))
    mats = a @ a.transpose(0, 2, 1)
    return mats + (0.5 + spread * rng.random((n, 1, 1))) * np.eye(d)


def small_example(n=36, p_y=2, p_z=2, d=4, delta=0.0, seed=0):
    data, _ = generate(
        SimConfig(example=1, n=n, p_y=p_y, p_z=p_z, d=d, delta_z=delta, seed=seed)
    )
    return data


def handmade_split(covariates, responses, p1):
    """SplitDataset built directly, bypassing split_dataset validation."""
    data = Dataset(covariates=covariates, responses=responses, p1=p1)
    n1 = (data.n + 1) // 2
    moments = CovariateMoments.from_covariates(covariates[:n1], p1)
    return SplitDataset(data, np.arange(n1), np.arange(n1, data.n), moments)


# ---------------------------------------------------------------------------
# splitting and imputation
# ---------------------------------------------------------------------------


def test_split_sizes_and_moments():
    rng = np.random.default_rng(3)
    for n, n1_want in ((5, 3), (6, 3), (200, 100)):
        x = rng.uniform(-1, 1, (n, 3))
        q = random_spd_stack(rng, n, 2)
        split = split_dataset(Dataset(covariates=x, responses=q, p1=2))
        assert split.n1 == n1_want and split.n2 == n - n1_want
        xc = x[:n1_want] - x[:n1_want].mean(axis=0)
        assert_allclose(split.moments.mean, x[:n1_want].mean(axis=0), atol=1e-12)
        assert_allclose(split.moments.cov, (xc.T @ xc) / n1_want, atol=1e-12)
        assert_allclose(split.first_covariates, x[:n1_want], atol=0)
        assert_allclose(split.second_covariates, x[n1_want:], atol=0)


def test_split_validation():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (3, 2))
    q = random_spd_stack(rng, 3, 2)
    with pytest.raises(InvalidInputError):
        split_dataset(Dataset(covariates=x, responses=q, p1=1))
    x = rng.uniform(-1, 1, (8, 2))
    q = random_spd_stack(rng, 8, 2)
    with pytest.raises(InvalidInputError):
        split_dataset(Dataset(covariates=x, responses=q, p1=0))
    with pytest.raises(InvalidInputError):
        split_dataset(Dataset(covariates=x, responses=q, p1=2))
    for seed in (-1, True, 1.5):
        with pytest.raises(InvalidInputError, match="permute_seed"):
            split_dataset(Dataset(covariates=x, responses=q, p1=1), permute_seed=seed)


def test_split_permute_seed_reproducible():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (10, 3))
    q = random_spd_stack(rng, 10, 2)
    data = Dataset(covariates=x, responses=q, p1=2)
    a = split_dataset(data, permute_seed=7)
    b = split_dataset(data, permute_seed=7)
    assert np.array_equal(a.fit_rows, b.fit_rows) and np.array_equal(a.eval_rows, b.eval_rows)
    c = split_dataset(data, permute_seed=8)
    assert not np.array_equal(np.r_[a.fit_rows, a.eval_rows], np.r_[c.fit_rows, c.eval_rows])
    # permutation, not resampling: every row once, of the data as given
    assert np.array_equal(np.sort(np.r_[c.fit_rows, c.eval_rows]), np.arange(10))
    assert c.data is data and not c.fit_rows.flags.writeable


def swapped(split):
    """The split with its fitting and evaluation rows exchanged."""
    data, rows = split.data, split.eval_rows
    moments = CovariateMoments.from_covariates(data.covariates[rows], data.p1)
    return SplitDataset(data, rows, split.fit_rows, moments)


def test_swapped_split_fits_like_the_reordered_data():
    config = SimConfig(example=2, n=120, p_y=3, p_z=3, d=6, seed=7)
    data = generate(config)[0]
    split = split_dataset(data)
    got = fit_first_half(swapped(split))
    want = fit_first_half(split_dataset(data.subset(np.r_[split.eval_rows, split.fit_rows])))
    assert got.discrepancy == want.discrepancy
    for name in ("kernel", "means_second", "means_second_imputed"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_permuted_test_is_the_test_of_the_reordered_data():
    config = SimConfig(example=2, n=61, p_y=2, p_z=2, d=4, delta_z=0.2, seed=3)
    data = generate(config)[0]
    split = split_dataset(data, permute_seed=11)
    assert split.data is data
    got = run_partial_test(data, pt.TestOptions(permute_seed=11))
    want = run_partial_test(data.subset(np.r_[split.fit_rows, split.eval_rows]))
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert (got.statistic, got.p_value, got.quantile, got.diagnostics) == (
        want.statistic, want.p_value, want.quantile, want.diagnostics
    )


def test_impute_hand_line():
    # first half holds (y, z) = (0,0), (1,1), (2,2): the best linear
    # predictor of z from y is the identity line
    x = np.array(
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 9.0], [1.5, -3.0], [2.5, 0.0]]
    )
    rng = np.random.default_rng(6)
    q = random_spd_stack(rng, 6, 2)
    split = split_dataset(Dataset(covariates=x, responses=q, p1=1))
    for y in (0.0, 0.25, 1.0, 3.0, -2.0):
        assert_allclose(imputed_covariates(np.array([y, 5.0]), split.moments), [y, y], atol=1e-12)
    hat = imputed_covariates(x[3:], split.moments)
    assert_allclose(hat[:, 0], x[3:, 0], atol=0)
    assert_allclose(hat[:, 1], x[3:, 0], atol=1e-12)
    with pytest.raises(InvalidInputError, match="trailing dimension"):
        imputed_covariates(x[3:, :1], split.moments)


def test_impute_zero_cross_covariance():
    # y and z uncorrelated in the first half: imputation is the plain mean
    x = np.array(
        [[-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
        + [[0.3, 0.7], [0.1, -0.2], [-0.4, 0.9], [0.8, 0.3]]
    )
    rng = np.random.default_rng(7)
    q = random_spd_stack(rng, 8, 2)
    split = split_dataset(Dataset(covariates=x, responses=q, p1=1))
    assert_allclose(split.moments.cov[1, 0], 0.0, atol=1e-15)
    for y in (-2.0, 0.0, 1.3):
        assert_allclose(imputed_covariates(np.array([y, 5.0]), split.moments), [y, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "x",
    [
        [np.nan, 0.0, 0.0],
        [0.0, 0.0, np.nan],
        [[0.1, 0.2, 0.3], [0.0, np.inf, 0.0]],
    ],
)
def test_impute_rejects_non_finite_rows(x):
    # a NaN in the trailing block would be replaced by its imputation unseen
    data, _ = generate(SimConfig(example=1, n=20, p_y=2, p_z=1, d=3, seed=0))
    with pytest.raises(InvalidInputError, match="x: non-finite entries"):
        imputed_covariates(np.array(x), split_dataset(data).moments)


def test_impute_collinear_z_column():
    # z duplicates the first y column, so the imputation recovers it exactly
    rng = np.random.default_rng(8)
    y = rng.uniform(-1, 1, (12, 2))
    x = np.column_stack([y, y[:, 0]])
    q = random_spd_stack(rng, 12, 2)
    split = split_dataset(Dataset(covariates=x, responses=q, p1=2))
    probe = rng.uniform(-1, 1, (5, 2))
    hat = imputed_covariates(np.column_stack([probe, np.zeros(5)]), split.moments)
    assert_allclose(hat[:, 2], probe[:, 0], atol=1e-10)


# ---------------------------------------------------------------------------
# test statistic
# ---------------------------------------------------------------------------


def straight_line_statistic(data, options):
    """Direct re-implementation of the discrepancy statistic, no caching.

    The first half fits and the second half evaluates, as in the test.
    """
    n1 = (data.n + 1) // 2
    x = data.covariates
    q1 = data.responses[:n1]
    p1 = data.p1
    m = CovariateMoments.from_covariates(x[:n1], p1)
    inv = np.linalg.inv(m.cov)
    inv11 = np.linalg.inv(m.cov[:p1, :p1])
    cov21 = m.cov[p1:, :p1]
    msym = sym_dim(data.d)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(n1, data.n):
            y = x[k, :p1]
            zhat = m.mean[p1:] + cov21 @ inv11 @ (y - m.mean[:p1])
            xhat = np.concatenate([y, zhat])
            w_obs = 1.0 + (x[:n1] - m.mean) @ inv @ (x[k] - m.mean)
            w_hat = 1.0 + (x[:n1] - m.mean) @ inv @ (xhat - m.mean)
            fit_obs = weighted_frechet_mean(q1, w_obs, options).mean
            fit_hat = weighted_frechet_mean(q1, w_hat, options).mean
            hmat = np.zeros((msym, msym))
            for i in range(n1):
                hmat -= w_hat[i] * ot_map_differential(fit_hat, q1[i]).matrix
            hmat /= n1
            image = SymOperator(data.d, hmat).apply(fit_obs - fit_hat)
            total += float(np.sum(image * image))
    return total


def generic_dataset(n, p, p1, d, seed):
    # responses without a shared eigenbasis; the solver has to iterate
    rng = np.random.default_rng(seed)
    return Dataset(
        covariates=rng.uniform(-1, 1, (n, p)),
        responses=random_spd_stack(rng, n, d),
        p1=p1,
    )


@pytest.mark.parametrize(
    "data",
    [small_example(n=36, delta=0.2, seed=21), generic_dataset(30, 4, 2, 3, 22)],
    ids=["shared-eigenbasis", "generic"],
)
def test_statistic_matches_straight_line_oracle(data):
    split = split_dataset(data)
    fit = fit_first_half(split, QUIET)
    got = pt.test_statistic(fit, max_nonconverged=1.0)
    want = straight_line_statistic(data, QUIET)
    assert got >= 0.0
    assert_allclose(got, want, rtol=1e-8)


def test_statistic_zero_when_blocks_identical():
    # p1 = p via direct construction: imputed covariates equal the observed
    # ones, both fits coincide and the statistic vanishes exactly
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (16, 3))
    q = random_spd_stack(rng, 16, 3)
    split = handmade_split(x, q, p1=3)
    assert_allclose(
        imputed_covariates(split.second_covariates, split.moments),
        split.second_covariates,
        atol=1e-12,
    )
    fit = fit_first_half(split, QUIET)
    assert pt.test_statistic(fit, max_nonconverged=1.0) == 0.0


def test_statistic_first_order_expansion_tracks_kernel_total():
    # the statistic approximately equals the sum of all calibration kernel
    # entries; this is the expansion the calibration rests on
    data = small_example(n=120, p_y=3, p_z=3, d=6, delta=0.0, seed=29)
    split = split_dataset(data)
    fit = fit_first_half(split, QUIET)
    stat = pt.test_statistic(fit, max_nonconverged=1.0)
    kern = kernel_matrix(fit)
    total = float(np.ones(split.n1) @ kern @ np.ones(split.n1))
    assert abs(stat - total) <= 0.08 * max(stat, total)


# |T / 1'K1 - 1| for the statistic T and the kernel K: the first-order term
# of T is the sum of K's entries. At n=800, delta=0, seed 10, the widest gap
# over both examples and both directions measured 0.0064.
FIRST_ORDER_GAP = 0.03


@pytest.mark.parametrize("example", [1, 2])
def test_statistic_matches_its_first_order_term_both_ways(example):
    config = SimConfig(example=example, n=800, p_y=3, p_z=3, d=6, delta_z=0.0, seed=10)
    split = split_dataset(generate(config)[0])
    for direction in (split, swapped(split)):
        fit = fit_first_half(direction)
        assert abs(fit.discrepancy / fit.kernel.sum() - 1.0) <= FIRST_ORDER_GAP


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_vanishes_when_no_tested_block():
    rng = np.random.default_rng(34)
    x = rng.uniform(-1, 1, (14, 3))
    q = random_spd_stack(rng, 14, 3)
    split = handmade_split(x, q, p1=3)
    fit = fit_first_half(split, QUIET)
    assert_allclose(kernel_matrix(fit), 0.0, atol=1e-14)


def test_kernel_matrix_matches_direct_loops():
    data = small_example(n=30, delta=0.1, seed=43)
    split = split_dataset(data)
    fit = fit_first_half(split, QUIET)
    m = split.moments
    inv = m.require_cov_inv()
    n1, n2, d = split.n1, split.n2, split.data.d
    eye = np.eye(d)
    x1c = split.first_covariates - m.mean
    xhat2 = imputed_covariates(split.second_covariates, m)
    want = np.zeros((n1, n1))
    for k in range(n2):
        dw = (split.second_covariates[k] - xhat2[k]) @ inv @ x1c.T
        flat = np.stack(
            [
                (ot_map(fit.means_second_imputed[k], split.first_responses[i]) - eye).ravel()
                for i in range(n1)
            ]
        )
        u = dw[:, None] * flat
        want += u @ u.T
    want /= n1 * n1
    got = kernel_matrix(fit)
    assert got.shape == (n1, n1)
    assert_allclose(got, got.T, atol=1e-12)
    assert_allclose(got, want, rtol=1e-9, atol=1e-13)
    vals = np.linalg.eigvalsh(got)
    assert vals[0] >= -1e-10 * max(np.trace(got), 1e-12)


def stored_transport_reference(fit):
    """Statistic, kernel and smallest curvature eigenvalue from stored transports.

    The formulas the evaluation stage streams, written out with every
    n2 x n1 transport and every m x m curvature operator held at once, at
    the program's own fits: the kernel from ``TransportBatch.maps()``, each
    batch built by a fresh eigendecomposition of its base, and the statistic
    through ``SymOperator`` with each curvature from the Sylvester oracle,
    which shares no code with the program's pair-space build.
    """
    split = fit.split
    m = split.moments
    n1, d = split.n1, split.data.d
    q1 = split.first_responses
    inv = np.linalg.inv(m.cov)
    x1c = split.first_covariates - m.mean
    xhat2 = imputed_covariates(split.second_covariates, m)
    transports = np.stack(
        [TransportBatch(base, q1).maps() for base in fit.means_second_imputed]
    )
    dw = (split.second_covariates - xhat2) @ inv @ x1c.T
    u = dw[:, :, None] * sym_coords(transports - np.eye(d))
    kernel = np.tensordot(u, u, axes=([0, 2], [0, 2])) / (n1 * n1)
    statistic = 0.0
    min_eig = np.inf
    for k, base in enumerate(fit.means_second_imputed):
        w = 1.0 + x1c @ inv @ (xhat2[k] - m.mean)
        hessian = SymOperator(d, -weighted_dt_reference(base, q1, w / n1))
        image = hessian.apply(fit.means_second[k] - base)
        statistic += float(np.sum(image * image))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(hessian.matrix)[0]))
    return statistic, kernel, min_eig


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(example=1, n=100, p_y=2, p_z=2, d=4, delta_z=0.1, seed=91),
        SimConfig(example=2, n=90, p_y=2, p_z=2, d=4, delta_z=0.1, seed=92),
    ],
    ids=["shared-eigenbasis", "generic"],
)
def test_streamed_evaluation_matches_stored_transport_oracle(config):
    # n2 = 50 and 45: neither is a multiple of the evaluation block size
    split = split_dataset(generate(config)[0])
    assert split.n2 % pt._BLOCK != 0
    fit = fit_first_half(split, QUIET)
    statistic, kernel, min_eig = stored_transport_reference(fit)
    got_kernel = kernel_matrix(fit)
    scale = np.abs(kernel).max()
    assert_allclose(pt.test_statistic(fit, max_nonconverged=1.0), statistic, rtol=1e-10)
    assert_allclose(got_kernel, kernel, rtol=1e-10, atol=1e-13 * scale)
    lam = null_eigenvalues(kernel)
    assert_allclose(null_eigenvalues(got_kernel), lam, rtol=1e-10, atol=1e-13 * lam[0])
    assert_allclose(fit.min_hessian_eigenvalue, min_eig, rtol=1e-10)


def test_evaluation_bit_identical_across_threads():
    # n2 = 45 leaves a short last block
    data = generate(SimConfig(example=2, n=90, p_y=2, p_z=2, d=4, delta_z=0.1, seed=93))[0]
    split = split_dataset(data)
    assert split.n2 % pt._BLOCK != 0
    one = fit_first_half(split, QUIET, threads=1)
    three = fit_first_half(split, QUIET, threads=3)
    assert pt.test_statistic(three, 1.0) == pt.test_statistic(one, 1.0)
    assert np.array_equal(kernel_matrix(three), kernel_matrix(one))
    assert three.min_hessian_eigenvalue == one.min_hessian_eigenvalue
    assert np.array_equal(three.means_second_imputed, one.means_second_imputed)


@functools.cache
def evaluation_peak_bytes():
    """tracemalloc peak of the serial evaluation stage, example 1 at n = 400,
    and the kernel it returns; the three tests below share one run."""
    data = small_example(n=400, p_y=3, p_z=3, d=6, delta=0.0, seed=95)
    split = split_dataset(data)
    tracemalloc.start()
    try:
        fit = fit_first_half(split)
        pt.test_statistic(fit, max_nonconverged=1.0)
        kernel = kernel_matrix(fit)
        return tracemalloc.get_traced_memory()[1], kernel
    finally:
        tracemalloc.stop()


def test_evaluation_memory_is_bounded():
    # storing the n2 x n1 transports peaked at 40.7 MB here, and holding one
    # block of 32 solver states at a time 8.4 MB; this bound catches a return
    # to stored transports, and the test below a return to held blocks
    peak = evaluation_peak_bytes()[0]
    assert peak < 15e6, f"evaluation stage peaked at {peak / 1e6:.1f} MB"


def test_serial_evaluation_holds_one_batch():
    # with one thread each point is evaluated straight off its fit, so one
    # point's solver state is live next to the n1 x n1 kernel and one block of
    # kernel rows: 3.9 MB here, against 8.4 MB for a held block of 32 states
    peak = evaluation_peak_bytes()[0]
    assert peak < 5e6, f"serial evaluation stage peaked at {peak / 1e6:.1f} MB"


def test_evaluation_holds_one_n1_array():
    # kernel rows are added to the kernel in place, by tiles, and the kernel
    # is finished in place: 1.9 MB here, against 3.9 MB when a block's rows
    # were added through an n1 x n1 product and the kernel symmetrized by copy
    peak, kernel = evaluation_peak_bytes()
    assert peak < 2.8e6, f"serial evaluation stage peaked at {peak / 1e6:.2f} MB"
    assert np.array_equal(kernel, kernel.T)


def test_tiled_gram_update():
    # 300 rows span three tiles, the last one short
    assert 300 > pt._TILE and 300 % pt._TILE != 0
    rng = np.random.default_rng(96)
    rows = rng.standard_normal((300, 40))
    start = rng.standard_normal((300, 12))
    want = start @ start.T + rows @ rows.T
    kernel = start @ start.T
    pt._add_gram(kernel, rows)
    assert np.array_equal(kernel, kernel.T)
    assert_allclose(kernel, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_null_eigenvalues_memory():
    # an exactly symmetric kernel goes to eigvalsh with no n1 x n1 copy: 1.5
    # MB here with the 1.28 MB kernel, against 3.8 MB when it was symmetrized
    a = np.random.default_rng(97).standard_normal((400, 60))
    tracemalloc.start()
    try:
        kernel = a @ a.T
        lam = null_eigenvalues(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6, f"eigen step peaked at {peak / 1e6:.2f} MB"
    assert_allclose(lam, np.linalg.eigvalsh(kernel)[::-1].clip(0.0), rtol=0, atol=1e-13 * lam[0])


def test_null_eigenvalues_of_nearly_symmetric_kernel():
    rng = np.random.default_rng(98)
    a = rng.standard_normal((50, 50))
    sym = a @ a.T
    kernel = sym + 1e-12 * np.abs(sym).max() * rng.standard_normal((50, 50))
    assert not np.array_equal(kernel, kernel.T)
    want = np.linalg.eigvalsh(0.5 * (kernel + kernel.T))[::-1].clip(0.0)
    assert_allclose(null_eigenvalues(kernel), want, rtol=0, atol=1e-13 * want[0])


def test_null_eigenvalues_identities():
    assert_allclose(null_eigenvalues(np.zeros((4, 4))), np.zeros(4), atol=0)
    assert_allclose(null_eigenvalues(np.eye(3)), np.ones(3), atol=0)
    rng = np.random.default_rng(53)
    a = rng.standard_normal((6, 6))
    kern = a @ a.T - 2.0 * np.eye(6)  # some negative eigenvalues
    lam = null_eigenvalues(kern)
    assert np.all(lam >= 0.0) and np.all(np.diff(lam) <= 0.0)
    raw = np.linalg.eigvalsh(kern)
    assert_allclose(raw.sum(), np.trace(kern), rtol=1e-10)
    with pytest.raises(InvalidInputError):
        null_eigenvalues(np.ones((2, 3)))
    with pytest.raises(InvalidInputError, match="non-empty"):
        null_eigenvalues(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError):
        null_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        null_eigenvalues(bad)


# ---------------------------------------------------------------------------
# chi-squared mixture calibration
# ---------------------------------------------------------------------------


def test_mixture_quantile_chi1_oracle():
    q = mixture_quantile(np.array([1.0]), 0.05, draws=1_000_000, seed=10)
    assert abs(q - 3.8415) <= 0.02
    p = p_value(3.8415, np.array([1.0]), draws=1_000_000, seed=10)
    assert abs(p - 0.05) <= 0.005


@pytest.mark.parametrize("r", [1, 2, 5])
def test_equal_weights_match_the_chi2_law(r):
    # r equal weights lambda give lambda * chi2_r
    lam = np.full(r, 0.7)
    x = 0.7 * stats.chi2.ppf([1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6], r)
    assert_allclose(p_value(x, lam), stats.chi2.sf(x / 0.7, r), rtol=0, atol=1e-10)
    # the upper tail keeps its relative accuracy
    far = 0.7 * stats.chi2.isf(1e-12, r)
    assert p_value(far, lam) == pytest.approx(1e-12, rel=1e-10)
    alphas = np.array([0.9, 0.5, 0.1, 0.05, 0.01, 1e-4])
    assert_allclose(mixture_quantile(lam, alphas), 0.7 * stats.chi2.isf(alphas, r), rtol=1e-10)


def example1_spectrum():
    data = generate(SimConfig(example=1, n=200, p_y=3, p_z=3, d=6, seed=1))[0]
    return run_partial_test(data).eigenvalues


def test_exact_mixture_within_monte_carlo_error_of_oracle():
    lam = example1_spectrum()
    draws = 1_000_000
    sample = mixture_draws(lam, draws, seed=11)
    alphas = np.array([0.5, 0.1, 0.05, 0.01])
    for alpha, q in zip(alphas, mixture_quantile(lam, alphas)):
        freq = float(np.mean(sample >= q))
        assert abs(freq - alpha) <= 5.0 * standard_error(alpha, draws)
    for t in (np.median(sample), np.quantile(sample, 0.97)):
        freq = float(np.mean(sample >= t))
        assert abs(p_value(t, lam) - freq) <= 5.0 * standard_error(freq, draws)


def test_quantile_round_trips_through_the_p_value():
    spectra = [np.array([1.0]), np.array([2.0, 1.0, 0.5]), 0.5 ** np.arange(30),
               np.concatenate([[3.0], np.full(200, 0.01)])]
    alphas = np.array([0.999, 0.5, 0.05, 1e-3, 1e-8])
    for lam in spectra:
        assert_allclose(p_value(mixture_quantile(lam, alphas), lam), alphas, rtol=1e-10)


def test_mixture_homogeneity_and_degenerate_cases():
    lam = np.array([0.8, 0.3, 0.1])
    q1 = mixture_quantile(lam, 0.1, draws=5000, seed=3)
    q2 = mixture_quantile(2.5 * lam, 0.1, draws=5000, seed=3)
    assert_allclose(q2, 2.5 * q1, rtol=1e-12)
    assert p_value(0.0, lam, draws=2000, seed=1) == 1.0
    # decreasing in the statistic
    ps = [p_value(t, lam, draws=5000, seed=2) for t in (0.1, 1.0, 5.0)]
    assert ps[0] >= ps[1] >= ps[2]


def test_all_zero_weights_are_a_point_mass_at_zero():
    zeros = np.zeros(4)
    assert mixture_quantile(zeros, 0.05) == 0.0
    assert p_value(0.0, zeros) == 1.0
    assert p_value(1e-3, zeros) == 0.0


def test_calibration_ignores_seed_and_draws():
    lam = np.array([2.0, 1.0, 0.5, 0.25])
    assert mixture_quantile(lam, 0.05, 10, 1) == mixture_quantile(lam, 0.05, 1_000_000, 99)
    assert p_value(3.0, lam, 10, 1) == p_value(3.0, lam, 1_000_000, 99)
    data = small_example(n=40, delta=0.0, seed=71)
    a = run_partial_test(data, pt.TestOptions(mc_draws=2000, seed=1))
    b = run_partial_test(data, pt.TestOptions(mc_draws=500_000, seed=8))
    assert (a.p_value, a.quantile, a.reject) == (b.p_value, b.quantile, b.reject)


def test_array_arguments_match_scalar_calls():
    lam = np.array([2.0, 1.0, 0.5])
    alphas = np.array([0.2, 0.05])
    scalar = [mixture_quantile(lam, a) for a in alphas]
    assert_allclose(mixture_quantile(lam, alphas), scalar, rtol=1e-14)
    stats_ = np.array([[0.5, 3.0], [7.0, 0.0]])
    got = p_value(stats_, lam)
    assert got.shape == (2, 2)
    assert_allclose(got.ravel(), [p_value(t, lam) for t in stats_.ravel()], rtol=1e-14)


def test_monte_carlo_oracle_refuses_too_few_draws():
    with pytest.raises(ValueError):
        mixture_draws(np.array([1.0]), 10, seed=0)


def test_mixture_validation():
    with pytest.raises(InvalidInputError):
        mixture_quantile(np.array([-0.1, 1.0]), 0.05, draws=2000, seed=0)
    with pytest.raises(InvalidInputError):
        mixture_quantile(np.array([np.nan, 1.0]), 0.05)
    with pytest.raises(InvalidInputError):
        mixture_quantile(np.array([1.0]), 1.5, draws=2000, seed=0)
    with pytest.raises(InvalidInputError):
        mixture_quantile(np.array([1.0]), np.array([0.5, 0.0]))
    with pytest.raises(InvalidInputError):
        p_value(np.inf, np.array([1.0]), draws=2000, seed=0)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_statistic_invariant_to_within_half_relabeling():
    data = small_example(n=28, delta=0.1, seed=61)
    split = split_dataset(data)
    fit = fit_first_half(split, QUIET)
    stat = pt.test_statistic(fit, max_nonconverged=1.0)
    lam = null_eigenvalues(kernel_matrix(fit))

    rng = np.random.default_rng(62)
    perm1 = rng.permutation(split.n1)
    perm2 = split.n1 + rng.permutation(split.n2)
    shuffled = data.subset(np.concatenate([perm1, perm2]))
    fit2 = fit_first_half(split_dataset(shuffled), QUIET)
    stat2 = pt.test_statistic(fit2, max_nonconverged=1.0)
    lam2 = null_eigenvalues(kernel_matrix(fit2))
    assert_allclose(stat2, stat, rtol=1e-6)
    assert_allclose(lam2, lam, rtol=1e-5, atol=1e-9)


def assert_invariant_to_congruence(data, congruence):
    """Statistic, kernel spectrum and convergence verdicts of ``data`` stay
    the same when every response Q is replaced by ``congruence(Q)``."""
    moved = Dataset(
        covariates=data.covariates, responses=congruence(data.responses), p1=data.p1
    )
    fit = fit_first_half(split_dataset(data), QUIET)
    fit2 = fit_first_half(split_dataset(moved), QUIET)
    assert fit2.nonconverged == fit.nonconverged
    stat = pt.test_statistic(fit, max_nonconverged=1.0)
    stat2 = pt.test_statistic(fit2, max_nonconverged=1.0)
    assert_allclose(stat2, stat, rtol=1e-6)
    lam = null_eigenvalues(kernel_matrix(fit))
    lam2 = null_eigenvalues(kernel_matrix(fit2))
    assert_allclose(lam2, lam, rtol=1e-5, atol=1e-9)


def test_statistic_invariant_to_orthogonal_conjugation():
    # and to a change of units, Q -> c Q
    data = small_example(n=28, delta=0.1, seed=63)
    rng = np.random.default_rng(64)
    o, _ = np.linalg.qr(rng.standard_normal((data.d, data.d)))
    for congruence in (
        lambda q: np.einsum("ab,nbc,dc->nad", o, q, o),
        lambda q: 1e-3 * q,
        lambda q: 1e4 * q,
    ):
        assert_invariant_to_congruence(data, congruence)


def test_unconverged_count_invariant_to_rotation():
    # one fit here ends at the PD boundary (lambda_min / lambda_max 1e-10)
    # unconverged, rotated or not; with the eigenvalue roots' error left out
    # of the solver's rounding floor, a second fit stalled at that floor once
    # rotated (2 against 1)
    data = generate(SimConfig(example=2, n=60, p_y=3, p_z=3, d=6, delta_z=0.1, seed=3))[0]
    o = haar_orthogonal(6, np.random.default_rng(0))
    moved = Dataset(covariates=data.covariates, responses=o @ data.responses @ o.T, p1=data.p1)
    unrotated, rotated = (fit_first_half(split_dataset(d)).nonconverged for d in (data, moved))
    assert rotated == unrotated


def test_unconverged_fit_is_counted_not_warned():
    # the rotated case above has one unconverged fit of 60; the test reports
    # it in its diagnostics and raises no warning, even where every warning
    # is an error
    data = generate(SimConfig(example=2, n=60, p_y=3, p_z=3, d=6, delta_z=0.1, seed=3))[0]
    o = haar_orthogonal(6, np.random.default_rng(0))
    moved = Dataset(covariates=data.covariates, responses=o @ data.responses @ o.T, p1=data.p1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_partial_test(moved)
    assert (result.diagnostics.nonconverged, result.diagnostics.n_fits) == (1, 60)


def test_concurrent_tests_leave_the_warning_filters_alone():
    # two tests started together in two threads: a warning filter that one
    # installs and restores around its fits can be left behind for the whole
    # process by the other's restore, silencing every later RuntimeWarning
    data = generate(SimConfig(example=2, n=40, p_y=2, p_z=2, d=4, delta_z=0.0, seed=5))[0]
    barrier = threading.Barrier(2)

    def run(_):
        barrier.wait()
        return run_partial_test(data, pt.TestOptions(max_nonconverged=1.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        before = list(warnings.filters)
        # each round overlaps the two tests anew
        for _ in range(5):
            with ThreadPoolExecutor(max_workers=2) as pool:
                first, second = pool.map(run, range(2))
            assert warnings.filters == before
            assert first.statistic == second.statistic
        with pytest.raises(RuntimeWarning, match="did not converge"):
            weighted_frechet_mean(data.responses, np.ones(data.n), SolverOptions(max_iters=1))


@pytest.mark.parametrize("c", [1e-3, 1e4])
def test_statistic_invariant_to_response_scaling_generic(c):
    # every fit converges at c = 1, 1e-3 and 1e4: the gradient, and with it
    # the verdict ||g||_F <= grad_tol sqrt(d), is unchanged by Q -> cQ
    assert_invariant_to_congruence(generic_dataset(30, 4, 2, 3, 22), lambda q: c * q)


@pytest.mark.parametrize("example, n, seed", [(1, 120, 3), (2, 120, 7), (2, 80, 11)])
def test_result_invariant_to_affine_maps_within_blocks(example, n, seed):
    # y -> A y + b and z -> B z + C y + c leave the regression weights
    # unchanged and move the imputed z with the observed one, so the
    # statistic, the kernel spectrum and the p-value stay the same. The
    # unconverged counts may differ: verdicts at the rounding floor of the
    # objective move with the rounding of the weights
    p_y, p_z = 3, 2
    data, _ = generate(
        SimConfig(example=example, n=n, p_y=p_y, p_z=p_z, d=4, delta_z=0.1, seed=seed)
    )
    rng = np.random.default_rng(seed + 100)
    linear = np.zeros((p_y + p_z, p_y + p_z))
    linear[:p_y, :p_y] = rng.standard_normal((p_y, p_y)) + 2.0 * np.eye(p_y)
    linear[p_y:, p_y:] = rng.standard_normal((p_z, p_z)) + 2.0 * np.eye(p_z)
    linear[p_y:, :p_y] = rng.standard_normal((p_z, p_y))
    moved = Dataset(
        covariates=data.covariates @ linear.T + rng.standard_normal(p_y + p_z),
        responses=data.responses,
        p1=p_y,
    )
    options = pt.TestOptions(max_nonconverged=1.0)
    res = run_partial_test(data, options)
    res2 = run_partial_test(moved, options)
    assert_allclose(res2.statistic, res.statistic, rtol=1e-7)
    assert_allclose(res2.eigenvalues, res.eigenvalues, rtol=0, atol=1e-7 * res.eigenvalues[0])
    assert_allclose(res2.p_value, res.p_value, rtol=0, atol=1e-7)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_run_partial_test_matches_example_1_closed_form(n, delta):
    # the closed form shares no code with the program; gaps were at most
    # 6.3e-14 (statistic), 1.4e-14 (eigenvalues) and 6e-14 (p-value)
    data, truth = generate(SimConfig(example=1, n=n, p_y=3, p_z=3, d=6, delta_z=delta, seed=1))
    oracle = closed_form_test(data.covariates, data.responses, data.p1, truth.basis)
    assert not oracle.outside.any()
    res = run_partial_test(data)
    lam = oracle.eigenvalues
    assert res.diagnostics.nonconverged == 0
    assert_allclose(res.statistic, oracle.statistic, rtol=1e-10)
    assert_allclose(res.eigenvalues, lam, rtol=0, atol=1e-10 * lam[0])
    assert_allclose(res.p_value, mixture_sf(oracle.statistic, lam), rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 34])
def test_fits_outside_the_pd_cone_count_as_unconverged(seed):
    # at n = 40 some closed-form fits b = sum_i w_i a_i / n1 have an entry
    # <= 0: 2 of them for seed 0, 4 for seed 34. The minimizer then lies on
    # the cone's boundary, and the program returns a PD iterate unconverged
    data, truth = generate(SimConfig(example=1, n=40, p_y=2, p_z=2, d=4, seed=seed))
    outside = closed_form_test(data.covariates, data.responses, data.p1, truth.basis).outside
    assert outside.any()
    res = run_partial_test(data, pt.TestOptions(max_nonconverged=1.0))
    assert res.diagnostics.nonconverged == outside.sum()
    split = split_dataset(data)
    first = data.subset(range(split.n1))
    x2 = split.second_covariates
    rows = np.stack([x2, imputed_covariates(x2, split.moments)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        converged = [[frechet_regress(first, x, split.moments).converged for x in pair] for pair in rows]
    assert np.array_equal(~np.array(converged), outside)


def test_run_partial_test_fields_and_reproducibility():
    data = small_example(n=40, delta=0.0, seed=71)
    options = pt.TestOptions(mc_draws=20_000, seed=9)
    res = run_partial_test(data, options)
    assert res.statistic >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    assert res.reject == (res.statistic > res.quantile)
    assert res.eigenvalues.size == (data.n + 1) // 2
    assert np.all(res.eigenvalues >= 0.0)
    assert np.all(np.diff(res.eigenvalues) <= 0.0)
    assert res.mc_draws == 20_000 and res.seed == 9
    assert res.diagnostics.n_fits == 2 * 20
    # rerun: bit-identical
    res2 = run_partial_test(data, options)
    assert res2.statistic == res.statistic
    assert res2.p_value == res.p_value
    assert np.array_equal(res2.eigenvalues, res.eigenvalues)
    # thread count must not change anything
    res4 = run_partial_test(data, pt.TestOptions(mc_draws=20_000, seed=9, threads=4))
    assert res4.statistic == res.statistic
    assert res4.p_value == res.p_value
    assert np.array_equal(res4.eigenvalues, res.eigenvalues)
    # the same exact calibration as the public helpers
    assert res.quantile == mixture_quantile(res.eigenvalues, 0.05, 20_000, 9)
    assert res.p_value == p_value(res.statistic, res.eigenvalues, 20_000, 9)


def test_run_partial_test_rejects_vacuous_partition():
    rng = np.random.default_rng(73)
    x = rng.uniform(-1, 1, (12, 2))
    q = random_spd_stack(rng, 12, 2)
    with pytest.raises(InvalidInputError):
        run_partial_test(Dataset(covariates=x, responses=q, p1=2))
    with pytest.raises(InvalidInputError):
        run_partial_test(Dataset(covariates=x, responses=q, p1=0))


def test_run_partial_test_unreliable_fits():
    # generic SPD responses (no shared eigenbasis), so a single solver step
    # cannot land on the barycenter the way it does for commuting families
    rng = np.random.default_rng(77)
    data = Dataset(
        covariates=rng.uniform(-1, 1, (24, 4)),
        responses=random_spd_stack(rng, 24, 3),
        p1=2,
    )
    starved = pt.TestOptions(
        mc_draws=2000, solver=SolverOptions(max_iters=1, grad_tol=1e-14)
    )
    with pytest.raises(UnreliableResultError):
        run_partial_test(data, starved)
    tolerant = pt.TestOptions(
        mc_draws=2000,
        max_nonconverged=1.0,
        solver=SolverOptions(max_iters=1, grad_tol=1e-14),
    )
    res = run_partial_test(data, tolerant)
    assert np.isfinite(res.statistic)
    assert res.diagnostics.nonconverged > 0
    # the gate counts only the fits at the evaluation half's observed and
    # imputed rows
    assert res.diagnostics.n_fits == 2 * res.diagnostics.n2
    assert res.diagnostics.nonconverged <= res.diagnostics.n_fits


def test_fit_first_half_runs_only_the_evaluation_fits(monkeypatch):
    # odd n: n1 = 21 fitting rows, n2 = 20 evaluation rows
    split = split_dataset(small_example(n=41, seed=85))
    assert (split.n1, split.n2) == (21, 20)
    calls = []
    solver = pt._fit_mean

    def counted(*args):
        calls.append(1)
        return solver(*args)

    monkeypatch.setattr(pt, "_fit_mean", counted)
    fit = fit_first_half(split)
    assert len(calls) == 2 * split.n2 == fit.n_fits
    # the first-half fits run only when read, and match the public solver
    first = fit.means_first
    assert len(calls) == 2 * split.n2 + split.n1
    assert first.shape == (split.n1,) + split.first_responses.shape[1:]
    for k, x in enumerate(split.first_covariates):
        w = regression_weights(x, split.first_covariates, split.moments)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.array_equal(first[k], weighted_frechet_mean(split.first_responses, w).mean)
    assert fit.means_first is first
    assert len(calls) == 2 * split.n2 + split.n1


def test_fit_first_half_evaluates_the_start_once(monkeypatch):
    # example 1 at n = 200: the shared start costs one state evaluation, and
    # each of the 2 n2 fits one more, the step that lands on its solution
    split = split_dataset(small_example(n=200, p_y=3, p_z=3, d=6, seed=86))
    calls = []
    evaluate = frechet._eval_state

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(frechet, "_eval_state", counted)
    fit = fit_first_half(split)
    assert fit.nonconverged == 0
    assert len(calls) == 2 * split.n2 + 1


def test_evaluation_fits_match_frechet_regress():
    # the test's fits take the single-fit path, shared start included
    data, _ = generate(SimConfig(example=2, n=60, p_y=3, p_z=3, d=4, delta_z=0.1, seed=87))
    split = split_dataset(data)
    fit = fit_first_half(split)
    first = split.data.subset(np.arange(split.n1))
    xhat2 = imputed_covariates(split.second_covariates, split.moments)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(split.n2):
            observed = frechet_regress(first, split.second_covariates[k], split.moments)
            imputed = frechet_regress(first, xhat2[k], split.moments)
            assert np.array_equal(fit.means_second[k], observed.mean)
            assert np.array_equal(fit.means_second_imputed[k], imputed.mean)


def test_test_options_validation():
    with pytest.raises(InvalidInputError):
        pt.TestOptions(alpha=0.0)
    with pytest.raises(InvalidInputError):
        pt.TestOptions(alpha=1.0)
    with pytest.raises(InvalidInputError):
        pt.TestOptions(threads=0)
    with pytest.raises(InvalidInputError):
        pt.TestOptions(max_nonconverged=-0.1)
    # the field rules every options class shares: an int field takes an
    # integer that is not a bool, a float field a finite real that is not one
    for threads in (1.5, True):
        with pytest.raises(InvalidInputError, match="threads"):
            pt.TestOptions(threads=threads)
    with pytest.raises(InvalidInputError, match="alpha"):
        pt.TestOptions(alpha="0.05")
    with pytest.raises(InvalidInputError, match="permute_seed"):
        pt.TestOptions(permute_seed=1.5)
