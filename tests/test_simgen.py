import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfrechet.errors import InvalidConfigError
from bwfrechet.manifold import wasserstein_distance
from bwfrechet.simgen import (
    MEAN_ABS_V,
    SimConfig,
    _diag_values,
    generate,
    haar_orthogonal,
    population_qstar,
    true_qstar,
)


def test_v_moment_constants():
    # uniform on [-0.9, 1.1]: E|V| = 0.505
    rng = np.random.default_rng(0)
    v = rng.uniform(-0.9, 1.1, size=200_000)
    assert_allclose(MEAN_ABS_V, 0.505, rtol=1e-12)
    assert_allclose(np.abs(v).mean(), MEAN_ABS_V, rtol=5e-3)


def test_diagonal_profiles_at_origin():
    x0 = np.zeros(4)
    first = _diag_values(1, 2, 0.0, 6, x0)
    assert_allclose(first[0], 2.0, rtol=1e-12)          # 1.5 + 1/2
    assert_allclose(first[5], 4.5, rtol=1e-12)          # 1.5 + 6/2
    second = _diag_values(2, 2, 0.0, 6, x0)
    assert_allclose(second[0], 2.0, rtol=1e-12)         # 1.5 + 0.5*ceil(1/2)
    assert_allclose(second[2], 2.5, rtol=1e-12)         # 1.5 + 0.5*ceil(3/2)
    # paired levels in the second design
    assert_allclose(second[0], second[1], rtol=0)
    assert_allclose(second[2], second[3], rtol=0)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SimConfig(example=3, n=10, p_y=1, p_z=1, d=2)
    with pytest.raises(InvalidConfigError):
        SimConfig(example=2, n=10, p_y=1, p_z=1, d=3)   # odd d
    with pytest.raises(InvalidConfigError):
        SimConfig(example=1, n=10, p_y=2, p_z=2, d=2, delta_z=0.5)  # 0.5 >= 2/4
    with pytest.raises(InvalidConfigError):
        SimConfig(example=1, n=0, p_y=1, p_z=1, d=2)
    with pytest.raises(InvalidConfigError):
        SimConfig(example=1, n=10, p_y=1, p_z=1, d=2, seed=-1)


def test_haar_orthogonal_properties():
    rng = np.random.default_rng(1)
    for d in (2, 5):
        u = haar_orthogonal(d, rng)
        assert_allclose(u @ u.T, np.eye(d), atol=1e-12)


def test_generate_shapes_and_validity():
    cfg = SimConfig(example=1, n=25, p_y=2, p_z=2, d=4, delta_z=0.1, seed=3)
    data, truth = generate(cfg)
    assert data.covariates.shape == (25, 4)
    assert data.responses.shape == (25, 4, 4)
    assert data.p1 == 2
    assert np.all(data.covariates >= -1.0) and np.all(data.covariates <= 1.0)
    for q in data.responses:
        assert np.linalg.eigvalsh(q)[0] > 0
    assert truth.example == 1 and truth.resampled == 0


def test_generate_deterministic_and_prefix_stable():
    cfg = SimConfig(example=2, n=20, p_y=1, p_z=2, d=4, seed=11)
    a, _ = generate(cfg)
    b, _ = generate(cfg)
    assert_allclose(a.covariates, b.covariates, rtol=0, atol=0)
    assert_allclose(a.responses, b.responses, rtol=0, atol=0)
    # growing n keeps the first rows identical
    big, _ = generate(SimConfig(example=2, n=40, p_y=1, p_z=2, d=4, seed=11))
    assert_allclose(big.covariates[:20], a.covariates, rtol=0, atol=0)
    assert_allclose(big.responses[:20], a.responses, rtol=0, atol=0)


def test_generate_seeds_differ():
    cfg_a = SimConfig(example=1, n=10, p_y=1, p_z=1, d=3, seed=0)
    cfg_b = SimConfig(example=1, n=10, p_y=1, p_z=1, d=3, seed=1)
    a, _ = generate(cfg_a)
    b, _ = generate(cfg_b)
    assert np.abs(a.covariates - b.covariates).max() > 1e-3


def test_first_design_commutes_with_target():
    # every response shares the eigenbasis of the target surface
    cfg = SimConfig(example=1, n=12, p_y=2, p_z=1, d=4, seed=5)
    data, truth = generate(cfg)
    for i in range(12):
        t = true_qstar(truth, data.covariates[i])
        resp = data.responses[i]
        comm = resp @ t - t @ resp
        assert np.abs(comm).max() <= 1e-8 * np.abs(resp).max() * np.abs(t).max()


def test_commuting_distance_reduces_to_root_difference():
    # within the first design, BW distance equals the euclidean distance of
    # square roots computed in the shared eigenbasis
    cfg = SimConfig(example=1, n=6, p_y=1, p_z=1, d=4, seed=9)
    data, truth = generate(cfg)
    u = truth.basis
    for i in (0, 2):
        qa = data.responses[i]
        qb = data.responses[i + 1]
        da = np.sqrt(np.clip(np.diag(u.T @ qa @ u), 0, None))
        db = np.sqrt(np.clip(np.diag(u.T @ qb @ u), 0, None))
        assert_allclose(
            wasserstein_distance(qa, qb), np.linalg.norm(da - db), rtol=1e-6, atol=1e-8
        )


def test_second_design_block_structure():
    cfg = SimConfig(example=2, n=8, p_y=1, p_z=1, d=6, seed=7)
    data, truth = generate(cfg)
    assert truth.basis is None
    # true target is diagonal with paired levels at the origin
    t = true_qstar(truth, np.zeros(2))
    assert_allclose(t, np.diag(np.diag(t)), atol=1e-12)
    assert_allclose(np.diag(t)[0], np.diag(t)[1], rtol=1e-12)


def test_population_target_scaling():
    cfg = SimConfig(example=1, n=4, p_y=1, p_z=1, d=3, seed=2)
    _, truth = generate(cfg)
    x = np.array([0.3, -0.2])
    assert_allclose(
        population_qstar(truth, x), MEAN_ABS_V**2 * true_qstar(truth, x), rtol=1e-12
    )


def test_empirical_mean_tracks_population_target():
    # the pointwise barycenter of many draws at a fixed covariate approaches
    # the scaled target surface
    from bwfrechet.frechet import weighted_frechet_mean

    cfg = SimConfig(example=1, n=4000, p_y=1, p_z=1, d=3, seed=13)
    data, truth = generate(cfg)
    fit = weighted_frechet_mean(data.responses, np.ones(cfg.n))
    # commuting family: the barycenter's square root is the mean square root,
    # and averaging population targets over the drawn covariates integrates
    # out the scale randomness
    u = truth.basis
    diag_roots = np.sqrt(
        np.stack([np.diag(u.T @ population_qstar(truth, x) @ u) for x in data.covariates])
    )
    expected = u @ np.diag(diag_roots.mean(axis=0) ** 2) @ u.T
    assert_allclose(fit.mean, expected, rtol=0.04, atol=0.04)
