import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from bwfrechet.errors import IllConditionedError, InvalidInputError
from bwfrechet.manifold import (
    SymOperator,
    TransportBatch,
    ot_map,
    ot_map_differential,
    sym_coords,
    sym_dim,
    sym_from_coords,
    sym_part,
    wasserstein_distance,
    weighted_dt_matrix,
)
from sylvester_oracle import transport_map, weighted_dt_reference


def random_spd(rng, d, spread=1.0):
    """Random SPD matrix with eigenvalues bounded away from zero."""
    a = rng.standard_normal((d, d))
    return a @ a.T + (0.5 + spread * rng.random()) * np.eye(d)


def random_sym(rng, d):
    return sym_part(rng.standard_normal((d, d)))


# ---------------------------------------------------------------------------
# validation of SPD arguments, through ot_map's base and target
# ---------------------------------------------------------------------------


def assert_rejected(a, error):
    """ot_map raises ``error`` for ``a`` as its base and as its target."""
    with pytest.raises(error):
        ot_map(a, np.eye(2))
    with pytest.raises(error):
        ot_map(np.eye(2), a)


def test_check_spd_rejects_asymmetric():
    assert_rejected(np.array([[1.0, 0.5], [0.0, 1.0]]), InvalidInputError)


def test_check_spd_rejects_indefinite():
    assert_rejected(np.diag([1.0, -0.1]), IllConditionedError)


def test_check_spd_rejects_near_singular():
    assert_rejected(np.diag([1.0, 1e-14]), IllConditionedError)


def test_check_spd_rejects_nonsquare_and_nonfinite():
    assert_rejected(np.ones((2, 3)), InvalidInputError)
    assert_rejected(np.array([[np.nan, 0.0], [0.0, 1.0]]), InvalidInputError)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_commuting_pair_by_hand():
    # diagonal matrices reduce to the euclidean distance of the square roots
    a = np.diag([1.0, 4.0])
    b = np.diag([9.0, 16.0])
    assert_allclose(wasserstein_distance(a, b), np.sqrt(8.0), rtol=1e-12)


def test_distance_axioms():
    rng = np.random.default_rng(1)
    for d in (2, 6):
        for _ in range(25):
            a = random_spd(rng, d)
            b = random_spd(rng, d)
            c = random_spd(rng, d)
            dab = wasserstein_distance(a, b)
            assert dab >= 0.0
            # self-distance floor scales like sqrt(eps * trace)
            assert wasserstein_distance(a, a) <= 1e-6 * max(1.0, np.sqrt(np.trace(a)))
            assert_allclose(dab, wasserstein_distance(b, a), rtol=1e-9)
            assert dab <= wasserstein_distance(a, c) + wasserstein_distance(c, b) + 1e-10


@pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6, 1e-8])
def test_distance_keeps_relative_accuracy_near_zero(t):
    # commuting A = U diag(a) U^T and B = U diag(a + t e) U^T are at distance
    # ||sqrt(b) - sqrt(a)|| = ||(b - a) / (sqrt(a) + sqrt(b))||, a form with
    # no cancellation; the trace form loses about eps / W^2 of it
    rng = np.random.default_rng(12)
    d = 6
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = rng.uniform(1.0, 3.0, d)
    b = a + t * rng.uniform(-1.0, 1.0, d)
    want = np.linalg.norm((b - a) / (np.sqrt(a) + np.sqrt(b)))
    got = wasserstein_distance(sym_part(u @ np.diag(a) @ u.T), sym_part(u @ np.diag(b) @ u.T))
    assert_allclose(got, want, rtol=1e-5)


def test_distance_orthogonal_invariance():
    rng = np.random.default_rng(2)
    d = 5
    a = random_spd(rng, d)
    b = random_spd(rng, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    assert_allclose(
        wasserstein_distance(q @ a @ q.T, q @ b @ q.T),
        wasserstein_distance(a, b),
        rtol=1e-9,
    )


def test_distance_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        wasserstein_distance(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# transport maps
# ---------------------------------------------------------------------------


def test_ot_map_scalar_case():
    t = ot_map(np.array([[4.0]]), np.array([[9.0]]))
    assert_allclose(t, np.array([[1.5]]), rtol=1e-12)


def test_ot_map_defining_relation():
    rng = np.random.default_rng(3)
    for d in (2, 6, 10):
        for _ in range(10):
            base = random_spd(rng, d)
            target = random_spd(rng, d)
            t = ot_map(base, target)
            assert_allclose(t, t.T, atol=1e-10)
            resid = t @ base @ t - target
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(target)


def test_ot_map_identity_when_equal():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 4)
    assert_allclose(ot_map(a, a), np.eye(4), atol=1e-9)


def test_ot_map_orthogonal_equivariance():
    rng = np.random.default_rng(5)
    d = 4
    base = random_spd(rng, d)
    target = random_spd(rng, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lhs = ot_map(q @ base @ q.T, q @ target @ q.T)
    assert_allclose(lhs, q @ ot_map(base, target) @ q.T, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# symmetric-matrix coordinates
# ---------------------------------------------------------------------------


def test_sym_dim_values():
    assert sym_dim(1) == 1
    assert sym_dim(2) == 3
    assert sym_dim(6) == 21


def test_identity_coordinates():
    assert_allclose(sym_coords(np.eye(2)), np.array([1.0, 1.0, 0.0]), atol=1e-15)


def test_coords_roundtrip_and_isometry():
    rng = np.random.default_rng(7)
    for d in (2, 4, 7):
        h1 = random_sym(rng, d)
        h2 = random_sym(rng, d)
        v1 = sym_coords(h1)
        assert v1.shape == (sym_dim(d),)
        assert_allclose(sym_from_coords(v1, d), h1, atol=1e-12)
        # frobenius inner product is preserved
        assert_allclose(float(v1 @ sym_coords(h2)), float(np.sum(h1 * h2)), rtol=1e-12)


def test_coords_batched():
    rng = np.random.default_rng(8)
    stack = np.stack([random_sym(rng, 3) for _ in range(5)])
    coords = sym_coords(stack)
    assert coords.shape == (5, sym_dim(3))
    assert_allclose(sym_from_coords(coords, 3), stack, atol=1e-12)


# ---------------------------------------------------------------------------
# symmetric operators
# ---------------------------------------------------------------------------


def test_operator_identity_and_apply():
    rng = np.random.default_rng(9)
    h = random_sym(rng, 4)
    assert_allclose(SymOperator(4, np.eye(sym_dim(4))).apply(h), h, atol=1e-12)


def test_operator_shape_validation():
    with pytest.raises(InvalidInputError):
        SymOperator(3, np.eye(4))
    with pytest.raises(InvalidInputError):
        SymOperator(2, np.full((3, 3), np.nan))


# ---------------------------------------------------------------------------
# transport differentials
# ---------------------------------------------------------------------------


def test_differential_at_coincident_points():
    # when base and target coincide at the identity, dT[H] = -H/2
    rng = np.random.default_rng(13)
    op = ot_map_differential(np.eye(3), np.eye(3))
    h = random_sym(rng, 3)
    assert_allclose(op.apply(h), -h / 2.0, atol=1e-10)


def test_differential_scalar_case():
    # base 1, target 4: T = 2 and dT[h] = -T h / (2 base) = -h
    op = ot_map_differential(np.array([[1.0]]), np.array([[4.0]]))
    assert_allclose(op.apply(np.array([[1.0]])), np.array([[-1.0]]), rtol=1e-10)


def test_differential_matches_finite_differences():
    rng = np.random.default_rng(14)
    eps = 1e-5
    for d in (2, 4):
        base = random_spd(rng, d)
        target = random_spd(rng, d)
        op = ot_map_differential(base, target)
        for _ in range(3):
            h = random_sym(rng, d)
            fd = (ot_map(base + eps * h, target) - ot_map(base - eps * h, target)) / (2 * eps)
            got = op.apply(h)
            assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_differential_solves_sylvester_equation():
    # dT[H] satisfies X (S T) + (T S) X = -T H T; scipy solves A X + X B = Q,
    # so A = T S and B = S T
    rng = np.random.default_rng(15)
    d = 4
    base = random_spd(rng, d)
    target = random_spd(rng, d)
    t = ot_map(base, target)
    op = ot_map_differential(base, target)
    h = random_sym(rng, d)
    expected = scipy.linalg.solve_sylvester(t @ base, base @ t, -t @ h @ t)
    assert_allclose(op.apply(h), expected, rtol=1e-8, atol=1e-10)


def test_differential_self_adjoint_nonpositive():
    rng = np.random.default_rng(16)
    for d in (2, 5):
        op = ot_map_differential(random_spd(rng, d), random_spd(rng, d))
        assert_allclose(op.matrix, op.matrix.T, rtol=0, atol=1e-8 * np.abs(op.matrix).max())
        assert np.linalg.eigvalsh(op.matrix).max() <= 1e-10


def test_batch_maps_match_single_calls():
    rng = np.random.default_rng(17)
    d = 4
    base = random_spd(rng, d)
    targets = np.stack([random_spd(rng, d) for _ in range(6)])
    batch = TransportBatch(base, targets)
    maps = batch.maps()
    for i in range(6):
        assert_allclose(maps[i], ot_map(base, targets[i]), rtol=1e-9, atol=1e-9)


def test_batch_weighted_matrix_is_weighted_sum():
    # against sum_i c_i dT_i with every map from sqrtm and every column from
    # the Sylvester equation; coefficients of both signs
    rng = np.random.default_rng(18)
    for d in (1, 2, 3, 6):
        base = random_spd(rng, d)
        targets = np.stack([random_spd(rng, d) for _ in range(5)])
        coeffs = rng.uniform(0.2, 2.0, 5) * np.array([1.0, -1.0, 1.0, -1.0, -1.0])
        got = weighted_dt_matrix(*TransportBatch(base, targets).dt_factors(), coeffs)
        expected = weighted_dt_reference(base, targets, coeffs)
        assert_allclose(got, expected, rtol=1e-9, atol=1e-10)


def test_mean_map_matches_weighted_sum_of_maps():
    rng = np.random.default_rng(19)
    d, k = 6, 50
    base = random_spd(rng, d)
    targets = np.stack([random_spd(rng, d) for _ in range(k)])
    weights = rng.uniform(-1.0, 2.0, k)
    expected = sum(w * transport_map(base, q) for w, q in zip(weights, targets)) / k
    got = TransportBatch(base, targets).mean_map(weights)
    assert_allclose(got, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


def test_batch_rejects_bad_shapes():
    with pytest.raises(InvalidInputError):
        TransportBatch(np.eye(2), np.ones((3, 3, 3)))
