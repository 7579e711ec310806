import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bwfrechet.errors import InvalidInputError, SingularError
from bwfrechet.frechet import (
    CovariateMoments,
    Dataset,
    SolverOptions,
    frechet_regress,
    regression_weights,
    weighted_frechet_mean,
)
from bwfrechet.manifold import EPS_PD, ot_map, ot_map_differential, sym_part
from bwfrechet.simgen import SimConfig, generate, haar_orthogonal


def random_spd(rng, d, spread=1.0):
    a = rng.standard_normal((d, d))
    return a @ a.T + (0.5 + spread * rng.random()) * np.eye(d)


def commuting_family(rng, n, d):
    """SPD matrices sharing one eigenbasis, plus that basis and eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = rng.uniform(0.5, 4.0, size=(n, d))
    mats = np.stack([sym_part(q @ np.diag(v) @ q.T) for v in vals])
    return mats, q, vals


# ---------------------------------------------------------------------------
# covariate moments
# ---------------------------------------------------------------------------


def test_moments_match_direct_formulas():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 4))
    m = CovariateMoments.from_covariates(x, p1=2)
    assert_allclose(m.mean, x.mean(axis=0), rtol=0, atol=1e-12)
    xc = x - x.mean(axis=0)
    assert_allclose(m.cov, (xc.T @ xc) / 40, rtol=0, atol=1e-12)
    assert m.n == 40 and m.p == 4 and m.p1 == 2
    assert_allclose(m.require_cov_inv() @ m.cov, np.eye(4), atol=1e-10)
    assert_allclose(m.require_cov11_inv() @ m.cov[:2, :2], np.eye(2), atol=1e-10)


def test_moments_singular_covariance():
    x = np.zeros((10, 2))
    x[:, 0] = np.arange(10.0)
    x[:, 1] = 2.0 * np.arange(10.0)  # collinear
    m = CovariateMoments.from_covariates(x, p1=1)
    with pytest.raises(SingularError):
        m.require_cov_inv()
    # the leading 1x1 block is still invertible
    assert m.require_cov11_inv().shape == (1, 1)


def test_moments_validation():
    with pytest.raises(InvalidInputError):
        CovariateMoments.from_covariates(np.ones((3, 2)), p1=5)
    with pytest.raises(InvalidInputError):
        CovariateMoments.from_covariates(np.full((3, 2), np.nan), p1=1)
    x = np.random.default_rng(0).standard_normal((10, 3))
    for p1 in (1.7, True, "2"):
        with pytest.raises(InvalidInputError, match="p1"):
            CovariateMoments.from_covariates(x, p1=p1)


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------


def test_dataset_properties_and_subset():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 3))
    qs = np.stack([random_spd(rng, 2) for _ in range(8)])
    data = Dataset(x, qs, p1=2)
    assert (data.n, data.p, data.d) == (8, 3, 2)
    sub = data.subset([5, 1, 2])
    assert sub.n == 3
    assert_allclose(sub.covariates, x[[5, 1, 2]], atol=0)
    assert not data.covariates.flags.writeable


def test_dataset_rejects_bad_responses():
    x = np.zeros((2, 1))
    with pytest.raises(InvalidInputError):
        Dataset(x, np.stack([np.eye(2), np.diag([1.0, -1.0])]), p1=1)
    with pytest.raises(InvalidInputError):
        Dataset(x, np.stack([np.eye(2)]), p1=1)  # count mismatch
    for p1 in (1.7, True, "2", None):
        with pytest.raises(InvalidInputError, match="p1 must be an integer"):
            Dataset(np.zeros((2, 3)), np.stack([np.eye(2)] * 2), p1=p1)


# ---------------------------------------------------------------------------
# weighted mean solver
# ---------------------------------------------------------------------------


def test_scalar_barycenter_by_hand():
    # in one dimension the barycenter is the squared mean of square roots
    qs = np.array([[[1.0]], [[4.0]]])
    fit = weighted_frechet_mean(qs, np.ones(2))
    assert fit.converged
    assert_allclose(fit.mean, np.array([[2.25]]), rtol=1e-10)


def test_commuting_weighted_closed_form():
    rng = np.random.default_rng(2)
    qs, basis, vals = commuting_family(rng, 7, 4)
    w = rng.uniform(0.2, 2.0, size=7)
    fit = weighted_frechet_mean(qs, w, SolverOptions(grad_tol=1e-9))
    mean_sqrt = (w @ np.sqrt(vals)) / w.sum()
    expected = basis @ np.diag(mean_sqrt**2) @ basis.T
    assert fit.converged
    assert_allclose(fit.mean, expected, rtol=1e-6, atol=1e-7)


def test_mean_first_order_condition():
    rng = np.random.default_rng(3)
    qs = np.stack([random_spd(rng, 3) for _ in range(12)])
    w = np.ones(12)
    opts = SolverOptions(grad_tol=1e-9)
    fit = weighted_frechet_mean(qs, w, opts)
    assert fit.converged
    assert fit.grad_norm <= 1e-9 * np.trace(fit.mean)


@pytest.mark.parametrize("family", ["commuting", "generic"])
def test_descent_does_not_stall_at_rounding_floor(family):
    # 400 instances at a tolerance near the objective's rounding floor: a
    # step the objective cannot rank is judged by the gradient norm, so the
    # fits inside the cone converge (a quarter of them stalled when only the
    # objective ranked steps)
    rng = np.random.default_rng(100 if family == "commuting" else 200)
    opts = SolverOptions(grad_tol=1e-9)
    stalled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(400):
            if family == "commuting":
                qs = commuting_family(rng, 7, 4)[0]
            else:
                qs = np.stack([random_spd(rng, 3) for _ in range(12)])
            fit = weighted_frechet_mean(qs, rng.uniform(0.2, 2.0, qs.shape[0]), opts)
            vals = np.linalg.eigvalsh(fit.mean)
            stalled += not fit.converged and vals[0] > 1e-6 * vals[-1]
    assert stalled <= 2


def test_mean_orthogonal_equivariance():
    rng = np.random.default_rng(4)
    qs = np.stack([random_spd(rng, 3) for _ in range(6)])
    w = rng.uniform(0.5, 1.5, size=6)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    direct = weighted_frechet_mean(np.einsum("ab,ibc,dc->iad", u, qs, u), w).mean
    assert_allclose(direct, u @ weighted_frechet_mean(qs, w).mean @ u.T, rtol=1e-7, atol=1e-8)


def test_mean_weight_validation():
    qs = np.stack([np.eye(2), 2 * np.eye(2)])
    with pytest.raises(InvalidInputError):
        weighted_frechet_mean(qs, np.ones(3))
    with pytest.raises(InvalidInputError):
        weighted_frechet_mean(qs, np.array([1.0, -2.0]))
    with pytest.raises(InvalidInputError):
        weighted_frechet_mean(qs, np.array([np.inf, 1.0]))


def test_mean_warns_when_iteration_budget_exhausted():
    rng = np.random.default_rng(5)
    qs = np.stack([random_spd(rng, 4) for _ in range(10)])
    opts = SolverOptions(max_iters=1, grad_tol=1e-14)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = weighted_frechet_mean(qs, np.ones(10), opts)
    assert not fit.converged
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    # the best iterate is still a usable SPD matrix
    assert np.linalg.eigvalsh(fit.mean)[0] > 0


def test_solver_options_validation():
    for max_iters in (0, 2.5, True):
        with pytest.raises(InvalidInputError, match="max_iters"):
            SolverOptions(max_iters=max_iters)
    for grad_tol in (0.0, float("nan"), "1e-8"):
        with pytest.raises(InvalidInputError, match="grad_tol"):
            SolverOptions(grad_tol=grad_tol)


def test_fit_converges_where_weighted_average_is_indefinite():
    # weight -1 on a response with eigenvalue 5 along one direction: the
    # weighted Euclidean average is indefinite there, while the weighted sum
    # of square roots (about 3 - sqrt 5 > 0 there) keeps a minimizer in the
    # cone, which the solver reaches from its start, the plain mean of the
    # responses
    rng = np.random.default_rng(6)
    d = 3
    near = [np.eye(d) + 0.02 * random_spd(rng, d) for _ in range(3)]
    o, _ = np.linalg.qr(rng.standard_normal((d, d)))
    qs = np.stack(near + [o @ np.diag([1.0, 5.0, 1.5]) @ o.T])
    w = np.array([1.0, 1.0, 1.0, -1.0])
    assert np.linalg.eigvalsh(np.tensordot(w, qs, axes=(0, 0)))[0] < 0
    # the negative weight raises the rounding floor of the objective to near
    # the default tolerance; past it, steps are ranked by the gradient norm
    fit = weighted_frechet_mean(qs, w, SolverOptions(grad_tol=1e-7))
    assert fit.converged
    assert np.linalg.eigvalsh(fit.mean)[0] > 0
    # first-order condition (1/n) sum_i w_i T_i = mean(w) I, with the
    # transport maps built afresh
    grad = sum(wi * ot_map(fit.mean, q) for wi, q in zip(w, qs)) / len(w) - w.mean() * np.eye(d)
    assert np.linalg.norm(grad) <= 1e-7 * np.trace(fit.mean)


def test_start_is_pd_for_valid_responses():
    # responses of condition number up to about 4e9 along one shared
    # direction, and weight -1 on the one stretched along another: the
    # weighted Euclidean average is indefinite, while the start, the plain
    # mean of the responses, has lambda_min / lambda_max no smaller than the
    # responses' smallest, so it is PD at EPS_PD and the solver runs without
    # error
    rng = np.random.default_rng(83)
    u = haar_orthogonal(3, rng)
    scales = rng.uniform(0.5, 1.5, (4, 3)) * np.array([1.0, 1.0, 1e-9])
    scales[3, 0] = 5.0
    qs = np.einsum("ab,nb,cb->nac", u, scales, u)
    w = np.array([1.0, 1.0, 1.0, -1.0])
    vals = np.linalg.eigvalsh(qs)
    assert np.all(vals[:, 0] > EPS_PD * vals[:, -1])
    assert np.linalg.eigvalsh(np.tensordot(w, qs, axes=(0, 0)))[0] < 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = weighted_frechet_mean(qs, w)
    mean_vals = np.linalg.eigvalsh(fit.mean)
    assert mean_vals[0] > EPS_PD * mean_vals[-1]


# ---------------------------------------------------------------------------
# regression weights and the conditional-mean estimate
# ---------------------------------------------------------------------------


def test_regression_weights_by_hand():
    x = np.array([[0.0], [1.0], [2.0]])
    m = CovariateMoments.from_covariates(x, p1=1)
    w = regression_weights(np.array([2.0]), x, m)
    assert_allclose(w, np.array([-0.5, 1.0, 2.5]), rtol=1e-12)


def test_regression_weights_average_to_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 3))
    m = CovariateMoments.from_covariates(x, p1=1)
    w = regression_weights(rng.standard_normal(3), x, m)
    assert_allclose(w.mean(), 1.0, rtol=1e-10)
    # covariates of the wrong width or rank, including a width-1 stack that
    # would broadcast against the three-column mean without an error
    for bad in (x[:, :2], x[:, :1], x[0]):
        with pytest.raises(InvalidInputError, match="covariates"):
            regression_weights(rng.standard_normal(3), bad, m)


def test_regress_at_mean_is_unweighted_mean():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((15, 2))
    qs = np.stack([random_spd(rng, 3) for _ in range(15)])
    data = Dataset(x, qs, p1=1)
    at_mean = frechet_regress(data, x.mean(axis=0))
    plain = weighted_frechet_mean(qs, np.ones(15))
    assert_allclose(at_mean.mean, plain.mean, rtol=1e-7, atol=1e-8)


def test_regress_commuting_tracks_linear_model():
    # responses whose square roots are linear in x: the estimate at x
    # reproduces the model value
    rng = np.random.default_rng(9)
    n, d = 60, 3
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    roots = 2.0 + 0.5 * x[:, 0]
    qs = np.stack([np.diag(np.full(d, r**2)) for r in roots])
    data = Dataset(x, qs, p1=1)
    fit = frechet_regress(data, np.array([0.25]))
    expected = np.diag(np.full(d, (2.0 + 0.5 * 0.25) ** 2))
    assert_allclose(fit.mean, expected, rtol=1e-6, atol=1e-8)


def test_reported_iterations():
    # iterations counts the accepted steps plus one, capped at max_iters
    def fit_at(example, options):
        data, _ = generate(SimConfig(example=example, n=100, p_y=3, p_z=3, d=6, seed=1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = frechet_regress(data, data.covariates[0], options=options)
        return data, fit, [str(w.message) for w in caught]

    # example 1's responses commute: one step lands on the solution
    _, fit, caught = fit_at(1, SolverOptions())
    assert fit.converged and fit.iterations == 2 and not caught
    for max_iters in (1, 3):
        _, fit, caught = fit_at(2, SolverOptions(max_iters=max_iters, grad_tol=1e-14))
        assert fit.converged is False and fit.iterations == max_iters
        assert f"did not converge in {max_iters} iterations" in caught[0]

    # no fit reaches this tolerance: past the objective's rounding floor the
    # descent goes on while steps lower the gradient norm, and stops where
    # the gradient itself is at rounding, after a count that depends on it
    data, fit, caught = fit_at(2, SolverOptions(grad_tol=1e-300))
    assert fit.converged is False and 1 < fit.iterations < 500
    assert f"did not converge in {fit.iterations} iterations" in caught[0]
    x = data.covariates
    w = regression_weights(x[0], x, CovariateMoments.from_covariates(x, data.p1))
    grad = sum(wi * ot_map(fit.mean, q) for wi, q in zip(w, data.responses)) / len(w)
    rebuilt = np.linalg.norm(grad - w.mean() * np.eye(6))
    scale = np.trace(fit.mean)
    assert fit.grad_norm <= 1e-14 * scale
    assert abs(fit.grad_norm - rebuilt) <= 1e-15 * scale


def test_unconverged_warning_names_the_callers_line():
    data, _ = generate(SimConfig(example=2, n=40, p_y=2, p_z=2, d=4, seed=2))
    opts = SolverOptions(max_iters=1, grad_tol=1e-14)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mean = weighted_frechet_mean(data.responses, np.ones(data.n), opts)
        regress = frechet_regress(data, data.covariates[0], options=opts)
    assert not mean.converged and not regress.converged
    assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)] * 2


# ---------------------------------------------------------------------------
# curvature operator
# ---------------------------------------------------------------------------


def test_hessian_psd_at_minimizer():
    # the curvature -(1/n) sum_i w_i dT_i of the weighted objective is
    # positive definite at its minimizer when the weights are positive
    rng = np.random.default_rng(11)
    n, d = 20, 3
    x = rng.standard_normal((n, 2))
    qs = np.stack([random_spd(rng, d) for _ in range(n)])
    data = Dataset(x, qs, p1=1)
    point = x.mean(axis=0)
    fit = frechet_regress(data, point)
    w = regression_weights(point, x, CovariateMoments.from_covariates(x, p1=1))
    hessian = sum(-w[i] / n * ot_map_differential(fit.mean, qs[i]).matrix for i in range(n))
    assert_allclose(hessian, hessian.T, rtol=0, atol=1e-8 * np.abs(hessian).max())
    assert np.linalg.eigvalsh(hessian).min() > 0
