"""Output checks built apart from the program, on numpy and scipy alone.

Nothing here imports ``bwfrechet``: every reference value is recomputed
from the dataset arrays with its own code, so a fault in a shared helper of
the program cannot hide itself.

* Example 1 shares one eigenbasis U across all responses, so every fit,
  transport map and curvature operator is diagonal in U and the statistic
  and the calibration kernel have closed forms (:func:`ex1_closed_form`).
* Any design: fits must satisfy the first-order condition
  sum_i w_i (T_i - I) = 0 (:func:`first_order_residuals`); the statistic
  and the kernel trace are reassembled from the program's fits with
  transports and Sylvester solves of our own (:func:`statistic_and_trace`).
* The Monte Carlo p-value and quantile are compared against the mixture's
  survival function by Imhof's inversion (:func:`mixture_sf`), within a
  stated multiple of the Monte Carlo standard error.
"""

import math

import numpy as np
from scipy import integrate

MC_SIGMAS = 5.0


class CheckFailed(Exception):
    """An output of the program disagrees with its independent reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# split, moments and regression weights
# ---------------------------------------------------------------------------

class Halves:
    """First-half moments, imputed rows and regression weights of one split.

    Rows keep their order; the first ceil(n/2) rows fit, the rest evaluate.
    The covariance uses divisor n1 and the trailing block is imputed by its
    best linear prediction from the leading ``p1`` coordinates.
    """

    def __init__(self, x, q, p1):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        self.n1 = (n + 1) // 2
        self.x1, self.x2 = x[: self.n1], x[self.n1 :]
        self.q1 = np.asarray(q, dtype=float)[: self.n1]
        mu = self.x1.mean(axis=0)
        self.xc = self.x1 - mu
        cov = self.xc.T @ self.xc / self.n1
        self.inv = np.linalg.inv(cov)
        y2 = self.x2[:, :p1]
        zhat = mu[p1:] + (y2 - mu[:p1]) @ np.linalg.solve(cov[:p1, :p1], cov[:p1, p1:])
        self.xhat2 = np.concatenate([y2, zhat], axis=1)
        self.mu = mu

    def weights(self, points):
        """Regression weights w(point, X_i) for first-half rows, shape (k, n1)."""
        return 1.0 + (np.asarray(points) - self.mu) @ self.inv @ self.xc.T

    def weight_gaps(self):
        """w(x2_k, X_i) - w(xhat2_k, X_i), shape (n2, n1)."""
        return (self.x2 - self.xhat2) @ self.inv @ self.xc.T


# ---------------------------------------------------------------------------
# example 1: closed form in the shared eigenbasis
# ---------------------------------------------------------------------------

def ex1_closed_form(x, q, p1):
    """Statistic and kernel eigenvalues of the test on commuting responses.

    In the shared eigenbasis each response is diag(q_i), the fit at a point
    with weights w is diag(sigma^2) with sigma = sum_i w_i q_i^(1/2) / n1,
    the transport to q_i is diag(q_i^(1/2) / sigma), and the curvature acts
    on a diagonal perturbation entrywise:
    (H D)_aa = D_aa sum_i w_i t_ia / (2 sigma_a^2 n1).
    Returns (statistic, eigenvalues descending, kernel trace).
    """
    h = Halves(x, q, p1)
    q = np.asarray(q, dtype=float)
    mix = np.tensordot(np.cos(np.arange(q.shape[0]) + 0.5), q, axes=(0, 0))
    _, basis = np.linalg.eigh(mix)
    rotated = basis.T @ q @ basis
    diag = np.diagonal(rotated, axis1=1, axis2=2)
    off = np.abs(rotated - diag[:, :, None] * np.eye(q.shape[-1])).max()
    require(off <= 1e-10 * np.abs(q).max(), f"example-1 responses do not share an eigenbasis ({off:.3g})")
    root1 = np.sqrt(diag[: h.n1])                       # (n1, d)
    w_obs = h.weights(h.x2)
    w_imp = h.weights(h.xhat2)
    sig_obs = w_obs @ root1 / h.n1                      # (n2, d)
    sig_imp = w_imp @ root1 / h.n1
    require(sig_obs.min() > 0 and sig_imp.min() > 0, "closed-form fit left the PD cone")
    delta = sig_obs**2 - sig_imp**2
    t = root1[None, :, :] / sig_imp[:, None, :]         # (n2, n1, d)
    curv = np.einsum("ki,kia->ka", w_imp, t) / (2.0 * sig_imp**2 * h.n1)
    statistic = float(np.sum((curv * delta) ** 2))
    a = (h.weight_gaps()[:, :, None] * (t - 1.0)).transpose(1, 0, 2).reshape(h.n1, -1)
    kernel = a @ a.T / h.n1**2
    eig = np.clip(np.linalg.eigvalsh(kernel), 0.0, None)[::-1]
    trace = float(np.sum(a * a)) / h.n1**2
    return statistic, eig, trace


# ---------------------------------------------------------------------------
# any design: first-order condition, statistic and kernel trace
# ---------------------------------------------------------------------------

def _sqrt_pair(s):
    vals, vecs = np.linalg.eigh(s)
    r = np.sqrt(vals)
    return (vecs * r[..., None, :]) @ np.swapaxes(vecs, -1, -2), (vecs / r[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def transports(bases, targets):
    """OT maps from each base (k, d, d) to each target (n, d, d): (k, n, d, d)."""
    w, wi = _sqrt_pair(bases)
    mid = w[:, None] @ targets[None] @ w[:, None]
    mid = 0.5 * (mid + np.swapaxes(mid, -1, -2))
    vals, vecs = np.linalg.eigh(mid)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return wi[:, None] @ root @ wi[:, None]


def _chunks(k, n, pairs=4096):
    step = max(1, pairs // max(n, 1))
    return [slice(lo, lo + step) for lo in range(0, k, step)]


def first_order_residuals(fits, weights, q1):
    """||sum_i w_i (T_i - I) / n1||_F / tr(fit) for each fit, shape (k,)."""
    eye = np.eye(q1.shape[-1])
    out = []
    for sl in _chunks(fits.shape[0], q1.shape[0]):
        grad = np.einsum("ki,kiab->kab", weights[sl], transports(fits[sl], q1) - eye) / q1.shape[0]
        out.append(np.linalg.norm(grad, axis=(1, 2)) / np.trace(fits[sl], axis1=1, axis2=2))
    return np.concatenate(out)


def _dt(base, t, delta):
    """Differential dT[delta] of the transport map in its base, batched.

    Solves (T S) X + X (S T) = -T delta T for X by vectorising the Sylvester
    equation, independently of the program's eigenbasis formula.
    """
    d = base.shape[-1]
    eye = np.eye(d)
    a = t @ base
    b = base @ t
    # row-major vec: vec(A X) = (A kron I) vec X, vec(X B) = (I kron B^T) vec X
    op = np.einsum("...ij,kl->...ikjl", a, eye).reshape(a.shape[:-2] + (d * d, d * d))
    op = op + np.einsum("ij,...kl->...iljk", eye, b).reshape(op.shape)
    rhs = -(t @ delta @ t).reshape(a.shape[:-2] + (d * d, 1))
    return np.linalg.solve(op, rhs).reshape(a.shape)


def statistic_and_trace(x, q, p1, means_second, means_second_imputed):
    """Statistic and kernel trace rebuilt from the program's second-half fits.

    Returns (statistic, trace, first-order residuals of every second-half fit).
    """
    h = Halves(x, q, p1)
    w_imp = h.weights(h.xhat2)
    gaps = h.weight_gaps()
    eye = np.eye(h.q1.shape[-1])
    statistic = trace = 0.0
    for sl in _chunks(means_second_imputed.shape[0], h.n1):
        base = means_second_imputed[sl]
        t = transports(base, h.q1)                      # (k, n1, d, d)
        delta = (means_second[sl] - base)[:, None]
        dts = _dt(np.broadcast_to(base[:, None], t.shape), t, np.broadcast_to(delta, t.shape))
        image = -np.einsum("ki,kiab->kab", w_imp[sl], dts) / h.n1
        statistic += float(np.sum(image * image))
        trace += float(np.sum(gaps[sl] ** 2 * np.sum((t - eye) ** 2, axis=(2, 3))))
    resid_imp = first_order_residuals(means_second_imputed, w_imp, h.q1)
    resid_obs = first_order_residuals(means_second, h.weights(h.x2), h.q1)
    return statistic, trace / h.n1**2, np.concatenate([resid_obs, resid_imp])


# ---------------------------------------------------------------------------
# chi-squared mixture by Imhof's inversion
# ---------------------------------------------------------------------------

def mixture_sf(x, lambdas):
    """P(sum_j lambda_j chi2_1 > x) for x > 0 by Imhof's inversion (Biometrika 1961).

    P(Q > x) = 1/2 + (1/pi) int_0^inf sin(phi(u) - x u / 2) / (u rho(u)) du with
    phi(u) = (1/2) sum_j arctan(lambda_j u) and
    rho(u) = prod_j (1 + lambda_j^2 u^2)^(1/4). Past u = 1/lambda_max the sine
    is expanded so the slowly decaying tail is a pair of Fourier integrals,
    which scipy's QAWF rule handles for any number of weights. Weights below
    1e-12 of the largest are dropped. The summed error estimate must stay
    below 1e-6, far under any Monte Carlo standard error compared against
    (against chi-squared laws the result is good to about 1e-11).
    """
    require(x > 0, f"Imhof's inversion needs a positive argument, got {x!r}")
    lam = np.sort(np.asarray(lambdas, dtype=float))[::-1]
    lam = lam[lam > 1e-12 * lam[0]]
    omega = 0.5 * x

    def phi(u):
        return 0.5 * float(np.sum(np.arctan(lam * u)))

    def u_rho(u):
        return u * math.exp(0.25 * float(np.sum(np.log1p((lam * u) ** 2))))

    def head(u):
        if u == 0.0:
            return 0.5 * (float(lam.sum()) - x)
        return math.sin(phi(u) - omega * u) / u_rho(u)

    split = 1.0 / lam[0]
    h, h_err = integrate.quad(head, 0.0, split, limit=500, epsabs=1e-12)
    c, c_err = integrate.quad(lambda u: math.sin(phi(u)) / u_rho(u), split, np.inf, weight="cos", wvar=omega)
    s, s_err = integrate.quad(lambda u: math.cos(phi(u)) / u_rho(u), split, np.inf, weight="sin", wvar=omega)
    err = h_err + c_err + s_err
    require(err < 1e-6, f"Imhof integral did not settle (error estimate {err:.3g})")
    return 0.5 + (h + c - s) / math.pi


def check_calibration(statistic, p_value, quantile, lambdas, alpha, draws):
    """Compare the Monte Carlo p-value and quantile with the exact mixture.

    The p-value must lie within MC_SIGMAS standard errors sqrt(p(1-p)/B) of
    the exact tail probability, and the exact tail probability beyond the
    Monte Carlo quantile within MC_SIGMAS standard errors of alpha; both
    allow two draws for the discreteness of (1 + #)/(B + 1).
    """
    p_exact = mixture_sf(statistic, lambdas)
    se = math.sqrt(max(p_exact * (1.0 - p_exact), 0.0) / draws)
    require(
        abs(p_value - p_exact) <= MC_SIGMAS * se + 2.0 / (draws + 1),
        f"p-value {p_value:.6g} vs exact {p_exact:.6g} (MC s.e. {se:.3g})",
    )
    tail = mixture_sf(quantile, lambdas)
    se_q = math.sqrt(alpha * (1.0 - alpha) / draws)
    require(
        abs(tail - alpha) <= MC_SIGMAS * se_q + 2.0 / draws,
        f"quantile {quantile:.6g} has exact tail {tail:.6g}, not alpha={alpha} (MC s.e. {se_q:.3g})",
    )
    return p_exact
