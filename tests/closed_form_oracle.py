"""Closed form of the partial-effect test on example 1, kept as a test oracle.

Example 1 draws every response as Q_i = U diag(a_i^2) U^T with one orthogonal
U (``GroundTruth.basis``). A weighted Frechet mean of such responses is
U diag(b^2) U^T with b = (1/n1) sum_i w_i a_i, as long as b > 0: the squared
distance to Q_i is sum_a (sqrt(s_a) - a_ia)^2 on matrices diagonal in U. With
b = b(x_k) and bh = b(xhat_k) at the k-th evaluation point, and the gap
dw_ki = w_i(x_k) - w_i(xhat_k) between its regression weights:

- the transport from the imputed fit to Q_i is U diag(a_i / bh) U^T, and the
  curvature at the imputed fit acts on a perturbation diagonal in U as
  division by 2 bh_a^2, so the statistic is
  T = sum_k sum_a ((b_a^2 - bh_a^2) / (2 bh_a^2))^2;
- the kernel is K_ij = (1/n1^2) sum_k dw_ki dw_kj sum_a (a_ia/bh_a - 1)(a_ja/bh_a - 1).

Where some b_a <= 0 the minimizer lies on the boundary of the PD cone, which
the program never reaches: it returns a PD iterate and counts that fit as
unconverged. :func:`closed_form_test` reports such fits in ``outside``.

Nothing here imports the program. The split, the moments (divisor n1), the
imputation, the weights and the mixture's tail are all computed from the
arrays; the tail by Imhof's inversion (Biometrika 1961) with scipy's
adaptive quadrature.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy import integrate


class ClosedForm(NamedTuple):
    statistic: float
    eigenvalues: np.ndarray   # of the kernel, clipped at zero, descending
    outside: np.ndarray       # (n2, 2) bool: the fit at x_k, at xhat_k left the PD cone


def closed_form_test(covariates, responses, p1, basis):
    """Statistic, kernel spectrum and PD-cone exits of the test on example-1 data."""
    x = np.asarray(covariates, dtype=float)
    n1 = (x.shape[0] + 1) // 2
    x1, x2 = x[:n1], x[n1:]
    mean = x1.mean(axis=0)
    xc = x1 - mean
    cov = xc.T @ xc / n1
    y2 = x2[:, :p1]
    zhat = mean[p1:] + (y2 - mean[:p1]) @ np.linalg.solve(cov[:p1, :p1], cov[:p1, p1:])
    xhat2 = np.concatenate([y2, zhat], axis=1)
    to_weights = np.linalg.solve(cov, xc.T)              # (p, n1)
    w_obs = 1.0 + (x2 - mean) @ to_weights               # (n2, n1)
    w_hat = 1.0 + (xhat2 - mean) @ to_weights
    rotated = basis.T @ np.asarray(responses, dtype=float)[:n1] @ basis
    a1 = np.sqrt(np.diagonal(rotated, axis1=1, axis2=2))  # (n1, d)
    b_obs, b_hat = w_obs @ a1 / n1, w_hat @ a1 / n1
    outside = np.stack([(b_obs <= 0).any(axis=1), (b_hat <= 0).any(axis=1)], axis=1)
    statistic = float((((b_obs**2 - b_hat**2) / (2.0 * b_hat**2)) ** 2).sum())
    t = a1[None] / b_hat[:, None] - 1.0                  # (n2, n1, d)
    u = ((w_obs - w_hat)[:, :, None] * t).transpose(1, 0, 2).reshape(n1, -1)
    kernel = u @ u.T / n1**2
    eigenvalues = np.clip(np.linalg.eigvalsh(kernel), 0.0, None)[::-1]
    return ClosedForm(statistic, eigenvalues, outside)


def mixture_sf(x, lambdas):
    """P(sum_j lambda_j chi2_1 > x) for x > 0, by Imhof's inversion.

    P(Q > x) = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du with
    theta(u) = (1/2) sum_j arctan(lambda_j u) - x u / 2 and
    rho(u) = prod_j (1 + lambda_j^2 u^2)^(1/4). The integrand falls like
    u^(-1 - r/2) for r weights, so the integral is cut where 1 / (u rho(u))
    drops below 1e-18 and summed over pieces of at most ten oscillations.
    Fewer than 8 weights above 1e-14 of the largest are refused: their tail
    falls too slowly for the cut.
    """
    lam = np.asarray(lambdas, dtype=float)
    lam = lam[lam > 1e-14 * lam.max()]
    if lam.size < 8:
        raise ValueError(f"need at least 8 positive weights, got {lam.size}")

    def envelope(u):
        return math.exp(-math.log(u) - 0.25 * float(np.log1p((lam * u) ** 2).sum()))

    def integrand(u):
        if u == 0.0:
            return 0.5 * (float(lam.sum()) - x)
        theta = 0.5 * float(np.arctan(lam * u).sum()) - 0.5 * x * u
        return math.sin(theta) * envelope(u)

    end = 1.0 / lam.max()
    while envelope(end) > 1e-18:
        end *= 2.0
    edges = np.linspace(0.0, end, math.ceil(end * x / (40.0 * math.pi)) + 1)
    total = sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    return 0.5 + total / math.pi
