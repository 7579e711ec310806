"""Synthetic SPD-response regression data for the two benchmark designs.

Both designs draw covariates x = (y, z) uniformly on [-1, 1]^p and build
responses as congruences of squared diagonal profiles: the diagonal depends
linearly on the covariate sums, with the trailing block's coefficient
``delta_z`` controlling departure from the null of no trailing-block effect.
Design 1 uses one orthogonal basis per dataset; design 2 rotates every sample
by its own block-diagonal orthogonal matrix with independent 2 x 2 blocks.

Randomness is split into four independent substreams (covariates, basis,
diagonal scales, resampling), each filled row-major, so datasets with the
same seed are nested across sample sizes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InvalidConfigError, InvalidInputError
from .frechet import Dataset
from .manifold import EPS_PD

# E|V| for the diagonal scale V ~ Uniform[-0.9, 1.1]
MEAN_ABS_V = (0.9**2 + 1.1**2) / 4.0

_V_LOW, _V_HIGH = -0.9, 1.1


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one synthetic dataset.

    ``p_y`` leading covariates always act on the response; ``p_z`` trailing
    covariates act through ``delta_z``, which must satisfy
    |delta_z| < 2 / (p_y + p_z) so the diagonal profile stays positive on the
    covariate cube.
    """

    example: int
    n: int
    p_y: int
    p_z: int
    d: int
    delta_z: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.example not in (1, 2):
            raise InvalidConfigError(f"example must be 1 or 2, got {self.example}")
        if self.n < 1:
            raise InvalidConfigError(f"n must be positive, got {self.n}")
        if self.p_y < 1 or self.p_z < 1:
            raise InvalidConfigError(
                f"need p_y >= 1 and p_z >= 1, got p_y={self.p_y}, p_z={self.p_z}"
            )
        if self.d < 1:
            raise InvalidConfigError(f"d must be positive, got {self.d}")
        if self.example == 2 and self.d % 2 != 0:
            raise InvalidConfigError(f"example 2 needs even d, got {self.d}")
        if not np.isfinite(self.delta_z):
            raise InvalidConfigError("delta_z must be finite")
        bound = 2.0 / (self.p_y + self.p_z)
        if not abs(self.delta_z) < bound:
            raise InvalidConfigError(
                f"|delta_z| must be below 2/(p_y+p_z) = {bound:.6g}, got {self.delta_z}"
            )
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be nonnegative, got {self.seed}")
        profile = _diag_profile(self.example, self.d)
        worst = profile.min() - 0.1 * self.p_y - abs(self.delta_z) * self.p_z
        if worst <= 0:
            raise InvalidConfigError(
                "diagonal profile can reach zero on the covariate cube "
                f"(worst value {worst:.6g}); reduce p_y or |delta_z|"
            )

    @property
    def p(self):
        return self.p_y + self.p_z


@dataclass(frozen=True)
class GroundTruth:
    """What the generator actually used, enough to evaluate target means."""

    example: int
    p_y: int
    p_z: int
    d: int
    delta_z: float
    basis: np.ndarray | None
    resampled: int


def _diag_profile(example, d):
    k = np.arange(1, d + 1)
    if example == 1:
        return 1.5 + k / 2.0
    return 1.5 + 0.5 * np.ceil(k / 2.0)


def _diag_values(example, p_y, delta_z, d, x):
    """Diagonal profile rows for covariate rows ``x`` of shape (..., p)."""
    x = np.asarray(x, dtype=float)
    shift = 0.1 * x[..., :p_y].sum(axis=-1) + delta_z * x[..., p_y:].sum(axis=-1)
    return _diag_profile(example, d) + shift[..., None]


def haar_orthogonal(d, rng):
    """Orthogonal matrix drawn from the Haar measure on O(d).

    QR of a standard normal matrix with the sign of R's diagonal fixed to be
    nonnegative (zeros count as positive), which makes the factorization
    unique and the draw Haar distributed.
    """
    if d < 1:
        raise InvalidInputError(f"d must be positive, got {d}")
    z = rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r))
    signs = np.where(signs == 0, 1.0, signs)
    return q * signs


def _block_haar_stack(n, d, rng):
    """n block-diagonal orthogonal matrices with independent 2 x 2 Haar blocks."""
    half = d // 2
    z = rng.standard_normal((n, half, 2, 2))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0, 1.0, signs)
    q = q * signs[..., None, :]
    out = np.zeros((n, d, d))
    for j in range(half):
        out[:, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = q[:, j]
    return out


def _assemble(basis_stack, scales):
    """Congruence U diag(scales^2) U^T per sample, scales shape (n, d)."""
    sq = scales**2
    return (basis_stack * sq[:, None, :]) @ basis_stack.transpose(0, 2, 1)


def generate(config):
    """Draw one dataset from the configured design.

    Returns
    -------
    (Dataset, GroundTruth)
        The dataset carries p1 = p_y, so the trailing block is the one under
        test. Draws whose diagonal scale makes the response numerically
        singular are redrawn once from a dedicated substream and counted in
        ``GroundTruth.resampled``.
    """
    cfg = config
    root = np.random.SeedSequence(cfg.seed)
    ss_cov, ss_basis, ss_diag, ss_resample = root.spawn(4)
    rng_cov = np.random.default_rng(ss_cov)
    rng_basis = np.random.default_rng(ss_basis)
    rng_diag = np.random.default_rng(ss_diag)

    x = rng_cov.uniform(-1.0, 1.0, size=(cfg.n, cfg.p))
    v = rng_diag.uniform(_V_LOW, _V_HIGH, size=(cfg.n, cfg.d))
    f = _diag_values(cfg.example, cfg.p_y, cfg.delta_z, cfg.d, x)

    if cfg.example == 1:
        u = haar_orthogonal(cfg.d, rng_basis)
        basis_stack = np.broadcast_to(u, (cfg.n, cfg.d, cfg.d))
        truth_basis = u
    else:
        basis_stack = _block_haar_stack(cfg.n, cfg.d, rng_basis)
        truth_basis = None

    scales = v * f
    ratio = np.abs(scales).min(axis=1) ** 2 / np.abs(scales).max(axis=1) ** 2
    bad = np.flatnonzero(ratio <= EPS_PD)
    resampled = 0
    if bad.size:
        rng_resample = np.random.default_rng(ss_resample)
        v_new = rng_resample.uniform(_V_LOW, _V_HIGH, size=(bad.size, cfg.d))
        scales[bad] = v_new * f[bad]
        resampled = int(bad.size)
        ratio = np.abs(scales[bad]).min(axis=1) ** 2 / np.abs(scales[bad]).max(axis=1) ** 2
        if np.any(ratio <= EPS_PD):
            raise IllConditionedError(
                "a response stayed numerically singular after one resampling pass"
            )

    responses = _assemble(basis_stack, scales)
    data = Dataset(covariates=x, responses=responses, p1=cfg.p_y)
    truth = GroundTruth(
        example=cfg.example,
        p_y=cfg.p_y,
        p_z=cfg.p_z,
        d=cfg.d,
        delta_z=cfg.delta_z,
        basis=truth_basis,
        resampled=resampled,
    )
    return data, truth


def _profile_matrix(truth, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (truth.p_y + truth.p_z,):
        raise InvalidInputError(
            f"x: expected shape ({truth.p_y + truth.p_z},), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x: non-finite entries")
    f = _diag_values(truth.example, truth.p_y, truth.delta_z, truth.d, x)
    if f.min() <= 0:
        raise InvalidInputError("diagonal profile is not positive at this x")
    return f


def true_qstar(truth, x):
    """Noise-free response surface of the design at covariate value ``x``.

    Design 1 returns U diag(f(x)^2) U^T in the dataset basis; design 2
    returns diag(g(x)^2). This is the surface the designs display; the
    regression estimator targets :func:`population_qstar`, which differs by
    the squared mean absolute diagonal scale.
    """
    f = _profile_matrix(truth, x)
    if truth.example == 1:
        u = truth.basis
        return (u * f**2) @ u.T
    return np.diag((f**2).reshape(-1))


def population_qstar(truth, x):
    """Population minimizer of the regression objective at ``x``.

    The diagonal scales enter the response through |V| with E|V| = 0.505, and
    the metric's barycenter averages square roots, so the population target
    is (E|V|)^2 times the noise-free surface.
    """
    return MEAN_ABS_V**2 * true_qstar(truth, x)
