"""Monte Carlo sampler of the weighted chi-squared mixture, kept as a test oracle.

The library computes the law of sum_j lambda_j chi2_1 exactly, by inverting
its characteristic function; this sampler shares no code with it, so the
tests can hold the exact values to within Monte Carlo error.
"""

import numpy as np


def mixture_draws(lambdas, draws, seed):
    """``draws`` seeded samples of sum_j lambda_j chi2_1, in fixed-size chunks.

    The chunks run in a fixed order, so the sample depends only on
    (lambdas, draws, seed). Fewer than 1000 draws are refused: no tail
    probability used in the tests is resolved by so few.
    """
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    lam = lam[lam > 0]
    draws = int(draws)
    if draws < 1000:
        raise ValueError(f"need at least 1000 Monte Carlo draws, got {draws}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty(draws)
    chunk = max(1, 4_000_000 // max(lam.size, 1))
    for start in range(0, draws, chunk):
        stop = min(start + chunk, draws)
        out[start:stop] = np.square(rng.standard_normal((stop - start, lam.size))) @ lam
    return out


def standard_error(p, draws):
    """Monte Carlo standard error of a tail frequency near ``p``."""
    return float(np.sqrt(p * (1.0 - p) / draws))
