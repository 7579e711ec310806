"""Transport maps and curvature operators built with scipy, kept as a test oracle.

The library reads both from one eigendecomposition per transport batch and
assembles the curvature in pair space. Here each map is built with
``scipy.linalg.sqrtm`` and each differential by solving its Sylvester
equation for every basis element, so the only code shared with the library
is the coordinate basis of the symmetric matrices.
"""

import numpy as np
import scipy.linalg

from bwfrechet.manifold import sym_coords, sym_dim, sym_from_coords


def transport_map(base, target):
    """T = S^{-1/2} (S^{1/2} Q S^{1/2})^{1/2} S^{-1/2}, the map from base S to target Q."""
    root = np.real(scipy.linalg.sqrtm(base))
    inv_root = np.linalg.inv(root)
    t = inv_root @ np.real(scipy.linalg.sqrtm(root @ target @ root)) @ inv_root
    return 0.5 * (t + t.T)


def weighted_dt_reference(base, targets, coeffs):
    """Matrix of sum_i coeffs[i] dT_i in the ``sym_coords`` basis.

    dT_i is the differential of the map to targets[i] in its base point:
    dT_i[B] solves X (S T_i) + (T_i S) X = -T_i B T_i, which
    ``scipy.linalg.solve_sylvester`` solves as A X + X B = Q with A = T_i S
    and B = S T_i. Column j holds the coordinates of the image of basis
    element B_j.
    """
    d = base.shape[-1]
    basis = sym_from_coords(np.eye(sym_dim(d)), d)
    out = np.zeros((sym_dim(d), sym_dim(d)))
    for c, target in zip(coeffs, targets):
        t = transport_map(base, target)
        images = [scipy.linalg.solve_sylvester(t @ base, base @ t, -t @ b @ t) for b in basis]
        out += c * sym_coords(np.stack(images)).T
    return out
