"""The diagnostic of the paper's Stark-block claim: rotated maximal-K
projectors alone do not resolve the identity of the shell."""

import math

import numpy as np

from rydberg_frames.states import extreme_stark


def stark_block_constants(n: int) -> np.ndarray:
    """Block constants of the direction average of rotated maximal-K projectors.

    B = integral over the sphere of |K,u><K,u| dOmega. The l-block of |K,u> is
    C_l D^l_{m0}(phi, theta, 0), with C_l the m=0 amplitude of the maximal-K
    state, so Schur orthogonality (Edmonds, eq. 4.6.2) makes B block-diagonal
    over l, exactly zero off the blocks, with block l equal to
    4 pi C_l^2 / (2l+1) times the identity. The constants differ with l, so B
    is not a multiple of the identity and the rotated Stark family cannot
    resolve it by Schur weighting alone.
    """
    c_l = np.real(extreme_stark(n).m0_amplitudes())
    return 4.0 * math.pi * c_l**2 / (2 * np.arange(n) + 1)
