"""The Bloch vector of a pure state, kept only as an oracle: the pure-state and
Bloch engines of ``invlab.dynamics`` are checked against each other through it.
"""

import math

import numpy as np


def bloch_from_pure(psi) -> np.ndarray:
    """Map a normalized pure state, the pair (c1, c2), to its Bloch vector (r1, r2, r3).

    r1 = 2 Re(c1 conj(c2)), r2 = -2 Im(c1 conj(c2)), r3 = |c1|^2 - |c2|^2.
    Rejects input whose norm deviates from 1 by more than 1e-6.
    """
    c1, c2 = np.asarray(psi, dtype=complex)
    norm = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"pure state is not normalized: |psi| = {norm!r}")
    cross = c1 * np.conj(c2)
    return np.array([2.0 * cross.real, -2.0 * cross.imag, abs(c1) ** 2 - abs(c2) ** 2])
