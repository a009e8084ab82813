"""The Bloch vector of a pure state, kept only as an oracle: the pure-state and
Bloch engines of ``invlab.dynamics`` are checked against each other through it.
"""

import numpy as np

from invlab import BlochState, PureState


def bloch_from_pure(state: PureState) -> BlochState:
    """Map a normalized pure state to its Bloch vector.

    r1 = 2 Re(c1 conj(c2)), r2 = -2 Im(c1 conj(c2)), r3 = |c1|^2 - |c2|^2.
    Rejects input whose norm deviates from 1 by more than 1e-6.
    """
    state.check_normalized()
    cross = state.c1 * np.conj(state.c2)
    return BlochState(float(2.0 * cross.real), float(-2.0 * cross.imag),
                      float(abs(state.c1) ** 2 - abs(state.c2) ** 2))
