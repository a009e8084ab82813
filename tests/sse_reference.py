"""The elementwise Euler-Maruyama loop, kept only as a reference for ``dynamics._sse_run``.

It steps the Ito SSE one step at a time from the increments it is given,
every term formed afresh from the channels and increments at each step;
the engine instead multiplies tabulated products of four steps, picked by
the increments' signs.
"""

import math

import numpy as np


def reference_sse_run(field, c1, c2, lambda2, dt, dw_r, dw_i):
    """Final amplitudes from (c1, c2) under the increments (steps, trajectories)."""
    n_sse = dw_r.shape[0]
    lam = math.sqrt(lambda2)
    tk = np.arange(n_sse) * dt  # Ito: channels at left endpoints
    wr, wi, dl = field.values(tk)
    for k in range(n_sse):
        w_r, w_i, d = wr[k], wi[k], dl[k]
        decay = 0.125 * lambda2 * (w_r * w_r + w_i * w_i)  # Ito drift correction, H2^2 term
        g_r = -0.5j * lam * w_r * dw_r[k]
        g_i = 0.5 * lam * w_i * dw_i[k]
        n1 = c1 + dt * (-0.5j * (-d * c1 + (w_r - 1j * w_i) * c2) - decay * c1) + g_r * c2 - g_i * c2
        n2 = c2 + dt * (-0.5j * ((w_r + 1j * w_i) * c1 + d * c2) - decay * c2) + g_r * c1 + g_i * c1
        c1, c2 = n1, n2
    return c1, c2
