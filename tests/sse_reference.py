"""The elementwise Euler-Maruyama loop, kept only as a reference for ``dynamics._sse_run``.

It steps the Ito SSE exactly as the engine did before each step became
one precomputed SU(2)-form pair (a_k, b_k): every term is formed afresh
from the channels and increments at each step.
"""

import math

import numpy as np


def reference_sse_run(field, c1, c2, lambda2, dt, dw_r, dw_i, record_every=0):
    """Final amplitudes and, if record_every > 0, the states at every record_every-th step."""
    n_sse = dw_r.shape[0]
    lam = math.sqrt(lambda2)
    tk = np.arange(n_sse) * dt  # Ito: channels at left endpoints
    wr, wi, dl = field.values(tk)
    recorded = None
    if record_every:
        recorded = np.empty((n_sse // record_every + 1, c1.shape[0], 2), dtype=complex)
        recorded[0, :, 0] = c1
        recorded[0, :, 1] = c2
    for k in range(n_sse):
        w_r, w_i, d = wr[k], wi[k], dl[k]
        decay = 0.125 * lambda2 * (w_r * w_r + w_i * w_i)  # Ito drift correction, H2^2 term
        g_r = -0.5j * lam * w_r * dw_r[k]
        g_i = 0.5 * lam * w_i * dw_i[k]
        n1 = c1 + dt * (-0.5j * (-d * c1 + (w_r - 1j * w_i) * c2) - decay * c1) + g_r * c2 - g_i * c2
        n2 = c2 + dt * (-0.5j * ((w_r + 1j * w_i) * c1 + d * c2) - decay * c2) + g_r * c1 + g_i * c1
        c1, c2 = n1, n2
        if record_every and (k + 1) % record_every == 0:
            recorded[(k + 1) // record_every, :, 0] = c1
            recorded[(k + 1) // record_every, :, 1] = c2
    return c1, c2, recorded
