"""Scalar classical RK4 loops, kept only as a reference for the propagator kernel.

These step the Bloch and Schrodinger equations one state at a time with
the channels read at the nodes and step midpoints, exactly as the engines
did before they formed every step as a matrix.
"""

import numpy as np


def _stage_tables(field):
    ts = field.grid.times
    return field.values(ts), field.values(0.5 * (ts[:-1] + ts[1:]))


def _pure_rhs(wr, wi, d, om, c1, c2):
    o = om * (wr - 1j * wi)
    return (-0.5j * (-d * c1 + o * c2), -0.5j * (o.conjugate() * c1 + d * c2))


def reference_pure(field, c1, c2, beta=0.0):
    """(n, 2) amplitudes of i dpsi/dt = (H0 + beta H1) psi from (c1, c2)."""
    (wr_n, wi_n, d_n), (wr_m, wi_m, d_m) = _stage_tables(field)
    n = field.grid.n_steps
    h = field.grid.h
    om = 1.0 + beta
    out = np.empty((n, 2), dtype=complex)
    c1, c2 = complex(c1), complex(c2)
    out[0] = (c1, c2)
    for i in range(n - 1):
        a1, b1 = _pure_rhs(wr_n[i], wi_n[i], d_n[i], om, c1, c2)
        a2, b2 = _pure_rhs(wr_m[i], wi_m[i], d_m[i], om, c1 + 0.5 * h * a1, c2 + 0.5 * h * b1)
        a3, b3 = _pure_rhs(wr_m[i], wi_m[i], d_m[i], om, c1 + 0.5 * h * a2, c2 + 0.5 * h * b2)
        a4, b4 = _pure_rhs(wr_n[i + 1], wi_n[i + 1], d_n[i + 1], om, c1 + h * a3, c2 + h * b3)
        c1 = c1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        c2 = c2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        out[i + 1] = (c1, c2)
    return out


def _bloch_rhs(wr, wi, d, om, l2, r1, r2, r3):
    return (d * r2 + om * wi * r3 - 0.5 * l2 * wi * wi * r1,
            -d * r1 - om * wr * r3 - 0.5 * l2 * wr * wr * r2,
            -om * wi * r1 + om * wr * r2 - 0.5 * l2 * (wr * wr + wi * wi) * r3)


def reference_bloch(field, r, beta=0.0, lambda2=0.0):
    """(n, 3) Bloch vectors of dr/dt = (L0 + beta L1 - lambda^2 L2) r from r."""
    (wr_n, wi_n, d_n), (wr_m, wi_m, d_m) = _stage_tables(field)
    n = field.grid.n_steps
    h = field.grid.h
    om = 1.0 + beta
    l2 = lambda2
    out = np.empty((n, 3))
    r1, r2, r3 = map(float, r)
    out[0] = (r1, r2, r3)
    for i in range(n - 1):
        a1, b1, c1 = _bloch_rhs(wr_n[i], wi_n[i], d_n[i], om, l2, r1, r2, r3)
        a2, b2, c2 = _bloch_rhs(wr_m[i], wi_m[i], d_m[i], om, l2,
                                r1 + 0.5 * h * a1, r2 + 0.5 * h * b1, r3 + 0.5 * h * c1)
        a3, b3, c3 = _bloch_rhs(wr_m[i], wi_m[i], d_m[i], om, l2,
                                r1 + 0.5 * h * a2, r2 + 0.5 * h * b2, r3 + 0.5 * h * c2)
        a4, b4, c4 = _bloch_rhs(wr_n[i + 1], wi_n[i + 1], d_n[i + 1], om, l2,
                                r1 + h * a3, r2 + h * b3, r3 + h * c3)
        r1 += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        r2 += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        r3 += (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        out[i + 1] = (r1, r2, r3)
    return out
