"""RK4 shooting on the stationary theta equation, kept only as an oracle for the
first-integral solver ``invlab.solve_optimal_theta``.

It integrates (3 + cos 2 theta) theta_ddot = sin(2 theta) theta_dot^2 from
theta(0) = 0 and finds theta_dot(0) by bracketing theta(T) = pi.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from invlab import ThetaSolution, TimeGrid, first_integral_constant


def solve_optimal_theta_shooting(grid: TimeGrid, substeps: int = 8) -> ThetaSolution:
    """Independent oracle: RK4 shooting on the second-order ODE itself."""
    T = grid.duration
    n_fine = substeps * (grid.n_steps - 1)
    h = T / n_fine

    def rhs(th, v):
        return v, math.sin(2.0 * th) * v * v / (3.0 + math.cos(2.0 * th))

    def integrate(v0):
        th, v = 0.0, v0
        nodes = np.empty(grid.n_steps)
        rates = np.empty(grid.n_steps)
        nodes[0], rates[0] = th, v
        for k in range(n_fine):
            a1, b1 = rhs(th, v)
            a2, b2 = rhs(th + 0.5 * h * a1, v + 0.5 * h * b1)
            a3, b3 = rhs(th + 0.5 * h * a2, v + 0.5 * h * b2)
            a4, b4 = rhs(th + h * a3, v + h * b3)
            th += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            v += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            if (k + 1) % substeps == 0:
                nodes[(k + 1) // substeps] = th
                rates[(k + 1) // substeps] = v
        return nodes, rates

    c = first_integral_constant(T)
    guess = 0.5 * c  # theta_dot(0) = c / sqrt(3 + cos 0)
    lo, hi = 0.8 * guess, 1.2 * guess

    def miss(v0):
        return integrate(v0)[0][-1] - math.pi

    if miss(lo) * miss(hi) > 0.0:
        raise RuntimeError("shooting bracket does not straddle the target")
    v0 = brentq(miss, lo, hi, xtol=1e-14, rtol=8.9e-16)
    theta, theta_dot = integrate(v0)
    theta[0], theta[-1] = 0.0, math.pi
    theta_fn = PchipInterpolator(grid.times, theta)
    rate_fn = PchipInterpolator(grid.times, theta_dot)
    return ThetaSolution(grid, theta, theta_dot, 2.0 * v0, "shooting", theta_fn, rate_fn)
