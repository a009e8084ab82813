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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InvariantAngles, TimeGrid
from .sensitivity import qn_lagrangian

# Newton steps of the F(theta) inversion from the linear guess theta = pi t;
# the fourth lands within an ulp or two of the root everywhere on [0, 1].
_NEWTON_STEPS = 4
_FD_STEP = 1e-5  # half-step of stationarity_m's central difference of theta

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
        return _F_PI / np.sqrt(3.0 + np.cos(2.0 * theta(t)))

    return theta, theta_dot


def stationarity_m(angles: InvariantAngles) -> Callable:
    """Gauge function that makes the action stationary in m:

        m = theta_dot sin(4 alpha) sin^2 theta
            / (4 cos^2 theta + 2 sin^2(2 alpha) sin^2 theta).

    At alpha = n pi/4 (where sin 4 alpha = 0) and wherever the
    denominator degenerates, the stationary value is identically 0.
    Without a closed-form theta_dot, theta is differenced centrally at the
    times asked for.
    """
    if angles.theta_dot is not None:
        theta_dot = angles.theta_dot
    else:
        def theta_dot(t):
            t = np.asarray(t, dtype=float)
            return (np.asarray(angles.theta(t + _FD_STEP), dtype=float)
                    - np.asarray(angles.theta(t - _FD_STEP), dtype=float)) / (2.0 * _FD_STEP)

    def m_of_t(t):
        t = np.asarray(t, dtype=float)
        th = np.asarray(angles.theta(t), dtype=float)
        al = np.asarray(angles.alpha(t), dtype=float)
        thd = np.asarray(theta_dot(t), dtype=float)
        s4 = np.sin(4.0 * al)
        den = 4.0 * np.cos(th) ** 2 + 2.0 * np.sin(2.0 * al) ** 2 * np.sin(th) ** 2
        num = thd * s4 * np.sin(th) ** 2
        ok = (np.abs(s4) > 1e-12) & (den > 1e-12)
        return np.where(ok, num / np.where(ok, den, 1.0), 0.0)

    return m_of_t


@dataclass(frozen=True)
class StationarityReport:
    candidate_qn: float
    min_perturbed_qn: float
    margin: float
    n_perturbations: int
    perturbation_scale: float
    seed: int


def verify_stationarity(angles: InvariantAngles, perturbation_scale: float,
                        n_perturbations: int = 20, seed: int = 0,
                        grid: TimeGrid | None = None) -> StationarityReport:
    """Probe local minimality of qn_lagrangian around a candidate.

    Perturbs theta with random truncated sine series
    sum_k a_k sin(k pi t), k <= 5, which preserve the boundary
    values exactly, rescaled so the largest excursion equals
    ``perturbation_scale``.  Reports the worst (smallest) perturbed
    action and its margin over the candidate.
    """
    grid = grid or TimeGrid(2001)
    q0 = qn_lagrangian(angles, grid)
    rng = np.random.default_rng(seed)
    k = np.arange(1, 6) * math.pi  # the wavenumbers k pi

    def plus_series(base, mode, a):  # t -> base(t) + sum_k a_k mode(k t)
        return lambda t: (np.asarray(base(t), dtype=float)
                          + mode(np.multiply.outer(np.asarray(t, dtype=float), k)) @ a)

    grid_modes = np.sin(np.multiply.outer(grid.times, k))
    worst = math.inf
    for _ in range(n_perturbations):
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        peak = float(np.max(np.abs(grid_modes @ coeffs)))
        a = coeffs * (perturbation_scale / peak if peak > 0.0 else 0.0)
        theta_p = plus_series(angles.theta, np.sin, a)
        theta_dot_p = plus_series(angles.theta_dot, np.cos, a * k) if angles.theta_dot else None
        pert = InvariantAngles(theta_p, angles.alpha, angles.gamma,
                               theta_dot_p, angles.alpha_dot, angles.gamma_dot)
        worst = min(worst, qn_lagrangian(pert, grid))
    return StationarityReport(q0, worst, worst - q0, n_perturbations,
                              perturbation_scale, seed)
