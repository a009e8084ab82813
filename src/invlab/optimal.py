"""Variational machinery for the noise-optimal inversion trajectory.

Minimizing the noise-sensitivity action over invariant angles pins the
phase to alpha = n pi/4 with gauge m = 0.  For odd n the stationary
polar angle obeys

    (3 + cos(2 theta)) theta_ddot = sin(2 theta) theta_dot^2,
    theta(0) = 0,  theta(T) = pi,

whose first integral is theta_dot * sqrt(3 + cos(2 theta)) = c.
Quadrature of the first integral fixes

    c = (1/T) Int_0^pi sqrt(3 + cos(2 s)) ds

Since sqrt(3 + cos 2s) = 2 sqrt(1 - sin^2(s) / 2), the quadrature is an
incomplete elliptic integral of the second kind: c = 2 E(pi | 1/2) / T and
t(theta) = (2/c) E(theta | 1/2), and theta(t) follows by inverting it with
Newton's method at each time asked for; no boundary-value iteration, grid
or interpolant is needed.  The tests check it against a conventional
shooting solver of the second-order equation.  scipy (the elliptic
integral) is imported inside the functions that use it, so importing this
module loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InvariantAngles, TimeGrid
from .sensitivity import qn_lagrangian

# Newton steps of the t(theta) inversion from the linear guess theta = pi t / T;
# the fourth lands within an ulp or two of the root everywhere on [0, T].
_NEWTON_STEPS = 4
_FD_STEP = 1e-5  # half-step of stationarity_m's central difference of theta


def _gap(theta):
    return np.sqrt(3.0 + np.cos(2.0 * np.asarray(theta, dtype=float)))


def first_integral_constant(duration: float = 1.0) -> float:
    """c = (1/T) Int_0^pi sqrt(3 + cos 2 s) ds = 2 E(pi | 1/2) / T."""
    from scipy.special import ellipeinc

    return 2.0 * float(ellipeinc(math.pi, 0.5)) / duration


def solve_optimal_theta(duration: float = 1.0) -> tuple[Callable, Callable]:
    """The stationary theta(t) and theta_dot(t) on [0, T], as vectorized callables.

    t(theta) = (1/c) Int_0^theta sqrt(3 + cos 2 s) ds = (2/c) E(theta | 1/2)
    is inverted by Newton's method (dE/dtheta = sqrt(3 + cos 2 theta) / 2)
    at the times asked for, with t scaled by E(pi | 1/2) so that t(pi)
    lands exactly on T: theta(0) is 0.0 and theta(T) is pi.  Every call
    checks the defining equation, and a time whose E(theta | 1/2) misses
    its target by more than 1e-12 is a RuntimeError.  theta_dot =
    c / sqrt(3 + cos 2 theta) follows analytically.
    """
    from scipy.special import ellipeinc

    c = first_integral_constant(duration)
    e_pi = float(ellipeinc(math.pi, 0.5))

    def theta(t):
        u = np.asarray(t, dtype=float) / duration
        target = e_pi * u
        th = math.pi * u
        for _ in range(_NEWTON_STEPS):
            th = th - (ellipeinc(th, 0.5) - target) / (0.5 * _gap(th))
        # the defining equation at every time asked for; it reads 3.3e-16 over 10^5 times
        res = float(np.max(np.abs(ellipeinc(th, 0.5) - target), initial=0.0))
        if res > 1e-12:
            raise RuntimeError(f"elliptic-integral residual {res!r} exceeds 1e-12")
        return th

    def theta_dot(t):
        return c / _gap(theta(t))

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
    sum_k a_k sin(k pi t / T), k <= 5, which preserve the boundary
    values exactly, rescaled so the largest excursion equals
    ``perturbation_scale``.  Reports the worst (smallest) perturbed
    action and its margin over the candidate.
    """
    grid = grid or TimeGrid(2001)
    T = grid.duration
    q0 = qn_lagrangian(angles, grid)
    rng = np.random.default_rng(seed)
    ts = grid.times
    worst = math.inf
    for _ in range(n_perturbations):
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        modes = np.array([np.sin((k + 1) * math.pi * ts / T) for k in range(5)])
        bump = coeffs @ modes
        peak = float(np.max(np.abs(bump)))
        scale = perturbation_scale / peak if peak > 0.0 else 0.0
        a = coeffs * scale

        def theta_p(t, a=a):
            t = np.asarray(t, dtype=float)
            out = np.asarray(angles.theta(t), dtype=float)
            for k in range(5):
                out = out + a[k] * np.sin((k + 1) * math.pi * t / T)
            return out

        if angles.theta_dot is not None:
            def theta_dot_p(t, a=a, base=angles.theta_dot):
                t = np.asarray(t, dtype=float)
                out = np.asarray(base(t), dtype=float)
                for k in range(5):
                    out = out + a[k] * (k + 1) * math.pi / T * np.cos((k + 1) * math.pi * t / T)
                return out
        else:
            theta_dot_p = None

        pert = InvariantAngles(theta_p, angles.alpha, angles.gamma,
                               theta_dot_p, angles.alpha_dot, angles.gamma_dot)
        worst = min(worst, qn_lagrangian(pert, grid))
    return StationarityReport(q0, worst, worst - q0, n_perturbations,
                              perturbation_scale, seed)
