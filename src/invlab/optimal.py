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
incomplete elliptic integral of the second kind, t(theta) = (2/c) E(theta | 1/2),
and theta(t) follows by inverting it with Newton's method; no
boundary-value iteration is needed.  A conventional shooting solver is
kept alongside as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ellipeinc

from .core import InvariantAngles, TimeGrid, constant, write_csv
from .sensitivity import qn_lagrangian

# Newton steps of the t(theta) inversion from the linear guess theta = pi t / T;
# the fourth lands within an ulp or two of the root everywhere on [0, T].
_NEWTON_STEPS = 4


def _gap(theta):
    return np.sqrt(3.0 + np.cos(2.0 * np.asarray(theta, dtype=float)))


@dataclass(frozen=True, eq=False)
class ThetaSolution:
    """Stationary theta(t) sampled on a grid, with its analytic derivative.

    ``c`` is the first-integral constant theta_dot * sqrt(3 + cos 2 theta).
    """

    grid: TimeGrid
    theta: np.ndarray
    theta_dot: np.ndarray
    c: float
    method: str  # "first_integral" | "shooting"
    theta_fn: Callable
    theta_dot_fn: Callable

    def __post_init__(self):
        if abs(self.theta[0]) > 1e-9 or abs(self.theta[-1] - math.pi) > 1e-9:
            raise RuntimeError(
                f"boundary conditions violated: theta(0)={self.theta[0]!r}, "
                f"theta(T)={self.theta[-1]!r}")
        if np.any(np.diff(self.theta) <= 0.0):
            raise RuntimeError("theta is not strictly increasing")
        res = self.ode_residual()
        if res > 1e-6:
            raise RuntimeError(f"ODE residual {res!r} exceeds 1e-6")

    def ode_residual(self) -> float:
        """Max norm of (3 + cos 2 th) th'' - sin(2 th) th'^2 on interior points.

        Both derivatives come from fourth-order central differences of
        the sampled theta, so the check is independent of how the
        solution was produced.
        """
        y, h = self.theta, self.grid.h
        d1 = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
        d2 = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]) / (12.0 * h * h)
        mid = y[2:-2]
        return float(np.max(np.abs((3.0 + np.cos(2.0 * mid)) * d2
                                   - np.sin(2.0 * mid) * d1**2)))

    def to_csv(self, path) -> None:
        write_csv(path, "t,theta,theta_dot", [self.grid.times, self.theta, self.theta_dot])


def first_integral_constant(duration: float = 1.0) -> float:
    """c = (1/T) Int_0^pi sqrt(3 + cos 2 s) ds."""
    val, _ = quad(lambda s: math.sqrt(3.0 + math.cos(2.0 * s)), 0.0, math.pi,
                  epsabs=1e-13, epsrel=1e-13)
    return val / duration


def solve_optimal_theta(grid: TimeGrid) -> ThetaSolution:
    """Solve the stationarity ODE through its first integral.

    t(theta) = (1/c) Int_0^theta sqrt(3 + cos 2 s) ds = (2/c) E(theta | 1/2)
    is inverted by Newton's method (dE/dtheta = sqrt(3 + cos 2 theta) / 2)
    at the grid nodes and step midpoints, with t scaled by E(pi | 1/2) so
    that t(pi) lands exactly on T.  theta_dot = c / sqrt(3 + cos 2 theta)
    follows analytically; a cubic Hermite interpolant through both serves
    other times, within 1e-14 of the exact inverse.
    """
    c = first_integral_constant(grid.duration)
    knots = TimeGrid(2 * grid.n_steps - 1, grid.duration).times
    u = knots / grid.duration
    target = float(ellipeinc(math.pi, 0.5)) * u
    th = math.pi * u
    for _ in range(_NEWTON_STEPS):
        th = th - (ellipeinc(th, 0.5) - target) / (0.5 * _gap(th))
    th[0], th[-1] = 0.0, math.pi
    inv = CubicHermiteSpline(knots, th, c / _gap(th))

    def theta_fn(t):
        return inv(np.clip(np.asarray(t, dtype=float), 0.0, grid.duration))

    def theta_dot_fn(t):
        return c / _gap(theta_fn(t))

    theta = theta_fn(grid.times)
    theta[0], theta[-1] = 0.0, math.pi
    return ThetaSolution(grid, theta, theta_dot_fn(grid.times), c,
                         "first_integral", theta_fn, theta_dot_fn)


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


def stationarity_m(angles: InvariantAngles, n_dense: int = 4001) -> Callable:
    """Gauge function that makes the action stationary in m:

        m = theta_dot sin(4 alpha) sin^2 theta
            / (4 cos^2 theta + 2 sin^2(2 alpha) sin^2 theta).

    At alpha = n pi/4 (where sin 4 alpha = 0) and wherever the
    denominator degenerates, the stationary value is identically 0.
    """
    if angles.theta_dot is not None:
        theta_dot = angles.theta_dot
    else:
        grid = TimeGrid(n_dense)
        s = angles.sample(grid)
        theta_dot = PchipInterpolator(grid.times, s.theta_dot)

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


def optimal_noise_angles(grid: TimeGrid, n: int = 7) -> InvariantAngles:
    """Invariant angles of the noise-optimal protocol: stationary theta,
    alpha = n pi/4, constant gamma (so m = 0)."""
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    sol = solve_optimal_theta(grid)
    return InvariantAngles(sol.theta_fn, constant(n * math.pi / 4.0), constant(0.0),
                           sol.theta_dot_fn, constant(0.0), constant(0.0))
