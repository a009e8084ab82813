"""Shared data model: time grids, two-level states, and control fields.

Conventions
-----------
The driven two-level system is governed by (hbar = 1)

    H(t) = 1/2 [[-Delta(t),            Omega_R(t) - i Omega_I(t)],
                [Omega_R(t) + i Omega_I(t),            Delta(t)]],

where Omega = Omega_R + i Omega_I is the complex Rabi frequency and
Delta the detuning.  All computation is dimensionless: time runs over
tau = t/T with total duration 1 by default, so the control channels
carry units 1/T.  A mixed state is the Bloch vector

    r = (rho_12 + rho_21,  i(rho_12 - rho_21),  rho_11 - rho_22),

with excitation probability P2 = (1 - r3)/2.  Component 1 of a pure
state is the ground state, component 2 the excited state.

Control channels are kept as closed-form callables whenever the
generator has them; otherwise a cubic spline over the grid samples
stands in, which keeps fourth-order integrators at full accuracy.
Derivatives of sampled quantities use centered second-order
differences (one-sided second-order at the endpoints) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

CSV_FIELD_HEADER = "t,omega_r,omega_i,delta"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * duration / (n_steps - 1), i = 0 .. n_steps-1."""

    n_steps: int
    duration: float = 1.0

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.n_steps)

    @property
    def h(self) -> float:
        """Grid spacing."""
        return self.duration / (self.n_steps - 1)


def sampled_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fixed differentiation rule for sampled channels and angles.

    Centered second-order differences on interior points, one-sided
    second-order at the endpoints (np.gradient with edge_order=2).
    """
    return np.gradient(np.asarray(values, dtype=float), h, edge_order=2)


def write_csv(path, header: str, columns) -> None:
    """Write columns as CSV with full double precision and '.' decimals."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


@dataclass(frozen=True, eq=False)
class ControlField:
    """The three control channels of H(t) sampled on a grid.

    ``omega_r_fn``/``omega_i_fn``/``delta_fn`` hold the closed forms when
    available; missing ones are filled with cubic splines over the
    samples so that ``values`` can be evaluated anywhere in [0, T].
    """

    grid: TimeGrid
    omega_r: np.ndarray
    omega_i: np.ndarray
    delta: np.ndarray
    label: str = ""
    omega_r_fn: Callable | None = None
    omega_i_fn: Callable | None = None
    delta_fn: Callable | None = None

    def __post_init__(self):
        ts = self.grid.times
        for name in ("omega_r", "omega_i", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != ts.shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {ts.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} is not finite at every grid point")
            object.__setattr__(self, name, arr)
            if getattr(self, name + "_fn") is None:
                object.__setattr__(self, name + "_fn", CubicSpline(ts, arr))

    @classmethod
    def from_functions(cls, grid: TimeGrid, omega_r, omega_i, delta, label: str = "") -> "ControlField":
        """Build from vectorized callables t -> value."""
        ts = grid.times
        return cls(grid, np.asarray(omega_r(ts), dtype=float),
                   np.asarray(omega_i(ts), dtype=float),
                   np.asarray(delta(ts), dtype=float),
                   label, omega_r, omega_i, delta)

    @classmethod
    def from_samples(cls, grid: TimeGrid, omega_r, omega_i, delta, label: str = "") -> "ControlField":
        return cls(grid, omega_r, omega_i, delta, label)

    def values(self, t):
        """Evaluate (omega_r, omega_i, delta) at arbitrary times in [0, T]."""
        t = np.asarray(t, dtype=float)
        return (np.asarray(self.omega_r_fn(t), dtype=float),
                np.asarray(self.omega_i_fn(t), dtype=float),
                np.asarray(self.delta_fn(t), dtype=float))

    @cached_property
    def stage_tables(self):
        """Channels at the grid nodes and at the step midpoints, evaluated once per field.

        These are the samples a fourth-order Runge-Kutta step reads; every
        solve on this field shares them, whatever its error setting.
        """
        ts = self.grid.times
        return self.values(ts), self.values(0.5 * (ts[:-1] + ts[1:]))

    def pulse_area(self) -> float:
        """Integral of |Omega| over the full duration (Simpson on the grid)."""
        return float(simpson(np.hypot(self.omega_r, self.omega_i), x=self.grid.times))

    def to_csv(self, path) -> None:
        write_csv(path, CSV_FIELD_HEADER, [self.grid.times, self.omega_r, self.omega_i, self.delta])

    @classmethod
    def read_csv(cls, path, label: str = "") -> "ControlField":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        if header != CSV_FIELD_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}, want {CSV_FIELD_HEADER!r}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t = data[:, 0]
        grid = TimeGrid(n_steps=len(t), duration=float(t[-1]))
        if not np.allclose(t, grid.times, rtol=0.0, atol=1e-12 * max(1.0, grid.duration)):
            raise ValueError("CSV time column is not a uniform grid starting at 0")
        return cls.from_samples(grid, data[:, 1], data[:, 2], data[:, 3], label=label)


@dataclass(frozen=True)
class PureState:
    """Two complex amplitudes (c1, c2); component 2 is the excited state."""

    c1: complex
    c2: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.c1) ** 2 + abs(self.c2) ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)


@dataclass(frozen=True)
class BlochState:
    r1: float
    r2: float
    r3: float

    def norm(self) -> float:
        return math.sqrt(self.r1**2 + self.r2**2 + self.r3**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3], dtype=float)


GROUND_PURE = PureState(1.0 + 0.0j, 0.0j)
GROUND_BLOCH = BlochState(0.0, 0.0, 1.0)


def excitation_probability(state: BlochState) -> float:
    """Probability to be in the excited state, P2 = (1 - r3)/2."""
    return 0.5 * (1.0 - state.r3)


def bloch_from_pure(state: PureState, tol: float = 1e-6) -> BlochState:
    """Map a normalized pure state to its Bloch vector.

    r1 = 2 Re(c1 conj(c2)), r2 = -2 Im(c1 conj(c2)), r3 = |c1|^2 - |c2|^2.
    Rejects input whose norm deviates from 1 by more than ``tol``.
    """
    n = state.norm()
    if abs(n - 1.0) > tol:
        raise ValueError(f"pure state is not normalized: |psi| = {n!r}")
    cross = state.c1 * np.conj(state.c2)
    return BlochState(float(2.0 * cross.real), float(-2.0 * cross.imag),
                      float(abs(state.c1) ** 2 - abs(state.c2) ** 2))


@dataclass(frozen=True, eq=False)
class AngleSamples:
    """Grid evaluation of an InvariantAngles triple plus derived quantities."""

    grid: TimeGrid
    theta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    theta_dot: np.ndarray
    alpha_dot: np.ndarray
    gamma_dot: np.ndarray

    @property
    def m(self) -> np.ndarray:
        # m = tan(theta) (Delta + alpha_dot); with Delta = -cos(theta) gamma_dot - alpha_dot
        # this collapses to m = -sin(theta) gamma_dot.
        return -np.sin(self.theta) * self.gamma_dot


@dataclass(frozen=True, eq=False)
class InvariantAngles:
    """Angle parameterization (theta, alpha, gamma) of a pure-state trajectory.

    theta/alpha/gamma are vectorized callables of t.  Derivative callables
    are optional; where absent, grid sampling falls back to the fixed
    differentiation rule (``sampled_derivative``).  The gauge function
    m = tan(theta) (Delta + alpha_dot) is derived, never stored.
    """

    theta: Callable
    alpha: Callable
    gamma: Callable
    theta_dot: Callable | None = None
    alpha_dot: Callable | None = None
    gamma_dot: Callable | None = None

    @property
    def has_closed_derivatives(self) -> bool:
        return None not in (self.theta_dot, self.alpha_dot, self.gamma_dot)

    def check_boundaries(self, duration: float = 1.0, tol: float = 1e-9) -> None:
        th0 = float(self.theta(np.array(0.0)))
        thT = float(self.theta(np.array(duration)))
        if abs(th0) > tol or abs(thT - math.pi) > tol:
            raise ValueError(
                f"inversion boundary conditions violated: theta(0)={th0!r}, theta(T)={thT!r}")

    def sample(self, grid: TimeGrid) -> AngleSamples:
        ts = grid.times
        th = np.asarray(self.theta(ts), dtype=float)
        al = np.asarray(self.alpha(ts), dtype=float)
        ga = np.asarray(self.gamma(ts), dtype=float)
        for name, arr in (("theta", th), ("alpha", al), ("gamma", ga)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"angle function {name} is not finite on the grid")
        thd = np.asarray(self.theta_dot(ts), dtype=float) if self.theta_dot else sampled_derivative(th, grid.h)
        ald = np.asarray(self.alpha_dot(ts), dtype=float) if self.alpha_dot else sampled_derivative(al, grid.h)
        gad = np.asarray(self.gamma_dot(ts), dtype=float) if self.gamma_dot else sampled_derivative(ga, grid.h)
        return AngleSamples(grid, th, al, ga, thd, ald, gad)


def constant(value: float) -> Callable:
    """Vectorized callable returning ``value`` for any t."""
    def fn(t):
        return np.full_like(np.asarray(t, dtype=float), value)
    return fn
