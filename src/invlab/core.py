"""Shared data model: time grids, control fields and invariant angles.

Conventions
-----------
The driven two-level system is governed by (hbar = 1)

    H(t) = 1/2 [[-Delta(t),            Omega_R(t) - i Omega_I(t)],
                [Omega_R(t) + i Omega_I(t),            Delta(t)]],

where Omega = Omega_R + i Omega_I is the complex Rabi frequency and
Delta the detuning.  All computation is in units of the duration T:
time runs over tau = t/T in [0, 1], so the control channels are the
products Omega T and Delta T.  A mixed state is the Bloch vector

    r = (rho_12 + rho_21,  i(rho_12 - rho_21),  rho_11 - rho_22),

with excitation probability P2 = (1 - r3)/2.  A pure state is the pair
of amplitudes (c1, c2), component 1 the ground state and component 2 the
excited state.  States are plain arrays: the engines take a pair (c1, c2)
or three Bloch components, and the ground state's Bloch vector is
``GROUND_BLOCH``.

A field's channels are one vectorized function of time, t -> (Omega_R,
Omega_I, Delta): the generator's closed forms whenever it has them,
otherwise a cubic spline over the grid samples, which keeps
fourth-order integrators at full accuracy.
Derivatives of sampled quantities use centered second-order
differences (one-sided second-order at the endpoints) throughout, and
integrals over the grid use the in-house composite Simpson rule
``simpson``.  Only numpy is loaded with this module; scipy's spline is
imported when a field without closed forms first needs one.

Every output file goes through one writer here: ``csv_text`` formats the
columns a result names once (``csv_columns``), ``json_text`` a JSON
object, and ``write_text`` writes either as UTF-8 with Unix newlines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

CSV_FIELD_HEADER = "t,omega_r,omega_i,delta"
_BOUNDARY_TOL = 1e-9  # theta(0) = 0 and theta(1) = pi hold to this


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i / (n_steps - 1), i = 0 .. n_steps-1, on [0, 1]."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_steps)

    @property
    def h(self) -> float:
        """Grid spacing."""
        return 1.0 / (self.n_steps - 1)


def sampled_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fixed differentiation rule for sampled channels and angles.

    Centered second-order differences on interior points, one-sided
    second-order at the endpoints (np.gradient with edge_order=2).
    """
    return np.gradient(np.asarray(values, dtype=float), h, edge_order=2)


def simpson(y, dx: float):
    """Composite Simpson's rule over uniformly spaced samples, along the last axis.

    Matches ``scipy.integrate.simpson(y, dx=dx)``: 0 for one sample, the
    trapezoid rule for two, composite Simpson for an odd count and, for an
    even count, Simpson over all but the last interval plus Cartwright's
    correction dx (5 y[-1] + 8 y[-2] - y[-3]) / 12.  Complex samples work.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n == 2:
        return 0.5 * dx * (y[..., 0] + y[..., 1])
    stop = n - 2 if n % 2 else n - 3  # the odd-count head covers samples 0 .. stop+1
    result = np.sum(y[..., 0:stop:2] + 4.0 * y[..., 1:stop + 1:2] + y[..., 2:stop + 2:2],
                    axis=-1)
    result *= dx / 3.0
    if n % 2 == 0:
        result += dx * (5.0 * y[..., -1] + 8.0 * y[..., -2] - y[..., -3]) / 12.0
    return result


def csv_text(header: str, columns) -> str:
    """The header line, then one row per sample: '%.17g' with '.' decimals, a
    non-finite value as an empty cell."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns]).tolist()
    lines = [",".join(["%.17g" % v if math.isfinite(v) else "" for v in row]) for row in rows]
    return "\n".join([header, *lines, ""])


def json_text(obj) -> str:
    """JSON with a two-space indent, sorted keys and a final newline; a non-finite
    number, which JSON cannot hold, raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    """Write an output file: UTF-8 text with Unix newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@dataclass(frozen=True, eq=False)
class ControlField:
    """The three control channels of H(t) sampled on a grid.

    ``channels`` is one vectorized callable t -> (omega_r, omega_i, delta):
    the closed forms when available, otherwise a cubic spline over the
    samples, so that ``values`` can be evaluated anywhere in [0, 1].
    ``angles`` holds the invariant angles of the field's error-free
    evolution on the grid; the builder of every inverting family sets
    them, theta running from 0 to pi (pi to 0 for a transitionless sweep
    with delta0 < 0), and a field without them (a bare sweep, samples, a
    CSV file) has None.
    """

    grid: TimeGrid
    omega_r: np.ndarray
    omega_i: np.ndarray
    delta: np.ndarray
    label: str = ""
    channels: Callable | None = None
    angles: AngleSamples | None = None

    def __post_init__(self):
        ts = self.grid.times
        for name in ("omega_r", "omega_i", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != ts.shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {ts.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} is not finite at every grid point")
            object.__setattr__(self, name, arr)
        if self.channels is None:
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(ts, np.column_stack([self.omega_r, self.omega_i, self.delta]))
            object.__setattr__(self, "channels", lambda t: np.moveaxis(spline(t), -1, 0))

    @classmethod
    def from_functions(cls, grid: TimeGrid, channels, label: str = "") -> "ControlField":
        """Build from one vectorized callable t -> (omega_r, omega_i, delta)."""
        return cls(grid, *channels(grid.times), label=label, channels=channels)

    def values(self, t):
        """Evaluate (omega_r, omega_i, delta) at arbitrary times in [0, 1]."""
        return tuple(np.asarray(c, dtype=float) for c in self.channels(np.asarray(t, dtype=float)))

    @cached_property
    def stage_tables(self):
        """Channels at the grid nodes and at the step midpoints, evaluated once per field.

        These are the samples a fourth-order Runge-Kutta step reads; every
        solve on this field shares them, whatever its error setting.  The
        node table is the field's own samples.
        """
        ts = self.grid.times
        return (self.omega_r, self.omega_i, self.delta), self.values(0.5 * (ts[:-1] + ts[1:]))

    def csv_columns(self) -> tuple[str, list]:
        """The CSV header and its columns: t and the three channels."""
        return CSV_FIELD_HEADER, [self.grid.times, self.omega_r, self.omega_i, self.delta]

    @classmethod
    def read_csv(cls, path, label: str = "") -> "ControlField":
        """A field in ``csv_columns``'s layout whose time column is uniform on [0, T], T > 0 (as
        ``protocol --duration T`` writes it), in units of T: times / T, channels * T."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        if header != CSV_FIELD_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}, want {CSV_FIELD_HEADER!r}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        grid, T = TimeGrid(len(data)), float(data[-1, 0])
        if not (T > 0.0 and math.isfinite(T)
                and np.allclose(data[:, 0] / T, grid.times, rtol=0.0, atol=1e-12)):
            raise ValueError("CSV time column is not a uniform grid on [0, T] with T > 0")
        return cls(grid, *(data[:, 1:].T * T), label=label)


# the ground state's Bloch vector, the initial state of every Bloch solve the program runs
GROUND_BLOCH = np.array([0.0, 0.0, 1.0])
GROUND_BLOCH.flags.writeable = False


@dataclass(frozen=True, eq=False)
class AngleSamples:
    """Grid evaluation of an InvariantAngles triple and its three derivatives; an
    angle constant in time may be stored with a trailing axis of length 1.

    theta enters the controls and both sensitivities only through its sine
    and cosine, so those are stored in its place: np.sin and np.cos of the
    sampled theta, or, for a transitionless field, WR / gamma_dot and
    -D / gamma_dot, which need no trigonometry.
    """

    grid: TimeGrid
    sin_theta: np.ndarray
    cos_theta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    theta_dot: np.ndarray
    alpha_dot: np.ndarray
    gamma_dot: np.ndarray


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

    def check_boundaries(self) -> None:
        th0 = float(self.theta(np.array(0.0)))
        th1 = float(self.theta(np.array(1.0)))
        if abs(th0) > _BOUNDARY_TOL or abs(th1 - math.pi) > _BOUNDARY_TOL:
            raise ValueError(
                f"inversion boundary conditions violated: theta(0)={th0!r}, theta(1)={th1!r}")

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
        return AngleSamples(grid, np.sin(th), np.cos(th), al, ga, thd, ald, gad)


def constant(value: float) -> Callable:
    """Vectorized callable returning ``value`` for any t."""
    def fn(t):
        return np.full_like(np.asarray(t, dtype=float), value)
    return fn
