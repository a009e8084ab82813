"""Generators for the population-inversion protocol families.

Every generator returns a :class:`~invlab.core.ControlField`, built from
one channel function t -> (WR, WI, D), whose error-free evolution takes
the ground state to the excited state at t = T (the bare sinusoidal
reference being the deliberate exception).  The protocol table
``PROTOCOLS`` holds every kind the command line builds;
invariant_engineered takes an angle trajectory, which no flag can give, so
it is built in Python by ``make_invariant_engineered`` alone.

Families
--------
flat_pi / shaped_pi      on-resonance pulses with integrated amplitude pi
sinusoidal_adiabatic     finite-time sweep WR = W0 sin(pi t/T), D = -d0 cos(pi t/T)
transitionless           sinusoidal reference plus the counter-diabatic term
                         WI = Wa = (WR D_dot - WR_dot D) / (WR^2 + D^2)
invariant_engineered     controls inverted from a target angle trajectory:
                             WR = cos(al) sin(th) g_dot - sin(al) th_dot
                             WI = sin(al) sin(th) g_dot + cos(al) th_dot
                             D  = -cos(th) g_dot - al_dot
optimal_noise            minimal noise sensitivity: stationary theta,
                         alpha = n pi/4 (n odd), zero detuning
optimal_systematic       zero systematic sensitivity: gamma = n(2 th - sin 2 th);
                         the builder's member has th = pi t/T and WI = 0, and
                         invariant_engineered builds any other th or al

Every family but the bare sweep attaches the invariant angles of its
error-free evolution on the grid (``ControlField.angles``), which the
closed-form sensitivities read without an ODE solve.  An on-resonance pulse
Omega = |Omega| e^{i phi} has theta = its cumulative area,
alpha = phi - pi/2 (n pi/4 for optimal_noise) and gamma = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dfield
from inspect import Parameter
from typing import Callable, NamedTuple

import numpy as np

from .core import AngleSamples, ControlField, InvariantAngles, TimeGrid, constant, simpson
from .optimal import solve_optimal_theta, stationary_theta_dot

# Named shaped_pi envelopes, functions of t in [0, 1]; a name may stand for its function.
ENVELOPES = {
    "sin": lambda t: np.sin(math.pi * np.asarray(t, dtype=float)),
    "flat": lambda t: np.ones_like(np.asarray(t, dtype=float)),
}


def _resonant_field(grid: TimeGrid, label: str, amplitude: Callable, samples, c_r: float,
                    c_i: float, theta, theta_dot, alpha: float) -> ControlField:
    """The on-resonance pulse (c_r a(t), c_i a(t), 0) of real amplitude a(t), sampled on the
    grid as ``samples`` and read once per channels call, with its invariant angles: for
    Omega = theta_dot e^{i(alpha + pi/2)}, theta its cumulative area, constant alpha and
    gamma = 0, so alpha_dot = gamma_dot = 0."""
    def channels(t):
        a = np.asarray(amplitude(np.asarray(t, dtype=float)), dtype=float)
        return c_r * a, c_i * a, np.zeros_like(a)

    zero = np.zeros(1)
    angles = AngleSamples(grid, theta, np.full(1, alpha), zero, theta_dot, zero, zero)
    return ControlField(grid, c_r * samples, c_i * samples, np.zeros_like(samples), label=label,
                        channels=channels, angles=angles)


def _step_simpson(nodes, mids, h: float):
    """Cumulative integral at the nodes, by Simpson's rule on each step from its two
    nodes and its midpoint; along the last axis."""
    steps = (h / 6.0) * (nodes[..., :-1] + 4.0 * mids + nodes[..., 1:])
    out = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,))
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def make_flat_pi(alpha: float, grid: TimeGrid) -> ControlField:
    """Constant Omega T = pi e^{i alpha}, zero detuning; theta = pi t."""
    alpha = _check("flat_pi", alpha=alpha)["alpha"]
    c_r, c_i = math.pi * math.cos(alpha), math.pi * math.sin(alpha)
    ts = grid.times
    a = np.ones_like(ts)
    return _resonant_field(grid, f"flat_pi(alpha={alpha:g})", ENVELOPES["flat"], a, c_r, c_i,
                           math.pi * ts, math.pi * a, alpha - 0.5 * math.pi)


def make_shaped_pi(envelope: Callable, alpha: float, grid: TimeGrid) -> ControlField:
    """Envelope rescaled so the pulse area, by Simpson's rule on the grid, is pi.

    The envelope must be nonnegative at the nodes and at the step midpoints,
    which a fourth-order Runge-Kutta step reads too.  theta is the cumulative
    area by Simpson's rule on each step, rescaled to end at pi.
    """
    envelope, alpha = _check("shaped_pi", envelope=envelope, alpha=alpha).values()
    ts = grid.times
    samples = np.asarray(envelope(ts), dtype=float)
    if samples.shape != (grid.n_steps,):
        raise ValueError(f"envelope has shape {samples.shape}, expected {(grid.n_steps,)}")
    mids = np.asarray(envelope(0.5 * (ts[:-1] + ts[1:])), dtype=float)
    area = float(simpson(samples, grid.h))
    if area <= 1e-12:
        raise ValueError(f"envelope integrates to {area!r}; cannot normalize to pi")
    if min(float(np.min(samples)), float(np.min(mids))) < -1e-12:
        raise ValueError("envelope must be nonnegative at the grid nodes and step midpoints")
    scale = math.pi / area
    c_r, c_i = scale * math.cos(alpha), scale * math.sin(alpha)
    cumulative = _step_simpson(samples, mids, grid.h)
    field = _resonant_field(grid, f"shaped_pi(alpha={alpha:g})", envelope, samples, c_r, c_i,
                            cumulative * (math.pi / cumulative[-1]), scale * samples,
                            alpha - 0.5 * math.pi)
    # the RK4 midpoints were sampled above: seed the field's stage tables with the channels there
    nodes = (field.omega_r, field.omega_i, field.delta)
    vars(field)["stage_tables"] = nodes, (c_r * mids, c_i * mids, np.zeros_like(mids))
    return field


def _sinusoidal(omega0: float, delta0: float, t):
    """WR, D and their time derivatives for the sinusoidal sweep, from one sin and one cos."""
    wt = math.pi * np.asarray(t, dtype=float)
    s, c = np.sin(wt), np.cos(wt)
    return omega0 * s, -delta0 * c, omega0 * math.pi * c, delta0 * math.pi * s


def make_sinusoidal(omega0: float, delta0: float, grid: TimeGrid) -> ControlField:
    """Bare finite-time sinusoidal sweep (no shortcut term)."""
    omega0, delta0 = _check("sinusoidal_adiabatic", omega0=omega0, delta0=delta0).values()

    def channels(t):
        omega_r, delta, _, _ = _sinusoidal(omega0, delta0, t)
        return omega_r, np.zeros_like(omega_r), delta

    return ControlField.from_functions(
        grid, channels, label=f"sinusoidal_adiabatic(omega0={omega0:g},delta0={delta0:g})")


# a transitionless field is singular where min(WR^2 + D^2) on its grid is below this
SINGULAR_GAP2 = 1e-12


def _half_turn(grid: TimeGrid):
    """(sin, cos) of pi t at the grid's nodes, then at its step midpoints: one table over
    t = linspace(0, 1, 2 n_steps - 1), whose even entries are the nodes, split in two."""
    wt = math.pi * np.linspace(0.0, 1.0, 2 * grid.n_steps - 1)
    sin_wt, cos_wt = np.sin(wt), np.cos(wt)
    return (sin_wt[::2].copy(), cos_wt[::2].copy()), (sin_wt[1::2].copy(), cos_wt[1::2].copy())


def _transitionless(omega0, delta0, grid: TimeGrid, half_turn):
    """Node channels (WR, Wa, D), invariant angles and min(WR^2 + D^2) over the nodes.

    The angles of the error-free evolution are theta = atan2(WR, -D),
    alpha = 0, theta_dot = Wa (the counter-diabatic term) and
    gamma_dot = sqrt(WR^2 + D^2); gamma is gamma_dot integrated by Simpson's
    rule over each step.  For delta0 < 0, theta runs from pi to 0.  The
    angles carry sin(theta) = WR / gamma_dot and cos(theta) = -D / gamma_dot,
    so no formula takes a sine or cosine of theta.  The node and midpoint
    channels are formed separately from one ``_half_turn(grid)`` table, which
    a caller evaluating many fields computes once; they broadcast over array
    parameters, e.g. omega0 and delta0 of shape (k, 1) give (k, points)
    samples, and no (k, 2 n_steps - 1) array is made.  Wa, theta_dot, sin(theta)
    and cos(theta) are NaN where the field is singular: their divisions are
    masked there.
    """
    (sin_wt, cos_wt), (sin_mid, cos_mid) = half_turn
    wr, d = omega0 * sin_wt, -delta0 * cos_wt  # _sinusoidal's arithmetic, at the nodes
    wr_dot, d_dot = omega0 * math.pi * cos_wt, delta0 * math.pi * sin_wt
    gap2 = wr * wr + d * d
    min_gap2 = np.min(gap2, axis=-1)
    regular = np.expand_dims(min_gap2 >= SINGULAR_GAP2, -1)

    def masked(numerator, denominator):
        return np.divide(numerator, denominator, out=np.full_like(numerator, np.nan),
                         where=regular)

    wa = masked(wr * d_dot - wr_dot * d, gap2)
    # gamma integrates gamma_dot = sqrt(WR^2 + D^2) by Simpson's rule on each step
    gamma_dot = np.sqrt(gap2)
    wr_mid, d_mid = omega0 * sin_mid, -delta0 * cos_mid
    gamma = _step_simpson(gamma_dot, np.sqrt(wr_mid * wr_mid + d_mid * d_mid), grid.h)
    zero = np.zeros(wa.shape[:-1] + (1,))  # alpha = alpha_dot = 0, broadcast over the points
    minus_d = -d
    angles = AngleSamples(grid, np.arctan2(wr, minus_d), zero, gamma, wa, zero, gamma_dot)
    vars(angles).update(sin_theta=masked(wr, gamma_dot), cos_theta=masked(minus_d, gamma_dot))
    return (wr, wa, d), angles, min_gap2


def make_transitionless(omega0: float, delta0: float, grid: TimeGrid) -> ControlField:
    """Sinusoidal sweep with the counter-diabatic term in the imaginary channel.

    The added coupling Wa = (WR D_dot - WR_dot D)/(WR^2 + D^2) cancels all
    diabatic transitions, so the state tracks the instantaneous eigenstate
    of the reference for any duration; the field carries that evolution's
    invariant angles.
    """
    omega0, delta0 = _check("transitionless", omega0=omega0, delta0=delta0).values()

    def channels(t):
        wr, d, wr_dot, d_dot = _sinusoidal(omega0, delta0, t)
        return wr, (wr * d_dot - wr_dot * d) / (wr * wr + d * d), d

    nodes, angles, min_gap2 = _transitionless(omega0, delta0, grid, _half_turn(grid))
    if min_gap2 < SINGULAR_GAP2:
        raise RuntimeError(
            f"singular counter-diabatic denominator: min(WR^2 + D^2) = {float(min_gap2)!r}")
    return ControlField(grid, *nodes, label=f"transitionless(omega0={omega0:g},delta0={delta0:g})",
                        channels=channels, angles=angles)


def _controls(theta, alpha, theta_dot, alpha_dot, gamma_dot):
    """The inversion angles -> controls (WR, WI, D) of the module docstring."""
    sin_t = np.sin(theta)
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    return (cos_a * sin_t * gamma_dot - sin_a * theta_dot,
            sin_a * sin_t * gamma_dot + cos_a * theta_dot,
            -np.cos(theta) * gamma_dot - alpha_dot)


def make_invariant_engineered(angles: InvariantAngles, grid: TimeGrid) -> ControlField:
    """Invert the angle trajectory into the controls realizing it.

    With closed-form derivatives the channels are closed forms too; otherwise
    the grid samples (derivatives by ``sampled_derivative``) are splined.
    """
    if not isinstance(angles, InvariantAngles):
        raise ValueError(f"invariant_engineered: angles must be InvariantAngles, got {angles!r}")
    angles.check_boundaries()
    return _invariant_field(angles, angles.sample(grid), "invariant_engineered")


def _invariant_field(angles: InvariantAngles, s: AngleSamples, label: str) -> ControlField:
    """The field realizing ``angles``, whose grid samples are ``s``."""
    channels = None
    if angles.has_closed_derivatives:
        def channels(t):
            t = np.asarray(t, dtype=float)
            return _controls(angles.theta(t), angles.alpha(t), angles.theta_dot(t),
                             angles.alpha_dot(t), angles.gamma_dot(t))

    controls = _controls(s.theta, s.alpha, s.theta_dot, s.alpha_dot, s.gamma_dot)
    return ControlField(s.grid, *controls, label=label, channels=channels, angles=s)


def make_optimal_noise(n: int, grid: TimeGrid) -> ControlField:
    """Protocol with minimal noise sensitivity (n odd).

    theta solves the stationarity ODE; the controls are the pi pulse
    WR = -sin(n pi/4) theta_dot, WI = cos(n pi/4) theta_dot, D = 0,
    so |WR| = |WI| = theta_dot / sqrt(2) with signs set by n.  theta is
    solved once on the grid and serves both the channels and the angles.
    """
    angles = optimal_noise_angles(n)
    theta = angles.theta(grid.times)
    theta_dot = stationary_theta_dot(theta)
    # -sin(n pi/4), cos(n pi/4) for odd n are exactly +-sqrt(1/2)
    sign_r, sign_i = {1: (-1, 1), 3: (-1, -1), 5: (1, -1), 7: (1, 1)}[n % 8]
    c_r, c_i = sign_r * math.sqrt(0.5), sign_i * math.sqrt(0.5)
    return _resonant_field(grid, f"optimal_noise(n={n})", angles.theta_dot, theta_dot, c_r, c_i,
                           theta, theta_dot, n * math.pi / 4.0)


def optimal_noise_angles(n: int = 7) -> InvariantAngles:
    """Invariant angles of the noise-optimal protocol: stationary theta,
    alpha = n pi/4 (n odd), constant gamma (so m = 0)."""
    n = _check("optimal_noise", n=n)["n"]
    theta, theta_dot = solve_optimal_theta()
    return InvariantAngles(theta, constant(n * math.pi / 4.0), constant(0.0),
                           theta_dot, constant(0.0), constant(0.0))


def optimal_systematic_angles(n: int) -> InvariantAngles:
    """Angle triple of the zero-systematic-sensitivity family's default member.

    gamma = n (2 theta - sin 2 theta) makes q_S vanish for integer n and any
    admissible theta and alpha.  This member has theta = pi t and
    alpha = -arccot(4 n sin^3 theta) on the continuous branch in (-pi, 0),
    i.e. alpha = arctan(4 n sin^3 theta) - pi/2, with alpha(0) = alpha(1) = -pi/2:
    the choice that makes Omega_I vanish.  Any other member is
    ``make_invariant_engineered(InvariantAngles(...), grid)`` of the same gamma.
    """
    n = _check("optimal_systematic", n=n)["n"]

    def theta(t):
        return math.pi * np.asarray(t, dtype=float)

    def gamma(t):
        th = theta(t)
        return n * (2.0 * th - np.sin(2.0 * th))

    def gamma_dot(t):
        return 4.0 * n * np.sin(theta(t)) ** 2 * math.pi

    def alpha(t):
        return np.arctan(4.0 * n * np.sin(theta(t)) ** 3) - 0.5 * math.pi

    def alpha_dot(t):
        th = theta(t)
        x = 4.0 * n * np.sin(th) ** 3
        return 12.0 * n * np.sin(th) ** 2 * np.cos(th) * math.pi / (1.0 + x * x)

    return InvariantAngles(theta, alpha, gamma, constant(math.pi), alpha_dot, gamma_dot)


def make_optimal_systematic(n: int, grid: TimeGrid) -> ControlField:
    """Protocol with zero systematic-error sensitivity (integer n >= 1): the
    member of ``optimal_systematic_angles``, theta = pi t/T with Omega_I = 0."""
    angles = optimal_systematic_angles(n)
    return _invariant_field(angles, angles.sample(grid),
                            label=f"optimal_systematic(n={n},gauge=zero_omega_i)")


class Param(NamedTuple):
    """One protocol parameter: its type, default, rule and help.

    type is float, int or callable.  A parameter without a default is
    required.  choices maps each allowed name to the value it stands for.
    Every parameter is a command-line flag, and help is its help text.
    """

    name: str
    type: object
    default: object = Parameter.empty
    above: float | None = None
    odd: bool = False
    choices: dict | None = None
    help: str = ""

    def check(self, kind: str, value):
        """The value, converted to int or float where typed so; ValueError if it breaks the rule."""
        if isinstance(value, str) and self.choices is not None:
            if value not in self.choices:
                raise ValueError(f"{kind}: {self.name} must be one of {sorted(self.choices)}, "
                                 f"got {value!r}")
            value = self.choices[value]
        if self.type in (int, float):
            ok = (isinstance(value, numbers.Integral if self.type is int else numbers.Real)
                  and not isinstance(value, bool))
            value = self.type(value) if ok else value
        else:
            ok = callable(value)
        if not ok:
            raise ValueError(f"{kind}: {self.name} must be {self.type.__name__}, got {value!r}")
        if self.type is float and not math.isfinite(value):
            raise ValueError(f"{kind}: {self.name} must be finite, got {value!r}")
        if self.above is not None and not value > self.above:
            raise ValueError(f"{kind}: {self.name} must be > {self.above:g}, got {value!r}")
        if self.odd and value % 2 == 0:
            raise ValueError(f"{kind}: {self.name} must be odd, got {value!r}")
        return value


class Family(NamedTuple):
    """A protocol kind, built by the command line from its parameters' flags."""

    build: Callable[..., ControlField]  # called with grid= and every parameter by name
    params: tuple
    rule: Callable[[str, dict], None] | None = None  # ValueError on a bad parameter set


def _representable_sweep(kind: str, p: dict) -> None:
    """Refuse a sweep whose squared channels or counter-diabatic numerator overflow a float.

    On [0, 1], WR^2 + D^2 lies between delta0^2 and omega0^2, and the
    numerator WR D_dot - WR_dot D is pi omega0 delta0, so |Wa| peaks at
    pi |omega0 delta0| / min(omega0^2, delta0^2).  A singular sweep is the
    builder's to refuse.
    """
    omega0, delta0 = p["omega0"], p["delta0"]
    numerator = math.pi * abs(omega0 * delta0)
    gap2 = min(omega0 * omega0, delta0 * delta0)
    wa = numerator / gap2 if gap2 >= SINGULAR_GAP2 else 0.0
    if not math.isfinite(omega0 * omega0 + delta0 * delta0 + wa * wa + numerator):
        raise ValueError(f"{kind}: omega0={omega0!r} and delta0={delta0!r} overflow "
                         f"WR^2 + WI^2 + D^2 or the counter-diabatic numerator")


_ALPHA = Param("alpha", float, 0.0, help="pulse phase (radians)")
_SWEEP = (Param("omega0", float, above=0.0, help="Rabi amplitude times T"),
          Param("delta0", float, help="detuning amplitude times T"))
_N_HELP = "protocol family index"

# The protocol table: the one place that knows each kind's parameters, their
# rules and their command-line flags.  Builders are called through their
# module names, so a rebinding of make_* (tracing, mocking) is seen.
PROTOCOLS = {
    "flat_pi": Family(lambda **p: make_flat_pi(**p), (_ALPHA,)),
    "shaped_pi": Family(lambda **p: make_shaped_pi(**p),
                        (Param("envelope", callable, "sin", choices=ENVELOPES,
                               help="shaped_pi envelope name"), _ALPHA)),
    "sinusoidal_adiabatic": Family(lambda **p: make_sinusoidal(**p), _SWEEP),
    "transitionless": Family(lambda **p: make_transitionless(**p), _SWEEP, _representable_sweep),
    "optimal_noise": Family(lambda **p: make_optimal_noise(**p),
                            (Param("n", int, 7, odd=True, help=_N_HELP),)),
    "optimal_systematic": Family(
        lambda **p: make_optimal_systematic(**p),
        (Param("n", int, 1, above=0, help=_N_HELP),)),
}


def _check(kind: str, **params) -> dict:
    """A kind's parameters, those given in their order, then defaults: each checked by its
    own rule, then the whole set by the kind's rule."""
    if kind not in PROTOCOLS:
        raise ValueError(f"unknown protocol kind {kind!r}; expected one of {tuple(PROTOCOLS)}")
    family = PROTOCOLS[kind]
    unknown = set(params).difference(p.name for p in family.params)
    if unknown:
        raise ValueError(f"{kind} takes no parameter {sorted(unknown)[0]!r}")
    out = dict(params)
    for p in family.params:
        value = out.get(p.name, p.default)
        if value is Parameter.empty:
            raise ValueError(f"{kind} requires parameter {p.name!r}")
        out[p.name] = p.check(kind, value)
    if family.rule is not None:
        family.rule(kind, out)
    return out


@dataclass(frozen=True)
class ProtocolSpec:
    """Validated recipe (kind + parameters) for building a ControlField."""

    kind: str
    parameters: dict = dfield(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", _check(self.kind, **self.parameters))

    def build(self, grid: TimeGrid) -> ControlField:
        return PROTOCOLS[self.kind].build(grid=grid, **self.parameters)
