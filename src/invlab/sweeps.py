"""Parameter-grid experiments: sensitivity surfaces and robustness maps.

Cells are independent pure evaluations, run in grid-index order.  The
sensitivity surfaces of the transitionless family solve no dynamics: a
cell reads the invariant angles of its field's error-free evolution, which
are closed forms.  Cells are evaluated a block at a time, in row-major
order, by ``protocols._transitionless``, which ``make_transitionless``
calls too: a block is as many cells as keep each of its (cells, points)
arrays within ``_BLOCK_BYTES``, and every block reads one sin/cos(pi t)
table computed once per surface.  The angles store sin(theta) = WR/gamma_dot
and cos(theta) = -D/gamma_dot, so no cell takes a sine, cosine or angle, and
each surface forms only what its integrand reads: the q_N surface cos(theta)
and no gamma, the q_S surface gamma and no cos(theta).  Each cell equals
``qn_formula``/``qs_formula`` of ``make_transitionless`` at its parameters
bit for bit.  A singular field (the counter-diabatic denominator vanishes
on the grid) divides by zero, and its cell is set to NaN (an empty CSV
cell) rather than aborting the whole figure.

``FIGURES`` holds each figure's default axes, analysis and protocols.  The
axes bracket every feature reported for these families: omega0, delta0 in
[0.25, 8] (units 1/T) with 32 points for Figs. 2 and 5, lambda in [0, 1.2]
(units T^1/2) and beta in [-1, 1] with 61 points for Figs. 1 and 4 and 31
per axis for Fig. 7.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import ControlField, TimeGrid, json_text, simpson, write_text
from .dynamics import ErrorSetting, final_p2_bloch, final_p2_pure
from .protocols import (SINGULAR_GAP2, ProtocolSpec, _half_turn, _transitionless,
                        _transitionless_gamma)
from .sensitivity import ANGLE_FORMS


@dataclass(frozen=True)
class Axis:
    name: str
    min: float
    max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"axis {self.name}: min {self.min} and max {self.max} must be finite")
        if not self.min < self.max:
            raise ValueError(f"axis {self.name}: min {self.min} must be < max {self.max}")
        if not math.isfinite(self.max - self.min):
            raise ValueError(f"axis {self.name}: min {self.min} to max {self.max} overflows a float")
        if self.n_points < 2:
            raise ValueError(f"axis {self.name}: n_points must be >= 2")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.n_points)


@dataclass(frozen=True, eq=False)
class SweepResult:
    axes: tuple[Axis, ...]  # one or two
    values: np.ndarray  # one dimension per axis; NaN marks a failed cell
    quantity: str  # "q_n" | "q_s" | "p2"
    protocol_label: str

    def csv_columns(self) -> tuple[str, list]:
        """Long form: a column per axis, then the value column (a failed cell is empty)."""
        coords = np.meshgrid(*(a.values for a in self.axes), indexing="ij")
        return (",".join([a.name for a in self.axes] + [self.quantity]),
                [c.ravel() for c in coords] + [self.values.ravel()])

    def to_json_sidecar(self, path) -> None:
        write_text(path, json_text(
            {"grid_spec": {f"axis{i}": asdict(a) for i, a in enumerate(self.axes, start=1)},
             "quantity": self.quantity, "protocol_label": self.protocol_label}))


# A surface evaluates _BLOCK_BYTES // (8 n_steps) cells at a time (at least one): 3 cells
# on 2001 points, each (cells, points) float64 array 47 KiB.  Measured on 2001 points, on
# 6x6 and default 32x32 surfaces: blocks of 1-3 cells page-faulted 0 times per sweep, 4 cells
# 140-218 times, 6 cells 580-3350 and a whole 6x6 surface 1800, as the heap is trimmed and
# grown again around larger temporaries; 1 cell a block ran 20-40% slower than 3.
_BLOCK_BYTES = 48 * 1024


def _sweep_transitionless(omega0_axis: Axis, delta0_axis: Axis, grid: TimeGrid,
                          quantity: str) -> SweepResult:
    # the family's rules where its overflow rule peaks: at the plane's corners, and at the
    # least |delta0| of a regular field, where the counter-diabatic term is largest
    deltas = delta0_axis.values
    regular = deltas[deltas * deltas >= SINGULAR_GAP2]
    least = regular[np.argmin(np.abs(regular))] if regular.size else deltas[0]
    for omega0 in (omega0_axis.min, omega0_axis.max):
        for delta0 in (delta0_axis.min, delta0_axis.max, float(least)):
            ProtocolSpec("transitionless", {"omega0": omega0, "delta0": delta0})
    integrand, value = ANGLE_FORMS[quantity]
    omega0, delta0 = (c.reshape(-1, 1) for c in np.meshgrid(
        omega0_axis.values, delta0_axis.values, indexing="ij"))
    values, min_gap2 = np.empty(len(omega0)), np.empty(len(omega0))
    node_turn, mid_turn = _half_turn(grid)
    size = max(1, _BLOCK_BYTES // (8 * grid.n_steps))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # singular: NaN below
        for lo in range(0, len(values), size):
            o, d = omega0[lo:lo + size], delta0[lo:lo + size]
            (_, _, d_nodes), s, min_gap2[lo:lo + size] = _transitionless(o, d, grid, node_turn)
            s = (replace(s, cos_theta=-d_nodes / s.gamma_dot) if quantity == "q_n"
                 else replace(s, gamma=_transitionless_gamma(o, d, grid, mid_turn, s.gamma_dot)))
            values[lo:lo + size] = [value(a) for a in simpson(integrand(s), grid.h)]
    values[min_gap2 < SINGULAR_GAP2] = np.nan
    values = values.reshape(omega0_axis.n_points, delta0_axis.n_points)
    return SweepResult((omega0_axis, delta0_axis), values, quantity, "transitionless")


def sweep_qn_transitionless(omega0_axis: Axis, delta0_axis: Axis,
                            grid: TimeGrid) -> SweepResult:
    """Noise sensitivity of the transitionless family over (omega0, delta0)."""
    return _sweep_transitionless(omega0_axis, delta0_axis, grid, "q_n")


def sweep_qs_transitionless(omega0_axis: Axis, delta0_axis: Axis,
                            grid: TimeGrid) -> SweepResult:
    """Systematic sensitivity of the transitionless family over (omega0, delta0)."""
    return _sweep_transitionless(omega0_axis, delta0_axis, grid, "q_s")


def robustness_curve(field: ControlField, variable: str, axis: Axis) -> SweepResult:
    """P2(T) versus one error parameter (lambda via Bloch, beta via Schrodinger)."""
    if variable == "lambda":
        values = final_p2_bloch(field, [ErrorSetting(lambda2=x * x) for x in axis.values.tolist()])
    elif variable == "beta":
        values = final_p2_pure(field, axis.values)
    else:
        raise ValueError(f"variable must be 'lambda' or 'beta', got {variable!r}")
    return SweepResult((axis,), values, "p2", field.label)


def map_p2(field: ControlField, lambda_axis: Axis, beta_axis: Axis) -> SweepResult:
    """P2(T) over the combined (lambda, beta) error plane."""
    settings = [ErrorSetting(beta=b, lambda2=lam * lam)
                for lam in lambda_axis.values.tolist() for b in beta_axis.values.tolist()]
    values = final_p2_bloch(field, settings).reshape(lambda_axis.n_points, beta_axis.n_points)
    return SweepResult((lambda_axis, beta_axis), values, "p2", field.label)


# the transitionless example of Figs. 1, 4 and 7
_FIG1 = {"omega0": (5.57 / 4.3) * math.pi, "delta0": (5.57 / 4.3) ** 2 * math.pi}
_PLANE = (Axis("omega0", 0.25, 8.0, 32), Axis("delta0", 0.25, 8.0, 32))

# The figure table: figure -> (default axes, analysis, protocols).  The analysis gets a
# protocol's field, or the grid when the protocol is None, and the axes.  Analyses are
# called through their module names, so a rebinding (tracing, mocking) is seen.
FIGURES = {
    1: ((Axis("lambda", 0.0, 1.2, 61),),
        lambda field, lam: robustness_curve(field, "lambda", lam),
        [("optimal_noise", {"n": 7}), ("flat_pi", {"alpha": 0.0}),
         ("sinusoidal_adiabatic", _FIG1), ("transitionless", _FIG1)]),
    2: (_PLANE, lambda grid, *axes: sweep_qn_transitionless(*axes, grid), [(None, {})]),
    4: ((Axis("beta", -1.0, 1.0, 61),), lambda field, beta: robustness_curve(field, "beta", beta),
        [("optimal_systematic", {"n": 1}), ("transitionless", _FIG1), ("optimal_noise", {"n": 7})]),
    5: (_PLANE, lambda grid, *axes: sweep_qs_transitionless(*axes, grid), [(None, {})]),
    7: ((Axis("lambda", 0.0, 1.2, 31), Axis("beta", -1.0, 1.0, 31)), lambda *a: map_p2(*a),
        [("transitionless", _FIG1), ("optimal_systematic", {"n": 1}), ("optimal_noise", {"n": 7})]),
}
