"""Parameter-grid experiments: sensitivity surfaces and robustness maps.

Cells are independent pure evaluations; failures inside a sensitivity
sweep are recorded as missing values (NaN, emitted as empty CSV cells)
rather than aborting the whole figure.  Output ordering is fixed by the
grid index, so results never depend on how cells were scheduled.

Default axis ranges bracket every feature reported for these protocol
families: Rabi/detuning amplitudes in [0.25, 8] (units 1/T) with 32
points, noise strengths lambda in [0, 1.2] (units T^-1/2) and
systematic amplitudes beta in [-1, 1] with 61 points each.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import ControlField, TimeGrid
from .dynamics import ErrorSetting, final_p2_bloch, final_p2_pure, run_ordered
from .protocols import make_transitionless
from .sensitivity import qn_formula, qs_formula


@dataclass(frozen=True)
class Axis:
    name: str
    min: float
    max: float
    n_points: int

    def __post_init__(self):
        if not self.min < self.max:
            raise ValueError(f"axis {self.name}: min {self.min} must be < max {self.max}")
        if self.n_points < 2:
            raise ValueError(f"axis {self.name}: n_points must be >= 2")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.n_points - 1)


@dataclass(frozen=True)
class GridSpec:
    axis1: Axis
    axis2: Axis | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    grid_spec: GridSpec
    values: np.ndarray  # (n1,) or (n1, n2); NaN marks a failed cell
    quantity: str  # "q_n" | "q_s" | "p2"
    protocol_label: str

    def located_min(self) -> tuple[tuple[float, ...], float]:
        """Coordinates and value of the smallest finite cell."""
        flat = np.where(np.isfinite(self.values), self.values, np.inf)
        idx = np.unravel_index(int(np.argmin(flat)), self.values.shape)
        coords = [float(self.grid_spec.axis1.values[idx[0]])]
        if self.grid_spec.axis2 is not None:
            coords.append(float(self.grid_spec.axis2.values[idx[1]]))
        return tuple(coords), float(self.values[idx])

    def to_csv(self, path) -> None:
        """Long-form CSV: axis1[,axis2],value with empty cells for failures."""
        a1 = self.grid_spec.axis1
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if self.grid_spec.axis2 is None:
                fh.write(f"{a1.name},{self.quantity}\n")
                for x, v in zip(a1.values, self.values):
                    fh.write(f"{x:.17g},{_cell(v)}\n")
            else:
                a2 = self.grid_spec.axis2
                fh.write(f"{a1.name},{a2.name},{self.quantity}\n")
                for i, x in enumerate(a1.values):
                    for j, y in enumerate(a2.values):
                        fh.write(f"{x:.17g},{y:.17g},{_cell(self.values[i, j])}\n")

    def sidecar_dict(self) -> dict:
        spec = {"axis1": asdict(self.grid_spec.axis1)}
        if self.grid_spec.axis2 is not None:
            spec["axis2"] = asdict(self.grid_spec.axis2)
        return {"grid_spec": spec, "quantity": self.quantity,
                "protocol_label": self.protocol_label}

    def to_json_sidecar(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.sidecar_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cell(v: float) -> str:
    return "" if not math.isfinite(v) else f"{v:.17g}"


def default_omega0_axis() -> Axis:
    return Axis("omega0", 0.25, 8.0, 32)


def default_delta0_axis() -> Axis:
    return Axis("delta0", 0.25, 8.0, 32)


def default_lambda_axis(n_points: int = 61) -> Axis:
    return Axis("lambda", 0.0, 1.2, n_points)


def default_beta_axis(n_points: int = 61) -> Axis:
    return Axis("beta", -1.0, 1.0, n_points)


def _sweep_transitionless(omega0_axis: Axis, delta0_axis: Axis, grid: TimeGrid,
                          analyzer, quantity: str) -> SweepResult:
    cells = [(w, d) for w in omega0_axis.values for d in delta0_axis.values]

    def one(cell):
        w, d = cell
        try:
            report = analyzer(make_transitionless(w, d, grid))
        except (RuntimeError, ValueError):
            return math.nan
        return report.q_n if quantity == "q_n" else report.q_s

    values = np.array(run_ordered(one, cells)).reshape(omega0_axis.n_points,
                                                       delta0_axis.n_points)
    return SweepResult(GridSpec(omega0_axis, delta0_axis), values, quantity,
                       "transitionless")


def sweep_qn_transitionless(omega0_axis: Axis, delta0_axis: Axis,
                            grid: TimeGrid) -> SweepResult:
    """Noise sensitivity of the transitionless family over (omega0, delta0)."""
    return _sweep_transitionless(omega0_axis, delta0_axis, grid, qn_formula, "q_n")


def sweep_qs_transitionless(omega0_axis: Axis, delta0_axis: Axis,
                            grid: TimeGrid) -> SweepResult:
    """Systematic sensitivity of the transitionless family over (omega0, delta0)."""
    return _sweep_transitionless(omega0_axis, delta0_axis, grid, qs_formula, "q_s")


def robustness_curve(field: ControlField, variable: str, axis: Axis) -> SweepResult:
    """P2(T) versus one error parameter (lambda via Bloch, beta via Schrodinger)."""
    if variable == "lambda":
        values = final_p2_bloch(field, [ErrorSetting(lambda2=x * x) for x in axis.values])
    elif variable == "beta":
        values = final_p2_pure(field, axis.values)
    else:
        raise ValueError(f"variable must be 'lambda' or 'beta', got {variable!r}")
    return SweepResult(GridSpec(axis), values, "p2", field.label)


def map_p2(field: ControlField, lambda_axis: Axis, beta_axis: Axis) -> SweepResult:
    """P2(T) over the combined (lambda, beta) error plane."""
    settings = [ErrorSetting(beta=b, lambda2=lam * lam)
                for lam in lambda_axis.values for b in beta_axis.values]
    values = final_p2_bloch(field, settings).reshape(lambda_axis.n_points, beta_axis.n_points)
    return SweepResult(GridSpec(lambda_axis, beta_axis), values, "p2", field.label)
