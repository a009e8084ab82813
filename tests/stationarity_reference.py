"""The paper's claim that the noise optimum is a stationary minimum of the q_N
action, kept as a test oracle: the stationary gauge ``stationarity_m`` and the
random-perturbation probe ``verify_stationarity``.

The action of a trial angle triple is ``qn_formula`` of the field that
``make_invariant_engineered`` builds from it, which reads the triple's own
angles.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from invlab import InvariantAngles, TimeGrid, make_invariant_engineered, qn_formula

_FD_STEP = 1e-4  # step of stationarity_m's fourth-order central difference of theta


def stationarity_m(angles: InvariantAngles) -> Callable:
    """Gauge function that makes the action stationary in m:

        m = theta_dot sin(4 alpha) sin^2 theta
            / (4 cos^2 theta + 2 sin^2(2 alpha) sin^2 theta).

    At alpha = n pi/4 (where sin 4 alpha = 0) and wherever the
    denominator degenerates, the stationary value is identically 0.
    Without a closed-form theta_dot, theta is differenced by the
    fourth-order central stencil at the times asked for, reading theta up
    to 2 _FD_STEP outside [0, 1].
    """
    if angles.theta_dot is not None:
        theta_dot = angles.theta_dot
    else:
        def theta_dot(t):
            t = np.asarray(t, dtype=float)
            th = [np.asarray(angles.theta(t + k * _FD_STEP), dtype=float) for k in (-2, -1, 1, 2)]
            return (th[0] - 8.0 * th[1] + 8.0 * th[2] - th[3]) / (12.0 * _FD_STEP)

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


def _action(angles: InvariantAngles, grid: TimeGrid) -> float:
    return qn_formula(make_invariant_engineered(angles, grid)).q_n


def verify_stationarity(angles: InvariantAngles, perturbation_scale: float,
                        n_perturbations: int = 20, seed: int = 0,
                        grid: TimeGrid | None = None) -> StationarityReport:
    """Probe local minimality of the q_N action around a candidate.

    Perturbs theta with random truncated sine series
    sum_k a_k sin(k pi t), k <= 5, which preserve the boundary
    values exactly, rescaled so the largest excursion equals
    ``perturbation_scale``.  Reports the worst (smallest) perturbed
    action and its margin over the candidate.
    """
    grid = grid or TimeGrid(2001)
    q0 = _action(angles, grid)
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
        worst = min(worst, _action(pert, grid))
    return StationarityReport(q0, worst, worst - q0, n_perturbations,
                              perturbation_scale, seed)
