"""Noise and systematic-error sensitivities, each computed two ways.

The noise sensitivity q_N = -(1/2) d^2 P2/d lambda^2 at lambda = 0 and
the systematic sensitivity q_S = -(1/2) d^2 P2/d beta^2 at beta = 0
quantify the curvature of the excitation probability around the
error-free protocol: P2 ~ 1 - q_N lambda^2 - q_S beta^2.  Smaller is
more robust; q_N carries units 1/T, q_S is dimensionless.

Closed-form routes (assuming the unperturbed protocol inverts):

    q_N = 1/4 Int [WI^2 (r1^2 + r3^2) + WR^2 (r2^2 + r3^2)] dt,

over the unperturbed Bloch trajectory r(t), and

    q_S = | Int <psi_perp| H1 |psi_0> dt |^2,

with psi_0 evolving from the ground state and psi_perp the orthogonal
solution.  For a trajectory in invariant angles the latter collapses to
q_S = | Int exp(-i gamma) theta_dot sin^2(theta) dt |^2, and q_N has
the Lagrangian density L(m, alpha, theta, theta_dot) used by the
variational machinery in :mod:`invlab.optimal`.

Each closed form is paired with an independent finite-difference route
that evolves the perturbed dynamics at several error strengths and fits
the quadratic response; the two must agree within max(1%, fit error).

Quadrature is composite Simpson on the evolution grid; each formula
report carries a numerical-error estimate from comparing against the
half-resolution quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .core import GROUND_BLOCH, ControlField, InvariantAngles, TimeGrid
from .dynamics import (ErrorSetting, Trajectory, evolve_bloch, evolve_propagator,
                       final_p2_bloch, final_p2_pure)

INVERSION_THRESHOLD = 1e-4  # both derivations assume perfect unperturbed inversion

DEFAULT_LAMBDA2_SAMPLES = tuple(0.002 * k for k in range(1, 11))
DEFAULT_BETA_SAMPLES = tuple(0.01 * k for k in range(-5, 6) if k != 0)


@dataclass(frozen=True)
class SensitivityReport:
    q_n: float | None = None
    q_s: float | None = None
    method: str = "formula"
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.q_n is None and self.q_s is None:
            raise ValueError("at least one of q_n/q_s must be present")
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be >= 0")


def _require_inversion(label: str, p2_final: float) -> None:
    if p2_final < 1.0 - INVERSION_THRESHOLD:
        raise RuntimeError(
            f"protocol does not invert: P2(T) = {p2_final!r} for {label or 'field'}")


def _simpson_with_estimate(f: np.ndarray, ts: np.ndarray) -> tuple[float, float]:
    """Composite Simpson plus an error estimate from the half-resolution grid."""
    full = float(simpson(f, x=ts))
    half = float(simpson(f[::2], x=ts[::2]))
    return full, abs(full - half)


def qn_formula(field: ControlField) -> SensitivityReport:
    """q_N from the unperturbed Bloch trajectory and the dissipator quadratic form."""
    traj = evolve_bloch(field, GROUND_BLOCH, ErrorSetting())
    _require_inversion(field.label, traj.final_p2())
    r = traj.states
    wr, wi = field.omega_r, field.omega_i
    f = wi**2 * (r[:, 0] ** 2 + r[:, 2] ** 2) + wr**2 * (r[:, 1] ** 2 + r[:, 2] ** 2)
    qn, err = _simpson_with_estimate(0.25 * f, field.grid.times)
    return SensitivityReport(q_n=qn, method="formula", error_estimate=err)


def qn_pi_analytic(field: ControlField) -> SensitivityReport:
    """q_N = 1/4 Int WR^2 dt, valid only for on-resonance real pi pulses."""
    scale = max(1.0, float(np.max(np.abs(field.omega_r))))
    if np.max(np.abs(field.omega_i)) > 1e-8 * scale:
        raise ValueError("field has a nonzero imaginary Rabi component")
    if np.max(np.abs(field.delta)) > 1e-8 * scale:
        raise ValueError("field is not on resonance (nonzero detuning)")
    area = float(simpson(field.omega_r, x=field.grid.times))
    if abs(area - np.pi) > 1e-6:
        raise ValueError(f"pulse area is {area!r}, not pi")
    qn, err = _simpson_with_estimate(0.25 * field.omega_r**2, field.grid.times)
    return SensitivityReport(q_n=qn, method="analytic_pi", error_estimate=err)


def _quadratic_fit(x: np.ndarray, p2: np.ndarray) -> tuple[float, float]:
    """Least squares for the linear-response coefficient: P2 = a - q x + c x^2.

    The x^2 term absorbs the next order of the exact response, which
    otherwise biases q by several percent over the default sample range;
    q and its standard error come from the linear coefficient alone.
    """
    if len(x) < 3 or len(np.unique(x)) < 3:
        raise ValueError("need at least 3 distinct samples for the response fit")
    if np.ptp(x) <= 0.0:
        raise ValueError("samples span no range; fit is degenerate")
    coef, cov = np.polyfit(x, p2, 2, cov=True)
    return float(-coef[1]), float(np.sqrt(cov[1, 1]))


def qn_finite_difference(field: ControlField, lambda2_samples=None) -> SensitivityReport:
    """q_N from evolving the Bloch equation at several noise intensities.

    Fits P2 ~ 1 - q_N lambda^2 by least squares on the sampled linear
    regime; the error estimate is the fitted slope's standard error.
    """
    t_total = field.grid.duration
    samples = np.asarray(lambda2_samples if lambda2_samples is not None
                         else np.array(DEFAULT_LAMBDA2_SAMPLES) * t_total, dtype=float)
    p2 = final_p2_bloch(field, [ErrorSetting(lambda2=l2) for l2 in samples])
    qn, err = _quadratic_fit(samples, p2)
    if qn * float(np.min(samples)) >= 0.1:
        raise ValueError("lambda2 samples are outside the linear-response regime")
    return SensitivityReport(q_n=qn, method="finite_difference", error_estimate=err)


def _orthogonal_pair(field: ControlField) -> tuple[Trajectory, Trajectory]:
    """Unperturbed psi_0 (from ground) and psi_perp (from excited); checks drift.

    Both are columns of one propagated unitary [[a, b], [-b*, a*]]:
    psi_0 = (a, -b*) and psi_perp = (b, a*).
    """
    a, b = evolve_propagator(field).T
    traj0 = Trajectory(field.grid, np.column_stack((a, -b.conj())), "pure")
    trajp = Trajectory(field.grid, np.column_stack((b, a.conj())), "pure")
    overlap = np.abs(np.sum(np.conj(trajp.states) * traj0.states, axis=1))
    if float(np.max(overlap)) > 1e-7:
        raise RuntimeError(f"orthogonality drift {np.max(overlap)!r} exceeds 1e-7")
    return traj0, trajp


def qs_formula(field: ControlField) -> SensitivityReport:
    """q_S from the first-order matrix element between the orthogonal solutions."""
    traj0, trajp = _orthogonal_pair(field)
    _require_inversion(field.label, traj0.final_p2())
    wr, wi = field.omega_r, field.omega_i
    psi0, psip = traj0.states, trajp.states
    f = 0.5 * (np.conj(psip[:, 0]) * (wr - 1j * wi) * psi0[:, 1]
               + np.conj(psip[:, 1]) * (wr + 1j * wi) * psi0[:, 0])
    ts = field.grid.times
    amp = complex(simpson(f, x=ts))
    amp_half = complex(simpson(f[::2], x=ts[::2]))
    qs = abs(amp) ** 2
    return SensitivityReport(q_s=qs, method="formula",
                             error_estimate=abs(qs - abs(amp_half) ** 2))


def qs_invariant(angles: InvariantAngles, grid: TimeGrid | None = None) -> float:
    """q_S = |Int exp(-i gamma) theta_dot sin^2(theta) dt|^2 by quadrature."""
    grid = grid or TimeGrid(2001)
    angles.check_boundaries(grid.duration)
    s = angles.sample(grid)
    f = np.exp(-1j * s.gamma) * s.theta_dot * np.sin(s.theta) ** 2
    return float(abs(simpson(f, x=grid.times)) ** 2)


def qs_finite_difference(field: ControlField, beta_samples=None) -> SensitivityReport:
    """q_S from evolving the Schrodinger equation at several error amplitudes."""
    samples = np.asarray(beta_samples if beta_samples is not None
                         else DEFAULT_BETA_SAMPLES, dtype=float)
    p2 = final_p2_pure(field, samples)
    qs, err = _quadratic_fit(samples**2, p2)
    if qs * float(np.min(samples**2)) >= 0.1:
        raise ValueError("beta samples are outside the linear-response regime")
    return SensitivityReport(q_s=qs, method="finite_difference", error_estimate=err)


def qn_lagrangian(angles: InvariantAngles, grid: TimeGrid | None = None) -> float:
    """q_N as the action of the variational density L(m, alpha, theta, theta_dot).

    L = 1/4 [(cos^2 th + cos^2 al sin^2 th)(m sin al - cos al th_dot)^2
           + (cos^2 th + sin^2 al sin^2 th)(m cos al + sin al th_dot)^2],

    with the gauge m derived from the angle triple.  For a field
    generated from the same angles this equals qn_formula.
    """
    grid = grid or TimeGrid(2001)
    s = angles.sample(grid)
    sin_t, cos_t = np.sin(s.theta), np.cos(s.theta)
    sin_a, cos_a = np.sin(s.alpha), np.cos(s.alpha)
    m = s.m
    dens = 0.25 * ((cos_t**2 + cos_a**2 * sin_t**2) * (m * sin_a - cos_a * s.theta_dot) ** 2
                   + (cos_t**2 + sin_a**2 * sin_t**2) * (m * cos_a + sin_a * s.theta_dot) ** 2)
    return float(simpson(dens, x=grid.times))
