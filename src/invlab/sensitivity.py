"""Noise and systematic-error sensitivities, each computed two ways.

The noise sensitivity q_N = -(1/2) d^2 P2/d lambda^2 at lambda = 0 and
the systematic sensitivity q_S = -(1/2) d^2 P2/d beta^2 at beta = 0
quantify the curvature of the excitation probability around the
error-free protocol: P2 ~ 1 - q_N lambda^2 - q_S beta^2.  Smaller is
more robust; q_N carries units 1/T, q_S is dimensionless.

Both closed forms (which assume the unperturbed protocol inverts) are
functionals of one error-free evolution.  A field that carries the
invariant angles of that evolution (``ControlField.angles``, set by the
builder of every inverting family) is read through them, with no ODE
solve: q_N is the action of the Lagrangian density L(m, alpha, theta,
theta_dot) whose stationary point is the noise optimum of
:mod:`invlab.optimal`, and

    q_S = | Int exp(-i gamma) theta_dot sin^2(theta) dt |^2.

A field without angles (the bare sinusoidal sweep, a field read from
CSV) is read through the propagator U(t) = [[a, b], [-b*, a*]] of
:func:`invlab.dynamics.evolve_propagator`, solved once per formula, and
refused unless it inverts.  Its columns evolve the ground state,
psi_0 = (a, -b*), and the orthogonal solution from the excited state,
psi_perp = (b, a*).  Then

    q_N = 1/4 Int [WI^2 (r1^2 + r3^2) + WR^2 (r2^2 + r3^2)] dt,

over the Bloch vector of psi_0, r = (-2 Re(ab), 2 Im(ab), |a|^2 - |b|^2),
and

    q_S = | Int <psi_perp| H1 |psi_0> dt |^2
        = | 1/2 Int [(WR + i WI) a^2 - (WR - i WI) b*^2] dt |^2.

Each closed form is paired with an independent derivative route,
``qn_derivative`` and ``qs_derivative``: q_N = -[lambda^2] P2(T) and
q_S = -[beta^2] P2(T), the exact derivatives of the discrete RK4 solution
of the perturbed dynamics, read from one series solve (see
:mod:`invlab.dynamics`).  Its error estimate is Richardson's, from the same
coefficient of a half-resolution solve, plus the rounding of the product of
steps.  The two routes agree within their summed error estimates.  A q_S
near zero (optimal_systematic) is the RK4 solution's own tiny value, of
either sign, and is reported as computed.  The CLI reports this route under
the flag value ``finite-difference`` and the JSON key ``finite_difference``,
names kept for compatibility.

Quadrature is the composite Simpson rule of :func:`invlab.core.simpson`
on the evolution grid; each formula report carries a numerical-error
estimate from comparing against the half-resolution quadrature over the
whole duration.  The derivative routes always solve the perturbed
dynamics, so they stay independent of the angles, and refuse a field that
does not invert as the formulas do.  ``qn_finite_difference`` and
``qs_finite_difference`` fit a quadratic to P2(T) at ten error strengths;
the CLI no longer reads them.  They are kept for their two callers, the
benchmark's Fig. 2/5 cell check (``perfbench/checks.py``) and its layer
trace (``perfbench/layertrace.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AngleSamples, ControlField, simpson
from .dynamics import (ErrorSetting, evolve_propagator, final_p2_beta_series, final_p2_bloch,
                       final_p2_lambda2_series, final_p2_pure)

INVERSION_THRESHOLD = 1e-4  # both derivations assume perfect unperturbed inversion

DEFAULT_LAMBDA2_SAMPLES = tuple(0.002 * k for k in range(1, 11))
BETA_SAMPLES = tuple(0.01 * k for k in range(-5, 6) if k != 0)


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


def _simpson_with_estimate(f: np.ndarray, h: float, value=float) -> tuple[float, float]:
    """``value`` of the composite Simpson integral, and its distance from the half-grid one.

    The comparison is made on the largest prefix and suffix whose count and
    half count are odd (count m = 1 mod 4), so both grids take plain Simpson:
    f[::2] of an even count would stop one step short of T, and an even half
    count would take the end correction at step 2h.  The estimate is the
    larger of the two, which together cover [0, 1]; for n = 1 mod 4 both are
    the whole grid.  Below 5 points m is 3 (2 on a 2-point grid).
    """
    full = value(simpson(f, h))
    n = f.shape[-1]
    m = n - (n - 1) % 4 if n >= 5 else min(n, 3)
    return full, max(abs(value(simpson(part, h)) - value(simpson(part[::2], 2.0 * h)))
                     for part in (f[:m], f[n - m:]))


def _qn_density(s: AngleSamples) -> np.ndarray:
    """The q_N Lagrangian density L(m, alpha, theta, theta_dot), with the gauge
    m = tan(theta)(Delta + alpha_dot) derived from the angle triple:

    L = 1/4 [(cos^2 th + cos^2 al sin^2 th)(m sin al - cos al th_dot)^2
           + (cos^2 th + sin^2 al sin^2 th)(m cos al + sin al th_dot)^2].
    On alpha = 0 (the transitionless family) it reads the alpha-free form: with sin al = 0
    and cos al = 1 exactly, the terms dropped are exact zeros and factors of 1, so the bits
    stay those of the general form wherever m and th_dot are finite or NaN.
    """
    sin_t, cos_t = s.sin_theta, s.cos_theta
    m = -sin_t * s.gamma_dot  # m = tan(theta)(Delta + alpha_dot) = -sin(theta) gamma_dot
    cos2_t, sin2_t = cos_t**2, sin_t**2
    if not np.any(s.alpha):
        return 0.25 * ((cos2_t + sin2_t) * s.theta_dot**2 + cos2_t * m**2)
    sin_a, cos_a = np.sin(s.alpha), np.cos(s.alpha)
    return 0.25 * ((cos2_t + cos_a**2 * sin2_t) * (m * sin_a - cos_a * s.theta_dot) ** 2
                   + (cos2_t + sin_a**2 * sin2_t) * (m * cos_a + sin_a * s.theta_dot) ** 2)


def _qs_integrand(s: AngleSamples) -> np.ndarray:
    """exp(-i gamma) theta_dot sin^2(theta), whose integral's squared modulus is q_S."""
    return (np.cos(s.gamma) - 1j * np.sin(s.gamma)) * s.theta_dot * s.sin_theta ** 2


def _qs_value(amp) -> float:
    return abs(complex(amp)) ** 2


# sensitivity -> (integrand over the invariant angles, value of its integral), as the
# formulas read them; the samples may carry leading axes, one per field
ANGLE_FORMS = {"q_n": (_qn_density, float), "q_s": (_qs_integrand, _qs_value)}


def _require_inversion(field: ControlField, p2_final: float) -> None:
    if p2_final < 1.0 - INVERSION_THRESHOLD:
        raise RuntimeError(
            f"protocol does not invert: P2(T) = {p2_final!r} for {field.label or 'field'}")


def _formula(quantity: str, field: ControlField) -> SensitivityReport:
    """The formula report of ``quantity`` ("q_n" or "q_s"): from the field's invariant
    angles, or else from one solve of its error-free propagator, refusing a field
    that does not invert."""
    integrand, value = ANGLE_FORMS[quantity]
    if field.angles is not None:
        f = integrand(field.angles)
    else:
        a, b = evolve_propagator(field).T
        _require_inversion(field, float(abs(b[-1]) ** 2 / (abs(a[-1]) ** 2 + abs(b[-1]) ** 2)))
        wr, wi = field.omega_r, field.omega_i
        if quantity == "q_s":
            bc = b.conj()
            f = 0.5 * (bc * (wr - 1j * wi) * -bc + a * (wr + 1j * wi) * a)
        else:
            ab = a * b
            r1, r2, r3 = -2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2
            f = 0.25 * (wi**2 * (r1**2 + r3**2) + wr**2 * (r2**2 + r3**2))
    q, err = _simpson_with_estimate(f, field.grid.h, value)
    return SensitivityReport(**{quantity: q}, method="formula", error_estimate=err)


def qn_formula(field: ControlField) -> SensitivityReport:
    """q_N from the field's invariant angles, or else from the unperturbed
    Bloch vector and the dissipator quadratic form."""
    return _formula("q_n", field)


def _quadratic_fit(x: np.ndarray, p2: np.ndarray, name: str) -> tuple[float, float]:
    """Least squares for the linear-response coefficient: P2 = a - q x + c x^2.

    The x^2 term absorbs the next order of the exact response, which
    otherwise biases q by several percent over the default sample range;
    q and its standard error come from the linear coefficient alone.
    Refuses the fit when q times the smallest ``name`` sample reaches 0.1,
    outside the linear regime.
    """
    if len(x) < 3 or len(np.unique(x)) < 3:
        raise ValueError("need at least 3 distinct samples for the response fit")
    coef, cov = np.polyfit(x, p2, 2, cov=True)
    q = float(-coef[1])
    if q * float(np.min(x)) >= 0.1:
        raise ValueError(f"{name} samples are outside the linear-response regime")
    return q, float(np.sqrt(cov[1, 1]))


def qn_finite_difference(field: ControlField, lambda2_samples=None) -> SensitivityReport:
    """q_N from evolving the Bloch equation at several noise intensities.

    Fits P2 ~ 1 - q_N lambda^2 by least squares on the sampled linear
    regime; the error estimate is the fitted slope's standard error.
    """
    samples = np.asarray(lambda2_samples if lambda2_samples is not None
                         else DEFAULT_LAMBDA2_SAMPLES, dtype=float)
    p2 = final_p2_bloch(field, [ErrorSetting(lambda2=l2) for l2 in samples])
    qn, err = _quadratic_fit(samples, p2, "lambda2")
    return SensitivityReport(q_n=qn, method="finite_difference", error_estimate=err)


def qs_formula(field: ControlField) -> SensitivityReport:
    """q_S from the field's invariant angles, or else from the first-order
    matrix element between the orthogonal solutions."""
    return _formula("q_s", field)


def qs_finite_difference(field: ControlField) -> SensitivityReport:
    """q_S from evolving the Schrodinger equation at the error amplitudes BETA_SAMPLES."""
    samples = np.asarray(BETA_SAMPLES)
    p2 = final_p2_pure(field, samples)
    qs, err = _quadratic_fit(samples**2, p2, "beta")
    return SensitivityReport(q_s=qs, method="finite_difference", error_estimate=err)


# unit roundoff: a product of n factors is accurate to about n of it, relative to its
# scale (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3)
_UNIT_ROUNDOFF = 2.0**-53


def _derivative(quantity: str, field: ControlField, series, order: int) -> SensitivityReport:
    """The derivative report of ``quantity``: minus the coefficient ``order`` of the P2(T)
    ``series`` on the grid, refusing a field that does not invert.

    RK4's error is O(h^4), so the step-2h coefficient lies about 16 times as far from the
    limit as the step-h one, and the error estimate is |q_h - q_2h| / 15 (Richardson),
    plus the rounding of the n-step product, n u max(1, |q|), which is what remains
    where q is near zero.
    """
    fine = series(field)
    _require_inversion(field, float(fine[0]))
    q, q_half = -float(fine[order]), -float(series(field, half=True)[order])
    rounding = field.grid.n_steps * _UNIT_ROUNDOFF * max(1.0, abs(q))
    return SensitivityReport(**{quantity: q}, method="derivative",
                             error_estimate=abs(q - q_half) / 15.0 + rounding)


def qn_derivative(field: ControlField) -> SensitivityReport:
    """q_N = -dP2/d(lambda^2) at zero error, the exact derivative of the RK4 Bloch solution."""
    return _derivative("q_n", field, final_p2_lambda2_series, 1)


def qs_derivative(field: ControlField) -> SensitivityReport:
    """q_S = -(1/2) d^2P2/d(beta^2) at zero error, the exact derivative of the RK4
    Schrodinger solution."""
    return _derivative("q_s", field, final_p2_beta_series, 2)
