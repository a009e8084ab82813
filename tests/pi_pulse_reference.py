"""q_N of an on-resonance real pi pulse by its own closed form, kept only as an
oracle for ``invlab.qn_formula``: for Omega = WR real and Delta = 0 the noise
sensitivity is 1/4 Int WR^2 dt, which needs no invariant angles.
"""

import numpy as np

from invlab import ControlField
from invlab.core import simpson
from invlab.sensitivity import SensitivityReport, _simpson_with_estimate


def qn_pi_analytic(field: ControlField) -> SensitivityReport:
    """q_N = 1/4 Int WR^2 dt, valid only for on-resonance real pi pulses."""
    scale = max(1.0, float(np.max(np.abs(field.omega_r))))
    if np.max(np.abs(field.omega_i)) > 1e-8 * scale:
        raise ValueError("field has a nonzero imaginary Rabi component")
    if np.max(np.abs(field.delta)) > 1e-8 * scale:
        raise ValueError("field is not on resonance (nonzero detuning)")
    area = float(simpson(field.omega_r, field.grid.h))
    if abs(area - np.pi) > 1e-6:
        raise ValueError(f"pulse area is {area!r}, not pi")
    qn, err = _simpson_with_estimate(0.25 * field.omega_r**2, field.grid.h)
    return SensitivityReport(q_n=qn, error_estimate=err)
