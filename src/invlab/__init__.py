"""invlab: robust population-inversion protocols for two-level systems."""

from .core import (AngleSamples, ControlField, GROUND_BLOCH, InvariantAngles, TimeGrid,
                   constant, sampled_derivative)
from .dynamics import (EnsembleResult, ErrorSetting, Trajectory, evolve_bloch,
                       evolve_propagator, evolve_pure, final_p2_bloch, final_p2_pure,
                       monte_carlo_p2)
from .optimal import first_integral_constant, solve_optimal_theta
from .protocols import (ProtocolSpec, make_flat_pi, make_invariant_engineered,
                        make_optimal_noise, make_optimal_systematic,
                        make_shaped_pi, make_sinusoidal, make_transitionless,
                        optimal_noise_angles, optimal_systematic_angles)
from .sensitivity import (SensitivityReport, qn_derivative, qn_finite_difference, qn_formula,
                          qs_derivative, qs_finite_difference, qs_formula)
from .sweeps import (Axis, SweepResult, map_p2, robustness_curve, sweep_qn_transitionless,
                     sweep_qs_transitionless)

__version__ = "0.1.0"
