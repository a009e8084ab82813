"""invlab: robust population-inversion protocols for two-level systems."""

from .core import (AngleSamples, BlochState, ControlField, GROUND_BLOCH,
                   GROUND_PURE, InvariantAngles, PureState, TimeGrid,
                   bloch_from_pure, constant, excitation_probability,
                   sampled_derivative)
from .dynamics import (EnsembleResult, ErrorSetting, Trajectory, evolve_bloch,
                       evolve_propagator, evolve_pure, evolve_sse, final_p2_bloch,
                       final_p2_pure, monte_carlo_p2, worker_count)
from .optimal import (StationarityReport, ThetaSolution, first_integral_constant,
                      optimal_noise_angles, solve_optimal_theta,
                      solve_optimal_theta_shooting, stationarity_m,
                      verify_stationarity)
from .protocols import (ProtocolSpec, make_flat_pi, make_invariant_engineered,
                        make_optimal_noise, make_optimal_systematic,
                        make_shaped_pi, make_sinusoidal, make_transitionless,
                        optimal_systematic_angles)
from .sensitivity import (SensitivityReport, qn_finite_difference, qn_formula,
                          qn_lagrangian, qn_pi_analytic, qs_finite_difference,
                          qs_formula, qs_invariant)
from .sweeps import (Axis, GridSpec, SweepResult, default_beta_axis,
                     default_delta0_axis, default_lambda_axis,
                     default_omega0_axis, map_p2, robustness_curve,
                     sweep_qn_transitionless, sweep_qs_transitionless)

__version__ = "0.1.0"
