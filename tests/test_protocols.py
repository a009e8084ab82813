import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from invlab import (GROUND_BLOCH, ControlField, InvariantAngles, ProtocolSpec,
                    TimeGrid, constant, evolve_bloch, evolve_pure, make_flat_pi,
                    make_invariant_engineered, make_optimal_noise,
                    make_optimal_systematic, make_shaped_pi, make_sinusoidal,
                    make_transitionless, optimal_noise_angles, optimal_systematic_angles,
                    qs_formula)
from invlab.cli import main
from invlab.core import simpson
from invlab.protocols import PROTOCOLS, _step_simpson
from conftest import EX_DELTA0, EX_OMEGA0


def pulse_area(f: ControlField) -> float:
    """Integral of |Omega| over [0, 1], by Simpson's rule on the grid."""
    return float(simpson(np.hypot(f.omega_r, f.omega_i), f.grid.h))


def test_flat_pi_channels(grid):
    f = make_flat_pi(0.0, grid)
    assert np.all(f.omega_r == math.pi)
    assert np.all(f.omega_i == 0.0)
    assert np.all(f.delta == 0.0)
    g = make_flat_pi(math.pi / 2.0, grid)
    assert np.max(np.abs(g.omega_r)) < 1e-15
    assert np.all(g.omega_i == pytest.approx(math.pi))


@pytest.mark.parametrize("alpha", [0.0, 0.4, math.pi / 2, 2.0, -1.1])
def test_flat_pi_area(grid, alpha):
    assert pulse_area(make_flat_pi(alpha, grid)) == pytest.approx(math.pi, abs=1e-8)


def test_shaped_pi_sin_envelope(grid):
    # area pi requires the scale pi^2/2 on a sin(pi t) envelope
    f = make_shaped_pi(lambda t: np.sin(np.pi * np.asarray(t)), 0.0, grid)
    expected = (np.pi**2 / 2.0) * np.sin(np.pi * grid.times)
    assert np.max(np.abs(f.omega_r - expected)) < 1e-9
    assert pulse_area(f) == pytest.approx(math.pi, abs=1e-8)


def test_shaped_pi_constant_envelope_equals_flat(grid):
    f = make_shaped_pi(lambda t: np.full_like(np.asarray(t, dtype=float), 2.7), 0.3, grid)
    ref = make_flat_pi(0.3, grid)
    assert np.max(np.abs(f.omega_r - ref.omega_r)) < 1e-12
    assert np.max(np.abs(f.omega_i - ref.omega_i)) < 1e-12


def _c09_envelope(coeffs):
    def env(t):
        t = np.asarray(t, dtype=float)
        return (coeffs[0] + sum(coeffs[k] * np.sin(k * np.pi * t) for k in range(1, 4))) ** 2
    return env


@pytest.mark.parametrize("alpha", [0.0, 0.4, 2.0])
def test_shaped_pi_area_is_pi_to_the_last_bits(grid, alpha):
    # the envelope is normalized by the same Simpson rule that pulse_area applies
    rng = np.random.default_rng(99)
    envelopes = ["sin", "flat", *(_c09_envelope(rng.uniform(-1.0, 1.0, size=4))
                                  for _ in range(5))]
    for envelope in envelopes:
        area = pulse_area(make_shaped_pi(envelope, alpha, grid))
        assert abs(area - math.pi) <= 4 * math.ulp(math.pi), envelope


def test_shaped_pi_rejects_an_envelope_that_is_not_sampled_per_time(grid):
    with pytest.raises(ValueError, match="shape"):
        make_shaped_pi(lambda t: 1.0, 0.0, grid)


def test_shaped_pi_rejects_zero_and_negative_envelopes(grid):
    with pytest.raises(ValueError):
        make_shaped_pi(constant(0.0), 0.0, grid)
    with pytest.raises(ValueError):
        make_shaped_pi(lambda t: np.sin(2.0 * np.pi * np.asarray(t)), 0.0, grid)


def test_shaped_pi_rejects_an_envelope_negative_at_a_step_midpoint():
    # every node reads 1 and every midpoint -1, and a Runge-Kutta step reads both
    envelope = lambda t: np.cos(2.0 * np.pi * 2000.0 * np.asarray(t, dtype=float))
    with pytest.raises(ValueError, match="nonnegative at the grid nodes and step midpoints"):
        make_shaped_pi(envelope, 0.0, TimeGrid(2001))


def test_sinusoidal_endpoints(grid):
    f = make_sinusoidal(2.0, 1.5, grid)
    wr, wi, d = f.values(np.array([0.0, 0.5, 1.0]))
    assert wr == pytest.approx([0.0, 2.0, 0.0], abs=1e-12)
    assert d == pytest.approx([-1.5, 0.0, 1.5], abs=1e-12)
    assert np.all(wi == 0.0)
    with pytest.raises(ValueError):
        make_sinusoidal(0.0, 1.0, grid)


def test_sinusoidal_example_does_not_fully_invert(grid):
    f = make_sinusoidal(EX_OMEGA0, EX_DELTA0, grid)
    assert evolve_bloch(f, GROUND_BLOCH).final_p2() < 0.999


def test_transitionless_cd_term_closed_form(grid):
    """Wa must equal Omega0 delta0 pi / (Omega0^2 sin^2 + delta0^2 cos^2)."""
    om0, d0 = 1.7, 0.9
    f = make_transitionless(om0, d0, grid)
    x = np.pi * grid.times
    expected = om0 * d0 * np.pi / (om0**2 * np.sin(x) ** 2 + d0**2 * np.cos(x) ** 2)
    assert np.max(np.abs(f.omega_i - expected)) < 1e-10


def test_transitionless_cd_term_finite_difference_oracle(grid):
    """Independent route: differentiate the sinusoidal channels numerically."""
    om0, d0 = 2.3, 1.1
    f = make_transitionless(om0, d0, grid)
    ts = grid.times
    wr = om0 * np.sin(np.pi * ts)
    dl = -d0 * np.cos(np.pi * ts)
    wr_dot = np.gradient(wr, grid.h, edge_order=2)
    dl_dot = np.gradient(dl, grid.h, edge_order=2)
    oracle = (wr * dl_dot - wr_dot * dl) / (wr**2 + dl**2)
    assert np.max(np.abs(f.omega_i - oracle)) < 1e-5


def test_transitionless_equal_amplitudes_constant_cd(grid):
    f = make_transitionless(0.8, 0.8, grid)
    assert np.max(np.abs(f.omega_i - math.pi)) < 1e-12


def test_transitionless_singular_denominator(grid):
    with pytest.raises(RuntimeError):
        make_transitionless(1.0, 0.0, grid)


@pytest.mark.parametrize("om0,d0", [(0.5, 0.5), (EX_OMEGA0, EX_DELTA0), (4.0, 0.7)])
def test_transitionless_inverts_perfectly(grid, om0, d0):
    f = make_transitionless(om0, d0, grid)
    assert evolve_bloch(f, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6


def test_transitionless_tracks_instantaneous_eigenstate(grid):
    """Overlap with the reference eigenstate stays >= 1 - 1e-6 at all times."""
    f = make_transitionless(EX_OMEGA0, EX_DELTA0, grid)
    psi = evolve_pure(f, (1, 0))
    ts = grid.times
    theta_ad = np.arctan2(EX_OMEGA0 * np.sin(np.pi * ts), EX_DELTA0 * np.cos(np.pi * ts))
    overlap = np.abs(np.cos(theta_ad / 2.0) * psi[:, 0] + np.sin(theta_ad / 2.0) * psi[:, 1])
    assert float(np.min(overlap)) >= 1.0 - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(0.25, 8.0), st.floats(0.25, 8.0), st.booleans(),
       st.sampled_from([11, 12, 401, 2001]))
def test_transitionless_sin_and_cos_theta_match_the_angle(omega0, delta0, negative, n):
    # WR / gamma_dot and -D / gamma_dot against np.sin and np.cos of atan2(WR, -D); near
    # theta = 0 or pi the sine is tiny and np.sin(theta) keeps an absolute error of an ulp
    # of theta, so the distance is counted in ulps of 1
    field = make_transitionless(omega0, -delta0 if negative else delta0, TimeGrid(n))
    theta = np.arctan2(field.omega_r, -field.delta)
    assert np.max(np.abs(field.angles.sin_theta - np.sin(theta))) <= 4 * np.spacing(1.0)
    assert np.max(np.abs(field.angles.cos_theta - np.cos(theta))) <= 4 * np.spacing(1.0)


def _shaped_pi_theta(envelope, g):
    """make_shaped_pi's theta: the cumulative area by Simpson's rule on each step, ending at pi."""
    ts = g.times
    cumulative = _step_simpson(envelope(ts), envelope(0.5 * (ts[:-1] + ts[1:])), g.h)
    return cumulative * (math.pi / cumulative[-1])


def _sin2(t):
    return np.sin(np.pi * t) ** 2


@pytest.mark.parametrize("build,theta", [
    (lambda g: make_flat_pi(0.4, g), lambda g: math.pi * g.times),
    (lambda g: make_shaped_pi(_sin2, 0.3, g), lambda g: _shaped_pi_theta(_sin2, g)),
    (lambda g: make_optimal_noise(3, g), lambda g: optimal_noise_angles(3).theta(g.times)),
    (lambda g: make_optimal_systematic(2, g),
     lambda g: optimal_systematic_angles(2).theta(g.times)),
    (lambda g: make_invariant_engineered(optimal_systematic_angles(1), g),
     lambda g: optimal_systematic_angles(1).theta(g.times))],
    ids=["flat_pi", "shaped_pi", "optimal_noise", "optimal_systematic", "invariant_engineered"])
def test_other_families_store_sin_and_cos_of_their_theta(build, theta):
    g = TimeGrid(401)
    s, th = build(g).angles, theta(g)
    assert np.array_equal(s.sin_theta, np.sin(th))
    assert np.array_equal(s.cos_theta, np.cos(th))


@pytest.mark.parametrize("n", [11, 401, 2001, 2002])
@pytest.mark.parametrize("build", [
    lambda g: make_flat_pi(0.4, g),
    lambda g: make_shaped_pi("sin", 0.3, g),
    lambda g: make_optimal_noise(7, g),
    lambda g: make_optimal_systematic(1, g),
    lambda g: make_invariant_engineered(optimal_systematic_angles(2), g),
    lambda g: make_transitionless(3.0, 2.0, g),
    lambda g: make_transitionless(3.0, -2.0, g)],
    ids=["flat_pi", "shaped_pi", "optimal_noise", "optimal_systematic",
         "invariant_engineered", "transitionless", "transitionless_negative_delta0"])
def test_stored_sin_and_cos_theta_square_to_one(build, n):
    # the q_N density reads cos^2 + sin^2 weights; counted in ulps of 1
    s = build(TimeGrid(n)).angles
    assert s.sin_theta.shape == s.cos_theta.shape == (n,)
    assert np.max(np.abs(s.sin_theta ** 2 + s.cos_theta ** 2 - 1.0)) <= 4 * np.spacing(1.0)


_NODE_CASES = [("flat_pi", {"alpha": 0.3}), ("shaped_pi", {"envelope": "sin"}),
               ("shaped_pi", {"envelope": "flat"}),
               ("sinusoidal_adiabatic", {"omega0": 3.0, "delta0": 2.0}),
               ("sinusoidal_adiabatic", {"omega0": 3.0, "delta0": -2.0}),
               ("transitionless", {"omega0": 3.0, "delta0": 2.0}),
               ("transitionless", {"omega0": 3.0, "delta0": -2.0}),
               ("optimal_noise", {"n": 7}), ("optimal_systematic", {"n": 1}),
               ("invariant_engineered", None)]


@pytest.mark.parametrize("n", [11, 2001, 2002])
@pytest.mark.parametrize("kind,params", _NODE_CASES)
def test_node_samples_are_the_channels_at_the_nodes_bit_for_bit(kind, params, n):
    # RK4 reads its node stages from the samples and its midpoint stages from channels,
    # so the two must be one function of time
    g = TimeGrid(n)
    field = (make_invariant_engineered(optimal_systematic_angles(2), g) if params is None
             else ProtocolSpec(kind, params).build(g))
    for name, at_nodes in zip(("omega_r", "omega_i", "delta"), field.values(g.times)):
        assert at_nodes.tobytes() == getattr(field, name).tobytes(), name


def test_node_cases_cover_every_protocol_kind():
    assert {kind for kind, params in _NODE_CASES if params is not None} == set(PROTOCOLS)


def test_invariant_engineered_flat_limit(grid):
    for a in (0.0, 0.7):
        ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float), constant(a),
                              constant(0.0), constant(np.pi), constant(0.0), constant(0.0))
        f = make_invariant_engineered(ang, grid)
        ref = make_flat_pi(a + np.pi / 2.0, grid)
        assert np.max(np.abs(f.omega_r - ref.omega_r)) < 1e-12
        assert np.max(np.abs(f.omega_i - ref.omega_i)) < 1e-12
        assert np.max(np.abs(f.delta)) < 1e-12


def test_invariant_engineered_round_trip(grid):
    """Evolving the engineered field reproduces the target trajectory, phase included."""
    theta = lambda t: np.pi * np.asarray(t, dtype=float)
    alpha = lambda t: 0.3 + 0.2 * np.sin(np.pi * np.asarray(t, dtype=float))
    gamma = lambda t: 0.7 * (1.0 - np.cos(np.pi * np.asarray(t, dtype=float)))
    ang = InvariantAngles(
        theta, alpha, gamma,
        constant(np.pi),
        lambda t: 0.2 * np.pi * np.cos(np.pi * np.asarray(t, dtype=float)),
        lambda t: 0.7 * np.pi * np.sin(np.pi * np.asarray(t, dtype=float)))
    f = make_invariant_engineered(ang, grid)
    a0, g0 = float(alpha(0.0)), float(gamma(0.0))
    psi = evolve_pure(f, (np.exp(-0.5j * (a0 + g0)), 0.0))
    ts = grid.times
    th, al, ga = theta(ts), alpha(ts), gamma(ts)
    target = np.stack([np.cos(th / 2.0) * np.exp(-0.5j * al) * np.exp(-0.5j * ga),
                       np.sin(th / 2.0) * np.exp(0.5j * al) * np.exp(-0.5j * ga)], axis=1)
    assert np.max(np.abs(psi - target)) < 1e-8


def _extract_reengineer_deviation(n_steps):
    """Field -> trajectory -> angles -> field, interior max deviation."""
    g = TimeGrid(n_steps)
    original = make_transitionless(2.0, 1.3, g)
    c1, c2 = evolve_pure(original, (1, 0)).T
    theta = 2.0 * np.arctan2(np.abs(c2), np.abs(c1))
    phi1 = np.unwrap(np.angle(c1))
    phi2 = np.empty_like(phi1)
    phi2[1:] = np.unwrap(np.angle(c2[1:]))
    phi2[0] = 2.0 * phi2[1] - phi2[2]  # c2(0) = 0 carries no phase
    ts = g.times
    angles = InvariantAngles(CubicSpline(ts, theta), CubicSpline(ts, phi2 - phi1),
                             CubicSpline(ts, -(phi2 + phi1)))
    rebuilt = make_invariant_engineered(angles, g)
    sl = slice(3, -3)
    return max(float(np.max(np.abs(rebuilt.omega_r[sl] - original.omega_r[sl]))),
               float(np.max(np.abs(rebuilt.omega_i[sl] - original.omega_i[sl]))),
               float(np.max(np.abs(rebuilt.delta[sl] - original.delta[sl]))))


def test_invariant_engineered_inverts_angle_extraction():
    """Extracting angles from an evolved trajectory and re-engineering the
    controls reproduces the field to O(h^2)."""
    coarse = _extract_reengineer_deviation(1001)
    fine = _extract_reengineer_deviation(2001)
    assert fine < 1e-5
    assert coarse / fine > 3.5  # second-order shrinkage


def test_invariant_engineered_sampled_derivative_path(grid):
    # without closed derivatives the generator falls back to the grid rule
    ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float),
                          constant(0.0), constant(0.0))
    f = make_invariant_engineered(ang, grid)
    assert np.max(np.abs(f.omega_i - np.pi)) < 1e-6
    assert evolve_bloch(f, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6


def test_invariant_engineered_closed_and_sampled_branches_agree():
    # theta = pi t, constant alpha and linear gamma have exact sampled derivatives,
    # so both branches feed the same numbers to the one angle -> control inversion;
    # h = 1/256 keeps the differences' rounding (eps |gamma| / h) below 1e-12
    grid = TimeGrid(257)
    theta = lambda t: np.pi * np.asarray(t, dtype=float)
    gamma = lambda t: 2.5 * np.asarray(t, dtype=float)
    closed = make_invariant_engineered(
        InvariantAngles(theta, constant(0.4), gamma, constant(np.pi), constant(0.0),
                        constant(2.5)), grid)
    sampled = make_invariant_engineered(InvariantAngles(theta, constant(0.4), gamma), grid)
    # the closed-form channel function, read at the nodes, too
    for name, at_nodes in zip(("omega_r", "omega_i", "delta"), closed.values(grid.times)):
        a, b = getattr(closed, name), getattr(sampled, name)
        assert np.max(np.abs(a - b)) < 1e-12, name
        assert np.max(np.abs(at_nodes - b)) < 1e-12, name
    assert np.max(np.abs(closed.omega_i)) > 1.0 and np.max(np.abs(closed.delta)) > 1.0


def test_optimal_noise_n7_equal_channels(grid, optimal_noise_field):
    f = optimal_noise_field
    assert np.array_equal(f.omega_r, f.omega_i)
    assert np.all(f.delta == 0.0)
    assert pulse_area(f) == pytest.approx(math.pi, abs=1e-8)
    assert evolve_bloch(f, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6


@pytest.mark.parametrize("n", [1, 3, 5, 9])
def test_optimal_noise_other_odd_n_switch_signs(grid, optimal_noise_field, n):
    f = make_optimal_noise(n, grid)
    magnitude = np.hypot(f.omega_r, f.omega_i)
    reference = np.hypot(optimal_noise_field.omega_r, optimal_noise_field.omega_i)
    assert np.max(np.abs(magnitude - reference)) < 1e-12
    assert np.max(np.abs(np.abs(f.omega_r) - np.abs(f.omega_i))) < 1e-12


def test_optimal_noise_rejects_even_n(grid):
    with pytest.raises(ValueError):
        make_optimal_noise(4, grid)


def test_optimal_systematic_zero_gauge(grid):
    f = make_optimal_systematic(1, grid)
    assert np.max(np.abs(f.omega_i)) < 1e-12
    assert evolve_bloch(f, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6
    ang = optimal_systematic_angles(1)
    a = ang.alpha(np.array([0.0, 1.0]))
    assert a == pytest.approx([-np.pi / 2.0, -np.pi / 2.0], abs=1e-12)
    # continuous branch stays inside (-pi, 0)
    samples = ang.alpha(grid.times)
    assert np.all(samples > -np.pi) and np.all(samples < 0.0)


def test_optimal_systematic_gamma_relation(grid):
    ang = optimal_systematic_angles(2)
    s = ang.sample(grid)
    theta = ang.theta(grid.times)
    assert np.max(np.abs(s.gamma - 2.0 * (2.0 * theta - np.sin(2.0 * theta)))) < 1e-12
    assert np.max(np.abs(s.gamma_dot - 8.0 * np.sin(theta) ** 2 * s.theta_dot)) < 1e-12


def _zero_systematic_angles(w):
    """gamma = 2 theta - sin 2 theta with theta = w t and alpha = 0, closed derivatives."""
    theta = lambda t: w * np.asarray(t, dtype=float)
    return InvariantAngles(theta, constant(0.0), lambda t: 2.0 * theta(t) - np.sin(2.0 * theta(t)),
                           constant(w), constant(0.0),
                           lambda t: 4.0 * np.sin(theta(t)) ** 2 * w)


def test_optimal_systematic_explicit_gauge(grid):
    # another member of the family: alpha = 0 puts theta_dot = pi into omega_i, and q_S stays 0
    f = make_invariant_engineered(_zero_systematic_angles(np.pi), grid)
    assert np.max(np.abs(f.omega_i - np.pi)) < 1e-12
    assert evolve_bloch(f, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6
    assert qs_formula(f).q_s <= 1e-8


def test_optimal_systematic_validation(grid):
    with pytest.raises(ValueError):
        make_optimal_systematic(0, grid)
    with pytest.raises(ValueError, match="inversion boundary conditions violated"):
        make_invariant_engineered(_zero_systematic_angles(0.5 * np.pi), grid)


def test_every_generator_inverts(grid, transitionless_example, optimal_noise_field):
    fields = [
        make_flat_pi(0.6, grid),
        make_shaped_pi(lambda t: np.sin(np.pi * np.asarray(t)) ** 2, 0.0, grid),
        transitionless_example,
        optimal_noise_field,
        make_optimal_systematic(2, grid),
    ]
    for f in fields:
        assert evolve_bloch(f, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6, f.label


def test_protocol_spec_dispatch(grid):
    f = ProtocolSpec("transitionless", {"omega0": 1.0, "delta0": 1.0}).build(grid)
    ref = make_transitionless(1.0, 1.0, grid)
    assert np.array_equal(f.omega_i, ref.omega_i)
    with pytest.raises(ValueError):
        ProtocolSpec("no_such_kind")
    with pytest.raises(ValueError):
        ProtocolSpec("optimal_noise", {"n": 2})
    with pytest.raises(ValueError):
        ProtocolSpec("optimal_systematic", {"n": 0})
    with pytest.raises(ValueError):
        ProtocolSpec("transitionless", {"omega0": -1.0, "delta0": 1.0})
    with pytest.raises(ValueError):
        ProtocolSpec("shaped_pi", {"envelope": "not callable"})
    with pytest.raises(ValueError, match="angles must be InvariantAngles"):
        make_invariant_engineered(3, grid)


@pytest.mark.parametrize("kind,params,builder,flags", [
    ("no_such_kind", {}, None, ["--kind", "no_such_kind"]),
    ("optimal_noise", {"n": 2}, lambda g: make_optimal_noise(2, g), ["--n", "2"]),
    ("optimal_systematic", {"n": 0}, lambda g: make_optimal_systematic(0, g), ["--n", "0"]),
    ("transitionless", {"omega0": 0.0, "delta0": 1.0},
     lambda g: make_transitionless(0.0, 1.0, g), ["--omega0", "0", "--delta0", "1"]),
    ("sinusoidal_adiabatic", {"omega0": -1.0, "delta0": 1.0},
     lambda g: make_sinusoidal(-1.0, 1.0, g), ["--omega0=-1", "--delta0", "1"]),
    ("optimal_systematic", {"alpha": 0.3}, None, ["--alpha", "0.3"]),  # no such parameter
    ("shaped_pi", {"envelope": "bogus"}, lambda g: make_shaped_pi("bogus", 0.0, g),
     ["--envelope", "bogus"]),
    ("shaped_pi", {"envelope": 3}, lambda g: make_shaped_pi(3, 0.0, g), None),
    # parameters of another kind: a Python call fails with TypeError, so no builder route
    ("flat_pi", {"omega0": 3.0}, None, ["--omega0", "3"]),
    ("transitionless", {"omega0": 1.0, "delta0": 1.0, "n": 3}, None,
     ["--omega0", "1", "--delta0", "1", "--n", "3"]),
    # non-finite values: each refused by its rule, before any channel is formed
    ("flat_pi", {"alpha": math.inf}, lambda g: make_flat_pi(math.inf, g), ["--alpha", "inf"]),
    ("flat_pi", {"alpha": math.nan}, lambda g: make_flat_pi(math.nan, g), ["--alpha", "nan"]),
    ("sinusoidal_adiabatic", {"omega0": math.inf, "delta0": 1.0},
     lambda g: make_sinusoidal(math.inf, 1.0, g), ["--omega0", "inf", "--delta0", "1"]),
    ("transitionless", {"omega0": 1.0, "delta0": -math.inf},
     lambda g: make_transitionless(1.0, -math.inf, g), ["--omega0", "1", "--delta0", "-inf"]),
    # finite values whose channels overflow: refused before any channel is formed
    ("transitionless", {"omega0": 1e200, "delta0": 1.0},
     lambda g: make_transitionless(1e200, 1.0, g), ["--omega0", "1e200", "--delta0", "1"]),
    ("transitionless", {"omega0": 1e308, "delta0": 1.0},
     lambda g: make_transitionless(1e308, 1.0, g), ["--omega0", "1e308", "--delta0", "1"]),
    ("transitionless", {"omega0": 1.0, "delta0": -1e200},
     lambda g: make_transitionless(1.0, -1e200, g), ["--omega0", "1", "--delta0", "-1e200"]),
    # WR^2 + D^2 is 1.5e308, but the counter-diabatic numerator pi omega0 delta0 overflows
    ("transitionless", {"omega0": 8.7e153, "delta0": 8.7e153},
     lambda g: make_transitionless(8.7e153, 8.7e153, g),
     ["--omega0", "8.7e153", "--delta0", "8.7e153"]),
    # only Wa^2 overflows: Wa = pi omega0 / delta0 at t = 0
    ("transitionless", {"omega0": 1e150, "delta0": 1e-5},
     lambda g: make_transitionless(1e150, 1e-5, g), ["--omega0", "1e150", "--delta0", "1e-5"]),
])
def test_each_parameter_rule_holds_on_every_route(capsys, kind, params, builder, flags):
    with pytest.raises(ValueError) as refused:
        ProtocolSpec(kind, params)
    if any(isinstance(v, float) and not math.isfinite(v) for v in params.values()):
        assert "must be finite, got" in str(refused.value)
    elif any(isinstance(v, float) and abs(v) > 1e100 for v in params.values()):
        assert str(refused.value) == (f"{kind}: omega0={params['omega0']!r} and delta0="
                                      f"{params['delta0']!r} overflow WR^2 + WI^2 + D^2 "
                                      "or the counter-diabatic numerator")
    if builder is not None:
        with pytest.raises(ValueError):
            builder(TimeGrid(101))
    if flags is not None:
        argv = ["protocol", "--grid-steps", "101", *flags]
        if "--kind" not in flags:
            argv += ["--kind", kind]
        assert main(argv) == 2
        # the CLI says what ProtocolSpec says, unless argparse refuses a choice first
        err = capsys.readouterr().err
        assert err == f"invlab: {refused.value}\n" or f"argument {flags[-2]}: invalid choice" in err


def test_negative_delta0_builds_the_mirror_sweep_on_every_route(tmp_path):
    grid = TimeGrid(401)
    direct = make_transitionless(4.0, -1.0, grid)
    spec = ProtocolSpec("transitionless", {"omega0": 4.0, "delta0": -1.0}).build(grid)
    out = tmp_path / "field.csv"
    assert main(["protocol", "--kind", "transitionless", "--omega0", "4", "--delta0", "-1",
                 "--grid-steps", "401", "--out", str(out)]) == 0
    from_cli = ControlField.read_csv(out)
    for f in (spec, from_cli):
        for channel in ("omega_r", "omega_i", "delta"):
            assert np.array_equal(getattr(f, channel), getattr(direct, channel))
    assert evolve_bloch(direct, GROUND_BLOCH).final_p2() >= 1.0 - 1e-6
