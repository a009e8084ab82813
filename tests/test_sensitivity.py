import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invlab import (GROUND_BLOCH, Axis, InvariantAngles, TimeGrid, constant, evolve_bloch,
                    evolve_propagator, make_flat_pi, make_invariant_engineered,
                    make_optimal_noise, make_optimal_systematic, make_shaped_pi, make_sinusoidal,
                    make_transitionless, optimal_systematic_angles, qn_derivative,
                    qn_finite_difference, qn_formula, qs_derivative, qs_finite_difference,
                    qs_formula, solve_optimal_theta, sweep_qn_transitionless)
from invlab import protocols, sensitivity
from invlab.core import simpson
from invlab.sensitivity import SensitivityReport
from conftest import EX_DELTA0, EX_OMEGA0
from pi_pulse_reference import qn_pi_analytic

PI2_4 = math.pi**2 / 4.0

SIN_ENVELOPE = lambda t: np.sin(np.pi * np.asarray(t, dtype=float))
SIN2_ENVELOPE = lambda t: np.sin(np.pi * np.asarray(t, dtype=float)) ** 2
PARABOLA_ENVELOPE = lambda t: np.asarray(t, dtype=float) * (1.0 - np.asarray(t, dtype=float))


def engineered(angles, grid=TimeGrid(2001)):
    """The field of ``angles``, which carries them: its formulas read the angles' action."""
    return make_invariant_engineered(angles, grid)


def linear_theta_angles(alpha, gamma_dot_const=0.0):
    return InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float), constant(alpha),
                           lambda t: gamma_dot_const * np.asarray(t, dtype=float),
                           constant(np.pi), constant(0.0), constant(gamma_dot_const))


def test_report_validation():
    with pytest.raises(ValueError):
        SensitivityReport()
    with pytest.raises(ValueError):
        SensitivityReport(q_n=1.0, error_estimate=-1.0)


def test_qn_formula_flat(flat_field):
    assert qn_formula(flat_field).q_n == pytest.approx(PI2_4, abs=1e-6)


def test_qn_formula_transitionless_example(transitionless_example):
    assert qn_formula(transitionless_example).q_n == pytest.approx(3.21, rel=0.02)


def test_qn_formula_transitionless_minimum_cell(grid):
    assert qn_formula(make_transitionless(0.5, 0.5, grid)).q_n == pytest.approx(2.475, rel=0.02)


@pytest.mark.parametrize("omega0, delta0", [(0.25, 8.0), (8.0, 0.25)])
def test_qn_formula_converged_at_stiff_corners(omega0, delta0):
    # q_N is near 39.5 here; the 2001-point value is within 1e-10 of the 16001-point one
    coarse = qn_formula(make_transitionless(omega0, delta0, TimeGrid(2001))).q_n
    fine = qn_formula(make_transitionless(omega0, delta0, TimeGrid(16001))).q_n
    assert abs(coarse - fine) <= 1e-10 * fine


def test_qn_formula_matches_bloch_engine_quadrature(transitionless_example):
    # the same integrand over the independent 3x3 Bloch solve
    f = transitionless_example
    r = evolve_bloch(f, GROUND_BLOCH).states
    dens = f.omega_i**2 * (r[:, 0]**2 + r[:, 2]**2) + f.omega_r**2 * (r[:, 1]**2 + r[:, 2]**2)
    bloch = float(simpson(0.25 * dens, f.grid.h))
    assert qn_formula(f).q_n == pytest.approx(bloch, rel=1e-9)


def test_qn_formula_requires_inversion(grid):
    with pytest.raises(RuntimeError):
        qn_formula(make_sinusoidal(EX_OMEGA0, EX_DELTA0, grid))


def test_qn_pi_analytic_flat(flat_field):
    assert qn_pi_analytic(flat_field).q_n == pytest.approx(PI2_4, abs=1e-6)


def test_qn_pi_analytic_sin_envelope(grid):
    # int (pi^2/2 sin(pi t))^2 / 4 = pi^4/32
    f = make_shaped_pi(SIN_ENVELOPE, 0.0, grid)
    assert qn_pi_analytic(f).q_n == pytest.approx(math.pi**4 / 32.0, abs=1e-6)


def test_qn_pi_analytic_rejects_non_pi_fields(grid, transitionless_example):
    with pytest.raises(ValueError):
        qn_pi_analytic(transitionless_example)
    with pytest.raises(ValueError):
        qn_pi_analytic(make_flat_pi(np.pi / 2.0, grid))  # imaginary channel


def test_schwartz_bound_random_envelopes(grid):
    """q_N >= pi^2/(4T) for any real nonnegative pi envelope; flat is the minimizer."""
    rng = np.random.default_rng(2024)
    n_nonflat = 0
    for _ in range(10):
        coeffs = rng.uniform(-1.0, 1.0, size=4)

        def env(t, c=coeffs):
            t = np.asarray(t, dtype=float)
            base = c[0] + sum(c[k] * np.sin(k * np.pi * t) for k in range(1, 4))
            return base**2

        field = make_shaped_pi(env, 0.0, grid)
        q = qn_pi_analytic(field).q_n
        assert q >= PI2_4 - 1e-9
        if np.max(np.abs(field.omega_r - np.pi)) > 1e-3:
            n_nonflat += 1
            assert q > PI2_4 + 1e-6
    assert n_nonflat >= 8


def test_qn_finite_difference_flat(flat_field):
    assert qn_finite_difference(flat_field).q_n == pytest.approx(2.4674, rel=0.01)


def test_qn_finite_difference_optimal(optimal_noise_field):
    assert qn_finite_difference(optimal_noise_field).q_n == pytest.approx(1.82424, rel=0.01)


def test_qn_finite_difference_sample_validation(flat_field):
    with pytest.raises(ValueError):
        qn_finite_difference(flat_field, [0.01, 0.01])
    with pytest.raises(ValueError):
        qn_finite_difference(flat_field, [0.02, 0.02, 0.02])


def test_qs_formula_flat_and_shaped(grid, flat_field):
    assert qs_formula(flat_field).q_s == pytest.approx(PI2_4, abs=1e-6)
    for env in (SIN_ENVELOPE, SIN2_ENVELOPE, PARABOLA_ENVELOPE):
        f = make_shaped_pi(env, 0.4, grid)
        assert qs_formula(f).q_s == pytest.approx(PI2_4, abs=1e-6)


def test_qs_formula_optimal_systematic(grid):
    assert qs_formula(make_optimal_systematic(1, grid)).q_s <= 1e-8


def test_qs_formula_transitionless_below_pi_pulse(transitionless_example):
    assert qs_formula(transitionless_example).q_s < PI2_4


def test_qs_invariant_constant_gamma_theta_independent():
    thetas = [
        (lambda t: np.pi * np.asarray(t, dtype=float),
         constant(np.pi)),
        (lambda t: np.pi * np.asarray(t, dtype=float) ** 2,
         lambda t: 2.0 * np.pi * np.asarray(t, dtype=float)),
        (lambda t: np.pi * np.sin(0.5 * np.pi * np.asarray(t, dtype=float)),
         lambda t: 0.5 * np.pi**2 * np.cos(0.5 * np.pi * np.asarray(t, dtype=float))),
    ]
    values = [qs_formula(engineered(InvariantAngles(th, constant(0.0), constant(0.7),
                                                    thd, constant(0.0), constant(0.0)))).q_s
              for th, thd in thetas]
    for v in values:
        assert v == pytest.approx(PI2_4, abs=1e-9)
    assert max(values) - min(values) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qs_invariant_zero_family(n):
    assert qs_formula(engineered(optimal_systematic_angles(n))).q_s <= 1e-10


def test_qs_invariant_small_n_limit():
    # gamma -> 0 recovers the constant-gamma value pi^2/4: sin^2(n pi)/(4 n^2)
    n = 1e-3
    ang = InvariantAngles(
        lambda t: np.pi * np.asarray(t, dtype=float), constant(0.0),
        lambda t: n * (2.0 * np.pi * np.asarray(t, dtype=float)
                       - np.sin(2.0 * np.pi * np.asarray(t, dtype=float))),
        constant(np.pi), constant(0.0),
        lambda t: 4.0 * n * np.sin(np.pi * np.asarray(t, dtype=float)) ** 2 * np.pi)
    q = qs_formula(engineered(ang)).q_s
    assert q == pytest.approx(math.sin(n * math.pi) ** 2 / (4.0 * n**2), abs=1e-9)
    assert q == pytest.approx(PI2_4, abs=1e-4)


def test_qs_invariant_half_integer():
    # sin^2(pi/2) / (4 * 1/4) = 1 for the n = 1/2 member outside the family
    ang = InvariantAngles(
        lambda t: np.pi * np.asarray(t, dtype=float), constant(0.0),
        lambda t: 0.5 * (2.0 * np.pi * np.asarray(t, dtype=float)
                         - np.sin(2.0 * np.pi * np.asarray(t, dtype=float))),
        constant(np.pi), constant(0.0),
        lambda t: 2.0 * np.sin(np.pi * np.asarray(t, dtype=float)) ** 2 * np.pi)
    assert qs_formula(engineered(ang)).q_s == pytest.approx(1.0, abs=1e-9)


def test_qs_invariant_matches_qs_formula_on_generated_field(grid):
    # the angle route against the propagator route of the same field
    f = make_optimal_systematic(1, grid)
    solved = dataclasses.replace(f, angles=None)
    assert abs(qs_formula(f).q_s - qs_formula(solved).q_s) < 1e-6


def test_qs_finite_difference_flat(flat_field):
    assert qs_finite_difference(flat_field).q_s == pytest.approx(2.467, rel=0.01)


def test_qs_finite_difference_optimal_systematic(grid):
    rep = qs_finite_difference(make_optimal_systematic(1, grid))
    assert abs(rep.q_s) < 1e-3


def test_qn_lagrangian_flat_candidate():
    assert qn_formula(engineered(linear_theta_angles(0.0))).q_n == pytest.approx(PI2_4, abs=1e-9)


def test_qn_lagrangian_optimal_candidate(grid):
    theta, theta_dot = solve_optimal_theta()
    ang = InvariantAngles(theta, constant(np.pi / 4.0), constant(0.0),
                          theta_dot, constant(0.0), constant(0.0))
    assert qn_formula(engineered(ang, grid)).q_n == pytest.approx(1.82424, abs=1e-3)


def test_qn_lagrangian_approximate_solution():
    theta = lambda t: np.pi * np.asarray(t, dtype=float) - np.sin(2.0 * np.pi * np.asarray(t, dtype=float)) / 12.0
    theta_dot = lambda t: np.pi - (np.pi / 6.0) * np.cos(2.0 * np.pi * np.asarray(t, dtype=float))
    ang = InvariantAngles(theta, constant(np.pi / 4.0), constant(0.0),
                          theta_dot, constant(0.0), constant(0.0))
    assert qn_formula(engineered(ang)).q_n == pytest.approx(1.82538, abs=1e-3)


def test_qn_lagrangian_matches_qn_formula_for_generated_field(grid):
    # nontrivial angles: detuned field with a time-dependent gauge; the angle
    # route against the propagator route of the same field
    f = make_optimal_systematic(1, grid)
    solved = dataclasses.replace(f, angles=None)
    assert abs(qn_formula(f).q_n - qn_formula(solved).q_n) < 1e-6


# Fields on which the formulas and the derivative routes are compared: every CLI kind at
# its defaults (transitionless at the Fig. 1 example, having none), and the stiffest
# fields measured.  The bare sweep is compared where both refuse it.
AGREEMENT_FIELDS = {
    "flat": lambda g: make_flat_pi(0.0, g),
    "shaped": lambda g: make_shaped_pi(SIN_ENVELOPE, 0.0, g),
    "transitionless": lambda g: make_transitionless(EX_OMEGA0, EX_DELTA0, g),
    "optimal_noise_7": lambda g: make_optimal_noise(7, g),
    "optimal_systematic_1": lambda g: make_optimal_systematic(1, g),
    "optimal_systematic_2": lambda g: make_optimal_systematic(2, g),
    "transitionless_1_6": lambda g: make_transitionless(1.0, 6.0, g),
    "transitionless_0.25_8": lambda g: make_transitionless(0.25, 8.0, g),
}
# |formula - derivative| beyond err_f + err_d, over max(1, |q|), measured on these fields and
# seven more at 401, 2001 and 4001 points: the derivative's estimate covers its rounding, and
# the excesses, at most 8.8e-11 (transitionless(0.25, 8)'s q_S on 2001 points), are its
# Richardson term reading up to 1% under the distance (RK4's terms past h^4; up to 40% for
# optimal_systematic n=2's q_N on 401 points)
AGREEMENT_FLOOR = 1e-10


ROUTES = (("q_n", qn_formula, qn_derivative), ("q_s", qs_formula, qs_derivative))


@pytest.mark.parametrize("make", AGREEMENT_FIELDS.values(), ids=AGREEMENT_FIELDS)
def test_dual_method_agreement(grid, make):
    f = make(grid)
    for key, formula, derivative in ROUTES:
        rep_f, rep_d = formula(f), derivative(f)
        q_f, q_d = getattr(rep_f, key), getattr(rep_d, key)
        tol = rep_f.error_estimate + rep_d.error_estimate + AGREEMENT_FLOOR * max(1.0, abs(q_f))
        assert abs(q_f - q_d) <= tol, (key, q_f, q_d, rep_f.error_estimate, rep_d.error_estimate)


@pytest.mark.parametrize("name, n", [
    *((name, 2001) for name in ("flat", "shaped", "optimal_noise_7", "optimal_systematic_2",
                                "transitionless_1_6", "transitionless_0.25_8")),
    # an odd step count: the half solve takes its last step at h; without it the half
    # solve would stop short of T and the estimate would read the missing step
    ("transitionless_1_6", 2002), ("transitionless_1_6", 402)])
def test_derivative_matches_the_formula_and_its_error_estimate_tracks_the_distance(name, n):
    f = AGREEMENT_FIELDS[name](TimeGrid(n))
    assert qn_derivative(f).q_n == pytest.approx(qn_formula(f).q_n, rel=1e-6)
    for key, formula, derivative in ROUTES:
        q_f, rep = getattr(formula(f), key), derivative(f)
        distance = abs(getattr(rep, key) - q_f)
        if distance > 1e-10 * abs(q_f):
            assert 0.5 * distance <= rep.error_estimate <= 2.0 * distance


@pytest.mark.parametrize("omega0, delta0", [(6.0, 4.0), (EX_OMEGA0, EX_DELTA0)])
def test_derivative_routes_refuse_a_field_that_does_not_invert(grid, omega0, delta0):
    f = make_sinusoidal(omega0, delta0, grid)
    with pytest.raises(RuntimeError) as formula_error:
        qs_formula(f)
    for route in (qn_derivative, qs_derivative):
        with pytest.raises(RuntimeError, match="^protocol does not invert: P2\\(T\\) = ") as error:
            route(f)
        # the same P2(T) to rounding, read from the Bloch or the pure-state solve
        p2 = [float(str(e.value).split("= ")[1].split(" ")[0]) for e in (formula_error, error)]
        assert p2[0] == pytest.approx(p2[1], abs=1e-12)
        assert str(error.value).endswith(f" for {f.label}")


# The closed forms assume exact inversion.  sinusoidal(30, 60) passes the inversion check,
# 1 - P2(T) = 8.3e-5 against INVERSION_THRESHOLD = 1e-4, yet on 2001 points its formula q_S
# reads 0.05133 +- 2.2e-9 and its derivative q_S 0.03171 +- 4.6e-10 (q_N: 53.4047 and
# 53.3905).  Neither error estimate covers the leftover ground amplitude.
@pytest.mark.xfail(strict=True, reason="the formulas assume exact inversion")
def test_routes_agree_on_a_bare_sinusoidal_field_that_inverts(grid):
    f = make_sinusoidal(30.0, 60.0, grid)
    for key, formula, derivative in ROUTES:
        rep_f, rep_d = formula(f), derivative(f)
        q_f, q_d = getattr(rep_f, key), getattr(rep_d, key)
        tol = max(0.01 * abs(q_f), rep_f.error_estimate + rep_d.error_estimate)
        assert abs(q_f - q_d) <= tol, (key, q_f, q_d)


def test_qn_ordering_chain(grid, flat_field, optimal_noise_field):
    q_opt = qn_formula(optimal_noise_field).q_n
    q_flat = qn_formula(flat_field).q_n
    q_sin = qn_formula(make_shaped_pi(SIN_ENVELOPE, 0.0, grid)).q_n
    assert q_opt < q_flat < q_sin
    assert q_sin == pytest.approx(math.pi**4 / 32.0, abs=1e-6)


def test_optimal_below_transitionless_configurations(grid, optimal_noise_field):
    q_opt = qn_formula(optimal_noise_field).q_n
    for om0, d0 in [(0.5, 0.5), (2.0, 2.0), (EX_OMEGA0, EX_DELTA0)]:
        assert qn_formula(make_transitionless(om0, d0, grid)).q_n > q_opt


def _both_routes(build, n):
    """(q_N, q_S) from the field's angles and from its RK4 propagator, on n points."""
    field = build(TimeGrid(n))
    solved = dataclasses.replace(field, angles=None)
    return [(qn_formula(f).q_n, qs_formula(f).q_s) for f in (field, solved)]


@settings(max_examples=20, deadline=None)
@given(st.floats(0.25, 8.0),
       st.one_of(st.floats(-8.0, -0.25), st.floats(0.25, 8.0)))
@example(0.25, 8.0)
@example(8.0, 0.25)
@example(5.25, 0.25)  # q_S = 7.3e-4, its smallest on the default Fig. 5 window
@example(3.0, -2.0)  # theta runs from pi to 0
@example(6.4375, 0.515625)  # the RK4 q_N moves 7e-11 from 401 to 801 points, but 2.6e-10 to 1601
def test_angle_route_matches_propagator_route(omega0, delta0):
    # both routes are fourth order, so each differs from its limit by about its
    # own change from 401 to 1601 points; two of those bound the distance
    # between them.  401 to 801 points is not enough: near the stiff edges the
    # RK4 route is not yet in its asymptotic regime at 401 points.
    _assert_routes_agree(lambda g: make_transitionless(omega0, delta0, g))


def _assert_routes_agree(build):
    angle, solved = _both_routes(build, 401)
    angle_fine, solved_fine = _both_routes(build, 1601)
    for k in range(2):
        refinement = abs(angle[k] - angle_fine[k]) + abs(solved[k] - solved_fine[k])
        assert abs(angle[k] - solved[k]) <= 2.0 * refinement + 1e-12 * abs(solved[k])


def _curved_angles(closed):
    """A detuned angle triple with a time-dependent gauge, with or without closed derivatives."""
    theta = lambda t: np.pi * np.asarray(t, dtype=float) + 0.2 * np.sin(np.pi * np.asarray(t))
    alpha = lambda t: 0.3 + 0.2 * np.sin(np.pi * np.asarray(t, dtype=float))
    gamma = lambda t: 0.7 * (1.0 - np.cos(np.pi * np.asarray(t, dtype=float)))
    if not closed:
        return InvariantAngles(theta, alpha, gamma)
    return InvariantAngles(
        theta, alpha, gamma,
        lambda t: np.pi + 0.2 * np.pi * np.cos(np.pi * np.asarray(t, dtype=float)),
        lambda t: 0.2 * np.pi * np.cos(np.pi * np.asarray(t, dtype=float)),
        lambda t: 0.7 * np.pi * np.sin(np.pi * np.asarray(t, dtype=float)))


# every angle-carrying family but transitionless: name -> builder of its field on a grid
ANGLE_FAMILIES = {
    "flat_pi": lambda g: make_flat_pi(0.3, g),
    "shaped_pi_sin": lambda g: make_shaped_pi("sin", 0.4, g),
    "shaped_pi_flat": lambda g: make_shaped_pi("flat", 0.0, g),
    "shaped_pi_sin2": lambda g: make_shaped_pi(SIN2_ENVELOPE, 2.0, g),
    **{f"optimal_noise_{n}": (lambda g, n=n: make_optimal_noise(n, g)) for n in (1, 3, 5, 7)},
    **{f"optimal_systematic_{n}": (lambda g, n=n: make_optimal_systematic(n, g)) for n in (1, 2)},
    "invariant_engineered_closed": lambda g: make_invariant_engineered(_curved_angles(True), g),
    "invariant_engineered_sampled": lambda g: make_invariant_engineered(_curved_angles(False), g),
}


@pytest.mark.parametrize("name", ANGLE_FAMILIES)
def test_angle_route_matches_propagator_route_on_every_family(name):
    _assert_routes_agree(ANGLE_FAMILIES[name])


@pytest.mark.parametrize("n", [11, 401, 2001, 2002])
@pytest.mark.parametrize("name", [*ANGLE_FAMILIES, "transitionless"])
def test_every_family_reads_angles_from_0_to_pi_without_an_ode(monkeypatch, name, n):
    # the builder guarantees the inversion boundaries the angle route relies on,
    # and both formulas read the angles without a propagator solve
    def refuse(field, *args, **kwargs):
        raise AssertionError(f"propagator solve of {field.label}")

    monkeypatch.setattr(sensitivity, "evolve_propagator", refuse)
    build = ANGLE_FAMILIES.get(name, lambda g: make_transitionless(3.0, 2.0, g))
    field = build(TimeGrid(n))
    assert math.isfinite(qn_formula(field).q_n) and math.isfinite(qs_formula(field).q_s)
    s = field.angles
    assert s.sin_theta.shape == s.cos_theta.shape == (n,)
    assert s.sin_theta[0] == 0.0 and s.cos_theta[0] == 1.0
    assert abs(s.sin_theta[-1]) <= 1e-9 and s.cos_theta[-1] < 0


def _qn_density_general(s):
    """The general-alpha q_N density, written out: the oracle of the alpha-free form."""
    sin_a, cos_a = np.sin(s.alpha), np.cos(s.alpha)
    m = -s.sin_theta * s.gamma_dot
    cos2_t, sin2_t = s.cos_theta**2, s.sin_theta**2
    return 0.25 * ((cos2_t + cos_a**2 * sin2_t) * (m * sin_a - cos_a * s.theta_dot) ** 2
                   + (cos2_t + sin_a**2 * sin2_t) * (m * cos_a + sin_a * s.theta_dot) ** 2)


def _qn_surface_block(omega0, delta0, grid):
    """The angles of a block of transitionless fields as the q_N surface forms them: a
    singular field divides by zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        (_, _, d), s, _ = protocols._transitionless(omega0, delta0, grid,
                                                    protocols._half_turn(grid)[0])
        return dataclasses.replace(s, cos_theta=-d / s.gamma_dot)


def test_alpha_free_qn_density_keeps_the_bits_of_the_general_form():
    grid = TimeGrid(2001)
    field = make_transitionless(3.0, 2.0, grid).angles
    # one block of three cells, the middle one singular (delta0 = 0)
    block = _qn_surface_block(np.array([[1.0], [2.0], [3.0]]),
                              np.array([[2.0], [0.0], [-1.5]]), grid)
    for s in (field, block):
        assert not np.any(s.alpha)
        assert np.array_equal(sensitivity._qn_density(s), _qn_density_general(s), equal_nan=True)
    assert np.isfinite(sensitivity._qn_density(block)[[0, 2]]).all()
    # the surface reads the singular cell as NaN
    values = sweep_qn_transitionless(Axis("omega0", 1.0, 3.0, 3), Axis("delta0", -2.0, 2.0, 3),
                                     grid).values  # delta0 = -2, 0, 2
    assert np.isnan(values[:, 1]).all() and np.isfinite(values[:, [0, 2]]).all()


@pytest.mark.parametrize("build", [lambda g: make_flat_pi(0.3, g),
                                   lambda g: make_optimal_noise(7, g)],
                         ids=["flat_pi", "optimal_noise_7"])
def test_qn_density_with_alpha_keeps_the_general_form(build):
    s = build(TimeGrid(2001)).angles
    assert np.any(s.alpha)
    assert np.array_equal(sensitivity._qn_density(s), _qn_density_general(s))


@pytest.mark.parametrize("make", [lambda g: make_flat_pi(0.0, g),
                                  lambda g: make_transitionless(3.0, 2.0, g)],
                         ids=["flat_pi", "transitionless"])
@pytest.mark.parametrize("n", [2000, 2002])
def test_error_estimate_on_an_even_grid_covers_the_whole_duration(make, n):
    # the half grid of an even count used to stop one step short of T,
    # which read as an error of about 1e-3
    field = make(TimeGrid(n))
    assert qn_formula(field).error_estimate <= 1e-10
    assert qs_formula(field).error_estimate <= 1e-10


@pytest.mark.parametrize("n, neighbour, qn_bound", [(2003, 2001, 1e-12), (1003, 1001, 2e-11)])
def test_error_estimate_on_a_3_mod_4_grid_reads_like_its_neighbour(n, neighbour, qn_bound):
    # n = 3 (mod 4) used to compare with an even-count half grid, whose end
    # correction read about 5x the estimate of the neighbouring 1 (mod 4) grid
    field = make_transitionless(3.0, 2.0, TimeGrid(n))
    near = make_transitionless(3.0, 2.0, TimeGrid(neighbour))
    assert qs_formula(field).error_estimate <= 2.0 * qs_formula(near).error_estimate
    assert qn_formula(field).error_estimate <= qn_bound


@pytest.mark.parametrize("build", [lambda g: make_flat_pi(0.0, g),
                                   lambda g: make_optimal_systematic(1, g)])
def test_formulas_without_angles_keep_no_state(monkeypatch, build):
    solves = []

    def counting(field, *args, **kwargs):
        solves.append(id(field))
        return evolve_propagator(field, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "evolve_propagator", counting)
    with_angles = build(TimeGrid(401))
    field = dataclasses.replace(with_angles, angles=None)
    qn, qs = qn_formula(field), qs_formula(field)
    assert qn_formula(field) == qn and qs_formula(field) == qs
    assert solves == [id(field)] * 4  # one propagator solve per report, none kept
    assert abs(qn.q_n - qn_formula(with_angles).q_n) < 1e-6
    assert abs(qs.q_s - qs_formula(with_angles).q_s) < 1e-6
    # no report keeps its field alive
    ref = weakref.ref(field)
    del field
    assert ref() is None


# integrand -> its integral over [0, 1]
_ESTIMATE_CASES = {
    "curved_last_fifth": (lambda t: np.maximum(t - 0.8, 0.0) ** 4, 0.2**5 / 5.0),
    "curved_first_fifth": (lambda t: np.maximum(0.2 - t, 0.0) ** 4, 0.2**5 / 5.0),
    "sin2_exp": (lambda t: np.sin(np.pi * t) ** 2 * np.exp(t),
                 0.5 * (math.e - 1.0) * (1.0 - 1.0 / (1.0 + 4.0 * math.pi**2))),
    "exp3": (lambda t: np.exp(3.0 * t), (math.exp(3.0) - 1.0) / 3.0),
}


@pytest.mark.parametrize("n", [11, 12, 13, 14, 51, 52, 1001, 1003, 2000, 2001, 2002, 2003])
@pytest.mark.parametrize("name", _ESTIMATE_CASES)
def test_error_estimate_bounds_the_error_of_the_whole_integral(name, n):
    # the half-grid comparison used to cover a prefix of the grid only, [0, 0.8]
    # on 11 and 12 points, and read 0 for an integrand curved in its last fifth
    integrand, exact = _ESTIMATE_CASES[name]
    grid = TimeGrid(n)
    q, err = sensitivity._simpson_with_estimate(integrand(grid.times), grid.h)
    assert abs(q - exact) <= err
