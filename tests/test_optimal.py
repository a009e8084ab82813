import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipeinc

from invlab import (InvariantAngles, TimeGrid, constant, first_integral_constant,
                    make_invariant_engineered, make_optimal_noise, optimal,
                    optimal_noise_angles, qn_formula, solve_optimal_theta)
from shooting_reference import ode_residual, solve_optimal_theta_shooting
from stationarity_reference import stationarity_m, verify_stationarity


@pytest.fixture(scope="module")
def solution(grid):
    """theta and theta_dot of the noise-optimal protocol at the grid's nodes."""
    angles = optimal_noise_angles(7)
    return angles.theta(grid.times), angles.theta_dot(grid.times)


def test_first_integral_constant_value():
    # oracle: independent quadrature of the gap integrand
    ref, _ = quad(lambda s: math.sqrt(3.0 + math.cos(2.0 * s)), 0.0, math.pi)
    assert first_integral_constant() == pytest.approx(ref, abs=1e-12)


def test_solution_boundaries_and_monotonicity(solution):
    theta, _ = solution
    assert theta[0] == 0.0
    assert theta[-1] == pytest.approx(math.pi, abs=1e-12)
    assert np.all(np.diff(theta) > 0.0)


def test_solution_symmetry(grid, solution):
    # integrand symmetric under s -> pi - s
    theta, _ = solution
    mid = (grid.n_steps - 1) // 2
    assert theta[mid] == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert np.max(np.abs(theta + theta[::-1] - math.pi)) < 1e-8


def test_solution_residual(grid, solution):
    assert ode_residual(solution[0], grid.h) < 1e-6


def test_solution_first_integral_relation(solution):
    theta, theta_dot = solution
    gap = np.sqrt(3.0 + np.cos(2.0 * theta))
    assert np.max(np.abs(theta_dot * gap - first_integral_constant())) < 1e-9


def test_solution_qn_value(grid):
    theta, theta_dot = solve_optimal_theta()
    ang = InvariantAngles(theta, constant(math.pi / 4.0), constant(0.0),
                          theta_dot, constant(0.0), constant(0.0))
    q = qn_formula(make_invariant_engineered(ang, grid)).q_n
    assert q == pytest.approx(1.82424, abs=1e-3)
    # closed form of the stationary action: c^2 T / 16
    assert q == pytest.approx(first_integral_constant()**2 / 16.0, abs=1e-9)


def test_first_integral_series_matches_the_elliptic_integral():
    # F(theta) = 2 E(theta | 1/2) on [-pi, 2pi], beyond [0, pi] because stationarity_m
    # differences theta at t = -2e-4 and 1 + 2e-4
    th = np.linspace(-math.pi, 2.0 * math.pi, 200_001)
    f, slope = optimal._first_integral(th)
    assert np.max(np.abs(f - 2.0 * ellipeinc(th, 0.5))) < 4e-15
    assert np.array_equal(slope, np.sqrt(3.0 + np.cos(2.0 * th)))


def test_first_integral_series_coefficients():
    # oracle: the cosine sum at 256 points, whose aliasing error is below 1e-80
    x = np.arange(256) * (math.pi / 128.0)
    ref = np.cos(np.multiply.outer(np.arange(18), x)) @ np.sqrt(3.0 + np.cos(x)) / 128.0
    ref[0] *= 0.5
    assert np.max(np.abs(optimal._A - ref[:17])) < 4e-15
    assert abs(ref[17]) / 34.0 < 1e-16  # the first dropped term of F's sine series


def test_theta_fn_inverts_the_elliptic_integral():
    # t(theta) = E(theta | 1/2) / E(pi | 1/2) at any time, and exactly at both ends
    theta, _ = solve_optimal_theta()
    t = np.random.default_rng(3).uniform(0.0, 1.0, 100_000)
    err = ellipeinc(theta(t), 0.5) / ellipeinc(math.pi, 0.5) - t
    assert np.max(np.abs(err)) < 1e-15
    assert float(theta(0.0)) == 0.0
    assert float(theta(1.0)) == math.pi
    assert theta(np.array([0.0, 1.0])).tolist() == [0.0, math.pi]


def test_shooting_oracle_agrees(grid, solution):
    shot = solve_optimal_theta_shooting(grid)
    assert ode_residual(shot.theta, grid.h) < 1e-6
    assert np.max(np.abs(shot.theta - solution[0])) < 1e-6
    assert shot.c == pytest.approx(first_integral_constant(), abs=1e-9)


@pytest.mark.parametrize("n_steps", [101, 201])
def test_optimal_noise_builds_on_coarse_grids(n_steps):
    # the finite-difference ODE residual reads 5.6e-5 and 3.6e-6 here from its own
    # truncation; the inversion itself is checked at every evaluated time
    field = make_optimal_noise(3, TimeGrid(n_steps))
    assert field.grid.n_steps == n_steps
    theta, _ = solve_optimal_theta()
    assert theta(TimeGrid(n_steps).times)[-1] == math.pi


def test_unconverged_inversion_is_refused(monkeypatch):
    monkeypatch.setattr(optimal, "_NEWTON_STEPS", 1)
    theta, _ = solve_optimal_theta()
    with pytest.raises(RuntimeError, match="elliptic-integral residual"):
        theta(TimeGrid(201).times)


def test_stationarity_m_zero_at_quarter_multiples():
    for a in (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
        ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float), constant(a),
                              constant(0.0), constant(np.pi), constant(0.0), constant(0.0))
        m = stationarity_m(ang)
        assert np.max(np.abs(m(np.linspace(0.0, 1.0, 101)))) == 0.0


def test_stationarity_m_closed_form_value():
    # alpha = pi/8, theta = pi/2, theta_dot = pi: m = pi / (2 sin^2(pi/4)) = pi
    ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float),
                          constant(math.pi / 8.0), constant(0.0),
                          constant(np.pi), constant(0.0), constant(0.0))
    m = stationarity_m(ang)
    assert float(m(0.5)) == pytest.approx(math.pi, abs=1e-12)


def test_stationarity_m_derivative_fallback():
    ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float),
                          constant(math.pi / 8.0), constant(0.0))
    m = stationarity_m(ang)
    assert float(m(0.5)) == pytest.approx(math.pi, abs=1e-6)


def test_stationarity_m_derivative_fallback_on_curved_thetas():
    # a curved theta on [0, 1], and the optimum, whose fallback reads theta at
    # t = -2e-4 and 1 + 2e-4, outside [0, 1]
    def theta(t):
        t = np.asarray(t, dtype=float)
        return np.pi * t + 0.1 * np.sin(np.pi * t)

    def theta_dot(t):
        return np.pi + 0.1 * np.pi * np.cos(np.pi * np.asarray(t, dtype=float))

    for th, thd in ((theta, theta_dot), solve_optimal_theta()):
        sampled = InvariantAngles(th, constant(math.pi / 8.0), constant(0.0))
        closed = InvariantAngles(th, constant(math.pi / 8.0), constant(0.0),
                                 thd, constant(0.0), constant(0.0))
        t = np.linspace(0.0, 1.0, 41)
        err = stationarity_m(sampled)(t) - stationarity_m(closed)(t)
        assert np.max(np.abs(err)) < 1e-9


def test_verify_stationarity_optimal_candidate(grid):
    ang = optimal_noise_angles(7)
    report = verify_stationarity(ang, 0.05, n_perturbations=20, seed=1, grid=grid)
    assert report.margin >= -1e-6
    assert report.candidate_qn == pytest.approx(1.82424, abs=1e-3)
    assert report.min_perturbed_qn >= 1.82424 - 1e-3


def test_verify_stationarity_flat_candidate(grid):
    # even case: alpha = 0, theta linear; the flat pulse is optimal in its class
    ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float), constant(0.0),
                          constant(0.0), constant(np.pi), constant(0.0), constant(0.0))
    report = verify_stationarity(ang, 0.05, n_perturbations=20, seed=2, grid=grid)
    assert report.candidate_qn == pytest.approx(math.pi**2 / 4.0, abs=1e-9)
    assert report.margin >= -1e-6


def test_linear_theta_with_diagonal_alpha_is_suboptimal(grid):
    ang = InvariantAngles(lambda t: np.pi * np.asarray(t, dtype=float),
                          constant(math.pi / 4.0), constant(0.0),
                          constant(np.pi), constant(0.0), constant(0.0))
    q = qn_formula(make_invariant_engineered(ang, grid)).q_n
    assert q > 1.82424
    # own quadrature oracle: (1/16) int theta_dot^2 (3 + cos 2 theta) dt = 3 pi^2/16
    assert q == pytest.approx(3.0 * math.pi**2 / 16.0, abs=1e-9)


def test_optimal_noise_angles_validation():
    for n in (2, 7.5, True):
        with pytest.raises(ValueError):
            optimal_noise_angles(n)
