import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipeinc

from invlab import (InvariantAngles, TimeGrid, constant, first_integral_constant,
                    optimal_noise_angles, qn_lagrangian, solve_optimal_theta,
                    solve_optimal_theta_shooting, stationarity_m,
                    verify_stationarity)


@pytest.fixture(scope="module")
def solution(grid):
    return solve_optimal_theta(grid)


def test_first_integral_constant_value():
    # oracle: independent quadrature of the gap integrand
    ref, _ = quad(lambda s: math.sqrt(3.0 + math.cos(2.0 * s)), 0.0, math.pi)
    assert first_integral_constant() == pytest.approx(ref, abs=1e-12)


def test_solution_boundaries_and_monotonicity(solution):
    assert solution.theta[0] == 0.0
    assert solution.theta[-1] == pytest.approx(math.pi, abs=1e-12)
    assert np.all(np.diff(solution.theta) > 0.0)
    assert solution.method == "first_integral"


def test_solution_symmetry(grid, solution):
    # integrand symmetric under s -> pi - s
    mid = (grid.n_steps - 1) // 2
    assert solution.theta[mid] == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert np.max(np.abs(solution.theta + solution.theta[::-1] - math.pi)) < 1e-8


def test_solution_residual(solution):
    assert solution.ode_residual() < 1e-6


def test_solution_first_integral_relation(solution):
    gap = np.sqrt(3.0 + np.cos(2.0 * solution.theta))
    assert np.max(np.abs(solution.theta_dot * gap - solution.c)) < 1e-9


def test_solution_qn_value(grid, solution):
    ang = InvariantAngles(solution.theta_fn, constant(math.pi / 4.0), constant(0.0),
                          solution.theta_dot_fn, constant(0.0), constant(0.0))
    assert qn_lagrangian(ang, grid) == pytest.approx(1.82424, abs=1e-3)
    # closed form of the stationary action: c^2 T / 16
    assert qn_lagrangian(ang, grid) == pytest.approx(solution.c**2 / 16.0, abs=1e-9)


def test_theta_fn_inverts_the_elliptic_integral(solution):
    # t(theta) = T E(theta | 1/2) / E(pi | 1/2), at times off the grid too
    t = np.random.default_rng(3).uniform(0.0, 1.0, 500)
    theta = solution.theta_fn(t)
    assert np.max(np.abs(ellipeinc(theta, 0.5) / ellipeinc(math.pi, 0.5) - t)) < 1e-13


def test_shooting_oracle_agrees(grid, solution):
    shot = solve_optimal_theta_shooting(grid)
    assert shot.method == "shooting"
    assert np.max(np.abs(shot.theta - solution.theta)) < 1e-6
    assert shot.c == pytest.approx(solution.c, abs=1e-9)


def test_theta_solution_csv(tmp_path, solution):
    path = tmp_path / "theta.csv"
    solution.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,theta,theta_dot"
    assert len(lines) == solution.grid.n_steps + 1


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


def test_verify_stationarity_optimal_candidate(grid):
    ang = optimal_noise_angles(grid, 7)
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
    q = qn_lagrangian(ang, grid)
    assert q > 1.82424
    # own quadrature oracle: (1/16) int theta_dot^2 (3 + cos 2 theta) dt = 3 pi^2/16
    assert q == pytest.approx(3.0 * math.pi**2 / 16.0, abs=1e-9)


def test_optimal_noise_angles_validation(grid):
    with pytest.raises(ValueError):
        optimal_noise_angles(grid, 2)
