import io
import math
import types

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicSpline

import invlab
from invlab import (GROUND_BLOCH, ControlField, InvariantAngles, TimeGrid, Trajectory,
                    constant, sampled_derivative)
from invlab.core import csv_text, json_text, simpson, write_text
from bloch_reference import bloch_from_pure

# every public name of the package; an addition or removal is made here on purpose
PUBLIC_NAMES = [
    "AngleSamples", "Axis", "ControlField", "EnsembleResult", "ErrorSetting",
    "GROUND_BLOCH", "InvariantAngles", "ProtocolSpec", "SensitivityReport", "SweepResult",
    "TimeGrid", "Trajectory", "constant",
    "evolve_bloch", "evolve_propagator", "evolve_pure", "final_p2_bloch",
    "final_p2_pure", "first_integral_constant", "make_flat_pi", "make_invariant_engineered",
    "make_optimal_noise", "make_optimal_systematic", "make_shaped_pi", "make_sinusoidal",
    "make_transitionless", "map_p2", "monte_carlo_p2", "optimal_noise_angles",
    "optimal_systematic_angles", "qn_derivative", "qn_finite_difference", "qn_formula",
    "qs_derivative", "qs_finite_difference", "qs_formula", "robustness_curve", "sampled_derivative", "solve_optimal_theta",
    "sweep_qn_transitionless", "sweep_qs_transitionless",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(invlab).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_ground_bloch_is_a_read_only_array():
    assert GROUND_BLOCH.dtype == np.dtype(float)
    assert GROUND_BLOCH.tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        GROUND_BLOCH[2] = -1.0
    assert GROUND_BLOCH.tolist() == [0.0, 0.0, 1.0]


def test_time_grid_points():
    # the unit interval in units of the duration
    g = TimeGrid(5)
    assert g.times[0] == 0.0
    assert g.times[-1] == 1.0
    assert np.all(np.diff(g.times) > 0)
    assert g.h == 0.25


@pytest.mark.parametrize("n_steps", [1, 0])
def test_time_grid_rejects_bad_args(n_steps):
    with pytest.raises(ValueError):
        TimeGrid(n_steps)


@pytest.mark.parametrize("n", [*range(1, 10), 2000, 2001])
def test_simpson_matches_scipy(n):
    """The in-house rule against scipy's on uniform grids: real, complex and 2-D samples.

    Agreement is judged relative to dx * sum|y|, the size of the integral
    without cancellation, so zero-mean random samples are held to it too.
    """
    rng = np.random.default_rng(n)
    for dx in (1.0 / 2000, 0.37, 1.9):
        positive = rng.uniform(0.0, 1.0, size=(4, n))
        signed = rng.normal(size=(4, n))
        for y in (positive, signed, signed + 1j * rng.normal(size=(4, n))):
            scale = dx * np.sum(np.abs(y), axis=-1)
            ours, ref = simpson(y, dx), scipy_simpson(y, dx=dx)
            assert ours.shape == ref.shape == (4,) and ours.dtype == ref.dtype
            assert np.all(np.abs(ours - ref) <= 1e-13 * scale)
            row, row_ref = simpson(y[1], dx), scipy_simpson(y[1], dx=dx)
            assert np.ndim(row) == 0 and abs(row - row_ref) <= 1e-13 * scale[1]


def test_simpson_small_counts_and_exactness():
    assert simpson(np.array([2.5]), 0.1) == 0.0
    assert simpson(np.array([1.0, 3.0]), 0.5) == 1.0  # trapezoid
    x = np.linspace(0.0, 2.0, 9)
    assert simpson(x**3, x[1]) == pytest.approx(4.0, rel=1e-15)  # odd count: exact for cubics
    x = np.linspace(0.0, 2.0, 8)
    assert simpson(x**2, x[1]) == pytest.approx(8.0 / 3.0, rel=1e-15)  # even count: exact for quadratics
    x = np.linspace(0.0, 2.0, 201)
    assert simpson(np.exp(1j * x), x[1]) == pytest.approx((np.exp(2j) - 1.0) / 1j, rel=1e-9)


@pytest.mark.parametrize("r,expected", [
    ((0.0, 0.0, 1.0), 0.0),
    ((0.0, 0.0, -1.0), 1.0),
    ((0.0, 0.0, 0.0), 0.5),
])
def test_excitation_probability(r, expected):
    assert Trajectory(TimeGrid(2), np.array([r, r])).final_p2() == expected


@pytest.mark.parametrize("c1,c2,expected", [
    (1.0, 0.0, (0.0, 0.0, 1.0)),
    (0.0, 1.0, (0.0, 0.0, -1.0)),
    (1.0 / math.sqrt(2), 1.0 / math.sqrt(2), (1.0, 0.0, 0.0)),
])
def test_bloch_from_pure_basics(c1, c2, expected):
    r = bloch_from_pure((c1, c2))
    assert tuple(r) == pytest.approx(expected, abs=1e-15)


def test_bloch_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        bloch_from_pure((1.0, 0.1))


def test_bloch_from_pure_random_states():
    """Norm preservation and P2 = |c2|^2 for random normalized states."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        raw = rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        c1, c2 = complex(raw[0], raw[1]), complex(raw[2], raw[3])
        r = bloch_from_pure((c1, c2))
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12
        assert 0.5 * (1.0 - r[2]) == pytest.approx(abs(c2) ** 2, abs=1e-12)


def test_sign_convention_matches_density_matrix():
    # r2 = i(rho_12 - rho_21) for a state with a complex relative phase
    c1, c2 = math.sqrt(0.7), complex(0.3, math.sqrt(0.3 - 0.09))
    rho12 = c1 * np.conj(c2)
    r = bloch_from_pure((c1, c2))
    assert r[1] == pytest.approx(float((1j * (rho12 - np.conj(rho12))).real), abs=1e-15)


def test_control_field_requires_finite_channels():
    g = TimeGrid(11)
    bad = np.ones(11)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ControlField(g, bad, np.zeros(11), np.zeros(11))


def test_control_field_rejects_shape_mismatch():
    g = TimeGrid(11)
    with pytest.raises(ValueError):
        ControlField(g, np.ones(10), np.zeros(11), np.zeros(11))


def test_control_field_values_use_closed_forms():
    g = TimeGrid(51)
    f = ControlField.from_functions(
        g, lambda t: (np.sin(np.pi * t), constant(0.25)(t), constant(0.0)(t)))
    t = np.array([0.123, 0.567])
    wr, wi, d = f.values(t)
    assert wr == pytest.approx(np.sin(np.pi * t))
    assert wi == pytest.approx([0.25, 0.25])
    assert d == pytest.approx([0.0, 0.0])


def test_control_field_calls_its_channels_once_per_table():
    calls = []

    def channels(t):
        calls.append(np.shape(t))
        return np.sin(np.pi * t), 0.25 + 0 * t, -np.cos(np.pi * t)

    g = TimeGrid(51)
    f = ControlField.from_functions(g, channels, label="counted")
    nodes, mids = f.stage_tables
    assert calls == [(51,), (50,)]  # the nodes at construction, then the midpoints
    assert nodes[0] is f.omega_r and nodes[1] is f.omega_i and nodes[2] is f.delta
    t_mid = 0.5 * (g.times[:-1] + g.times[1:])
    assert np.array_equal(mids[0], np.sin(np.pi * t_mid))
    assert f.stage_tables is f.stage_tables and len(calls) == 2


def test_sampled_field_splines_all_channels_alike():
    g = TimeGrid(41)
    rng = np.random.default_rng(3)
    wr, wi, d = rng.normal(size=(3, 41))
    f = ControlField(g, wr, wi, d)
    t = np.linspace(0.0, 1.0, 173)
    for got, samples in zip(f.values(t), (wr, wi, d)):
        assert np.array_equal(got, CubicSpline(g.times, samples)(t))
    assert all(np.shape(v) == () for v in f.values(0.3))


def test_control_field_spline_interpolation_accuracy():
    g = TimeGrid(201)
    f = ControlField(g, np.sin(np.pi * g.times), np.zeros(201), np.zeros(201))
    t = np.linspace(0.0, 1.0, 997)
    wr, _, _ = f.values(t)
    assert np.max(np.abs(wr - np.sin(np.pi * t))) < 1e-8


def test_csv_text_matches_savetxt():
    columns = [np.array([0.0, -0.0, 5e-324, 1e300, 0.1]),
               np.array([-1.0, -5e-324, -1e300, 1.0 / 3.0, -2.5e-7]),
               np.arange(5)]
    oracle = io.StringIO()
    np.savetxt(oracle, np.column_stack(columns), delimiter=",", header="a,b,c", comments="",
               fmt="%.17g")
    assert csv_text("a,b,c", columns) == oracle.getvalue()


def test_csv_text_writes_non_finite_values_as_empty_cells():
    text = csv_text("a,b", [[math.nan, 1.0, math.inf], [-math.inf, -0.0, 0.5]])
    assert text == "a,b\n,\n1,-0\n,0.5\n"


def test_json_text_layout():
    assert json_text({"b": 1, "a": [0.5]}) == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'


def test_control_field_csv_round_trip(tmp_path):
    g = TimeGrid(101)
    f = ControlField.from_functions(
        g, lambda t: (np.sin(np.pi * t), constant(0.3)(t), -np.cos(np.pi * t)), label="probe")
    path = tmp_path / "field.csv"
    write_text(path, csv_text(*f.csv_columns()))
    assert path.read_text().splitlines()[0] == "t,omega_r,omega_i,delta"
    back = ControlField.read_csv(path)
    assert np.array_equal(back.omega_r, f.omega_r)
    assert np.array_equal(back.omega_i, f.omega_i)
    assert np.array_equal(back.delta, f.delta)
    assert back.grid == f.grid


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n0,1,2,3\n")
    with pytest.raises(ValueError):
        ControlField.read_csv(path)


def test_sampled_derivative_second_order():
    g1, g2 = TimeGrid(101), TimeGrid(201)
    errs = []
    for g in (g1, g2):
        d = sampled_derivative(np.sin(2.0 * g.times), g.h)
        errs.append(np.max(np.abs(d - 2.0 * np.cos(2.0 * g.times))))
    assert errs[0] / errs[1] > 3.5  # halving h cuts the error ~4x


def test_invariant_angles_boundary_check():
    good = InvariantAngles(lambda t: np.pi * np.asarray(t), constant(0.0), constant(0.0))
    good.check_boundaries()
    bad = InvariantAngles(lambda t: 0.9 * np.pi * np.asarray(t), constant(0.0), constant(0.0))
    with pytest.raises(ValueError):
        bad.check_boundaries()


def test_invariant_angles_derivative_fallback():
    g = TimeGrid(2001)
    ang = InvariantAngles(lambda t: np.pi * np.asarray(t), constant(0.2),
                          lambda t: np.sin(2.0 * np.pi * np.asarray(t)))
    s = ang.sample(g)
    assert np.max(np.abs(s.theta_dot - np.pi)) < 1e-7
    exact = 2.0 * np.pi * np.cos(2.0 * np.pi * g.times)
    assert np.max(np.abs(s.gamma_dot - exact)) < 1e-4
