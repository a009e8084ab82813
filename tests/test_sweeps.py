import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from invlab import (Axis, SweepResult, TimeGrid, make_flat_pi, make_optimal_noise,
                    make_optimal_systematic, make_transitionless, map_p2, qn_formula,
                    qs_formula, robustness_curve, sweep_qn_transitionless,
                    sweep_qs_transitionless)
from invlab import protocols, sweeps
from invlab.core import csv_text
from invlab.sweeps import _BLOCK_BYTES, FIGURES
from conftest import located_min

PI2_4 = math.pi**2 / 4.0


@pytest.fixture(scope="module")
def small_grid():
    return TimeGrid(801)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("x", 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Axis("x", 0.0, 1.0, 1)
    ax = Axis("x", 0.0, 1.0, 5)
    assert np.all(np.diff(ax.values) == 0.25)
    assert np.array_equal(ax.values, np.linspace(0.0, 1.0, 5))


def test_default_axes_match_documented_ranges():
    (omega0, delta0), (lam,), (beta,) = FIGURES[2][0], FIGURES[1][0], FIGURES[4][0]
    assert FIGURES[5][0] == (omega0, delta0)
    assert (omega0.name, omega0.min, omega0.max, omega0.n_points) == ("omega0", 0.25, 8.0, 32)
    assert delta0.name == "delta0" and np.all(np.diff(delta0.values) == 0.25)
    assert (lam.name, lam.min, lam.max) == ("lambda", 0.0, 1.2)
    assert (beta.name, beta.min, beta.max) == ("beta", -1.0, 1.0)
    assert lam.n_points == beta.n_points == 61
    # Fig. 7 maps the same ranges on 31 points per axis
    assert FIGURES[7][0] == (Axis("lambda", 0.0, 1.2, 31), Axis("beta", -1.0, 1.0, 31))


def test_sweep_qn_small_region(small_grid):
    ax = Axis("omega0", 0.25, 1.25, 5)
    ay = Axis("delta0", 0.25, 1.25, 5)
    res = sweep_qn_transitionless(ax, ay, small_grid)
    assert res.values.shape == (5, 5)
    assert np.all(np.isfinite(res.values))
    assert np.all(res.values >= 1.82424)
    # the (0.5, 0.5) cell carries the reported minimum value
    assert res.values[1, 1] == pytest.approx(2.475, rel=0.02)


def test_sweep_qn_failed_cells_become_nan(small_grid):
    # delta0 = 0 makes the counter-diabatic denominator singular
    res = sweep_qn_transitionless(Axis("omega0", 0.5, 1.0, 2), Axis("delta0", 0.0, 1.0, 3),
                                  small_grid)
    assert np.isnan(res.values[:, 0]).all()
    assert np.isfinite(res.values[:, 1:]).all()


@pytest.mark.parametrize("delta0", [5e-7, 1e-160])
@pytest.mark.parametrize("sweep", [sweep_qn_transitionless, sweep_qs_transitionless])
def test_a_cell_below_the_singular_gap_is_nan(small_grid, sweep, delta0):
    # min(WR^2 + D^2) = delta0^2 lies below SINGULAR_GAP2, yet no division is by zero: at
    # 5e-7 every value is finite, at 1e-160 the gap is subnormal and the squares overflow;
    # the builder refuses the field, and the surface masks its cell
    values = sweep(Axis("omega0", 1.0, 2.0, 2), Axis("delta0", delta0, 1.0, 2), small_grid).values
    assert np.isnan(values[:, 0]).all() and np.isfinite(values[:, 1]).all()
    with pytest.raises(RuntimeError, match="singular"):
        make_transitionless(1.0, delta0, small_grid)


@pytest.mark.parametrize("n_omega0, delta0", [
    (3, Axis("delta0", -3.0, 6.0, 4)),  # one block
    (3, Axis("delta0", -3.0, 3.0, 7)),  # 21 cells: a block of 15, then 6
    (5, Axis("delta0", -2.0, 2.0, 5)),  # 25 cells: a block of 15, then 10
    (3, Axis("delta0", 0.5, 3.5, 7)),  # 21 cells, none singular: blocks of regular cells only
])
@pytest.mark.parametrize("sweep, formula, key", [
    (sweep_qn_transitionless, qn_formula, "q_n"), (sweep_qs_transitionless, qs_formula, "q_s")])
def test_sweep_cells_equal_the_single_field_formulas(sweep, formula, key, n_omega0, delta0):
    # a block of cells is one array pass, with the same arithmetic as one field; a
    # singular delta0 = 0 cell falls inside a block of regular ones
    grid = TimeGrid(401)
    omega0 = Axis("omega0", 0.5, 7.5, n_omega0)
    size = _BLOCK_BYTES // (8 * grid.n_steps)
    cells = n_omega0 * delta0.n_points
    assert cells <= size or cells % size != 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sweep(omega0, delta0, grid)
    singular = delta0.values == 0.0
    assert singular.sum() <= 1
    assert np.isnan(res.values[:, singular]).all()
    for i, w in enumerate(omega0.values):
        for j, d in enumerate(delta0.values):
            if not singular[j]:
                assert res.values[i, j] == getattr(formula(make_transitionless(w, d, grid)), key)


def _default_sweep_peak(sweep) -> int:
    tracemalloc.start()
    try:
        sweep(*FIGURES[2][0], TimeGrid(2001))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fig2_sweep_memory_is_pinned():
    """The default Fig. 2 sweep holds one block of cells at a time (0.69 MiB measured)."""
    peak = _default_sweep_peak(sweep_qn_transitionless)
    assert peak <= 1.0 * 2**20, peak / 2**20


def test_fig5_sweep_memory_is_pinned():
    """The default Fig. 5 sweep holds one block of cells at a time (0.69 MiB measured)."""
    peak = _default_sweep_peak(sweep_qs_transitionless)
    assert peak <= 1.0 * 2**20, peak / 2**20


class _GammaFormed(Exception):
    pass


def test_fig2_surface_forms_no_gamma(monkeypatch):
    # q_N reads no gamma, so its surface skips the quadrature; q_S and the field form it
    def refuse(*args):
        raise _GammaFormed

    monkeypatch.setattr(protocols, "_transitionless_gamma", refuse)
    monkeypatch.setattr(sweeps, "_transitionless_gamma", refuse)
    axes, grid = (Axis("omega0", 1.0, 2.0, 2), Axis("delta0", 0.0, 2.0, 4)), TimeGrid(2001)
    values = sweep_qn_transitionless(*axes, grid).values
    assert np.isnan(values[:, 0]).all() and np.isfinite(values[:, 1:]).all()
    with pytest.raises(_GammaFormed):
        sweep_qs_transitionless(*axes, grid)
    with pytest.raises(_GammaFormed):
        make_transitionless(3.0, 2.0, grid)


def test_sweep_refinement_stability(small_grid):
    coarse = sweep_qn_transitionless(Axis("omega0", 0.25, 1.25, 5),
                                     Axis("delta0", 0.25, 1.25, 5), small_grid)
    fine = sweep_qn_transitionless(Axis("omega0", 0.25, 1.25, 9),
                                   Axis("delta0", 0.25, 1.25, 9), small_grid)
    c_xy, _ = located_min(coarse)
    f_xy, _ = located_min(fine)
    cell = coarse.axes[0].values[1] - coarse.axes[0].values[0]
    assert abs(c_xy[0] - f_xy[0]) < cell
    assert abs(c_xy[1] - f_xy[1]) < cell


def test_sweep_qs_below_pi_pulse_plane(small_grid):
    res = sweep_qs_transitionless(Axis("omega0", 0.25, 8.0, 6), Axis("delta0", 0.25, 8.0, 6),
                                  small_grid)
    assert np.all(np.isfinite(res.values))
    assert np.all(res.values < PI2_4)
    assert np.all(res.values >= 0.0)


def test_sweep_qs_pi_pulse_limit(small_grid):
    # large Rabi amplitude, small detuning: approaches a pi-like pulse from below
    vals = [sweep_qs_transitionless(Axis("omega0", 7.9, 8.0, 2), Axis("delta0", d, d + 0.01, 2),
                                    small_grid).values[1, 0] for d in (1.0, 0.5, 0.25)]
    assert all(v < PI2_4 for v in vals)
    assert vals[0] < vals[1] < vals[2]  # rising toward the plane as delta0 shrinks


def test_robustness_curve_beta_flat(small_grid):
    f = make_flat_pi(0.0, small_grid)
    res = robustness_curve(f, "beta", Axis("beta", -1.0, 1.0, 5))
    # closed form 1/2 - 1/2 cos((1+beta) pi) at beta = -1, -0.5, 0, 0.5, 1
    expected = [0.0, 0.5, 1.0, 0.5, 0.0]
    assert res.values == pytest.approx(expected, abs=1e-8)
    assert res.quantity == "p2"


def test_robustness_curve_lambda_ordering(small_grid):
    # smaller q_N means a flatter curve near lambda = 0
    flat = robustness_curve(make_flat_pi(0.0, small_grid), "lambda", Axis("lambda", 0.0, 0.4, 3))
    opt = robustness_curve(make_optimal_noise(7, small_grid), "lambda", Axis("lambda", 0.0, 0.4, 3))
    assert np.all(opt.values[1:] > flat.values[1:])
    assert opt.values[0] == pytest.approx(1.0, abs=1e-9)


def test_robustness_curve_optimal_systematic_flat_response(small_grid):
    f = make_optimal_systematic(1, small_grid)
    res = robustness_curve(f, "beta", Axis("beta", 0.0, 0.05, 2))
    assert res.values[1] >= 1.0 - 1e-3


def test_robustness_curve_rejects_unknown_variable(small_grid):
    with pytest.raises(ValueError):
        robustness_curve(make_flat_pi(0.0, small_grid), "gamma", Axis("x", 0.0, 1.0, 3))


def test_map_p2_consistency_and_dominance(small_grid):
    lam_axis = Axis("lambda", 0.0, 0.6, 3)
    beta_axis = Axis("beta", -0.4, 0.4, 5)
    noise_opt = make_optimal_noise(7, small_grid)
    sys_opt = make_optimal_systematic(1, small_grid)
    m_no = map_p2(noise_opt, lam_axis, beta_axis)
    m_so = map_p2(sys_opt, lam_axis, beta_axis)
    for m in (m_no, m_so):
        assert m.values[0, 2] == pytest.approx(1.0, abs=1e-9)
        assert np.all((m.values >= 0.0) & (m.values <= 1.0))
    # beta-axis slice reproduces the 1-D curve
    curve = robustness_curve(noise_opt, "beta", beta_axis)
    assert np.max(np.abs(m_no.values[0, :] - curve.values)) < 1e-9
    # noise-dominated corner favors the noise-optimal protocol; beta-dominated reverses
    assert m_no.values[2, 2] > m_so.values[2, 2]
    assert m_so.values[0, 4] > m_no.values[0, 4]


def test_sweep_result_csv_and_sidecar(tmp_path, small_grid):
    axes = (Axis("a", 0.0, 1.0, 2), Axis("b", 0.0, 1.0, 2))
    res = SweepResult(axes, np.array([[1.0, math.nan], [0.25, 2.0]]), "q_n", "probe")
    lines = csv_text(*res.csv_columns()).splitlines()
    assert lines[0] == "a,b,q_n"
    assert lines[2] == "0,1,"  # NaN cell is empty
    assert len(lines) == 5
    res.to_json_sidecar(tmp_path / "map.json")
    side = json.loads((tmp_path / "map.json").read_text())
    assert side["quantity"] == "q_n"
    assert side["protocol_label"] == "probe"
    assert side["grid_spec"]["axis2"]["n_points"] == 2
    coords, val = located_min(res)
    assert coords == (1.0, 0.0)
    assert val == 0.25
    # one axis: two columns, and the sidecar has no axis2
    res = SweepResult(axes[:1], np.array([math.inf, -0.5]), "p2", "probe")
    assert csv_text(*res.csv_columns()) == "a,p2\n0,\n1,-0.5\n"
    res.to_json_sidecar(tmp_path / "map.json")
    side = json.loads((tmp_path / "map.json").read_text())
    assert side["grid_spec"] == {"axis1": {"name": "a", "min": 0.0, "max": 1.0, "n_points": 2}}
    assert located_min(res) == ((1.0,), -0.5)


def test_sweep_result_1d_csv(small_grid):
    res = robustness_curve(make_flat_pi(0.0, small_grid), "beta", Axis("beta", 0.0, 1.0, 3))
    lines = csv_text(*res.csv_columns()).splitlines()
    assert lines[0] == "beta,p2"
    assert len(lines) == 4
