import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from invlab import (GROUND_BLOCH, GROUND_PURE, ControlField, EnsembleResult, ErrorSetting,
                    PureState, TimeGrid, bloch_from_pure, constant, dynamics,
                    evolve_bloch, evolve_pure, evolve_sse, make_flat_pi,
                    make_transitionless, monte_carlo_p2)
from invlab.dynamics import _sse_run, trajectory_rng

FLAT_P2_NOISE = lambda lam2: 0.5 + 0.5 * math.exp(-lam2 * math.pi**2 / 2.0)


def zero_field(grid):
    z = constant(0.0)
    return ControlField.from_functions(grid, z, z, z, label="zero")


def test_zero_field_is_identity(grid):
    psi0 = PureState(complex(0.6, 0.0), complex(0.0, 0.8))
    traj = evolve_pure(zero_field(grid), psi0)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_flat_pi_inverts_pure(grid, flat_field):
    traj = evolve_pure(flat_field, GROUND_PURE)
    assert abs(traj.states[-1, 1]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_evolve_pure_rejects_unnormalized(grid, flat_field):
    with pytest.raises(ValueError):
        evolve_pure(flat_field, PureState(1.0, 0.5))


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.3, 1.0])
def test_flat_pi_systematic_closed_form(grid, flat_field, beta):
    # any pi pulse: P2(beta) = 1/2 - 1/2 cos((1+beta) pi)
    p2 = evolve_pure(flat_field, GROUND_PURE, beta=beta).final_p2()
    assert p2 == pytest.approx(0.5 - 0.5 * math.cos((1.0 + beta) * math.pi), abs=1e-8)


def test_norm_conservation_under_systematic_error(grid, transitionless_example):
    traj = evolve_pure(transitionless_example, GROUND_PURE, beta=0.35)
    assert np.max(np.abs(traj.norms() - 1.0)) < 1e-9


def test_flat_pi_inverts_bloch(grid, flat_field):
    final = evolve_bloch(flat_field, GROUND_BLOCH).final()
    assert (final.r1, final.r2, final.r3) == pytest.approx((0.0, 0.0, -1.0), abs=1e-9)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
def test_flat_pi_noise_closed_form_trajectory(grid, flat_field, lam):
    """Independent oracle: the analytic damped-rotation solution, with the
    exponent and phase computed by direct quadrature of the channels."""
    traj = evolve_bloch(flat_field, GROUND_BLOCH, ErrorSetting(lambda2=lam * lam))
    ts = grid.times
    phase = cumulative_trapezoid(flat_field.omega_r, ts, initial=0.0)
    damp = np.exp(-lam * lam * cumulative_trapezoid(flat_field.omega_r**2, ts, initial=0.0) / 2.0)
    assert np.max(np.abs(traj.states[:, 0])) < 1e-9
    assert np.max(np.abs(traj.states[:, 1] + damp * np.sin(phase))) < 1e-8
    assert np.max(np.abs(traj.states[:, 2] - damp * np.cos(phase))) < 1e-8


def test_flat_pi_noise_final_p2_value(grid, flat_field):
    p2 = evolve_bloch(flat_field, GROUND_BLOCH, ErrorSetting(lambda2=0.25)).final_p2()
    assert p2 == pytest.approx(FLAT_P2_NOISE(0.25), abs=1e-9)
    assert p2 == pytest.approx(0.64561, abs=5e-6)


def test_bloch_norm_monotone_under_noise(grid, transitionless_example):
    traj = evolve_bloch(transitionless_example, GROUND_BLOCH, ErrorSetting(lambda2=0.3))
    norms = traj.norms()
    assert np.all(np.diff(norms) <= 1e-9)
    pure = evolve_bloch(transitionless_example, GROUND_BLOCH).norms()
    assert np.max(np.abs(pure - 1.0)) < 1e-9


def test_pure_bloch_consistency(grid, transitionless_example):
    beta = 0.12
    pure = evolve_pure(transitionless_example, GROUND_PURE, beta=beta)
    bloch = evolve_bloch(transitionless_example, GROUND_BLOCH, ErrorSetting(beta=beta))
    mapped = np.array([bloch_from_pure(PureState(c1, c2)).as_array()
                       for c1, c2 in pure.states])
    assert np.max(np.abs(mapped - bloch.states)) < 1e-8


def test_rk4_step_halving_order():
    """Observed convergence order >= 4 on a smooth transitionless field."""
    errs = []
    for n in (33, 65, 129):
        f = make_transitionless(2.0, 1.3, TimeGrid(n))
        errs.append(evolve_pure(f, GROUND_PURE, beta=0.3).states[-1])
    ref = evolve_pure(make_transitionless(2.0, 1.3, TimeGrid(4097)), GROUND_PURE, beta=0.3).states[-1]
    e = [np.max(np.abs(s - ref)) for s in errs]
    orders = [math.log2(e[i] / e[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_bloch_step_halving_order():
    errs = []
    for n in (33, 65, 129):
        f = make_transitionless(2.0, 1.3, TimeGrid(n))
        errs.append(evolve_bloch(f, GROUND_BLOCH, ErrorSetting(lambda2=0.3)).states[-1])
    ref = evolve_bloch(make_transitionless(2.0, 1.3, TimeGrid(4097)), GROUND_BLOCH,
                       ErrorSetting(lambda2=0.3)).states[-1]
    e = [np.max(np.abs(s - ref)) for s in errs]
    orders = [math.log2(e[i] / e[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


def test_trajectory_csv(tmp_path, grid, flat_field):
    bl = evolve_bloch(flat_field, GROUND_BLOCH)
    path = tmp_path / "bloch.csv"
    bl.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,r1,r2,r3"
    pu = evolve_pure(flat_field, GROUND_PURE)
    path2 = tmp_path / "pure.csv"
    pu.to_csv(path2)
    assert path2.read_text().splitlines()[0] == "t,re_c1,im_c1,re_c2,im_c2"


def test_error_setting_validation():
    with pytest.raises(ValueError):
        ErrorSetting(lambda2=-0.1)


def test_sse_noise_free_matches_pure(grid, flat_field):
    sse = evolve_sse(flat_field, GROUND_PURE, 0.0, 1.0 / 4000.0, seed=5)
    pure = evolve_pure(flat_field, GROUND_PURE)
    assert np.max(np.abs(sse.states - pure.states)) < 1e-3  # Euler is O(dt)


def test_sse_bit_reproducible(grid, flat_field):
    a = evolve_sse(flat_field, GROUND_PURE, 0.09, 1.0 / 2000.0, seed=123)
    b = evolve_sse(flat_field, GROUND_PURE, 0.09, 1.0 / 2000.0, seed=123)
    assert np.array_equal(a.states, b.states)
    c = evolve_sse(flat_field, GROUND_PURE, 0.09, 1.0 / 2000.0, seed=124)
    assert not np.array_equal(a.states, c.states)


def test_sse_validation(grid, flat_field):
    with pytest.raises(ValueError):
        evolve_sse(flat_field, GROUND_PURE, 0.1, -1e-4, seed=0)
    with pytest.raises(ValueError):
        evolve_sse(flat_field, GROUND_PURE, 0.1, 0.001, seed=0)  # does not divide h
    with pytest.raises(ValueError):
        evolve_sse(flat_field, GROUND_PURE, -0.1, 1.0 / 4000.0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_p2(flat_field, 0.1, 1, 1.0 / 4000.0, seed=0)


def test_monte_carlo_noise_free(grid, flat_field):
    res = monte_carlo_p2(flat_field, 0.0, 16, 1.0 / 2000.0, seed=9)
    assert res.p2_stderr == 0.0
    assert res.p2_mean == pytest.approx(1.0, abs=1e-5)


def test_monte_carlo_matches_master_equation(grid, flat_field):
    res = monte_carlo_p2(flat_field, 0.25, 3000, 1.0 / 2000.0, seed=11)
    exact = FLAT_P2_NOISE(0.25)
    assert abs(res.p2_mean - exact) < 3.0 * res.p2_stderr


def test_monte_carlo_transitionless_vs_bloch(grid):
    f = make_transitionless(2.0, 1.3, TimeGrid(1001))
    res = monte_carlo_p2(f, 0.04, 3000, 1.0 / 2000.0, seed=21)
    master = evolve_bloch(f, GROUND_BLOCH, ErrorSetting(lambda2=0.04)).final_p2()
    assert abs(res.p2_mean - master) < 3.0 * res.p2_stderr


def test_monte_carlo_batching_invariance(grid, flat_field, monkeypatch):
    monkeypatch.setattr(dynamics, "_SSE_BATCH", 64)
    a = monte_carlo_p2(flat_field, 0.09, 64, 1.0 / 2000.0, seed=3)
    monkeypatch.setattr(dynamics, "_SSE_BATCH", 7)
    b = monte_carlo_p2(flat_field, 0.09, 64, 1.0 / 2000.0, seed=3)
    assert a == b


@pytest.mark.parametrize("kind, n_traj, batch", [("flat", 16, None), ("transitionless", 11, 4)])
def test_monte_carlo_is_a_batch_of_evolve_sse_runs(grid, flat_field, monkeypatch,
                                                    kind, n_traj, batch):
    field = flat_field if kind == "flat" else make_transitionless(2.0, 1.3, grid)
    if batch:
        monkeypatch.setattr(dynamics, "_SSE_BATCH", batch)  # 11 trajectories cross two boundaries
    dt, seed = 1.0 / 2000.0, 17
    res = monte_carlo_p2(field, 0.09, n_traj, dt, seed)
    p2 = np.array([evolve_sse(field, GROUND_PURE, 0.09, dt, seed, traj_index=i).final_p2()
                   for i in range(n_traj)])
    assert res == EnsembleResult(float(np.mean(p2)), float(np.std(p2, ddof=1) / math.sqrt(n_traj)),
                                 n_traj, seed, dt)


def test_sse_rejects_an_unstable_step(flat_field):
    # lambda2 * max|Omega|^2 * dt = 0.5 * pi^2 * 1/2000 ~ 2.5e-3: accepted
    evolve_sse(flat_field, GROUND_PURE, 0.5, 1.0 / 2000.0, seed=0)
    with pytest.raises(ValueError, match="lambda2 \\* max"):
        evolve_sse(flat_field, GROUND_PURE, 500.0, 1.0 / 2000.0, seed=0)
    with pytest.raises(ValueError, match="unstable"):
        monte_carlo_p2(flat_field, 500.0, 4, 1.0 / 2000.0, seed=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"beta": math.nan}, "beta"), ({"beta": math.inf}, "beta"), ({"lambda2": math.nan}, "lambda2"),
    ({"lambda2": math.inf}, "lambda2"), ({"lambda2": -0.1}, "lambda2")])
def test_error_setting_requires_finite_values(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ErrorSetting(**kwargs)


@pytest.mark.parametrize("lambda2, dt, name", [(math.nan, 1.0 / 2000.0, "lambda2"),
                                               (math.inf, 1.0 / 2000.0, "lambda2"),
                                               (0.1, math.nan, "dt"), (0.1, math.inf, "dt"),
                                               (0.1, 0.0, "dt")])
def test_sse_requires_finite_settings(flat_field, lambda2, dt, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        evolve_sse(flat_field, GROUND_PURE, lambda2, dt, seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        monte_carlo_p2(flat_field, lambda2, 4, dt, seed=0)


def test_bloch_divergence_is_refused():
    field = make_flat_pi(0.0, TimeGrid(11))  # lambda2 h = 1e5: RK4 is far outside its stable range
    with pytest.raises(RuntimeError, match="diverged"):
        evolve_bloch(field, GROUND_BLOCH, ErrorSetting(lambda2=1e6))
    with pytest.raises(RuntimeError, match="diverged"):
        dynamics.final_p2_bloch(field, [ErrorSetting(lambda2=1e6)])


def test_monte_carlo_thread_invariance(grid, flat_field, monkeypatch):
    a = monte_carlo_p2(flat_field, 0.09, 128, 1.0 / 2000.0, seed=3)
    monkeypatch.setenv("INVLAB_THREADS", "4")
    b = monte_carlo_p2(flat_field, 0.09, 128, 1.0 / 2000.0, seed=3)
    assert a == b


def test_sse_weak_order_one(grid, flat_field):
    """Weak order >= 1, measured against the exact flat-pulse solution driven
    by the same Brownian increments: P2_exact = sin^2(pi/2 + (lambda pi / 2) W_T)."""
    lam2 = 0.16
    lam = math.sqrt(lam2)
    n_paths = 4000
    errors = []
    for n_sse in (500, 1000):
        dt = 1.0 / n_sse
        rng = np.random.default_rng(42)
        dw_r = rng.normal(0.0, math.sqrt(dt), size=(n_sse, n_paths))
        dw_i = np.zeros_like(dw_r)
        field = make_flat_pi(0.0, TimeGrid(n_sse + 1))
        c1 = np.ones(n_paths, dtype=complex)
        c2 = np.zeros(n_paths, dtype=complex)
        c1, c2, _ = _sse_run(field, c1, c2, lam2, dt, dw_r, dw_i)
        p2_em = np.abs(c2) ** 2 / (np.abs(c1) ** 2 + np.abs(c2) ** 2)
        w_T = dw_r.sum(axis=0)
        p2_exact = np.sin(0.5 * math.pi + 0.5 * lam * math.pi * w_T) ** 2
        errors.append(abs(np.mean(p2_em - p2_exact)))
    order = math.log2(errors[0] / errors[1])
    assert order >= 0.8, (errors, order)


def test_trajectory_rng_is_counter_based():
    a = trajectory_rng(10, 0).normal(size=4)
    b = trajectory_rng(10, 0).normal(size=4)
    c = trajectory_rng(10, 1).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        trajectory_rng(-1, 0)


@pytest.mark.parametrize("name, bad", [(name, bad) for name in ("seed", "traj_index")
                                       for bad in (-1, 2**64, 1.5, True, "1")])
def test_trajectory_rng_rejects_bad_keys(name, bad):
    keys = {"seed": 0, "traj_index": 0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        trajectory_rng(**keys)
    trajectory_rng(**{**keys, name: np.uint64(2**64 - 1)})
