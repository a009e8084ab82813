import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from invlab import (GROUND_BLOCH, ControlField, EnsembleResult, ErrorSetting, TimeGrid,
                    constant, dynamics, evolve_bloch, evolve_propagator, evolve_pure,
                    final_p2_pure, make_flat_pi, make_transitionless, monte_carlo_p2)
from invlab.cli import main
from invlab.core import csv_text, write_text
from invlab.dynamics import _sse_run
from bloch_reference import bloch_from_pure

FLAT_P2_NOISE = lambda lam2: 0.5 + 0.5 * math.exp(-lam2 * math.pi**2 / 2.0)


def zero_field(grid):
    z = constant(0.0)
    return ControlField.from_functions(grid, lambda t: (z(t), z(t), z(t)), label="zero")


def test_zero_field_is_identity(grid):
    psi = evolve_pure(zero_field(grid), (0.6, 0.8j))
    assert np.max(np.abs(psi - psi[0])) < 1e-12


def test_flat_pi_inverts_pure(grid, flat_field):
    psi = evolve_pure(flat_field, (1, 0))
    assert abs(psi[-1, 1]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_evolve_pure_rejects_unnormalized(grid, flat_field):
    with pytest.raises(ValueError, match="^pure state is not normalized: \\|psi\\| = 1.118"):
        evolve_pure(flat_field, (1.0, 0.5))
    with pytest.raises(ValueError, match="^pure state is not normalized"):
        evolve_pure(flat_field, (1.0 + 2e-6, 0.0))
    with pytest.raises(ValueError, match="^pure state is not normalized"):
        evolve_pure(flat_field, (math.nan, 0.0))
    evolve_pure(flat_field, (1.0 + 5e-7, 0.0))  # within the 1e-6 tolerance


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.3, 1.0])
def test_flat_pi_systematic_closed_form(grid, flat_field, beta):
    # any pi pulse: P2(beta) = 1/2 - 1/2 cos((1+beta) pi)
    p2 = final_p2_pure(flat_field, [beta])[0]
    assert p2 == pytest.approx(0.5 - 0.5 * math.cos((1.0 + beta) * math.pi), abs=1e-8)


def test_norm_conservation_under_systematic_error(grid, transitionless_example):
    psi = evolve_pure(transitionless_example, (1, 0), beta=0.35)
    assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) < 1e-9


def test_flat_pi_inverts_bloch(grid, flat_field):
    final = evolve_bloch(flat_field, GROUND_BLOCH).states[-1]
    assert tuple(final) == pytest.approx((0.0, 0.0, -1.0), abs=1e-9)


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
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.all(np.diff(norms) <= 1e-9)
    pure = np.linalg.norm(evolve_bloch(transitionless_example, GROUND_BLOCH).states, axis=1)
    assert np.max(np.abs(pure - 1.0)) < 1e-9


def test_pure_bloch_consistency(grid, transitionless_example):
    beta = 0.12
    pure = evolve_pure(transitionless_example, (1, 0), beta=beta)
    bloch = evolve_bloch(transitionless_example, GROUND_BLOCH, ErrorSetting(beta=beta))
    mapped = np.array([bloch_from_pure(psi) for psi in pure])
    assert np.max(np.abs(mapped - bloch.states)) < 1e-8


def test_rk4_step_halving_order():
    """Observed convergence order >= 4 on a smooth transitionless field."""
    errs = []
    for n in (33, 65, 129):
        f = make_transitionless(2.0, 1.3, TimeGrid(n))
        errs.append(evolve_pure(f, (1, 0), beta=0.3)[-1])
    ref = evolve_pure(make_transitionless(2.0, 1.3, TimeGrid(4097)), (1, 0), beta=0.3)[-1]
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
    # '%.17g' reads back exactly, so the file's columns are the states themselves
    bl = evolve_bloch(flat_field, GROUND_BLOCH)
    path = tmp_path / "bloch.csv"
    write_text(path, csv_text(*bl.csv_columns()))
    assert path.read_text().splitlines()[0] == "t,r1,r2,r3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], grid.times)
    assert np.array_equal(data[:, 1:], bl.states)
    header, columns = bl.csv_columns()
    assert header == "t,r1,r2,r3"
    assert np.array_equal(np.column_stack(columns), data)


@pytest.mark.parametrize("r0", [(0.0, 1.0), (0.0, 0.0, 1.0, 0.0), [[0.0, 0.0, 1.0]], 1.0,
                                (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)])
def test_evolve_bloch_requires_three_finite_numbers(flat_field, r0):
    with pytest.raises(ValueError, match="^r0 must be three finite numbers"):
        evolve_bloch(flat_field, r0)


@pytest.mark.parametrize("r0", [(0.0, 0.0, 2.0), (0.8, 0.8, 0.0)])
def test_evolve_bloch_refuses_a_vector_outside_the_ball(r0):
    with pytest.raises(ValueError, match="^r0 must lie in the Bloch ball"):
        evolve_bloch(make_flat_pi(0.0, TimeGrid(101)), r0)


def test_evolve_bloch_takes_a_vector_on_the_ball_within_its_tolerance():
    # r0 enters linearly and is not rescaled: the solve from (0, 0, z) is z times that from
    # the ground state, bit for bit
    field, z = make_flat_pi(0.0, TimeGrid(101)), 1.0 + 1e-7
    got = evolve_bloch(field, (0.0, 0.0, z)).states
    assert np.array_equal(got, z * evolve_bloch(field, GROUND_BLOCH).states)


def test_evolve_bloch_takes_any_three_numbers(flat_field):
    ref = evolve_bloch(flat_field, GROUND_BLOCH).states
    for r0 in ((0, 0, 1), [0.0, 0.0, 1.0], np.array([0.0, 0.0, 1.0])):
        assert np.array_equal(evolve_bloch(flat_field, r0).states, ref)


def test_error_setting_validation():
    with pytest.raises(ValueError):
        ErrorSetting(lambda2=-0.1)


def _sse_finals(field, lambda2, dt, seed, n_traj):
    """Final amplitudes (n_traj, 2) of an ensemble's members, in index order."""
    steps = dynamics._sse_setup(field, lambda2, dt, seed)
    return np.concatenate([np.stack(run, axis=1)
                           for run in dynamics._sse_batches(steps, seed, 0, n_traj)])


def test_sse_noise_free_matches_pure(grid, flat_field):
    sse = _sse_finals(flat_field, 0.0, 1.0 / 4000.0, 5, 2)
    pure = evolve_pure(flat_field, (1, 0))
    assert np.max(np.abs(sse - pure[-1])) < 1e-3  # Euler is O(dt)


def test_sse_bit_reproducible(grid, flat_field):
    a = _sse_finals(flat_field, 0.09, 1.0 / 2000.0, 123, 4)
    b = _sse_finals(flat_field, 0.09, 1.0 / 2000.0, 123, 4)
    assert np.array_equal(a, b)
    c = _sse_finals(flat_field, 0.09, 1.0 / 2000.0, 124, 4)
    assert not np.array_equal(a, c)


def test_sse_validation(grid, flat_field):
    with pytest.raises(ValueError):
        monte_carlo_p2(flat_field, 0.1, 4, -1e-4, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_p2(flat_field, 0.1, 4, 0.001, seed=0)  # does not divide h
    with pytest.raises(ValueError):
        monte_carlo_p2(flat_field, -0.1, 4, 1.0 / 4000.0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_p2(flat_field, 0.1, 1, 1.0 / 4000.0, seed=0)
    # the ensemble's ranges are cut from n_traj, so it is an integer like the seed
    for bad in (2.5, 3.0, "10", True):
        with pytest.raises(ValueError, match="^n_traj must be an integer >= 2"):
            monte_carlo_p2(flat_field, 0.1, bad, 1.0 / 4000.0, seed=0)
    assert monte_carlo_p2(flat_field, 0.1, np.int64(4), 1.0 / 2000.0, seed=0).n_traj == 4


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
def test_monte_carlo_is_a_batch_of_single_trajectory_runs(grid, flat_field, monkeypatch,
                                                            kind, n_traj, batch):
    field = flat_field if kind == "flat" else make_transitionless(2.0, 1.3, grid)
    if batch:
        monkeypatch.setattr(dynamics, "_SSE_BATCH", batch)  # 11 trajectories cross two boundaries
    dt, seed = 1.0 / 2000.0, 17
    res = monte_carlo_p2(field, 0.09, n_traj, dt, seed)
    monkeypatch.setattr(dynamics, "_SSE_BATCH", 1)  # each member on its own
    c1, c2 = _sse_finals(field, 0.09, dt, seed, n_traj).T
    p2 = np.abs(c2) ** 2 / (np.abs(c1) ** 2 + np.abs(c2) ** 2)
    assert res == EnsembleResult(float(np.mean(p2)), float(np.std(p2, ddof=1) / math.sqrt(n_traj)),
                                 n_traj, seed, dt)


def test_sse_rejects_an_unstable_step(flat_field):
    # lambda2 * max|Omega|^2 * dt = 0.5 * pi^2 * 1/2000 ~ 2.5e-3: accepted
    monte_carlo_p2(flat_field, 0.5, 4, 1.0 / 2000.0, seed=0)
    with pytest.raises(ValueError, match="Euler-Maruyama step unstable: lambda2 \\* max"):
        monte_carlo_p2(flat_field, 500.0, 4, 1.0 / 2000.0, seed=0)


def _bump_field():
    """|Omega| = 1 at the nodes of a 3-point grid, but 11 at t = 0.25, between them."""
    return ControlField.from_functions(
        TimeGrid(3), lambda t: (1.0 + 10.0 * np.exp(-((t - 0.25) / 0.02) ** 2), 0 * t, 0 * t))


def test_sse_stiffness_is_checked_at_every_step_time():
    # dt = 0.25 steps at t = 0, 0.25, 0.5, 0.75; at t = 0.25 lambda2 |Omega|^2 dt = 15
    with pytest.raises(ValueError, match="lambda2 \\* max\\|Omega\\|\\^2 \\* dt = 15.1 >= 1"):
        monte_carlo_p2(_bump_field(), 0.5, 4, 0.25, seed=0)


def test_rk4_stability_is_checked_at_the_midpoints():
    # h = 0.5: the midpoint t = 0.25 reads h lambda2 |Omega|^2 / 2 = 30, the nodes 0.25
    field = _bump_field()
    with pytest.raises(ValueError, match="RK4 step unstable at lambda2 = 1: .* = 30.2 >= 2.785"):
        dynamics.final_p2_bloch(field, [ErrorSetting(lambda2=1.0)])
    with pytest.raises(ValueError, match="RK4 step unstable"):
        evolve_bloch(field, GROUND_BLOCH, ErrorSetting(lambda2=1.0))


def _ensemble_peak_mib(field, n_traj, dt):
    tracemalloc.start()
    try:
        monte_carlo_p2(field, 0.09, n_traj, dt, seed=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_traj", [10_000, 20_000])
def test_ensemble_memory_is_pinned(flat_field, n_traj):
    """A default-size ensemble is one batch; two batches do not hold two batches' buffers, and
    no ensemble holds a four-step table or the signs of every group."""
    peak = _ensemble_peak_mib(flat_field, n_traj, 1.0 / 4000.0)
    assert peak <= 5, peak


def test_fine_step_ensemble_memory_is_pinned(flat_field):
    """At dt = 1/16000 a 10^4-trajectory ensemble stays under the bound of dt = 1/4000: the
    table and the signs are one block of groups each, not 4000 groups."""
    peak = _ensemble_peak_mib(flat_field, 10_000, 1.0 / 16000.0)
    assert peak <= 5, peak


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_worker_raises_and_every_worker_is_reaped(flat_field, monkeypatch, capsys):
    """A worker that raises, writes short, or writes all but exits non-zero fails the
    ensemble with RuntimeError, and the CLI with exit 1; no child outlives the call."""
    monkeypatch.setattr(dynamics, "_part_count", lambda *_: 3)
    args = (flat_field, 0.09, 3000, 1.0 / 2000.0, 3)
    whole = monte_carlo_p2(*args)
    _no_child_left()
    real_range, real_exit = dynamics._range_p2, os._exit
    for fault in ("raise", "short", "status"):
        def failing(steps, seed, lo, hi):
            if lo == 0:  # this process's own range
                return real_range(steps, seed, lo, hi)
            if fault == "raise":
                raise MemoryError
            return real_range(steps, seed, lo, hi)[fault == "short":]
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "_range_p2", failing)
            if fault == "status":  # only a worker leaves by os._exit
                mp.setattr(os, "_exit", lambda code: real_exit(3))
            with pytest.raises(RuntimeError, match="^an SSE worker process failed"):
                monte_carlo_p2(*args)
            _no_child_left()
            assert main(["simulate", "--sse", "--kind", "flat_pi", "--lambda2", "0.09",
                         "--n-traj", "3000", "--dt", "0.0005", "--grid-steps", "2001",
                         "--seed", "3"]) == 1
            assert "invlab: an SSE worker process failed" in capsys.readouterr().err
            _no_child_left()
    assert monte_carlo_p2(*args) == whole


def test_part_rule_and_ensembles_that_never_fork(monkeypatch):
    """Ranges: one per usable CPU, at most one per stream, each of at least _FORK_FLOOR
    trajectory-steps.  Below the floor, or while another Python thread is alive, or without
    os.fork or os.sched_getaffinity, an ensemble never forks."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        # (n_traj, steps) -> ranges: floor-capped, stream-capped, and under one floor
        for n_traj, n_sse, parts in [(10_000, 4000, 9), (20_000, 4000, 19), (3000, 10**6, 3),
                                     (2000, 4000, 1), (3000, 1000, 1)]:
            assert dynamics._part_count(n_traj, n_sse) == parts, (n_traj, n_sse)

    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", no_fork)
    field = make_flat_pi(0.0, TimeGrid(1001))
    monte_carlo_p2(field, 0.09, 3000, 1.0 / 1000.0, seed=3)  # three streams, 3e6 < 2**22
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert dynamics._part_count(10_000, 4000) == 1
        monte_carlo_p2(field, 0.09, 10_000, 1.0 / 4000.0, seed=3)
    finally:
        stop.set()
        thread.join()
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as mp:
            mp.delattr(os, name)
            assert dynamics._part_count(10_000, 4000) == 1


@pytest.mark.parametrize("kwargs, name", [
    ({"beta": math.nan}, "beta"), ({"beta": math.inf}, "beta"), ({"lambda2": math.nan}, "lambda2"),
    ({"lambda2": math.inf}, "lambda2"), ({"lambda2": -0.1}, "lambda2")])
def test_error_setting_requires_finite_values(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ErrorSetting(**kwargs)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evolve", [evolve_propagator,
                                    lambda field, beta: evolve_pure(field, (1, 0), beta)],
                         ids=["evolve_propagator", "evolve_pure"])
def test_propagator_route_requires_a_finite_beta(flat_field, evolve, beta):
    # bad input, as in final_p2_pure, not a diverged integration
    with pytest.raises(ValueError, match="^beta must be finite"):
        evolve(flat_field, beta)


@pytest.mark.parametrize("lambda2, dt, name", [(math.nan, 1.0 / 2000.0, "lambda2"),
                                               (math.inf, 1.0 / 2000.0, "lambda2"),
                                               (0.1, math.nan, "dt"), (0.1, math.inf, "dt"),
                                               (0.1, 0.0, "dt")])
def test_sse_requires_finite_settings(flat_field, lambda2, dt, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        monte_carlo_p2(flat_field, lambda2, 4, dt, seed=0)


def test_bloch_divergence_is_refused():
    field = make_flat_pi(0.0, TimeGrid(11))  # lambda2 h = 1e5: RK4 is far outside its stable range
    with pytest.raises(ValueError, match="RK4 step unstable"):
        evolve_bloch(field, GROUND_BLOCH, ErrorSetting(lambda2=1e6))
    with pytest.raises(ValueError, match="RK4 step unstable"):
        dynamics.final_p2_bloch(field, [ErrorSetting(lambda2=1e6)])


def test_rk4_bound_sits_at_the_stability_interval():
    # flat pi pulse: h lambda2 pi^2 / 2 against 2.785, on both sides of the bound
    field = make_flat_pi(0.0, TimeGrid(101))
    edge = 2.785 * 2.0 / (field.grid.h * math.pi ** 2)
    p2 = dynamics.final_p2_bloch(field, [ErrorSetting(lambda2=0.99 * edge)])[0]
    assert 0.0 <= p2 <= 1.0
    with pytest.raises(ValueError, match="^RK4 step unstable at lambda2 = .*; raise --grid-steps$"):
        dynamics.final_p2_bloch(field, [ErrorSetting(), ErrorSetting(lambda2=edge)])


def _given(signs):
    """A ``fill`` for ``_sse_run`` that hands out the rows of a (groups, count) sign array in order."""
    rows = iter(signs)

    def fill(out):
        for row in out:
            row[:] = next(rows)
    return fill


def test_sse_weak_order_one(grid, flat_field):
    """Weak order >= 1 of the two-point scheme on the flat pulse, whose W_I channel is zero.

    The exact SSE mean is E[sin^2(pi/2 + (lambda pi / 2) W_T)] over a Gaussian W_T.
    The scheme's bias against it is the pathwise error against the same
    function of the two-point W_T built from the same signs (sampled), plus
    that function's exact mean over the binomial law of the two-point W_T
    minus its Gaussian mean (a sum over the number k of + signs).
    """
    lam2 = 0.16
    c = 0.5 * math.sqrt(lam2) * math.pi
    n_paths = 4000
    errors = []
    for n_sse in (250, 500, 1000, 2000):
        dt = 1.0 / n_sse
        rng = np.random.default_rng(42)
        signs = rng.integers(0, 256, size=(-(-n_sse // 4), n_paths), dtype=np.uint8)
        field = make_flat_pi(0.0, TimeGrid(n_sse + 1))
        c1, c2 = _sse_run(dynamics._sse_steps(field, lam2, dt, n_sse), n_paths, _given(signs))
        p2_em = np.abs(c2) ** 2 / (np.abs(c1) ** 2 + np.abs(c2) ** 2)
        plus = np.unpackbits(signs, axis=0, bitorder="little")[0::2][:n_sse].sum(axis=0)
        w_T = math.sqrt(dt) * (2.0 * plus - n_sse)
        pathwise = np.mean(p2_em - np.sin(0.5 * math.pi + c * w_T) ** 2)
        k = np.arange(n_sse + 1)
        log_prob = (math.lgamma(n_sse + 1) - np.array([math.lgamma(j + 1) + math.lgamma(n_sse - j + 1)
                                                       for j in k]) - n_sse * math.log(2.0))
        two_point = np.sum(np.exp(log_prob)
                           * np.sin(0.5 * math.pi + c * math.sqrt(dt) * (2.0 * k - n_sse)) ** 2)
        gaussian = 0.5 * (1.0 + math.exp(-2.0 * c * c))  # E cos^2(c W_1)
        errors.append(abs(pathwise + two_point - gaussian))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    assert min(orders) >= 0.8, (errors, orders)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True, "1"])
def test_trajectory_rng_rejects_bad_seeds(flat_field, bad):
    # the seed keys the Philox streams of every trajectory
    with pytest.raises(ValueError, match="^seed must be an integer"):
        monte_carlo_p2(flat_field, 0.09, 4, 1.0 / 2000.0, seed=bad)


def test_sse_last_seed_may_be_a_numpy_integer(flat_field):
    top = 2**64 - 1
    got = monte_carlo_p2(flat_field, 0.09, 4, 1.0 / 2000.0, seed=np.uint64(top))
    assert got == monte_carlo_p2(flat_field, 0.09, 4, 1.0 / 2000.0, seed=top)
