"""Properties of the RK4 propagator kernel and the SSE step on random fields.

The scalar loops in rk4_reference.py are the oracle for the RK4 kernel:
it forms the same classical RK4 steps as matrices, so the two agree to
rounding.  The elementwise loop in sse_reference.py is the oracle for the
SSE's tabulated four-step products in the same way, fed the two-point
increments decoded from each trajectory's stream.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invlab import (GROUND_BLOCH, Axis, ControlField, ErrorSetting, ProtocolSpec, TimeGrid,
                    dynamics, evolve_bloch, evolve_propagator, evolve_pure, final_p2_bloch,
                    final_p2_pure, make_flat_pi, make_optimal_systematic, make_transitionless,
                    map_p2, monte_carlo_p2)
from invlab.dynamics import final_p2_beta_series, final_p2_lambda2_series
from invlab.protocols import PROTOCOLS
from invlab.sensitivity import INVERSION_THRESHOLD
from rk4_reference import reference_bloch, reference_pure
from sse_reference import reference_sse_run

GRID = TimeGrid(201)
coef = st.floats(-4.0, 4.0)
betas = st.floats(-1.0, 1.0)
lambda2s = st.floats(0.0, 1.0)


@st.composite
def smooth_fields(draw):
    """Channels c0 + c1 sin(pi t) + c2 cos(2 pi t) with random coefficients."""
    def channel():
        c0, c1, c2 = draw(coef), draw(coef), draw(coef)
        return lambda t: c0 + c1 * np.sin(math.pi * t) + c2 * np.cos(2.0 * math.pi * t)
    wr, wi, d = channel(), channel(), channel()
    return ControlField.from_functions(GRID, lambda t: (wr(t), wi(t), d(t)), label="random")


@st.composite
def pure_states(draw):
    """Normalized (c1, c2); the ground state when the drawn vector is near zero."""
    x = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    norm = float(np.linalg.norm(x))
    if norm < 1e-3:
        return (1.0, 0.0)
    x /= norm
    return (complex(x[0], x[1]), complex(x[2], x[3]))


@st.composite
def bloch_states(draw):
    """Unit Bloch vectors; the ground state when the drawn vector is near zero."""
    x = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    norm = float(np.linalg.norm(x))
    return GROUND_BLOCH if norm < 1e-3 else x / norm


@st.composite
def sse_fields(draw):
    """A flat pi pulse of random phase or a transitionless sweep of random (omega0, delta0).

    The grid has 200 to 203 steps, so n_sse = per * steps takes every residue mod 4.
    """
    grid = TimeGrid(draw(st.integers(201, 204)))
    if draw(st.booleans()):
        return make_flat_pi(draw(st.floats(-math.pi, math.pi)), grid)
    return make_transitionless(draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0)), grid)


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, lambda2s)
def test_bloch_matches_scalar_reference(field, beta, lambda2):
    r0 = (0.6, 0.0, 0.8)
    traj = evolve_bloch(field, r0, ErrorSetting(beta, lambda2))
    ref = reference_bloch(field, r0, beta, lambda2)
    assert np.max(np.abs(traj.states - ref)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, st.floats(0.0, 1.0, exclude_min=True), bloch_states())
def test_bloch_contracts_under_noise(field, beta, lambda2, r0):
    # d|r|^2/dt = -lambda^2 (WI^2 r1^2 + WR^2 r2^2 + (WR^2 + WI^2) r3^2) <= 0
    traj = evolve_bloch(field, r0, ErrorSetting(beta, lambda2))
    assert np.all(np.diff(np.linalg.norm(traj.states, axis=1)) <= 1e-9)
    p2 = 0.5 * (1.0 - traj.states[:, 2])
    assert np.all((p2 >= 0.0) & (p2 <= 1.0))


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, pure_states())
def test_pure_matches_reference_keeps_norm_and_p2_range(field, beta, psi0):
    psi = evolve_pure(field, psi0, beta=beta)
    assert psi.shape == (GRID.n_steps, 2) and psi.dtype == np.dtype(complex)
    assert np.max(np.abs(psi - reference_pure(field, *psi0, beta))) < 1e-12
    # RK4 is unitary only to its truncation error, which reaches ~1.4e-7 here
    # (201 points, channels up to 12, beta = 1); rounding adds nothing visible.
    assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) < 1e-6
    c1, c2 = np.abs(psi.T) ** 2
    p2 = c2 / (c1 + c2)
    assert np.all((p2 >= -1e-15) & (p2 <= 1.0 + 1e-15))


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas)
def test_propagator_columns_are_orthogonal_solutions(field, beta):
    a, b = evolve_propagator(field, beta).T
    ground = np.column_stack((a, -b.conj()))
    excited = np.column_stack((b, a.conj()))
    assert np.max(np.abs(np.sum(excited.conj() * ground, axis=1))) < 1e-12
    assert np.max(np.abs(ground - reference_pure(field, 1.0, 0.0, beta))) < 1e-12
    assert np.max(np.abs(excited - reference_pure(field, 0.0, 1.0, beta))) < 1e-12


def _propagator_p2(row):
    """P2 from the ground state at a propagator row (a, b): its amplitudes (a, -b*)
    give |b|^2 / (|a|^2 + |b|^2)."""
    a, b = np.abs(row) ** 2
    return b / (a + b)


def _rows_minus_bloch(field):
    """Largest distance between the Bloch vector of psi_0 = (a, -b*), as qn_formula
    reads it, and the independent 3x3 RK4 solve."""
    a, b = evolve_propagator(field).T
    ab = a * b
    rows = np.column_stack((-2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2))
    return float(np.max(np.abs(rows - evolve_bloch(field, GROUND_BLOCH).states)))


@settings(max_examples=25, deadline=None)
@given(smooth_fields())
@example(ControlField.from_functions(  # 1.01e-6 apart on 201 points, 6.3e-8 on 401
    GRID, lambda t: (0.0 * t, -4.0 - 4.0 * np.sin(math.pi * t) + 2.0 * np.cos(2.0 * math.pi * t),
                     4.0 + 4.0 * np.sin(math.pi * t) - 4.0 * np.cos(2.0 * math.pi * t))))
def test_bloch_vector_from_propagator_rows_matches_bloch_engine(field):
    # both solves carry RK4's truncation error, so they differ by O(h^4): halving
    # the step must shrink the distance about 16-fold (8 leaves a margin), down to rounding
    d201 = _rows_minus_bloch(field)
    d401 = _rows_minus_bloch(ControlField.from_functions(TimeGrid(401), field.channels))
    assert d201 < 1e-4
    assert d401 <= max(d201 / 8.0, 1e-12)


@settings(max_examples=15, deadline=None)
@given(smooth_fields(), st.lists(st.tuples(betas, lambda2s), min_size=1, max_size=7))
def test_batched_final_p2_equals_single_solves(field, pairs):
    cases = [ErrorSetting(b, l2) for b, l2 in pairs]
    bloch = final_p2_bloch(field, cases)
    pure = final_p2_pure(field, [b for b, _ in pairs])
    for k, s in enumerate(cases):
        assert bloch[k] == evolve_bloch(field, GROUND_BLOCH, s).final_p2()
        assert pure[k] == _propagator_p2(evolve_propagator(field, s.beta)[-1])
    assert np.all((pure >= 0.0) & (pure <= 1.0))


def test_settings_blocks_solve_each_setting_as_alone(monkeypatch):
    # blocks of 3 settings: 7 settings are two full blocks and a partial one, on a grid
    # of two chunks; a 3x4 map is four blocks, reshaped with lambda along the rows
    monkeypatch.setattr(dynamics, "_BLOCK", 3)
    field = make_transitionless(3.0, 2.0, TimeGrid(2001))
    cases = [ErrorSetting(b, l2) for b, l2 in zip((-0.3, -0.1, 0.0, 0.05, 0.2, 0.4, 0.7),
                                                 (0.0, 0.3, 0.1, 0.6, 0.0, 0.2, 0.9))]
    bloch = final_p2_bloch(field, cases)
    pure = final_p2_pure(field, [s.beta for s in cases])
    for k, s in enumerate(cases):
        assert bloch[k] == evolve_bloch(field, GROUND_BLOCH, s).final_p2()
        assert pure[k] == _propagator_p2(evolve_propagator(field, s.beta)[-1])
    lam, beta = Axis("lambda", 0.0, 1.0, 3), Axis("beta", -0.5, 0.5, 4)
    plane = map_p2(field, lam, beta).values
    for i, x in enumerate(lam.values):
        for j, b in enumerate(beta.values):
            assert plane[i, j] == evolve_bloch(field, GROUND_BLOCH,
                                               ErrorSetting(b, x * x)).final_p2()


@settings(max_examples=10, deadline=None)
@given(smooth_fields(), betas, lambda2s, st.integers(1, 64))
def test_chunked_kernel_matches_reference_and_its_own_finals(field, beta, lambda2, chunk):
    # GRID has 200 steps, one chunk at the default size; small chunks
    # exercise the chaining, including a partial last chunk.  A Bloch step
    # table holds 72 bytes per step, a pure-state one 32, so the pure
    # chunks are 72 * chunk // 32 steps.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_CHUNK_BYTES", 72 * chunk)
        setting = ErrorSetting(beta, lambda2)
        traj = evolve_bloch(field, GROUND_BLOCH, setting)
        ref = reference_bloch(field, GROUND_BLOCH, beta, lambda2)
        assert np.max(np.abs(traj.states - ref)) < 1e-12
        u = evolve_propagator(field, beta)
        assert np.max(np.abs(u[:, 0] - reference_pure(field, 1.0, 0.0, beta)[:, 0])) < 1e-12
        assert final_p2_bloch(field, [setting])[0] == traj.final_p2()
        assert final_p2_pure(field, [beta])[0] == _propagator_p2(u[-1])


@st.composite
def cli_kind_fields(draw):
    """(kind, field) of every CLI kind over its parameters, on 401 points."""
    grid = TimeGrid(401)
    kind = draw(st.sampled_from(sorted(PROTOCOLS)))
    sweep = (draw(st.floats(0.25, 8.0)),
             draw(st.one_of(st.floats(-8.0, -0.25), st.floats(0.25, 8.0))))
    params = {"flat_pi": {"alpha": draw(st.floats(0.0, 2.0 * math.pi))},
              "shaped_pi": {"envelope": draw(st.sampled_from(["sin", "flat"])),
                            "alpha": draw(st.floats(0.0, 2.0 * math.pi))},
              "sinusoidal_adiabatic": dict(zip(("omega0", "delta0"), sweep)),
              "transitionless": dict(zip(("omega0", "delta0"), sweep)),
              "optimal_noise": {"n": draw(st.sampled_from([1, 3, 5, 7]))},
              "optimal_systematic": {"n": draw(st.integers(1, 3))}}[kind]
    return kind, ProtocolSpec(kind, params).build(grid)


@settings(max_examples=30, deadline=None)
@given(cli_kind_fields())
@example(("transitionless", make_transitionless(0.25, 8.0, TimeGrid(401))))
@example(("optimal_systematic", make_optimal_systematic(2, TimeGrid(401))))
def test_series_coefficients_are_derivatives_of_the_engines(kind_field):
    kind, field = kind_field
    lam, beta = final_p2_lambda2_series(field), final_p2_beta_series(field)
    # the bare sweep inverts only at isolated parameters; every other kind is drawn
    # where it inverts, and the series are derivatives whether or not it does
    assume(kind == "sinusoidal_adiabatic" or lam[0] >= 1.0 - INVERSION_THRESHOLD)
    assert abs(lam[0] - final_p2_bloch(field, [ErrorSetting()])[0]) <= 1e-14
    assert abs(beta[0] - final_p2_pure(field, [0.0])[0]) <= 1e-14

    # lambda^2 >= 0, so d/d(lambda^2) is the one-sided second-order quotient
    # (-3 P(0) + 4 P(x) - P(2x)) / 2x, whose error is O(x^2) like a central one's
    def lambda2_quotient(x):
        p = final_p2_bloch(field, [ErrorSetting(lambda2=v) for v in (0.0, x, 2.0 * x)])
        return (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * x)

    def beta_quotient(x):  # the central second difference over 2: the beta^2 coefficient
        p = final_p2_pure(field, [-x, 0.0, x])
        return (p[0] - 2.0 * p[1] + p[2]) / (2.0 * x * x)

    # P2's lambda^2 coefficients grow with q_N (3.7e4 at lambda^8 for optimal_systematic
    # n = 2), so the lambda^2 step shrinks with it, but not so far that rounding, about
    # n eps / step, reaches the O(step^2) error
    for exact, quotient, delta in ((lam[1], lambda2_quotient,
                                    1e-3 / max(1.0, abs(lam[1])) ** 1.25),
                                   (beta[2], beta_quotient, 0.004)):
        scale = max(1.0, abs(exact))
        far, near, nearest = (quotient(delta / k) for k in (1.0, 2.0, 4.0))
        # halving delta divides an O(delta^2) error by 4
        assert abs(exact - far) <= 1e-3 * scale
        assert abs(exact - near) <= 0.3 * abs(exact - far) + 1e-10 * scale
        # 4 near - far cancels the delta^2 term; what is left shrinks again as delta halves,
        # so the coefficient lies within the last extrapolation's change of it.  A
        # coefficient off by e would leave both extrapolations near e.  Over 300 drawn
        # fields the excess read at most 2.6e-10 scale, the quotients' rounding.
        coarse, fine = (4.0 * near - far) / 3.0, (4.0 * nearest - near) / 3.0
        assert abs(exact - fine) <= abs(coarse - fine) + 1e-9 * scale


@pytest.mark.parametrize("series", [final_p2_lambda2_series, final_p2_beta_series])
@pytest.mark.parametrize("build", [lambda g: make_flat_pi(0.3, g),
                                   lambda g: make_transitionless(3.0, 2.0, g)],
                         ids=["flat_pi", "transitionless"])
def test_half_solve_reads_the_grid_nodes_as_the_2h_grid(monkeypatch, build, series):
    # on an even step count the half solve is the solve of the 2h grid, its nodes the
    # even nodes and its midpoints the odd ones; it evaluates no field
    fine, coarse = build(TimeGrid(401)), build(TimeGrid(201))
    series(fine)  # forms the stage tables

    def refuse(*args):
        raise AssertionError("the half solve evaluated the field")

    monkeypatch.setattr(ControlField, "values", refuse)
    half = series(fine, half=True)
    monkeypatch.undo()
    assert np.max(np.abs(half - series(coarse))) <= 1e-12


# 2001 points: two chunks; 2002: a half solve whose last step is taken at h
@pytest.mark.parametrize("n_points", [2001, 2002])
@pytest.mark.parametrize("kind, params", [
    ("flat_pi", {"alpha": 0.3}), ("shaped_pi", {"envelope": "sin"}),
    ("sinusoidal_adiabatic", {"omega0": 3.0, "delta0": 2.0}),
    ("transitionless", {"omega0": 3.0, "delta0": -2.0}), ("optimal_noise", {"n": 7}),
    ("optimal_systematic", {"n": 2})])
def test_lambda2_series_order_0_is_the_plain_solve_bit_for_bit(kind, params, n_points):
    # both engines form their steps with _rk4_step, and a series product's order 0 is the
    # product of the orders 0
    field = ProtocolSpec(kind, params).build(TimeGrid(n_points))
    nodes, mids = field.stage_tables
    stages = dynamics._stages(nodes, mids, field.grid.h, 0, mids[0].size)
    plain = dynamics._BLOCH[1](stages, ErrorSetting())
    assert np.array_equal(dynamics._BLOCH_LAMBDA2[1](stages, None)[:, :, 0], plain)
    # order 1 of the generator series is -L2 = -1/2 diag(WI^2, WR^2, WR^2 + WI^2)
    wr, wi, _ = nodes
    minus_l2 = np.zeros((3, 3, wr.size))
    minus_l2[0, 0], minus_l2[1, 1], minus_l2[2, 2] = -wi**2 / 2, -wr**2 / 2, -(wr**2 + wi**2) / 2
    assert np.array_equal(dynamics._lambda2_generator(nodes, None)[:, :, 1], minus_l2)
    for half in (False, True):
        plain = dynamics._solve(field, dynamics._BLOCH, [ErrorSetting()], dynamics._product, half)
        series = dynamics._solve(field, dynamics._BLOCH_LAMBDA2, [None], dynamics._product, half)
        assert np.array_equal(series[0][:, :, 0], plain[0])


@settings(max_examples=10, deadline=None)
@given(smooth_fields(), st.integers(1, 64))
def test_chunked_series_solves_match_whole_ones(field, chunk):
    whole = [series(field, half) for series in (final_p2_lambda2_series, final_p2_beta_series)
             for half in (False, True)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_CHUNK_BYTES", 72 * chunk)
        chunked = [series(field, half) for series in (final_p2_lambda2_series,
                                                      final_p2_beta_series)
                   for half in (False, True)]
    for a, b in zip(whole, chunked):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))


def test_step_tables_stay_within_the_chunk_budget(monkeypatch):
    # tables are recorded where they are formed: the Bloch step tables, and per
    # pure-state chunk the five omega tables (rows) and each beta's step table
    field = make_transitionless(4.0, 5.0, TimeGrid(5001))
    sizes = {"bloch": [], "omega": [], "pure": []}

    def recording(kind, form, rows):
        def formed(*args):
            p = form(*args)
            sizes[kind].extend((t.dtype, t.nbytes) for t in (p if rows else [p]))
            return p
        return formed

    tables, steps, mul, ident = dynamics._BLOCH
    monkeypatch.setattr(dynamics, "_BLOCH", (tables, recording("bloch", steps, False), mul, ident))
    tables, steps, mul, ident = dynamics._PURE
    monkeypatch.setattr(dynamics, "_PURE", (recording("omega", tables, True),
                                            recording("pure", steps, False), mul, ident))
    final_p2_bloch(field, [ErrorSetting(0.1, 0.2)])
    evolve_bloch(field, GROUND_BLOCH)
    final_p2_pure(field, [0.1])
    evolve_propagator(field)
    # 5000 steps: 1024 Bloch or 2304 pure steps a chunk
    assert {dtype for dtype, _ in sizes["bloch"]} == {np.dtype(float)}
    assert {dtype for dtype, _ in sizes["omega"] + sizes["pure"]} == {np.dtype(complex)}
    assert len(sizes["bloch"]) == 2 * 5
    assert len(sizes["omega"]) == 5 * 2 * 3 and len(sizes["pure"]) == 2 * 3
    assert max(nbytes for kind in sizes.values() for _, nbytes in kind) <= dynamics._CHUNK_BYTES


def test_final_p2_of_no_settings_is_empty():
    field = make_flat_pi(0.0, GRID)
    assert final_p2_bloch(field, []).shape == (0,)
    assert final_p2_pure(field, []).shape == (0,)


def test_final_p2_rejects_divergence():
    # h Omega = 5e9: RK4 grows the rotation by ~1e37 per step, short of overflow
    blowup = ControlField.from_functions(TimeGrid(3), lambda t: (1e10 + 0 * t, 0 * t, 0 * t))
    with pytest.raises(ValueError, match="RK4 step unstable"):  # the noise term, before solving
        final_p2_bloch(blowup, [ErrorSetting(lambda2=1.0)])
    with pytest.raises(FloatingPointError):  # the rotation, which the bound does not cover
        final_p2_bloch(blowup, [ErrorSetting()])


def test_final_p2_pure_rejects_a_non_finite_beta():
    with pytest.raises(ValueError, match="beta must be finite"):
        final_p2_pure(make_flat_pi(0.0, GRID), [0.0, math.inf])


def test_pure_state_divergence_past_overflow_is_refused():
    # omega^4 = (1 + 1e200)^4 overflows: the step tables hold inf and NaN, not a P2
    field = make_flat_pi(0.0, GRID)
    with pytest.raises(FloatingPointError, match="pure-state integration diverged"):
        final_p2_pure(field, [0.0, 1e200])
    with pytest.raises(FloatingPointError, match="pure-state integration diverged"):
        evolve_propagator(field, np.float64(1e200))


def test_bloch_setting_memory_is_pinned(flat_field):
    """One warm Bloch setting on 2001 points forms its steps in place: one 1024-step chunk
    holds the two generator tables, K2 .. K4 and the products' temporaries."""
    setting = [ErrorSetting(0.1, 0.2)]
    final_p2_bloch(flat_field, setting)  # stage tables, and numpy's einsum set-up
    tracemalloc.start()
    try:
        final_p2_bloch(flat_field, setting)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 460 * 2**10, peak / 2**10


@pytest.mark.parametrize("final, cases, bound_kib", [
    (final_p2_bloch, [ErrorSetting(0.01 * k, 0.2) for k in range(64)], 1120),
    (final_p2_pure, [0.01 * k for k in range(64)], 1450)], ids=["bloch", "pure"])
def test_many_settings_memory_is_pinned(flat_field, final, cases, bound_kib):
    """64 warm settings on 2001 points are solved 8 at a time: each setting's steps written
    into one block of 8 step tables, and its reduction, never a table of every setting.  The
    pure-state peak is the first level of the block's product tree."""
    final(flat_field, cases)
    tracemalloc.start()
    try:
        final(flat_field, cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_kib * 2**10, peak / 2**10


def _sse_in_batches(field, lambda2, dt, seed, n_traj, batch):
    """Final amplitudes of trajectories 0 .. n_traj-1 integrated ``batch`` at a time, joined."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_SSE_BATCH", batch)
        steps = dynamics._sse_setup(field, lambda2, dt, seed)
        c1, c2 = zip(*dynamics._sse_batches(steps, seed, 0, n_traj))
    return np.concatenate(c1), np.concatenate(c2)


def _increments(seed, index, n_sse, dt):
    """(dW_R, dW_I) of each step of trajectory ``index``, decoded from its stream's bytes.

    Trajectory i reads stream Philox(key=seed, counter=(i // 1024) << 128),
    whose random_raw words, little-endian, hold 1024 bytes per group of four
    steps: byte q * 1024 + i % 1024 is trajectory i's byte of group q.  Bit
    2j of that byte is the sign of dW_R at step 4q+j and bit 2j+1 that of
    dW_I, 1 meaning +sqrt(dt).
    """
    groups = -(-n_sse // 4)
    stream = np.random.Philox(key=seed, counter=(index // 1024) << 128)
    rows = stream.random_raw(128 * groups).astype("<u8").view(np.uint8).reshape(groups, 1024)
    bits = np.unpackbits(rows[:, index % 1024], bitorder="little")
    return math.sqrt(dt) * (2.0 * bits[:2 * n_sse].reshape(n_sse, 2) - 1.0)


@settings(max_examples=15, deadline=None)
@given(sse_fields(), st.floats(0.0, 0.5), st.integers(1, 5), st.integers(0, 2**63))
def test_sse_step_matches_reference_at_every_batch_size(field, lambda2, per, seed):
    n_traj, n_sse = 7, per * (field.grid.n_steps - 1)
    dt = field.grid.h / per
    dw = np.stack([_increments(seed, i, n_sse, dt) for i in range(n_traj)])
    ref = reference_sse_run(field, np.ones(n_traj, dtype=complex), np.zeros(n_traj, dtype=complex),
                            lambda2, dt, dw[:, :, 0].T, dw[:, :, 1].T)
    runs = [_sse_in_batches(field, lambda2, dt, seed, n_traj, batch) for batch in (1, 3, 7)]
    for got, want in zip(runs[0], ref):
        assert np.max(np.abs(got - want)) < 1e-12
    # every step writes a separate buffer, so a batch of one rounds like the rest
    for run in runs[1:]:
        assert all(np.array_equal(got, want) for got, want in zip(run, runs[0]))
    ensembles = []
    with pytest.MonkeyPatch.context() as mp:
        for batch in (1, 3, 7):
            mp.setattr(dynamics, "_SSE_BATCH", batch)
            ensembles.append(monte_carlo_p2(field, lambda2, n_traj, dt, seed))
    assert ensembles[0] == ensembles[1] == ensembles[2]


@pytest.mark.parametrize("n_steps, per", [(91, 3), (11, 3), (101, 4)],
                         ids=["68-groups-tail", "8-groups-tail", "100-groups"])
def test_sse_table_blocks_leave_every_bit(monkeypatch, n_steps, per):
    """The four-step table formed _TABLE_GROUPS groups at a time, one group per block, blocks
    that do not divide the groups, or one block for all, gives the same bits, within rounding
    of the elementwise reference.  n_sse = 270 and 30 end in a group of two steps."""
    field = make_transitionless(2.0, 1.3, TimeGrid(n_steps))
    n_traj, seed, lambda2 = 9, 17, 0.09
    n_sse, dt = per * (n_steps - 1), field.grid.h / per
    finals, ensembles = [], []
    for size in (1, 3, 7, 64, 1000):
        monkeypatch.setattr(dynamics, "_TABLE_GROUPS", size)
        finals.append(_sse_in_batches(field, lambda2, dt, seed, n_traj, 4))
        ensembles.append(monte_carlo_p2(field, lambda2, n_traj, dt, seed))
    for run in finals[1:]:
        assert all(np.array_equal(got, want) for got, want in zip(run, finals[0]))
    assert all(e == ensembles[0] for e in ensembles[1:])
    dw = np.stack([_increments(seed, i, n_sse, dt) for i in range(n_traj)])
    ref = reference_sse_run(field, np.ones(n_traj, dtype=complex), np.zeros(n_traj, dtype=complex),
                            lambda2, dt, dw[:, :, 0].T, dw[:, :, 1].T)
    for got, want in zip(finals[0], ref):
        assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=6, deadline=None)
@given(sse_fields(), st.floats(0.0, 0.5), st.integers(0, 2**63), st.integers(2, 6))
def test_sse_draws_do_not_depend_on_batch(field, lambda2, seed, count):
    # member i's draws are keyed by (seed, i) alone: neither the batch size nor the
    # ensemble size moves them, so the first ``count`` members of 7 are an ensemble of ``count``
    dt = field.grid.h / 2
    full = [_sse_in_batches(field, lambda2, dt, seed, 7, batch) for batch in (1, 3, 7)]
    for batch in (1, 3, 7):
        part = _sse_in_batches(field, lambda2, dt, seed, count, batch)
        for run in full:
            assert all(np.array_equal(got, want[:count]) for got, want in zip(part, run))
    ensembles = []
    with pytest.MonkeyPatch.context() as mp:
        for batch in (1, 3, 7):
            mp.setattr(dynamics, "_SSE_BATCH", batch)
            ensembles.append(monte_carlo_p2(field, lambda2, count, dt, seed))
    assert ensembles[0] == ensembles[1] == ensembles[2]


def test_ensembles_across_a_stream_edge_do_not_depend_on_batch_block_or_parts():
    """1030 trajectories read streams 0 and 1.  Batches and table blocks of any size, batches
    that start inside a stream included, give the same bits; the members on both sides of
    the edge follow the reference on their decoded increments, and the first ``count``
    members of the ensemble are an ensemble of ``count``.  3078 trajectories, four streams,
    run as 1, 2, 3 or 5 ranges (the part rule forced past its caps, five being more ranges
    than streams) give the same mean and standard error bit for bit."""
    field = make_transitionless(2.0, 1.3, TimeGrid(11))
    n_traj, seed, lambda2 = 1030, 5, 0.09
    n_sse, dt = 30, field.grid.h / 3  # 8 groups, the last of two steps
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for size in (1, 7, 64):
            mp.setattr(dynamics, "_TABLE_GROUPS", size)
            runs.extend(_sse_in_batches(field, lambda2, dt, seed, n_traj, batch)
                        for batch in (1, 3, 1023, 1024, 1025, 10240))
    for run in runs[1:]:
        assert all(np.array_equal(got, want) for got, want in zip(run, runs[0]))
    members = [0, 1023, 1024, 1029]
    dw = np.stack([_increments(seed, i, n_sse, dt) for i in members])
    ref = reference_sse_run(field, np.ones(len(members), dtype=complex),
                            np.zeros(len(members), dtype=complex), lambda2, dt,
                            dw[:, :, 0].T, dw[:, :, 1].T)
    for got, want in zip(runs[0], ref):
        assert np.max(np.abs(got[members] - want)) < 1e-12
    for count in (1, 1024, 1025):
        part = _sse_in_batches(field, lambda2, dt, seed, count, dynamics._SSE_BATCH)
        assert all(np.array_equal(got, want[:count]) for got, want in zip(part, runs[0]))
    ensembles, ranges, real = [], [], dynamics._range_p2

    def recorded(steps, seed, lo, hi):  # a worker's record stays in the worker
        ranges.append((lo, hi))
        return real(steps, seed, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_range_p2", recorded)
        for parts in (1, 2, 3, 5):
            mp.setattr(dynamics, "_part_count", lambda *_: parts)
            ensembles.append(monte_carlo_p2(field, lambda2, 3078, dt, seed))
    assert len({(e.p2_mean.hex(), e.p2_stderr.hex()) for e in ensembles}) == 1
    assert ranges == [(0, 3078), (0, 2048), (0, 1024), (0, 1024)]  # cut on stream edges
