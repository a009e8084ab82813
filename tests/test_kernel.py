"""Properties of the RK4 propagator kernel and the SSE step on random fields.

The scalar loops in rk4_reference.py are the oracle for the RK4 kernel:
it forms the same classical RK4 steps as matrices, so the two agree to
rounding.  The elementwise loop in sse_reference.py is the oracle for the
Euler-Maruyama step in the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (GROUND_BLOCH, GROUND_PURE, BlochState, ControlField, ErrorSetting,
                    PureState, TimeGrid, dynamics, evolve_bloch, evolve_propagator,
                    evolve_pure, final_p2_bloch, final_p2_pure, make_flat_pi,
                    make_transitionless, monte_carlo_p2)
from invlab.dynamics import trajectory_rng
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
    return ControlField.from_functions(GRID, channel(), channel(), channel(), label="random")


@st.composite
def pure_states(draw):
    """Normalized (c1, c2); the ground state when the drawn vector is near zero."""
    x = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    norm = float(np.linalg.norm(x))
    if norm < 1e-3:
        return GROUND_PURE
    x /= norm
    return PureState(complex(x[0], x[1]), complex(x[2], x[3]))


@st.composite
def bloch_states(draw):
    """Unit Bloch vectors; the ground state when the drawn vector is near zero."""
    x = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    norm = float(np.linalg.norm(x))
    return GROUND_BLOCH if norm < 1e-3 else BlochState(*(x / norm))


@st.composite
def sse_fields(draw):
    """A flat pi pulse of random phase or a transitionless sweep of random (omega0, delta0)."""
    if draw(st.booleans()):
        return make_flat_pi(draw(st.floats(-math.pi, math.pi)), GRID)
    return make_transitionless(draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0)), GRID)


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, lambda2s)
def test_bloch_matches_scalar_reference(field, beta, lambda2):
    r0 = (0.6, 0.0, 0.8)
    traj = evolve_bloch(field, BlochState(*r0), ErrorSetting(beta, lambda2))
    ref = reference_bloch(field, r0, beta, lambda2)
    assert np.max(np.abs(traj.states - ref)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, st.floats(0.0, 1.0, exclude_min=True), bloch_states())
def test_bloch_contracts_under_noise(field, beta, lambda2, r0):
    # d|r|^2/dt = -lambda^2 (WI^2 r1^2 + WR^2 r2^2 + (WR^2 + WI^2) r3^2) <= 0
    traj = evolve_bloch(field, r0, ErrorSetting(beta, lambda2))
    assert np.all(np.diff(np.linalg.norm(traj.states, axis=1)) <= 1e-9)
    p2 = traj.p2()
    assert np.all((p2 >= 0.0) & (p2 <= 1.0))


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, pure_states())
def test_pure_matches_reference_keeps_norm_and_p2_range(field, beta, psi0):
    traj = evolve_pure(field, psi0, beta=beta)
    assert np.max(np.abs(traj.states - reference_pure(field, psi0.c1, psi0.c2, beta))) < 1e-12
    # RK4 is unitary only to its truncation error, which reaches ~1.4e-7 here
    # (201 points, channels up to 12, beta = 1); rounding adds nothing visible.
    assert np.max(np.abs(traj.norms() - 1.0)) < 1e-6
    p2 = traj.p2()
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


@settings(max_examples=15, deadline=None)
@given(smooth_fields(), st.lists(st.tuples(betas, lambda2s), min_size=1, max_size=7))
def test_batched_final_p2_equals_single_solves(field, pairs):
    cases = [ErrorSetting(b, l2) for b, l2 in pairs]
    bloch = final_p2_bloch(field, cases)
    pure = final_p2_pure(field, [b for b, _ in pairs])
    for k, s in enumerate(cases):
        assert bloch[k] == evolve_bloch(field, GROUND_BLOCH, s).final_p2()
        assert pure[k] == evolve_pure(field, GROUND_PURE, beta=s.beta).final_p2()
    assert np.all((pure >= 0.0) & (pure <= 1.0))


def test_batch_size_does_not_change_results(monkeypatch, transitionless_example):
    cases = [ErrorSetting(b, l2) for b in (-0.4, 0.0, 0.3) for l2 in (0.0, 0.1, 0.5)]
    bloch = final_p2_bloch(transitionless_example, cases)
    pure = final_p2_pure(transitionless_example, [s.beta for s in cases])
    monkeypatch.setattr(dynamics, "_BATCH_BYTES", 2**30)  # every setting in one batch
    assert np.array_equal(final_p2_bloch(transitionless_example, cases), bloch)
    assert np.array_equal(final_p2_pure(transitionless_example, [s.beta for s in cases]), pure)


@settings(max_examples=10, deadline=None)
@given(smooth_fields(), betas, lambda2s, st.integers(1, 64))
def test_chunked_kernel_matches_reference_and_its_own_finals(field, beta, lambda2, chunk):
    # GRID has 200 steps, one chunk at the default size; small chunks
    # exercise the chaining, including a partial last chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_CHUNK_STEPS", chunk)
        setting = ErrorSetting(beta, lambda2)
        traj = evolve_bloch(field, GROUND_BLOCH, setting)
        ref = reference_bloch(field, GROUND_BLOCH.as_array(), beta, lambda2)
        assert np.max(np.abs(traj.states - ref)) < 1e-12
        u = evolve_propagator(field, beta)
        assert np.max(np.abs(u[:, 0] - reference_pure(field, 1.0, 0.0, beta)[:, 0])) < 1e-12
        assert final_p2_bloch(field, [setting])[0] == traj.final_p2()
        pure = evolve_pure(field, GROUND_PURE, beta=beta)
        assert final_p2_pure(field, [beta])[0] == pure.final_p2()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_final_p2_rejects_divergence():
    blowup = ControlField.from_functions(TimeGrid(3), lambda t: 1e300 + 0 * t,
                                         lambda t: 0 * t, lambda t: 0 * t)
    with pytest.raises(RuntimeError):
        final_p2_bloch(blowup, [ErrorSetting(lambda2=1.0)])


def _sse_in_batches(field, psi0, lambda2, dt, seed, n_traj, batch, record):
    """Trajectories 0 .. n_traj-1 drawn and integrated ``batch`` at a time, joined."""
    runs = [dynamics._sse_trajectories(field, psi0, lambda2, dt, seed, lo,
                                       min(batch, n_traj - lo), record)
            for lo in range(0, n_traj, batch)]
    c1, c2, recorded = zip(*runs)
    return (np.concatenate(c1), np.concatenate(c2),
            np.concatenate(recorded, axis=1) if record else None)


@settings(max_examples=12, deadline=None)
@given(sse_fields(), st.floats(0.0, 0.5), st.integers(1, 4),
       pure_states().filter(lambda p: abs(p.c2) > 0.0), st.booleans(),
       st.integers(0, 2**63))
def test_sse_step_matches_reference_at_every_batch_size(field, lambda2, per, psi0, record, seed):
    n_traj, n_sse = 7, per * (GRID.n_steps - 1)
    dt = GRID.h / per
    dw = np.stack([trajectory_rng(seed, i).normal(0.0, math.sqrt(dt), size=(n_sse, 2))
                   for i in range(n_traj)])
    ref = reference_sse_run(field, np.full(n_traj, complex(psi0.c1)),
                            np.full(n_traj, complex(psi0.c2)), lambda2, dt,
                            dw[:, :, 0].T, dw[:, :, 1].T, per if record else 0)
    runs = [_sse_in_batches(field, psi0, lambda2, dt, seed, n_traj, batch, record)
            for batch in (1, 3, 7)]
    keep = 3 if record else 2  # final c1, c2 and the recorded states, if any
    for got, want in zip(runs[0][:keep], ref[:keep]):
        assert np.max(np.abs(got - want)) < 1e-12
    # every step writes a separate buffer, so a batch of one rounds like the rest
    for run in runs[1:]:
        assert all(np.array_equal(got, want) for got, want in zip(run[:keep], runs[0][:keep]))
    ensembles = []
    with pytest.MonkeyPatch.context() as mp:
        for batch in (1, 3, 7):
            mp.setattr(dynamics, "_SSE_BATCH", batch)
            ensembles.append(monte_carlo_p2(field, lambda2, n_traj, dt, seed))
    assert ensembles[0] == ensembles[1] == ensembles[2]
