"""Properties of the RK4 propagator kernel on random smooth fields.

The scalar loops in rk4_reference.py are the oracle: the kernel forms
the same classical RK4 steps as matrices, so the two agree to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (GROUND_BLOCH, GROUND_PURE, BlochState, ControlField, ErrorSetting,
                    PureState, TimeGrid, dynamics, evolve_bloch, evolve_propagator,
                    evolve_pure, final_p2_bloch, final_p2_pure)
from rk4_reference import reference_bloch, reference_pure

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


@settings(max_examples=25, deadline=None)
@given(smooth_fields(), betas, lambda2s)
def test_bloch_matches_scalar_reference(field, beta, lambda2):
    r0 = (0.6, 0.0, 0.8)
    traj = evolve_bloch(field, BlochState(*r0), ErrorSetting(beta, lambda2))
    ref = reference_bloch(field, r0, beta, lambda2)
    assert np.max(np.abs(traj.states - ref)) < 1e-12


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
