"""Time evolution engines: Schrodinger, Bloch master equation, Ito SSE.

Deterministic engines take classical fourth-order Runge-Kutta steps on
the field's fixed grid, with the channels read at the grid nodes and step
midpoints through their closed forms or splines.  The Bloch equation
integrated here is

    dr/dt = (L0 + beta L1 - lambda^2 L2) r,

    L0 = [[0, D, WI], [-D, 0, -WR], [-WI, WR, 0]],
    L1 = L0 with D = 0,
    L2 = 1/2 diag(WI^2, WR^2, WR^2 + WI^2),

with the systematic error scaling both Rabi components by (1 + beta)
and amplitude noise of strength lambda^2 entering as the diagonal
damping L2.  The pure-state engine integrates i dpsi/dt = (H0 + beta H1) psi
with H1 = H0 at zero detuning.

Both equations are linear, y' = A(t) y, so one RK4 step is exactly a
matrix polynomial in the node, midpoint and next-node generators:

    P_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4),

and y(t_k) = P_k-1 ... P_0 y(0).  One propagator kernel forms the P_i
with numpy, a chunk of steps at a time: a real 3x3 matrix for the Bloch
equation, and for the pure state the pair (a, b) of the SU(2)-form matrix
[[a, b], [-b*, a*]], a set the RK4 polynomial never leaves.  Within a
chunk, trajectories come from a log-depth prefix product of the steps,
final states from a product reduction over the same tree; chunks are
chained in time order, so a final state is bit-identical either way.
Callers that need only P2(T) pass many error settings at once; they are
evaluated in small batches that share the field's stage tables.  Columns
of the propagated pure-state matrix evolve the ground and excited states
together.

The stochastic engine is a plain Euler-Maruyama discretization of the
Ito stochastic Schrodinger equation

    dpsi = -i H0 dt psi - (lambda^2/2) H2^2 dt psi - i lambda H2 dW psi,

with two independent Wiener increments driving the real and imaginary
Rabi channels.  Each step is again a matrix [[a_k, b_k], [-b_k*, a_k*]]:

    a_k = 1 + dt (i d_k / 2 - lambda^2 |Omega_k|^2 / 8),
    b_k = -1/2 w_I (dt + lambda dW_I) - i/2 w_R (dt + lambda dW_R).

a_k holds the detuning and the Ito correction; it is the same for every
trajectory and formed once for all steps.  Only b_k reads a trajectory's
increments, and it is formed a block of steps at a time straight from
the draws.  No normalization is enforced during evolution; final
probabilities divide by the squared norm to absorb the O(dt) drift.
Each trajectory draws its increments from a counter-based Philox
stream keyed by (seed, trajectory index), so ensembles are
order-independent and bit-reproducible under any batching; a single
trajectory is a batch of one and equals its ensemble member bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (GROUND_BLOCH, GROUND_PURE, BlochState, ControlField, PureState, TimeGrid,
                   write_csv)

_MAX_SEED = 2**64
# Trajectories per monte_carlo_p2 batch.  Their draws, 16 B per step each
# (65 MB at 4000 steps), are the only batch-by-steps buffer: the integration
# reads them in place, beside a few amplitude vectors and the b_k of one
# block of _SSE_BLOCK steps.
_SSE_BATCH = 1024
_SSE_BLOCK = 32  # steps per block of b_k; 16-64 measured alike, 128 slower


@dataclass(frozen=True)
class ErrorSetting:
    """Systematic amplitude error beta and noise intensity lambda^2 (units T)."""

    beta: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not (math.isfinite(self.lambda2) and self.lambda2 >= 0.0):
            raise ValueError(f"lambda2 must be finite and >= 0, got {self.lambda2}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States aligned with the grid: (n, 3) float for Bloch, (n, 2) complex for pure."""

    grid: TimeGrid
    states: np.ndarray
    kind: str  # "bloch" | "pure"

    def p2(self) -> np.ndarray:
        """Excitation probability along the trajectory."""
        if self.kind == "bloch":
            return 0.5 * (1.0 - self.states[:, 2])
        return _pure_p2(self.states[:, 0], self.states[:, 1])

    def final_p2(self) -> float:
        return float(self.p2()[-1])

    def final(self):
        if self.kind == "bloch":
            return BlochState(*map(float, self.states[-1]))
        return PureState(complex(self.states[-1, 0]), complex(self.states[-1, 1]))

    def norms(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.states) ** 2, axis=1))

    def to_csv(self, path) -> None:
        ts = self.grid.times
        if self.kind == "bloch":
            write_csv(path, "t,r1,r2,r3", [ts, self.states[:, 0], self.states[:, 1], self.states[:, 2]])
        else:
            write_csv(path, "t,re_c1,im_c1,re_c2,im_c2",
                      [ts, self.states[:, 0].real, self.states[:, 0].imag,
                       self.states[:, 1].real, self.states[:, 1].imag])


@dataclass(frozen=True)
class EnsembleResult:
    p2_mean: float
    p2_stderr: float
    n_traj: int
    seed: int
    dt: float

    def __post_init__(self):
        if not (0.0 <= self.p2_mean <= 1.0):
            raise ValueError(f"p2_mean out of [0, 1]: {self.p2_mean}")
        if self.p2_stderr < 0.0:
            raise ValueError(f"p2_stderr must be >= 0, got {self.p2_stderr}")


# The time axis is processed in chunks of _CHUNK_STEPS steps: each chunk's
# step propagators are formed, reduced and chained onto the previous chunks
# before the next is formed, so the kernel's arrays stay small whatever the
# grid.  Settings are batched until one chunk's step table reaches
# _BATCH_BYTES (1 Bloch or 3 pure settings).  Both sizes keep every temporary
# under the C allocator's default 128 KiB mmap threshold, so it is served
# from the heap: a full-grid table (144 KiB for one Bloch setting) is mapped
# afresh for each call, and its page faults cost more than the algebra and
# vary with the allocator's history.  Chunk boundaries never depend on the
# batch, so results do not either.
_CHUNK_STEPS = 1024
_BATCH_BYTES = 3 * 2**15


def _bloch_generator(w, settings) -> np.ndarray:
    """L0 + beta L1 - lambda^2 L2 at channel samples w, shape (3, 3, settings, points)."""
    wr, wi, d = w
    om = np.array([[1.0 + s.beta] for s in settings])
    l2 = np.array([[s.lambda2] for s in settings])
    g = np.empty((3, 3, len(settings), wr.size))
    g[0, 0] = -0.5 * l2 * wi * wi
    g[0, 1] = d
    g[0, 2] = om * wi
    g[1, 0] = -d
    g[1, 1] = -0.5 * l2 * wr * wr
    g[1, 2] = -om * wr
    g[2, 0] = -om * wi
    g[2, 1] = om * wr
    g[2, 2] = -0.5 * l2 * (wr * wr + wi * wi)
    return g


def _bloch_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """3x3 matrix product, batched over the trailing axes."""
    return np.einsum("ik...,kj...->ij...", x, y)


def _pure_generator(w, betas) -> np.ndarray:
    """-i (H0 + beta H1) at channel samples w as the pair (a, b), shape (2, betas, points)."""
    wr, wi, d = w
    om = 1.0 + np.asarray(betas, dtype=float)[:, None]
    g = np.empty((2, om.shape[0], wr.size), dtype=complex)
    g[0] = 0.5j * d
    g[1] = -0.5 * om * (wi + 1j * wr)
    return g


def _pair_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of matrices [[a, b], [-b*, a*]] stored as their first rows (a, b)."""
    a, b = x
    c, d = y
    return np.stack((a * c - b * d.conj(), a * d + b * c.conj()))


# engine -> (generator, product, identity); the identity broadcasts over (batch, steps)
_BLOCH = (_bloch_generator, _bloch_mul, np.eye(3)[:, :, None, None])
_PURE = (_pure_generator, _pair_mul, np.array([1.0, 0.0], dtype=complex)[:, None, None])


def _step_propagators(field: ControlField, engine, params, lo: int, hi: int) -> np.ndarray:
    """Classical RK4 steps lo .. hi-1 as matrices, P = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

    For a linear ODE y' = A(t) y one RK4 step is y -> P y with
    K1 = A_n, K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2),
    K4 = A_n+1 (I + h K3), A at the node, midpoint and next node.
    Shape: engine components, then (len(params), hi - lo).
    """
    generator, mul, ident = engine
    nodes, mids = field.stage_tables
    h = field.grid.h
    g = generator([w[lo:hi + 1] for w in nodes], params)
    a_n, a_next = g[..., :-1], g[..., 1:]
    a_m = generator([w[lo:hi] for w in mids], params)
    k2 = a_m + 0.5 * h * mul(a_m, a_n)
    k3 = a_m + 0.5 * h * mul(a_m, k2)
    k4 = a_next + h * mul(a_next, k3)
    return ident + h / 6.0 * (a_n + 2.0 * (k2 + k3) + k4)


def _chunks(field: ControlField):
    n = field.grid.n_steps - 1
    return [(lo, min(lo + _CHUNK_STEPS, n)) for lo in range(0, n, _CHUNK_STEPS)]


def _scan(mul, p: np.ndarray) -> np.ndarray:
    """Prefix products S_i = P_i ... P_0 along the last axis, in log depth.

    Pairs Q_j = P_2j+1 P_2j are scanned recursively; then S_2j+1 = Q_j ... Q_0
    and S_2j = P_2j S_2j-1 (Blelloch 1990).  The last prefix is formed by the
    same tree as ``_product``, so both give it bit for bit.
    """
    n = p.shape[-1]
    if n == 1:
        return p
    r = _scan(mul, mul(p[..., 1::2], p[..., 0:n - 1:2]))
    s = np.empty_like(p)
    s[..., 0] = p[..., 0]
    s[..., 1::2] = r
    s[..., 2::2] = mul(p[..., 2::2], r[..., :(n - 1) // 2])
    return s


def _product(mul, p: np.ndarray) -> np.ndarray:
    """Ordered product P_n-1 ... P_0 along the last axis (kept, with length 1)."""
    n = p.shape[-1]
    if n == 1:
        return p
    total = _product(mul, mul(p[..., 1::2], p[..., 0:n - 1:2]))
    return mul(p[..., n - 1:], total) if n % 2 else total


def _apply_bloch(m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bloch vectors M r, components first."""
    return m[:, 0] * r[0] + m[:, 1] * r[1] + m[:, 2] * r[2]


def _apply_pair(u: np.ndarray, c1: complex, c2: complex) -> np.ndarray:
    """Amplitudes U (c1, c2) for U = [[a, b], [-b*, a*]], components first."""
    a, b = u
    return np.stack((a * c1 + b * c2, a.conj() * c2 - b.conj() * c1))


def _pure_p2(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    return np.abs(c2) ** 2 / (np.abs(c1) ** 2 + np.abs(c2) ** 2)


def _require_bounded(states: np.ndarray, what: str) -> None:
    # an unstable step grows the components long before they overflow; NaN and inf fail too
    if not np.all(np.abs(states) <= 1.0 + 1e-6):
        raise RuntimeError(f"{what} integration diverged (a component exceeds 1 in modulus)")


def _prefixes(field: ControlField, engine, params):
    """Yield (lo, hi, S) with S the prefix products P_i ... P_0 for steps i = lo .. hi-1.

    Each chunk is scanned on its own and then multiplied onto the last
    prefix of the previous chunk.  A chunk's last scanned prefix is its
    ``_product``, so the last prefix of the grid equals ``_final`` bit for bit.
    """
    mul = engine[1]
    last = None
    for lo, hi in _chunks(field):
        s = _scan(mul, _step_propagators(field, engine, params, lo, hi))
        if last is not None:
            s = mul(s, last)
        last = s[..., -1:]
        yield lo, hi, s


def _final(field: ControlField, engine, params) -> np.ndarray:
    """End-to-end propagator P_n-1 ... P_0 of each setting, shape (components, len(params))."""
    mul, ident = engine[1:]
    per = max(1, _BATCH_BYTES // (ident.nbytes * _CHUNK_STEPS))
    out = []
    for b in range(0, len(params), per):
        total = None
        for lo, hi in _chunks(field):
            p = _product(mul, _step_propagators(field, engine, params[b:b + per], lo, hi))
            total = p if total is None else mul(p, total)
        out.append(total[..., 0])
    return np.concatenate(out, axis=-1)


def evolve_pure(field: ControlField, psi0: PureState, beta: float = 0.0) -> Trajectory:
    """Integrate i dpsi/dt = (H0 + beta H1) psi from a normalized psi0.

    H1 scales the off-diagonal (Rabi) part only; the detuning is error-free.
    Norm is conserved to integrator accuracy (< 1e-9 on default grids).
    """
    psi0.check_normalized()
    u = evolve_propagator(field, beta)
    return Trajectory(field.grid, _apply_pair(u.T, complex(psi0.c1), complex(psi0.c2)).T, "pure")


def evolve_propagator(field: ControlField, beta: float = 0.0) -> np.ndarray:
    """Propagator U(t_i) = [[a, b], [-b*, a*]] of H0 + beta H1 on the grid, as (n, 2) rows (a, b).

    Column 1 of U(t) evolves the ground state, column 2 the excited state.
    """
    u = np.empty((field.grid.n_steps, 2), dtype=complex)
    u[0] = (1.0, 0.0)
    for lo, hi, s in _prefixes(field, _PURE, [beta]):
        u[lo + 1:hi + 1] = s[:, 0].T
    _require_bounded(u, "pure-state")
    return u


def evolve_bloch(field: ControlField, r0: BlochState, setting: ErrorSetting = ErrorSetting()) -> Trajectory:
    """Integrate dr/dt = (L0 + beta L1 - lambda^2 L2) r."""
    r = r0.as_array()
    out = np.empty((field.grid.n_steps, 3))
    out[0] = r
    for lo, hi, s in _prefixes(field, _BLOCH, [setting]):
        out[lo + 1:hi + 1] = _apply_bloch(s[:, :, 0], r).T
    _require_bounded(out, "Bloch")
    return Trajectory(field.grid, out, "bloch")


def final_p2_bloch(field: ControlField, settings) -> np.ndarray:
    """P2(T) of the Bloch equation from the ground state, one value per error setting."""
    r = _apply_bloch(_final(field, _BLOCH, list(settings)), GROUND_BLOCH.as_array())
    _require_bounded(r, "Bloch")
    return 0.5 * (1.0 - r[2])


def final_p2_pure(field: ControlField, betas) -> np.ndarray:
    """P2(T) of the Schrodinger equation from the ground state, one value per beta."""
    c = _apply_pair(_final(field, _PURE, list(betas)), 1.0 + 0.0j, 0.0j)
    _require_bounded(c, "pure-state")
    return _pure_p2(c[0], c[1])


def trajectory_rng(seed: int, traj_index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory, keyed by (seed, index)."""
    for name, value in (("seed", seed), ("traj_index", traj_index)):
        if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                or not 0 <= value < _MAX_SEED):
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    key = np.array([seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sse_run(field: ControlField, c1, c2, lambda2: float, dt: float,
             dw_r, dw_i, record_every: int = 0):
    """Euler-Maruyama core, vectorized over a batch of trajectories.

    ``c1, c2``: complex arrays (batch,), not modified.  ``dw_r, dw_i``:
    increments of shape (n_sse_steps, batch), any strides.  Step k maps
    (c1, c2) by [[a_k, b_k], [-b_k*, a_k*]] with

        a_k = 1 + dt (i d_k / 2 - lambda^2 |Omega_k|^2 / 8),
        b_k = -1/2 w_I (dt + lambda dW_I) - i/2 w_R (dt + lambda dW_R),

    a_k shared by the batch and formed once, b_k a block of steps at a
    time.  Every operation is elementwise and writes a separate buffer
    (numpy rounds an in-place complex multiply of length 1 differently),
    so a batch of one reproduces ensemble members bit for bit.  Returns the
    final amplitudes and, if record_every > 0, the states at every
    record_every-th step.
    """
    n_sse, count = dw_r.shape
    lam = math.sqrt(lambda2)
    tk = np.arange(n_sse) * dt  # Ito: channels at left endpoints
    wr, wi, dl = field.values(tk)
    a = 1.0 + dt * (0.5j * dl - 0.125 * lambda2 * (wr * wr + wi * wi))  # H2^2 Ito correction
    ac = a.conj()
    hr, hi = (-0.5 * wr)[:, None], (-0.5 * wi)[:, None]
    rows = min(_SSE_BLOCK, n_sse)
    b, bc = np.empty((2, rows, count), dtype=complex)
    s = np.empty((rows, count))
    c1, c2 = np.array(c1, dtype=complex), np.array(c2, dtype=complex)
    n1, n2, t = np.empty((3, count), dtype=complex)
    recorded = None
    if record_every:
        recorded = np.empty((n_sse // record_every + 1, count, 2), dtype=complex)
        recorded[0, :, 0] = c1
        recorded[0, :, 1] = c2
    for k0 in range(0, n_sse, rows):
        k1 = min(k0 + rows, n_sse)
        m = k1 - k0
        for dw, h, part in ((dw_i, hi, b.real), (dw_r, hr, b.imag)):
            np.multiply(dw[k0:k1], lam, out=s[:m])
            s[:m] += dt
            np.multiply(s[:m], h[k0:k1], out=part[:m])
        np.conjugate(b[:m], out=bc[:m])
        for j in range(m):
            k = k0 + j
            np.multiply(c1, a[k], out=n1)
            np.multiply(b[j], c2, out=t)
            n1 += t
            np.multiply(c2, ac[k], out=n2)
            np.multiply(bc[j], c1, out=t)
            n2 -= t
            c1, n1, c2, n2 = n1, c1, n2, c2
            if record_every and (k + 1) % record_every == 0:
                recorded[(k + 1) // record_every, :, 0] = c1
                recorded[(k + 1) // record_every, :, 1] = c2
    return c1, c2, recorded


def _sse_trajectories(field: ControlField, psi0: PureState, lambda2: float, dt: float,
                      seed: int, first: int, count: int, record: bool = False):
    """``_sse_run`` on trajectories first .. first+count-1 from psi0; i draws from stream (seed, i).

    dt must divide the grid spacing.  Draws fill a contiguous (count, steps, 2)
    block, and ``_sse_run`` reads each channel from it as a strided view.
    """
    ErrorSetting(lambda2=lambda2)  # rejects a negative or non-finite lambda2
    psi0.check_normalized()
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    grid = field.grid
    ratio = grid.h / dt
    per = int(round(ratio))
    if per < 1 or abs(ratio - per) > 1e-9 * ratio:
        raise ValueError(f"dt={dt} does not divide the grid spacing {grid.h}")
    n_sse = per * (grid.n_steps - 1)
    stiffness = lambda2 * float(np.max(field.omega_r ** 2 + field.omega_i ** 2)) * dt
    if stiffness >= 1.0:
        raise ValueError(f"Euler-Maruyama step unstable: lambda2 * max|Omega|^2 * dt = "
                         f"{stiffness:.3g} >= 1; take a smaller dt")
    dw = np.empty((count, n_sse, 2))
    for j in range(count):
        dw[j] = trajectory_rng(seed, first + j).normal(0.0, math.sqrt(dt), size=(n_sse, 2))
    return _sse_run(field, np.full(count, complex(psi0.c1)), np.full(count, complex(psi0.c2)),
                    lambda2, dt, dw[:, :, 0].T, dw[:, :, 1].T,
                    record_every=per if record else 0)


def evolve_sse(field: ControlField, psi0: PureState, lambda2: float, dt: float,
               seed: int, traj_index: int = 0) -> Trajectory:
    """One Ito Euler-Maruyama realization; states recorded at the grid nodes.

    From the ground state it is member ``traj_index`` of ``monte_carlo_p2``'s
    ensemble for the same seed.  It is left unnormalized, as the scheme produces it.
    """
    rec = _sse_trajectories(field, psi0, lambda2, dt, seed, traj_index, 1, record=True)[2]
    return Trajectory(field.grid, rec[:, 0, :], "pure")


def monte_carlo_p2(field: ControlField, lambda2: float, n_traj: int, dt: float,
                   seed: int) -> EnsembleResult:
    """Mean and standard error of P2(T) over independent SSE trajectories from the ground state.

    Deterministic given the seed: trajectory i always consumes stream
    (seed, i) and the reduction runs in index order.
    """
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    p2 = np.concatenate([
        _pure_p2(*_sse_trajectories(field, GROUND_PURE, lambda2, dt, seed, lo,
                                    min(_SSE_BATCH, n_traj - lo))[:2])
        for lo in range(0, n_traj, _SSE_BATCH)])
    stderr = float(np.std(p2, ddof=1) / math.sqrt(n_traj))
    return EnsembleResult(float(np.mean(p2)), stderr, n_traj, seed, dt)
