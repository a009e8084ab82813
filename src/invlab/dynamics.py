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
[[a, b], [-b*, a*]], a set the RK4 polynomial never leaves.  One step
builder, ``_rk4_step``, forms both Bloch step tables, plain and series, from
the one generator ``_bloch_generator``, each stage in place in its own
buffer.  The pure-state generator is the pair (i d/2, omega w)
with omega = 1 + beta, so a pair step is
P = (p0 + omega^2 p2 + omega^4 p4, omega (q1 + omega^2 q3)): its five
tables are formed once per chunk from elementwise products of the
channels, and each beta's steps are their Horner evaluation.  Within a
chunk, trajectories come from a log-depth prefix product of the steps,
final states from a product reduction over the same tree; chunks are
chained in time order, so a final state is bit-identical either way.
Callers that need only P2(T) pass a list of error settings, solved chunk by
chunk on the field's shared stage tables.  Columns of the propagated
pure-state matrix evolve the ground and excited states together.

The sensitivities' derivatives of P2(T) are taken through the same steps,
each carried as a truncated power series: the Bloch step as P0 + lambda^2 P1
at beta = 0, formed by the same ``_rk4_step`` from the generator series
(L0, -L2) under the series product, -L2 written by the ``_damping`` that
writes the plain generator's damping, and the pair step re-expanded from its
omega tables to second order in beta.  Series multiply by the truncated
Cauchy product, so one solve gives the exact derivatives of the discrete
solution (Taylor mode; Griewank & Walther, Evaluating Derivatives, 2008,
ch. 13).  A half-resolution solve, for a Richardson estimate, reads the
grid's own nodes: the even nodes as nodes and the odd ones as midpoints, at
step 2h.

The stochastic engine is the simplified weak Euler scheme (Kloeden &
Platen 1992, ch. 14.1) for the Ito stochastic Schrodinger equation

    dpsi = -i H0 dt psi - (lambda^2/2) H2^2 dt psi - i lambda H2 dW psi,

with two independent Wiener increments driving the real and imaginary
Rabi channels.  Each increment is a two-point variable dW = +-sqrt(dt),
which keeps weak order 1: ensemble means converge as dt, single
realizations do not follow a Brownian path, so the engine gives ensemble
means alone (``monte_carlo_p2``).  Each step is again a matrix
[[a_k, b_k], [-b_k*, a_k*]]:

    a_k = 1 + dt (i d_k / 2 - lambda^2 |Omega_k|^2 / 8),
    b_k = -1/2 w_I (dt + lambda dW_I) - i/2 w_R (dt + lambda dW_R).

a_k holds the detuning and the Ito correction; b_k takes one of four
values per step.  So four steps take one of 256 values: the pairs of
each step under its four sign patterns are formed once per ensemble, and
the products of each group of four steps are tabulated as 256 rows (a, b)
a block of groups at a time, just before those groups run.  One byte of
signs picks the row of a trajectory's four-step propagator, one gather per
group for a whole batch.  No normalization is enforced during
evolution; final probabilities divide by the squared norm to absorb the
O(dt) drift.

Seed contract: trajectory i of seed s belongs to stream k = i // 1024,
Philox(key=s, counter=k << 128), whose random_raw words are read as
little-endian bytes laid out group-major: byte q * 1024 + i % 1024
drives steps 4q .. 4q+3 of trajectory i.  Its bit 2j is the sign of dW_R
at step 4q+j and bit 2j+1 that of dW_I, a 1 bit meaning +sqrt(dt).  A
trajectory's signs depend on (s, i) alone, so ensembles are
order-independent and bit-reproducible under any batching.  A batch keeps
one Philox object per stream it touches and reads the rows of each block
of groups from them just before that block runs, so no sign array spans
the steps.  Every step writes a separate buffer, so a batch of one rounds
like the rest.  The ensemble runs on the calling thread.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import GROUND_BLOCH, ControlField, TimeGrid, csv_text, write_text

_MAX_SEED = 2**64
# Trajectories per Philox stream under the seed contract: the width of a stream's
# group-major rows.  Part of the contract, so every ensemble's draws depend on it.
_STREAM_WIDTH = 1024
# Trajectories per monte_carlo_p2 batch, ten streams: the CLI's default ensemble is
# one batch, and no two batches of an ensemble draw from the same stream.  The step
# pairs, 512 KiB at 4000 steps, are formed once per ensemble; each batch forms the
# four-step table again, a block of groups at a time (8-10 ms a batch at 4000 steps).
# Each group costs a fixed number of numpy calls, so larger batches spread that cost.
_SSE_BATCH = 10 * _STREAM_WIDTH
# Groups of four steps whose table and signs _sse_run forms at a time: one
# (64, 256, 2) table block of 512 KiB and one (64, batch) sign block, both reused by
# every block of the batch.  On a 10^4-trajectory ensemble at 4000 steps, blocks of
# 16 groups ran about 10% slower, and 64 ran no slower than one block of all 1000.
_TABLE_GROUPS = 64


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
    """Bloch vectors aligned with the grid, shape (n, 3)."""

    grid: TimeGrid
    states: np.ndarray

    def p2(self) -> np.ndarray:
        """Excitation probability along the trajectory."""
        return 0.5 * (1.0 - self.states[:, 2])

    def final_p2(self) -> float:
        return float(self.p2()[-1])

    def csv_columns(self) -> tuple[str, list]:
        """The CSV header and its columns: t, then r1..r3."""
        return "t,r1,r2,r3", [self.grid.times, *self.states.T]

    def to_csv(self, path) -> None:
        write_text(path, csv_text(*self.csv_columns()))


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


# A solve forms, reduces and chains its steps _CHUNK_BYTES // identity.nbytes
# at a time: 1024 Bloch or 2304 pure-state steps, a 72 KiB step table (a pure-state
# chunk also keeps its five omega tables, 36 KiB each; a series solve takes as many
# steps, in a table two or three times larger, which ran faster than smaller chunks).  Measured on 2001 points:
# whole-grid tables (144 KiB a Bloch solve) page-faulted on every call and ran the
# entry points 15-20% slower; 1024 pure-state steps a chunk ran final_p2_pure of
# 10 betas 10-50% slower.
_CHUNK_BYTES = 72 * 1024
_IDENTITY3 = np.eye(3)[:, :, None]


def _stages(nodes, mids, h: float, lo: int, hi: int):
    """Channels read by steps lo .. hi-1 of step h: nodes lo .. hi, midpoints lo .. hi-1; and h."""
    return [w[lo:hi + 1] for w in nodes], [w[lo:hi] for w in mids], h


def _runs(field: ControlField, half: bool) -> list:
    """The (nodes, midpoints, h) of the field's RK4 solve, one run of steps after another.

    The half-resolution solve reads the grid's own nodes: the even nodes as
    nodes, the odd nodes as midpoints, at step 2h, so it evaluates no field.
    On an odd step count its last step is taken at h.
    """
    nodes, mids = field.stage_tables
    h = field.grid.h
    if not half:
        return [(nodes, mids, h)]
    k = (field.grid.n_steps - 1) // 2  # steps of 2h
    runs = [([w[:2 * k + 1:2] for w in nodes], [w[1:2 * k:2] for w in nodes], 2.0 * h)]
    if (field.grid.n_steps - 1) % 2:
        runs.append(([w[2 * k:] for w in nodes], [w[2 * k:] for w in mids], h))
    return runs


def _damping(w, c: float, g: np.ndarray) -> None:
    """Write c diag(WI^2, WR^2, WR^2 + WI^2) on g's diagonal: -lambda^2 L2 at c = -lambda^2/2."""
    wr, wi, _ = w
    np.multiply(wi, wi, out=g[0, 0])  # scratch for the (2, 2) sum
    np.multiply(wr, wr, out=g[2, 2])
    g[2, 2] += g[0, 0]
    g[2, 2] *= c
    np.multiply(c, wi, out=g[0, 0])
    g[0, 0] *= wi
    np.multiply(c, wr, out=g[1, 1])
    g[1, 1] *= wr


def _bloch_generator(w, setting: ErrorSetting, out=None) -> np.ndarray:
    """L0 + beta L1 - lambda^2 L2 at channel samples w, shape (3, 3, points), written into
    ``out`` if given."""
    wr, wi, d = w
    om = 1.0 + setting.beta
    g = np.empty((3, 3, wr.size)) if out is None else out
    _damping(w, -0.5 * setting.lambda2, g)
    g[0, 1] = d
    np.negative(d, out=g[1, 0])
    np.multiply(om, wi, out=g[0, 2])
    np.multiply(-om, wi, out=g[2, 0])
    np.multiply(om, wr, out=g[2, 1])
    np.multiply(-om, wr, out=g[1, 2])
    return g


def _bloch_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """3x3 matrix product, batched over the trailing axes."""
    return np.einsum("ik...,kj...->ij...", x, y)


def _series_mul(mul):
    """The product of power series truncated at their length, coefficients along axis -2,
    whose coefficients multiply by ``mul``: coefficient i of x times the first
    length - i coefficients of y, added from order i on, one ``mul`` per i."""
    def series_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        orders = x.shape[-2]
        out = mul(x[..., :1, :], y)
        for i in range(1, orders):
            out[..., i:, :] += mul(x[..., i:i + 1, :], y[..., :orders - i, :])
        return out
    return series_mul


def _rk4_step(generator, mul, ident: np.ndarray, stages, param) -> np.ndarray:
    """Classical RK4 steps of y' = A(t) y as matrices, P = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

    For a linear ODE one RK4 step is y -> P y with K1 = A_n,
    K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2), K4 = A_n+1 (I + h K3), with
    A = generator(w, param) at the node, midpoint and next node of ``stages``
    (``_stages``).  The generators multiply by ``mul``, whose identity is
    ``ident``; each stage A + c A K is formed in the buffer of the product A K.
    """
    nodes, mids, h = stages
    g, a_m = generator(nodes, param), generator(mids, param)
    a_n = g[..., :-1]
    k, out = a_n, []
    for a, c in ((a_m, 0.5 * h), (a_m, 0.5 * h), (g[..., 1:], h)):
        k = mul(a, k)
        k *= c
        k += a
        out.append(k)
    p, k3, k4 = out  # I + h/6 (a_n + 2 (k2 + k3) + k4), operation for operation
    p += k3
    p *= 2.0
    p += a_n
    p += k4
    p *= h / 6.0
    p += ident
    return p


def _lambda2_generator(w, _) -> np.ndarray:
    """L0 - lambda^2 L2 at channel samples w as the series (L0, -L2) along axis 2,
    shape (3, 3, 2, points): the plain generator, and the damping that it writes."""
    g = np.zeros((3, 3, 2, w[0].size))
    _bloch_generator(w, ErrorSetting(), g[:, :, 0])
    _damping(w, -0.5, g[:, :, 1])
    return g


def _pair_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of matrices [[a, b], [-b*, a*]] stored as their first rows (a, b)."""
    out = x[0] * y  # (a c, a d)
    t = x[1] * y[::-1].conj()  # (b d*, b c*)
    out[0] -= t[0]
    out[1] += t[1]
    return out


def _omega_stage(a: np.ndarray, b: np.ndarray, k: list, c: float) -> list:
    """A + c A K for the pair A = (a, omega b) and a series K in omega, one row longer than K.

    Row j of a series is the coefficient of omega^j: of the a-entry for even
    j, of the b-entry for odd j.  As in ``_pair_mul``, a multiplies every
    row, and b conj(K_j), of degree j + 1, is subtracted from the a-entry or
    added to the b-entry.
    """
    ca, cb = c * a, c * b
    out = [ca * x for x in k] + [0.0]
    for j, x in enumerate(k):
        t = x.conj()
        t *= cb
        if j % 2:
            out[j + 1] -= t
        else:
            out[j + 1] += t
    out[0] += a
    out[1] += b
    return out


def _omega_tables(nodes, mids, h: float, lo: int, hi: int) -> list:
    """RK4 steps lo .. hi-1 of the pair form as polynomials in omega = 1 + beta.

    The generator -i (H0 + beta H1) is the pair (a, omega w) with
    a = i d/2 and w = -(W_I + i W_R)/2, so K1 .. K4 are series of degree 1
    to 4 in omega, and the step is P = (p0 + omega^2 p2 + omega^4 p4,
    omega (q1 + omega^2 q3)).  Returns the tables [p0, q1, p2, q3, p4].
    """
    nodes, mids, h = _stages(nodes, mids, h, lo, hi)
    (a, w), (a_m, w_m) = [(0.5j * d, -0.5 * (wi + 1j * wr)) for wr, wi, d in (nodes, mids)]
    k1 = [a[:-1], w[:-1]]
    k2 = _omega_stage(a_m, w_m, k1, 0.5 * h)
    k3 = _omega_stage(a_m, w_m, k2, 0.5 * h)
    p = _omega_stage(a[1:], w[1:], k3, h)  # K4
    for j, x in enumerate(k3):  # p = I + h/6 (K1 + 2 (K2 + K3) + K4)
        if j < 3:
            x += k2[j]
        x *= 2.0
        if j < 2:
            x += k1[j]
        p[j] += x
    for x in p:
        x *= h / 6.0
    p[0] += 1.0
    return p


def _omega_steps(tables: list, beta: float) -> np.ndarray:
    """The pair step table at omega = 1 + beta, by Horner in omega^2, shape (2, steps)."""
    p0, q1, p2, q3, p4 = tables
    omega = 1.0 + beta
    s = omega * omega  # inf past overflow: the tables turn inf and NaN, which the bound refuses
    out = np.empty((2, p0.size), dtype=complex)
    np.multiply(p4, s, out=out[0])
    out[0] += p2
    out[0] *= s
    out[0] += p0
    np.multiply(q3, s, out=out[1])
    out[1] += q1
    out[1] *= omega
    return out


def _beta_steps(tables: list, _=None) -> np.ndarray:
    """The pair step table at omega = 1 + beta to second order in beta, shape (2, 3, steps):
    row [0, j] is the beta^j coefficient of p0 + omega^2 p2 + omega^4 p4, row [1, j] that
    of omega q1 + omega^3 q3."""
    p0, q1, p2, q3, p4 = tables
    return np.array([[p0 + p2 + p4, 2.0 * p2 + 4.0 * p4, p2 + 6.0 * p4],
                     [q1 + q3, q1 + 3.0 * q3, 3.0 * q3]])


def _bloch_engine(generator, mul, ident: np.ndarray) -> tuple:
    """A Bloch engine whose steps ``_rk4_step`` forms from ``generator`` under ``mul``."""
    return _stages, functools.partial(_rk4_step, generator, mul, ident), mul, _IDENTITY3


# engine -> (chunk tables, step table of one param, product, identity of one step's
# matrix); a chunk holds _CHUNK_BYTES // identity.nbytes steps.  Both Bloch engines form
# their steps by _rk4_step from _bloch_generator, the series one through _lambda2_generator.
# The series engines carry P2's error at order 1 in lambda^2 (at beta = 0) and at order 2
# in beta, along axis -2 of their steps; they ignore their one param and take a plain
# solve's steps a chunk.
_BLOCH = _bloch_engine(_bloch_generator, _bloch_mul, _IDENTITY3)
_BLOCH_LAMBDA2 = _bloch_engine(_lambda2_generator, _series_mul(_bloch_mul),
                               np.stack((_IDENTITY3, np.zeros_like(_IDENTITY3)), axis=2))
_PURE = (_omega_tables, _omega_steps, _pair_mul, np.array([1.0, 0.0], dtype=complex)[:, None])
_PURE_BETA = (_omega_tables, _beta_steps, _series_mul(_pair_mul), _PURE[3])


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
    """Ordered product P_n-1 ... P_0 along the last axis (kept, with length 1).

    Pairs are multiplied level by level; an odd level's last entry waits,
    and the waiting entries multiply the pairs' product deepest level first.
    """
    tails = []
    while p.shape[-1] > 1:
        n = p.shape[-1]
        if n % 2:
            tails.append(p[..., n - 1:])
        p = mul(p[..., 1::2], p[..., 0:n - 1:2])
    for tail in reversed(tails):
        p = mul(tail, p)
    return p


def _apply_bloch(m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bloch vectors M r, components first."""
    return m[:, 0] * r[0] + m[:, 1] * r[1] + m[:, 2] * r[2]


def _pure_p2(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    return np.abs(c2) ** 2 / (np.abs(c1) ** 2 + np.abs(c2) ** 2)


# RK4's stability interval on the negative real axis is [-2.785, 0]
_RK4_REAL_LIMIT = 2.785


def _require_rk4_stable(field: ControlField, settings) -> None:
    """Refuse, before solving, a noise damping that RK4 cannot integrate on the grid.

    The fastest rate of -lambda^2 L2 is lambda^2 (W_R^2 + W_I^2) / 2, real
    and negative; a step h times it past the interval makes the solve grow.
    The rate is read where the steps read it: at the nodes and the midpoints.
    A field whose |Omega|^2 overflows there is refused on its own.
    """
    lambda2 = max((s.lambda2 for s in settings), default=0.0)
    if lambda2 > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            rate = max(float(np.max(wr ** 2 + wi ** 2)) for wr, wi, _ in field.stage_tables)
        if not math.isfinite(rate):
            raise ValueError("field amplitude overflows: max |Omega|^2 is not finite")
        x = field.grid.h * lambda2 * rate / 2.0
        if x >= _RK4_REAL_LIMIT:
            raise ValueError(f"RK4 step unstable at lambda2 = {lambda2:.3g}: h * max(lambda2 "
                             f"|Omega|^2) / 2 = {x:.3g} >= {_RK4_REAL_LIMIT}; raise --grid-steps")


def _require_bounded(states: np.ndarray, what: str) -> None:
    # an unstable step grows the components long before they overflow; NaN and inf fail too,
    # so the solves run with numpy's overflow and invalid-value warnings off
    if not np.all(np.abs(states) <= 1.0 + 1e-6):
        raise FloatingPointError(f"{what} integration diverged (a component exceeds 1 in modulus)")


def _solve(field: ControlField, engine, params, reduce, half: bool = False) -> list:
    """``reduce`` (``_scan`` or ``_product``) of the RK4 steps of each param, chunk by chunk.

    A chunk's tables are formed once and serve every param.  Each chunk is
    reduced on its own and multiplied onto the last entry of the previous
    one, so the last entry is P_n-1 ... P_0.  A chunk's last scanned prefix
    is its ``_product``, so both reductions give it bit for bit.  ``half``
    solves on the half-resolution steps of ``_runs``.
    """
    tables, steps, mul, ident = engine
    size = _CHUNK_BYTES // ident.nbytes
    out = [[] for _ in params]
    for nodes, mids, h in _runs(field, half):
        n = mids[0].size
        for lo in range(0, n, size):
            chunk = tables(nodes, mids, h, lo, min(lo + size, n))
            for param, run in zip(params, out):
                s = reduce(mul, steps(chunk, param))
                run.append(mul(s, run[-1][..., -1:]) if run else s)
    return [np.concatenate(run, axis=-1) for run in out]


def evolve_pure(field: ControlField, psi0, beta: float = 0.0) -> np.ndarray:
    """Amplitudes (c1, c2) on the grid, shape (n, 2), of i dpsi/dt = (H0 + beta H1) psi.

    psi0 is the pair (c1, c2), refused unless its norm is 1 within 1e-6.
    H1 scales the off-diagonal (Rabi) part only; the detuning is error-free.
    Norm is conserved to integrator accuracy (< 1e-9 on default grids).
    """
    c1, c2 = np.asarray(psi0, dtype=complex)
    norm = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"pure state is not normalized: |psi| = {norm!r}")
    a, b = evolve_propagator(field, beta).T  # U (c1, c2) for U = [[a, b], [-b*, a*]]
    return np.stack((a * c1 + b * c2, a.conj() * c2 - b.conj() * c1)).T


def evolve_propagator(field: ControlField, beta: float = 0.0) -> np.ndarray:
    """Propagator U(t_i) = [[a, b], [-b*, a*]] of H0 + beta H1 on the grid, as (n, 2) rows (a, b).

    Column 1 of U(t) evolves the ground state, column 2 the excited state.
    """
    beta = ErrorSetting(beta=beta).beta  # rejects a non-finite beta
    u = np.empty((field.grid.n_steps, 2), dtype=complex)
    u[0] = (1.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u[1:] = _solve(field, _PURE, [beta], _scan)[0].T
    _require_bounded(u, "pure-state")
    return u


def evolve_bloch(field: ControlField, r0, setting: ErrorSetting = ErrorSetting()) -> Trajectory:
    """Integrate dr/dt = (L0 + beta L1 - lambda^2 L2) r from r0, three finite numbers.

    r0 must lie in the Bloch ball: a length above 1 + 1e-6, the tolerance
    of the integration's own bound, is refused.
    """
    r = np.asarray(r0, dtype=float)
    if r.shape != (3,) or not np.all(np.isfinite(r)):
        raise ValueError(f"r0 must be three finite numbers, got {r0!r}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-6:
        raise ValueError(f"r0 must lie in the Bloch ball, |r0| <= 1, got |r0| = {norm!r}")
    _require_rk4_stable(field, [setting])
    out = np.empty((field.grid.n_steps, 3))
    out[0] = r
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = _apply_bloch(_solve(field, _BLOCH, [setting], _scan)[0], r).T
    _require_bounded(out, "Bloch")
    return Trajectory(field.grid, out)


def final_p2_bloch(field: ControlField, settings) -> np.ndarray:
    """P2(T) of the Bloch equation from the ground state, one value per error setting."""
    settings = list(settings)
    _require_rk4_stable(field, settings)
    m = np.empty((3, 3, len(settings)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, run in enumerate(_solve(field, _BLOCH, settings, _product)):
            m[..., k] = run[..., -1]
        r = _apply_bloch(m, GROUND_BLOCH)
    _require_bounded(r, "Bloch")
    return 0.5 * (1.0 - r[2])


def final_p2_pure(field: ControlField, betas) -> np.ndarray:
    """P2(T) of the Schrodinger equation from the ground state, one value per beta."""
    betas = [ErrorSetting(beta=b).beta for b in betas]  # rejects a non-finite beta
    u = np.empty((2, len(betas)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, run in enumerate(_solve(field, _PURE, betas, _product)):
            u[:, k] = run[:, -1]
    _require_bounded(u, "pure-state")
    return _pure_p2(u[0], u[1])  # the ground state's amplitudes (a, -b*) have these moduli


def _final_series(field: ControlField, engine, half: bool, what: str) -> np.ndarray:
    """The last entry of a series solve: its order-0 solution is bounded like a plain
    solve's, and no coefficient may overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _solve(field, engine, [None], _product, half)[0][..., -1]
    _require_bounded(m[..., 0], what)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"{what} integration diverged (a series coefficient overflowed)")
    return m


def final_p2_lambda2_series(field: ControlField, half: bool = False) -> np.ndarray:
    """P2(T) of the Bloch equation from the ground state at beta = 0, as its series
    (c0, c1) in lambda^2: c1 is the exact derivative of the RK4 solution.

    ``half`` solves at step 2h on the grid's own nodes (see ``_runs``).
    """
    r3 = _apply_bloch(_final_series(field, _BLOCH_LAMBDA2, half, "Bloch"), GROUND_BLOCH)[2]
    return np.array([0.5, 0.0]) - 0.5 * r3


def final_p2_beta_series(field: ControlField, half: bool = False) -> np.ndarray:
    """P2(T) of the Schrodinger equation from the ground state, as its series (c0, c1, c2) in
    beta: c1 and c2 are exact derivatives of the RK4 solution.

    ``half`` solves at step 2h on the grid's own nodes (see ``_runs``).
    """
    a, b = _final_series(field, _PURE_BETA, half, "pure-state")
    # P2 = |b|^2 / (|a|^2 + |b|^2): each squared modulus is a Cauchy product, then the
    # quotient is series division
    bb = np.convolve(b, b.conj())[:3].real
    norm = np.convolve(a, a.conj())[:3].real + bb
    p = np.empty(3)
    for k in range(3):
        p[k] = (bb[k] - p[:k] @ norm[k:0:-1]) / norm[0]
    return p


def _sse_steps(field: ControlField, lambda2: float, dt: float, n_sse: int) -> np.ndarray:
    """The pair (a, b) of every SSE step under each sign pattern, shape (groups, 4, 4, 2).

    Step k is the module docstring's [[a_k, b_k], [-b_k*, a_k*]], channels at
    the left endpoint (Ito).  Entry [q, j, s] is step 4q+j under the signs s,
    bit 0 that of dW_R and bit 1 that of dW_I.  Steps past n_sse are the
    identity, so a tail group shorter than four steps reads its rows like any
    other.  Refuses a field whose |Omega|^2 is not finite at a step time, and
    a step whose damping lambda2 |Omega|^2 dt reaches 1 at any step time.
    """
    groups = -(-n_sse // 4)
    wr, wi, dl = field.values(np.arange(n_sse) * dt)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = wr * wr + wi * wi
    peak = float(np.max(rate))
    if not math.isfinite(peak):
        raise ValueError("field amplitude overflows: max |Omega|^2 is not finite")
    stiffness = lambda2 * peak * dt
    if stiffness >= 1.0:
        raise ValueError(f"Euler-Maruyama step unstable: lambda2 * max|Omega|^2 * dt = "
                         f"{stiffness:.3g} >= 1; take a smaller dt")
    inc = dt + math.sqrt(lambda2) * math.sqrt(dt) * np.array([-1.0, 1.0])  # a 0 bit, a 1 bit
    steps = np.zeros((4 * groups, 4, 2), dtype=complex)
    steps[:, :, 0] = 1.0
    steps[:n_sse, :, 0] = (1.0 + dt * (0.5j * dl - 0.125 * lambda2 * rate))[:, None]
    steps[:n_sse, :, 1].real = -0.5 * wi[:, None] * inc[[0, 0, 1, 1]]
    steps[:n_sse, :, 1].imag = -0.5 * wr[:, None] * inc[[0, 1, 0, 1]]
    return steps.reshape(groups, 4, 4, 2)


def _sse_block(steps: np.ndarray, out: np.ndarray) -> None:
    """Fill out[:g] with the four-step products of the g groups of ``steps``, (g, 256, 2).

    Row [q, i] is the pair (a, b) of M_4q+3 ... M_4q for the signs in the
    bits of i, bit 2j that of dW_R and bit 2j+1 that of dW_I at step 4q+j,
    so one gather of rows reads both halves.  The products of two and three
    steps are formed in the leading rows of ``out``: step j's sign is the
    high bits, and the slice of sign 0, which overwrites the shorter
    products it reads, is formed last.
    """
    g = steps.shape[0]
    c, d = steps[:, 0, :, 0], steps[:, 0, :, 1]
    for j in range(1, 4):
        width = c.shape[-1]
        cc, dc = c.conj(), d.conj()
        for sign in (3, 2, 1, 0):
            a, b = steps[:, j, sign, 0, None], steps[:, j, sign, 1, None]
            part = out[:g, sign * width:(sign + 1) * width]
            np.subtract(a * c, b * dc, out=part[..., 0])  # _pair_mul's arithmetic
            np.add(a * d, b * cc, out=part[..., 1])
        c, d = out[:g, :4 * width, 0], out[:g, :4 * width, 1]


def _sse_pair_step(u, v, c1, c2, n1, n2, w, t) -> None:
    """(n1, n2) = [[u, v], [-v*, u*]] (c1, c2), elementwise; w and t are scratch.

    Every product writes a separate buffer: numpy rounds an in-place
    complex multiply of length 1 differently, and a batch of one must
    round like the rest.
    """
    np.multiply(u, c1, out=n1)
    np.multiply(v, c2, out=t)
    n1 += t
    np.conjugate(u, out=w)
    np.multiply(w, c2, out=n2)
    np.conjugate(v, out=w)
    np.multiply(w, c1, out=t)
    n2 -= t


def _cache_aligned(shape):
    """An uninitialized complex array whose data starts on a 64-byte cache line.

    The SSE work rows are allocated so: left where the heap put them, an
    ensemble's speed moved by 6-8% with the allocations made before it.
    """
    size = math.prod(shape)
    raw = np.empty(size + 3, dtype=complex)
    lo = -raw.ctypes.data % 64 // 16
    return raw[lo:lo + size].reshape(shape)


def _sse_run(steps: np.ndarray, count: int, fill):
    """Euler-Maruyama core on two-point increments, ``count`` trajectories from the ground state.

    ``steps``: ``_sse_steps`` for the steps.  ``fill(out)`` writes the sign
    bytes of the next ``len(out)`` groups, in order, into the rows of the
    uint8 block ``out`` of shape (g, count): a row holds one group's byte of
    each trajectory, the signs of its four steps.  The four-step table and
    the signs are formed _TABLE_GROUPS groups at a time into reused blocks.
    Each group of four steps is one gather of (a, b) rows from the group's
    256-row table and one 2x2 update.  Returns the final amplitudes (c1, c2).
    """
    groups = steps.shape[0]
    c1, c2 = _cache_aligned((2, count))
    c1[:], c2[:] = 1.0, 0.0
    n1, n2, w, t = _cache_aligned((4, count))
    g = _cache_aligned((count, 2))
    u, v = g[:, 0], g[:, 1]
    block = np.empty((min(groups, _TABLE_GROUPS), 256, 2), dtype=complex)
    signs = np.empty((block.shape[0], count), dtype=np.uint8)
    for lo in range(0, groups, _TABLE_GROUPS):
        size = min(_TABLE_GROUPS, groups - lo)
        _sse_block(steps[lo:lo + size], block)
        fill(signs[:size])
        for table, group_signs in zip(block[:size], signs):
            # a uint8 index cannot leave a 256-row table; "clip" is the cheaper bounds rule
            table.take(group_signs, axis=0, out=g, mode="clip")
            _sse_pair_step(u, v, c1, c2, n1, n2, w, t)
            c1, n1, c2, n2 = n1, c1, n2, c2
    return c1, c2


def _stream_signs(seed: int, lo: int, hi: int):
    """A ``fill`` for ``_sse_run`` that reads trajectories lo .. hi-1 under the seed contract.

    It keeps one Philox object per stream the trajectories touch.  Each call
    reads the stream's full group-major rows for the next groups, as
    contiguous bytes, and copies the columns of lo .. hi-1 into ``out``.
    """
    width = _STREAM_WIDTH
    streams = []
    for k in range(lo // width, -(-hi // width)):
        first, last = max(lo, k * width), min(hi, (k + 1) * width)
        streams.append((np.random.Philox(key=seed, counter=k << 128),
                        slice(first - lo, last - lo), slice(first - k * width, last - k * width)))

    def fill(out: np.ndarray) -> None:
        for philox, batch_cols, stream_cols in streams:
            raw = philox.random_raw(width // 8 * out.shape[0]).astype("<u8", copy=False)
            out[:, batch_cols] = raw.view(np.uint8).reshape(-1, width)[:, stream_cols]
    return fill


def _sse_trajectories(field: ControlField, lambda2: float, dt: float, seed: int, count: int):
    """Yield ``_sse_run`` on trajectories 0 .. count-1, _SSE_BATCH at a time.

    dt must divide the grid spacing.  The step pairs are made once; each
    batch reads its signs under the module docstring's seed contract.
    """
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or not 0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    ErrorSetting(lambda2=lambda2)  # rejects a negative or non-finite lambda2
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    grid = field.grid
    ratio = grid.h / dt
    per = int(round(ratio))
    if per < 1 or abs(ratio - per) > 1e-9 * ratio:
        raise ValueError(f"dt={dt} does not divide the grid spacing {grid.h}")
    steps = _sse_steps(field, lambda2, dt, per * (grid.n_steps - 1))
    for lo in range(0, count, _SSE_BATCH):
        hi = min(lo + _SSE_BATCH, count)
        yield _sse_run(steps, hi - lo, _stream_signs(int(seed), lo, hi))


def monte_carlo_p2(field: ControlField, lambda2: float, n_traj: int, dt: float,
                   seed: int) -> EnsembleResult:
    """Mean and standard error of P2(T) over independent SSE trajectories from the ground state.

    Each trajectory follows the simplified weak Euler scheme on two-point
    increments dW_R, dW_I = +-sqrt(dt), whose signs trajectory i reads
    under the module docstring's seed contract.  The mean converges with
    weak order 1 in dt.  Deterministic given the seed: trajectory i's signs
    depend on (seed, i) alone and the reduction runs in index order, so the
    result does not depend on batching.
    """
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    with np.errstate(over="ignore", invalid="ignore"):
        p2 = np.concatenate([_pure_p2(c1, c2) for c1, c2 in
                             _sse_trajectories(field, lambda2, dt, seed, n_traj)])
    # a step that grows the state, unchecked by the stiffness bound, overflows to inf and NaN
    if not np.all(np.isfinite(p2)):
        raise FloatingPointError("SSE integration diverged (a trajectory's P2 is not finite); "
                                 "take a smaller dt")
    stderr = float(np.std(p2, ddof=1) / math.sqrt(n_traj))
    return EnsembleResult(float(np.mean(p2)), stderr, n_traj, seed, dt)
