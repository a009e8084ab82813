"""Seeded command lists for the three benchmark workloads.

A workload is a list of `invlab` argv lists built only from the workload
name and the seed; the program sees nothing else.  Point counts are fixed
and only windows, kinds and parameters are drawn, so every seed asks for
the same amount of work and timings compare across seeds.

Each command also carries what the benchmark needs to score and check it
without asking the program: its kind, the sweep cells it writes, the
nominal trajectory-steps it integrates and the facts its check uses.
Nominal counts follow the algorithms of the command as specified: one
RK4 solve per lambda-curve point or map cell, one per Fig. 2 cell, two per
Fig. 5 cell (psi_0 and psi_perp), 23 per `sensitivity --method both`
report (1 + 2 formula, 10 + 10 finite-difference), each over
grid_steps - 1 steps; an SSE ensemble integrates n_traj * (1/dt) steps.
A later change that does less work for the same answer raises the rate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("error-map", "family-surface", "sse-ensemble")

GRID_STEPS = 2001  # CLI default, never passed explicitly
SOLVE_STEPS = GRID_STEPS - 1
REPORT_SOLVES = 23

# Transitionless example of the paper (also the CLI's Fig. 1 parameters).
EX_OMEGA0 = (5.57 / 4.3) * math.pi
EX_DELTA0 = (5.57 / 4.3) ** 2 * math.pi

SSE_N_TRAJ = 10000
SSE_DT = 0.00025

FAMILY_LO, FAMILY_HI = 0.25, 8.0  # default (omega0, delta0) window of Figs. 2 and 5

# Linear-response precondition of the finite-difference q_N route: q_N * lambda^2 < 0.1
# (the library's threshold) for every sample, the largest of its defaults being 0.02 at T = 1.
LINEAR_REGIME = 0.1
LAMBDA2_SAMPLE_MAX = 0.02


@dataclass(frozen=True)
class Command:
    argv: tuple
    kind: str  # "sweep" | "report" | "ensemble"
    out: str  # --out value, relative to the run's output directory
    report: bool = False  # timed into report_s
    cells: int = 0
    traj_steps: int = 0
    check: dict = field(default_factory=dict)


def _f(x: float) -> str:
    return f"{x:.4f}"


def _axis(lo: float, hi: float, n: int) -> str:
    # '=' form: a space-separated value with a negative minimum is read as a flag
    return f"{_f(lo)},{_f(hi)},{n}"


def _window(rng: random.Random, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    a = round(rng.uniform(lo, hi - min_width), 4)
    b = round(rng.uniform(a + min_width, hi), 4)
    return a, b


def transitionless_qn(omega0: float, delta0: float) -> float:
    """q_N of the transitionless field in closed form, without a solve.

    The field keeps the Bloch vector on the reference's instantaneous
    eigenvector, r = (W_R, 0, D) / sqrt(W_R^2 + D^2), so the q_N integrand
    1/4 [W_a^2 (r1^2 + r3^2) + W_R^2 (r2^2 + r3^2)] becomes
    1/4 [W_a^2 + W_R^2 D^2 / (W_R^2 + D^2)] (trapezoid rule on the CLI grid).
    """
    t = np.linspace(0.0, 1.0, GRID_STEPS)
    w = math.pi
    wr, d = omega0 * np.sin(w * t), -delta0 * np.cos(w * t)
    wr_dot, d_dot = omega0 * w * np.cos(w * t), delta0 * w * np.sin(w * t)
    gap2 = wr * wr + d * d
    wa = (wr * d_dot - wr_dot * d) / gap2
    f = 0.25 * (wa * wa + wr * wr * d * d / gap2)
    return float((t[1] - t[0]) * (f.sum() - 0.5 * (f[0] + f[-1])))


def _transitionless_params(rng: random.Random) -> tuple[float, float]:
    """(omega0, delta0) from [0.25, 8]^2 where the finite-difference route is valid.

    Redrawn until q_N * LAMBDA2_SAMPLE_MAX < LINEAR_REGIME (about 3/4 of the
    window).  Outside that region the route's precondition fails; the library
    does not detect it and returns a wrong q_N (NOTES.md, program defects).
    """
    while True:
        omega0 = round(rng.uniform(FAMILY_LO, FAMILY_HI), 4)
        delta0 = round(rng.uniform(FAMILY_LO, FAMILY_HI), 4)
        if transitionless_qn(omega0, delta0) * LAMBDA2_SAMPLE_MAX < LINEAR_REGIME:
            return omega0, delta0


def _report_protocol(rng: random.Random, kind: str) -> list[str]:
    """Protocol flags for a report, drawn where the library's preconditions hold."""
    if kind == "flat_pi":
        return ["--kind", "flat_pi", "--alpha", _f(rng.uniform(0.0, 2.0 * math.pi))]
    if kind == "shaped_pi":
        return ["--kind", "shaped_pi", "--envelope", rng.choice(("sin", "flat")),
                "--alpha", _f(rng.uniform(0.0, 2.0 * math.pi))]
    if kind == "transitionless":
        omega0, delta0 = _transitionless_params(rng)
        return ["--kind", "transitionless", "--omega0", _f(omega0), "--delta0", _f(delta0)]
    if kind == "optimal_noise":
        return ["--kind", "optimal_noise", "--n", str(rng.choice((1, 3, 5, 7)))]
    return ["--kind", "optimal_systematic", "--n", str(rng.choice((1, 2)))]


REPORT_KINDS = ("flat_pi", "shaped_pi", "transitionless", "optimal_noise", "optimal_systematic")


def _report(rng: random.Random, kind: str, out: str) -> Command:
    argv = ["sensitivity", *_report_protocol(rng, kind), "--method", "both", "--out", out]
    return Command(tuple(argv), "report", out, report=True,
                   traj_steps=REPORT_SOLVES * SOLVE_STEPS)


def error_map(rng: random.Random) -> list[Command]:
    """Few fields, each evaluated under many error settings."""
    lam1 = _window(rng, 0.0, 1.2, 0.6)
    beta4 = _window(rng, -1.0, 1.0, 1.0)
    lam7 = _window(rng, 0.0, 1.2, 0.6)
    beta7 = _window(rng, -1.0, 1.0, 1.0)
    n1, n4, n7 = 6, 6, 4
    cmds = [
        Command(("sweep", "--figure", "1", f"--axis1={_axis(*lam1, n1)}", "--out", "fig1"),
                "sweep", "fig1", cells=4 * n1, traj_steps=4 * n1 * SOLVE_STEPS,
                check={"figure": 1, "curves": 4}),
        Command(("sweep", "--figure", "4", f"--axis1={_axis(*beta4, n4)}", "--out", "fig4"),
                "sweep", "fig4", cells=3 * n4, traj_steps=3 * n4 * SOLVE_STEPS,
                check={"figure": 4, "curves": 3}),
        Command(("sweep", "--figure", "7", f"--axis1={_axis(*lam7, n7)}",
                 f"--axis2={_axis(*beta7, n7)}", "--out", "fig7"),
                "sweep", "fig7", cells=3 * n7 * n7, traj_steps=3 * n7 * n7 * SOLVE_STEPS,
                check={"figure": 7, "curves": 3}),
    ]
    # every kind once per pass, in seeded order, so the report mix is the same for all seeds
    kinds = list(REPORT_KINDS)
    rng.shuffle(kinds)
    cmds += [_report(rng, kind, f"report{i}.json") for i, kind in enumerate(kinds)]
    return cmds


def family_surface(rng: random.Random) -> list[Command]:
    """Many fields with one or two solves each; report_s times the Fig. 5 (q_S) sweep."""
    n = 6
    om = _window(rng, FAMILY_LO, FAMILY_HI, 2.0)
    de = _window(rng, FAMILY_LO, FAMILY_HI, 2.0)
    # one seeded cell, checked (untimed) against the finite-difference routes
    i, j = rng.randrange(n), rng.randrange(n)
    cell = {"row": i * n + j, "omega0": float(np.linspace(*om, n)[i]),
            "delta0": float(np.linspace(*de, n)[j])}
    axes = (f"--axis1={_axis(*om, n)}", f"--axis2={_axis(*de, n)}")
    return [
        Command(("sweep", "--figure", "2", *axes, "--out", "fig2"), "sweep", "fig2",
                cells=n * n, traj_steps=n * n * SOLVE_STEPS, check={"figure": 2, **cell}),
        Command(("sweep", "--figure", "5", *axes, "--out", "fig5"), "sweep", "fig5",
                report=True, cells=n * n, traj_steps=2 * n * n * SOLVE_STEPS,
                check={"figure": 5, **cell}),
    ]


SSE_KINDS = {"flat_pi": ("--kind", "flat_pi"),
             "optimal_noise": ("--kind", "optimal_noise"),
             "transitionless": ("--kind", "transitionless", "--omega0", repr(EX_OMEGA0),
                                "--delta0", repr(EX_DELTA0))}


def sse_ensemble(rng: random.Random) -> list[Command]:
    """10^4-trajectory SSE ensembles; the deterministic engine does nothing here."""
    # every kind once per pass, in seeded order: peak memory depends on the kind
    # (the optimal_noise field alone adds about 20 MB), so the mix is fixed
    kinds = list(SSE_KINDS)
    rng.shuffle(kinds)
    steps = round(1.0 / SSE_DT)
    cmds = []
    for i, kind in enumerate(kinds):
        lambda2 = _f(rng.uniform(0.02, 0.2))
        seed = rng.randrange(2**63)
        out = f"ensemble{i}.json"
        argv = ("simulate", "--sse", *SSE_KINDS[kind], "--lambda2", lambda2,
                "--n-traj", str(SSE_N_TRAJ), "--dt", repr(SSE_DT), "--seed", str(seed),
                "--out", out)
        cmds.append(Command(argv, "ensemble", out, report=True, cells=1,
                            traj_steps=SSE_N_TRAJ * steps,
                            check={"kind": kind, "lambda2": float(lambda2), "seed": seed}))
    return cmds


_BUILDERS = {"error-map": error_map, "family-surface": family_surface,
             "sse-ensemble": sse_ensemble}


def generate(name: str, seed: int) -> list[Command]:
    """The workload's command list; equal (name, seed) give equal lists."""
    return _BUILDERS[name](random.Random(f"{name}/{seed}"))


def argv_bytes(commands: list[Command]) -> bytes:
    return json.dumps([list(c.argv) for c in commands]).encode()


def argv_hash(commands: list[Command]) -> str:
    return hashlib.sha256(argv_bytes(commands)).hexdigest()
