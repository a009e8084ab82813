"""Untimed output checks, one per command; a failed check fails the command.

- Sweep CSVs: every P2 lies in [0, 1]; every q_N / q_S cell is a finite,
  non-negative number (no failed cells inside the default windows).
- The flat_pi lambda-curve matches P2 = (1 + exp(-lambda^2 pi^2 / 2)) / 2
  to 1e-8.
- Every `sensitivity --method both` report, and one seeded cell of the
  Fig. 2 and Fig. 5 sweeps, agree between the formula and finite-difference
  routes within max(1%, the summed error estimates), as in test c11.  The
  cell's finite-difference route uses noise samples that keep it in its
  linear regime over the whole (omega0, delta0) window.
- Each ensemble's p2_mean lies within 4 stderr of the Bloch
  master-equation P2 (4, not 3: many seeds are run).
"""

from __future__ import annotations

import csv
import json
import math
import os

from invlab import (GROUND_BLOCH, ErrorSetting, ProtocolSpec, TimeGrid, evolve_bloch,
                    make_transitionless, qn_finite_difference, qn_formula,
                    qs_finite_difference, qs_formula)

from workloads import EX_DELTA0, EX_OMEGA0, GRID_STEPS, SSE_N_TRAJ

P2_SLACK = 1e-12  # rounding of P2 = (1 - r3) / 2 at an exact inversion
FLAT_PI_TOL = 1e-8
SSE_SIGMAS = 4.0


def _column(path, col=-1):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [float(r[col]) if r[col] else math.nan for r in rows[1:]], rows[1:]


def check_sweep(cmd, paths):
    csvs = [p for p in paths if p.endswith(".csv")]
    if len(csvs) != cmd.check.get("curves", 1):
        return f"expected {cmd.check.get('curves', 1)} CSVs, got {len(csvs)}"
    for path in paths:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
    probability = cmd.check["figure"] in (1, 4, 7)
    for path in csvs:
        values, rows = _column(path)
        if not values:
            return f"{path}: no cells"
        for v in values:
            if not math.isfinite(v):
                return f"{path}: failed (empty) cell"
            if probability and not -P2_SLACK <= v <= 1.0 + P2_SLACK:
                return f"{path}: P2 = {v!r} outside [0, 1]"
            if not probability and v < 0.0:
                return f"{path}: negative sensitivity {v!r}"
        if cmd.check["figure"] == 1 and path.endswith("_flat_pi.csv"):
            for row, v in zip(rows, values):
                lam = float(row[0])
                exact = 0.5 * (1.0 + math.exp(-lam * lam * math.pi**2 / 2.0))
                if abs(v - exact) > FLAT_PI_TOL:
                    return f"{path}: flat_pi P2({lam}) = {v!r}, closed form {exact!r}"
    if "row" in cmd.check:
        return check_cell(cmd.check, _column(csvs[0])[0][cmd.check["row"]])
    return None


# Noise samples of the cells' finite-difference q_N, a tenth of the library's defaults:
# q_N reaches about 40 in the corners of [0.25, 8]^2, so only these keep every cell in
# the route's linear regime (q_N * max sample < LINEAR_REGIME); the defaults leave it
# where q_N > 5.  The default beta samples keep every q_S cell inside it.
CELL_LAMBDA2_SAMPLES = tuple(0.0002 * k for k in range(1, 11))


def _qn_cell_finite_difference(field):
    return qn_finite_difference(field, lambda2_samples=CELL_LAMBDA2_SAMPLES)


# sensitivity routes of a Fig. 2 (q_N) or Fig. 5 (q_S) cell: (formula, finite difference)
CELL_ROUTES = {2: ("q_n", qn_formula, _qn_cell_finite_difference),
               5: ("q_s", qs_formula, qs_finite_difference)}


def check_cell(check, value):
    """The sweep's cell is the formula value and agrees with the finite-difference route."""
    key, formula, finite_difference = CELL_ROUTES[check["figure"]]
    field = make_transitionless(check["omega0"], check["delta0"], TimeGrid(GRID_STEPS))
    where = f"cell omega0={check['omega0']!r}, delta0={check['delta0']!r}"
    try:
        f, fd = formula(field), finite_difference(field)
    except (RuntimeError, ValueError) as exc:
        return f"{where}: {key} route failed: {exc}"
    if not abs(value - getattr(f, key)) <= 1e-12 * abs(getattr(f, key)):
        return f"{where}: sweep {key} {value!r} vs formula {getattr(f, key)!r}"
    if not _agree(getattr(f, key), getattr(fd, key), f.error_estimate, fd.error_estimate):
        return (f"{where}: {key} formula {getattr(f, key)!r} +- {f.error_estimate!r} vs "
                f"finite difference {getattr(fd, key)!r} +- {fd.error_estimate!r}")
    return None


def _agree(formula, fd, err_formula, err_fd):
    return abs(formula - fd) <= max(0.01 * abs(formula), err_formula + err_fd)


def check_report(cmd, paths):
    with open(paths[0], encoding="utf-8") as fh:
        rep = json.load(fh)
    fd = rep["finite_difference"]
    for key in ("q_n", "q_s"):
        if not _agree(rep[key], fd[key], rep[f"{key}_error"], fd[f"{key}_error"]):
            return (f"{key} formula {rep[key]!r} +- {rep[f'{key}_error']!r} vs finite "
                    f"difference {fd[key]!r} +- {fd[f'{key}_error']!r}")
    return None


def master_p2(kind, lambda2):
    params = {"transitionless": {"omega0": EX_OMEGA0, "delta0": EX_DELTA0}}.get(kind, {})
    field = ProtocolSpec(kind, params).build(TimeGrid(GRID_STEPS))
    return evolve_bloch(field, GROUND_BLOCH, ErrorSetting(lambda2=lambda2)).final_p2()


def check_ensemble(cmd, paths):
    with open(paths[0], encoding="utf-8") as fh:
        ens = json.load(fh)
    if ens["n_traj"] != SSE_N_TRAJ or ens["seed"] != cmd.check["seed"]:
        return f"ensemble echoes n_traj={ens['n_traj']}, seed={ens['seed']}"
    master = master_p2(cmd.check["kind"], cmd.check["lambda2"])
    if not abs(ens["p2_mean"] - master) < SSE_SIGMAS * ens["p2_stderr"]:
        return (f"p2_mean {ens['p2_mean']!r} vs master equation {master!r}, "
                f"stderr {ens['p2_stderr']!r}")
    return None


CHECKS = {"sweep": check_sweep, "report": check_report, "ensemble": check_ensemble}


def check(cmd, paths):
    """None if the command's outputs pass, else the reason they do not."""
    missing = [p for p in paths if not os.path.isfile(p)]
    if not paths or missing:
        return f"missing output {missing or cmd.out}"
    try:
        return CHECKS[cmd.kind](cmd, paths)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
