"""Command-line front end: protocol | simulate | sensitivity | sweep.

All inputs are dimensionless, scaled by the total duration T: Rabi and
detuning amplitudes are given as omega*T, noise strength as
lambda*T^(1/2), time steps as fractions of T.  Computation always runs
on the unit-duration grid; the --duration flag only rescales displayed
outputs (time columns multiply by T, rates and q_N divide by T).

A JSON config file mirroring the flag structure can be passed with
--config; explicit flags override file values, and --dump-config echoes
the effective configuration so a run can be reproduced exactly.  Exit
codes: 0 success, 2 validation failure, 1 runtime failure.  The
INVLAB_THREADS environment variable caps the worker count of the
transitionless sweeps and SSE ensembles; outputs are byte-identical for
any setting.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .core import GROUND_BLOCH, ControlField, TimeGrid, write_csv
from .dynamics import ErrorSetting, evolve_bloch, monte_carlo_p2
from .protocols import ProtocolSpec
from .sensitivity import (qn_finite_difference, qn_formula, qs_finite_difference,
                          qs_formula)
from .sweeps import (Axis, default_beta_axis, default_delta0_axis,
                     default_lambda_axis, default_omega0_axis, map_p2,
                     robustness_curve, sweep_qn_transitionless,
                     sweep_qs_transitionless)

FIG1_OMEGA0 = (5.57 / 4.3) * math.pi
FIG1_DELTA0 = (5.57 / 4.3) ** 2 * math.pi

ENVELOPES = {
    "sin": lambda t: np.sin(math.pi * np.asarray(t, dtype=float)),
    "flat": lambda t: np.ones_like(np.asarray(t, dtype=float)),
}

_SCHEMA = {
    "protocol": {"kind", "alpha", "omega0", "delta0", "n", "gauge", "envelope"},
    "grid": {"n_steps"},
    "errors": {"beta", "lambda2"},
    "monte_carlo": {"n_traj", "dt", "seed"},
    "output": {"path", "format"},
    "duration": None,
    "simulate": {"sse"},
    "sensitivity": {"method"},
    "sweep": {"figure", "axis1", "axis2"},
}

_DEFAULTS = {
    "protocol": {"kind": None, "alpha": 0.0, "omega0": None, "delta0": None,
                 "n": None, "gauge": "zero_omega_i", "envelope": "sin"},
    "grid": {"n_steps": 2001},
    "errors": {"beta": 0.0, "lambda2": 0.0},
    "monte_carlo": {"n_traj": 10000, "dt": 0.00025, "seed": 0},
    "output": {"path": None, "format": "csv"},
    "duration": 1.0,
    "simulate": {"sse": False},
    "sensitivity": {"method": "both"},
    "sweep": {"figure": None, "axis1": None, "axis2": None},
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")
    common.add_argument("--grid-steps", type=int, help="grid points (default 2001)")
    common.add_argument("--seed", type=int, help="64-bit RNG seed (default 0)")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--duration", type=float,
                        help="physical duration T used only to scale displayed outputs")

    proto = argparse.ArgumentParser(add_help=False)
    proto.add_argument("--kind", help="protocol kind")
    proto.add_argument("--alpha", type=float, help="pulse phase (radians)")
    proto.add_argument("--omega0", type=float, help="Rabi amplitude times T")
    proto.add_argument("--delta0", type=float, help="detuning amplitude times T")
    proto.add_argument("--n", type=int, help="protocol family index")
    proto.add_argument("--gauge", help="optimal_systematic gauge (zero-omega-i | explicit)")
    proto.add_argument("--envelope", choices=sorted(ENVELOPES),
                       help="shaped_pi envelope name")

    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Generate, simulate and stress-test population-inversion protocols.")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("protocol", parents=[common, proto],
                   help="emit a generated control field")

    sim = sub.add_parser("simulate", parents=[common, proto],
                         help="evolve a protocol (Bloch equation or SSE ensemble)")
    sim.add_argument("--beta", type=float, help="systematic error amplitude")
    sim.add_argument("--lambda2", type=float, help="noise intensity lambda^2 (units T)")
    sim.add_argument("--sse", action="store_true",
                     help="run a Monte Carlo SSE ensemble instead of the Bloch equation")
    sim.add_argument("--n-traj", type=int, help="SSE trajectories (default 10000)")
    sim.add_argument("--dt", type=float, help="SSE time step in units of T (default 1/4000)")

    sens = sub.add_parser("sensitivity", parents=[common, proto],
                          help="compute noise/systematic sensitivities")
    sens.add_argument("--method", choices=("formula", "finite-difference", "both"),
                      help="analysis route (default both)")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="reproduce a figure's data on a parameter grid")
    sweep.add_argument("--figure", type=int, choices=(1, 2, 4, 5, 7),
                       help="which figure's data to produce")
    sweep.add_argument("--axis1", help="override first axis as 'min,max,n_points'")
    sweep.add_argument("--axis2", help="override second axis as 'min,max,n_points'")
    return parser


def _check_known_keys(data: dict) -> None:
    for key, value in data.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config section {key!r} must be an object")
        for sub in value:
            if sub not in allowed:
                raise ValueError(f"unknown config key {key}.{sub}")


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _DEFAULTS.items()}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        _check_known_keys(loaded)
        for key, value in loaded.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value

    def put(section, key, attr):
        value = getattr(args, attr, None)
        if value is not None:
            cfg[section][key] = value

    for key in ("kind", "alpha", "omega0", "delta0", "n", "gauge", "envelope"):
        put("protocol", key, key)
    put("grid", "n_steps", "grid_steps")
    put("errors", "beta", "beta")
    put("errors", "lambda2", "lambda2")
    put("monte_carlo", "n_traj", "n_traj")
    put("monte_carlo", "dt", "dt")
    put("monte_carlo", "seed", "seed")
    put("output", "path", "out")
    put("output", "format", "format")
    if getattr(args, "duration", None) is not None:
        cfg["duration"] = args.duration
    if getattr(args, "sse", False):
        cfg["simulate"]["sse"] = True
    put("sensitivity", "method", "method")
    put("sweep", "figure", "figure")
    put("sweep", "axis1", "axis1")
    put("sweep", "axis2", "axis2")

    if cfg["protocol"]["gauge"]:
        cfg["protocol"]["gauge"] = str(cfg["protocol"]["gauge"]).replace("-", "_")
    if not (cfg["duration"] > 0.0):
        raise ValueError(f"duration must be positive, got {cfg['duration']}")
    if cfg["output"]["format"] not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg['output']['format']!r}")
    return cfg


def _field_from_config(cfg: dict) -> ControlField:
    p = cfg["protocol"]
    if not p["kind"]:
        raise ValueError("a protocol kind is required (--kind or config protocol.kind)")
    kind = str(p["kind"])
    params: dict = {}
    if kind in ("flat_pi", "shaped_pi"):
        params["alpha"] = p["alpha"]
    if kind == "shaped_pi":
        params["envelope"] = ENVELOPES[p["envelope"]]
    if kind in ("sinusoidal_adiabatic", "transitionless"):
        if p["omega0"] is None or p["delta0"] is None:
            raise ValueError(f"{kind} requires --omega0 and --delta0")
        params["omega0"] = p["omega0"]
        params["delta0"] = p["delta0"]
    if kind == "optimal_noise":
        params["n"] = p["n"] if p["n"] is not None else 7
    if kind == "optimal_systematic":
        params["n"] = p["n"] if p["n"] is not None else 1
        params["gauge"] = p["gauge"]
    if kind == "invariant_engineered":
        raise ValueError("invariant_engineered takes angle functions and is not "
                         "constructible from a config file; use the library API")
    grid = TimeGrid(int(cfg["grid"]["n_steps"]))
    return ProtocolSpec(kind, params).build(grid)


def _emit(cfg: dict, text: str) -> None:
    path = cfg["output"]["path"]
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: str, columns) -> str:
    buf = io.StringIO()
    write_csv(buf, header, columns)
    return buf.getvalue()


def cmd_protocol(cfg: dict) -> None:
    field = _field_from_config(cfg)
    T = cfg["duration"]
    cols = [field.grid.times * T, field.omega_r / T, field.omega_i / T, field.delta / T]
    if cfg["output"]["format"] == "json":
        _emit(cfg, _json_text({"label": field.label,
                               "t": list(cols[0]), "omega_r": list(cols[1]),
                               "omega_i": list(cols[2]), "delta": list(cols[3])}))
    else:
        _emit(cfg, _csv_text("t,omega_r,omega_i,delta", cols))


def cmd_simulate(cfg: dict) -> None:
    field = _field_from_config(cfg)
    T = cfg["duration"]
    if cfg["simulate"]["sse"]:
        mc = cfg["monte_carlo"]
        result = monte_carlo_p2(field, float(cfg["errors"]["lambda2"]),
                                int(mc["n_traj"]), float(mc["dt"]), int(mc["seed"]))
        _emit(cfg, _json_text({"p2_mean": result.p2_mean, "p2_stderr": result.p2_stderr,
                               "n_traj": result.n_traj, "seed": result.seed,
                               "dt": result.dt * T}))
        return
    setting = ErrorSetting(beta=float(cfg["errors"]["beta"]),
                           lambda2=float(cfg["errors"]["lambda2"]))
    traj = evolve_bloch(field, GROUND_BLOCH, setting)
    cols = [field.grid.times * T, traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]]
    if cfg["output"]["format"] == "json":
        _emit(cfg, _json_text({"label": field.label, "t": list(cols[0]),
                               "r1": list(cols[1]), "r2": list(cols[2]),
                               "r3": list(cols[3]), "p2_final": traj.final_p2()}))
    else:
        _emit(cfg, _csv_text("t,r1,r2,r3", cols))


def cmd_sensitivity(cfg: dict) -> None:
    field = _field_from_config(cfg)
    T = cfg["duration"]
    method = cfg["sensitivity"]["method"].replace("-", "_")

    def pack(qn_report, qs_report):
        return {"q_n": qn_report.q_n / T, "q_n_error": qn_report.error_estimate / T,
                "q_s": qs_report.q_s, "q_s_error": qs_report.error_estimate}

    out = {"protocol_label": field.label, "method": method,
           "grid": {"n_steps": field.grid.n_steps}}
    if method in ("formula", "both"):
        out.update(pack(qn_formula(field), qs_formula(field)))
    if method in ("finite_difference", "both"):
        fd = pack(qn_finite_difference(field), qs_finite_difference(field))
        if method == "both":
            out["finite_difference"] = fd
        else:
            out.update(fd)
    _emit(cfg, _json_text(out))


def _parse_axis(spec: str | None, name: str, fallback: Axis) -> Axis:
    if not spec:
        return fallback
    parts = str(spec).split(",")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be 'min,max,n_points', got {spec!r}")
    return Axis(name, float(parts[0]), float(parts[1]), int(parts[2]))


def cmd_sweep(cfg: dict) -> None:
    figure = cfg["sweep"]["figure"]
    if figure not in (1, 2, 4, 5, 7):
        raise ValueError("sweep requires --figure in {1, 2, 4, 5, 7}")
    T = cfg["duration"]
    grid = TimeGrid(int(cfg["grid"]["n_steps"]))
    base = cfg["output"]["path"] or f"figure{figure}"
    written = []

    def build(kind, **params):
        return ProtocolSpec(kind, params).build(grid)

    def sweep_axis(which, name, fallback):
        return _parse_axis(cfg["sweep"][which], name, fallback)

    def save(result, path_base, scale=1.0):
        if scale != 1.0:
            result = replace(result, values=result.values * scale)
        result.to_csv(path_base + ".csv")
        result.to_json_sidecar(path_base + ".json")
        written.extend([path_base + ".csv", path_base + ".json"])

    if figure == 1:
        axis = sweep_axis("axis1", "lambda", default_lambda_axis())
        curves = [("optimal_noise", build("optimal_noise", n=7)),
                  ("flat_pi", build("flat_pi", alpha=0.0)),
                  ("sinusoidal_adiabatic",
                   build("sinusoidal_adiabatic", omega0=FIG1_OMEGA0, delta0=FIG1_DELTA0)),
                  ("transitionless",
                   build("transitionless", omega0=FIG1_OMEGA0, delta0=FIG1_DELTA0))]
        for slug, field in curves:
            save(robustness_curve(field, "lambda", axis), f"{base}_{slug}")
    elif figure == 2:
        result = sweep_qn_transitionless(sweep_axis("axis1", "omega0", default_omega0_axis()),
                                         sweep_axis("axis2", "delta0", default_delta0_axis()),
                                         grid)
        save(result, base, scale=1.0 / T)
    elif figure == 4:
        axis = sweep_axis("axis1", "beta", default_beta_axis())
        curves = [("optimal_systematic", build("optimal_systematic", n=1)),
                  ("transitionless",
                   build("transitionless", omega0=FIG1_OMEGA0, delta0=FIG1_DELTA0)),
                  ("optimal_noise", build("optimal_noise", n=7))]
        for slug, field in curves:
            save(robustness_curve(field, "beta", axis), f"{base}_{slug}")
    elif figure == 5:
        result = sweep_qs_transitionless(sweep_axis("axis1", "omega0", default_omega0_axis()),
                                         sweep_axis("axis2", "delta0", default_delta0_axis()),
                                         grid)
        save(result, base)
    else:
        lam_axis = sweep_axis("axis1", "lambda", default_lambda_axis(31))
        beta_axis = sweep_axis("axis2", "beta", default_beta_axis(31))
        maps = [("transitionless",
                 build("transitionless", omega0=FIG1_OMEGA0, delta0=FIG1_DELTA0)),
                ("optimal_systematic", build("optimal_systematic", n=1)),
                ("optimal_noise", build("optimal_noise", n=7))]
        for slug, field in maps:
            save(map_p2(field, lam_axis, beta_axis), f"{base}_{slug}")
    for path in written:
        print(path)


_COMMANDS = {
    "protocol": cmd_protocol,
    "simulate": cmd_simulate,
    "sensitivity": cmd_sensitivity,
    "sweep": cmd_sweep,
}


def _attach_axis_values(argv: list) -> list:
    """Rewrite '--axis1 -1,1,21' as '--axis1=-1,1,21'.

    argparse takes a separate value that starts with '-' for a flag, so an
    axis with a negative minimum would otherwise only parse in '=' form.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        value = argv[i + 1]
        if argv[i] in ("--axis1", "--axis2") and value.startswith("-") and not value.startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={value}"]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_axis_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"invlab: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        sys.stdout.write(_json_text(cfg))
        return 0
    try:
        _COMMANDS[args.command](cfg)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invlab: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"invlab: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
