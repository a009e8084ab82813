"""Command-line front end: protocol | simulate | sensitivity | sweep.

All inputs are dimensionless, scaled by the total duration T: Rabi and
detuning amplitudes are given as omega*T, noise strength as
lambda/T^(1/2), time steps as fractions of T.  The library computes in
units of T, on [0, 1]; this module is the one place T enters, and the
--duration flag only rescales displayed outputs (time columns multiply
by T, rates and q_N divide by T).

A JSON config file mirroring the flag structure can be passed with
--config; explicit flags override file values, and --dump-config echoes
the effective configuration so a run can be reproduced exactly.  The
option table _OPTIONS makes the flags, the config defaults and the key,
type and choice checks of config values; its protocol rows come from the
protocol table in invlab.protocols (default null: the kind's own), which
checks every protocol value set.  Exit codes: 0 success, 2 bad input (a
ValueError, or an unreadable --config file), 1 any other failure, a
fault of the program included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .core import GROUND_BLOCH, ControlField, TimeGrid, csv_text, json_text, write_text
from .dynamics import ErrorSetting, evolve_bloch, monte_carlo_p2
from .protocols import PROTOCOLS, ProtocolSpec
from .sensitivity import qn_derivative, qn_formula, qs_derivative, qs_formula
from .sweeps import FIGURES, Axis


class _Option(NamedTuple):
    group: str  # flag group, see _SUBCOMMANDS
    section: str | None  # None: a top-level config key
    key: str
    flag: str
    type: type
    choices: tuple | None
    default: object
    help: str


# Every config key and the flag that sets it.  The table makes the argparse
# flags, the config defaults, the known-key and value checks of config
# files, and the flag-over-file merge.
_OPTIONS = (
    _Option("common", "grid", "n_steps", "--grid-steps", int, None, 2001,
            "grid points (default 2001)"),
    _Option("common", "output", "path", "--out", str, None, None,
            "output path (default: stdout)"),
    # read by protocol and simulate only: a sweep always writes CSV and a JSON sidecar,
    # and a sensitivity report is always JSON
    _Option("format", "output", "format", "--format", str, ("csv", "json"), "csv", "output format"),
    _Option("common", None, "duration", "--duration", float, None, 1.0,
            "physical duration T used only to scale displayed outputs"),
    _Option("protocol", "protocol", "kind", "--kind", str, None, None, "protocol kind"),
    # one row per protocol parameter name, as the protocol table gives it (choices are
    # names, so strings); None leaves the kind's own default
    *(_Option("protocol", "protocol", p.name, f"--{p.name}", str if p.choices else p.type,
              tuple(sorted(p.choices)) if p.choices else None, None, p.help)
      for p in {q.name: q for family in PROTOCOLS.values() for q in family.params}.values()),
    _Option("simulate", "errors", "beta", "--beta", float, None, 0.0, "systematic error amplitude"),
    _Option("simulate", "errors", "lambda2", "--lambda2", float, None, 0.0,
            "noise intensity lambda^2 (units T)"),
    _Option("simulate", "simulate", "sse", "--sse", bool, None, False,
            "run a Monte Carlo SSE ensemble instead of the Bloch equation"),
    _Option("simulate", "monte_carlo", "seed", "--seed", int, None, 0,
            "64-bit RNG seed (default 0)"),
    _Option("simulate", "monte_carlo", "n_traj", "--n-traj", int, None, 10000,
            "SSE trajectories (default 10000)"),
    _Option("simulate", "monte_carlo", "dt", "--dt", float, None, 0.00025,
            "SSE time step in units of T (default 1/4000)"),
    _Option("sensitivity", "sensitivity", "method", "--method", str,
            ("formula", "finite-difference", "both"), "both", "analysis route (default both)"),
    _Option("sweep", "sweep", "figure", "--figure", int, tuple(FIGURES), None,
            "which figure's data to produce"),
    _Option("sweep", "sweep", "axis1", "--axis1", str, None, None,
            "override first axis as 'min,max,n_points'"),
    _Option("sweep", "sweep", "axis2", "--axis2", str, None, None,
            "override second axis as 'min,max,n_points'"),
)


@functools.cache  # one parser per process: main only reads it, and building it costs 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Generate, simulate and stress-test population-inversion protocols.")
    sub = parser.add_subparsers(dest="command")
    for command, (_, text, groups) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        cmd.add_argument("--config", help="JSON config file; flags override its values")
        cmd.add_argument("--dump-config", action="store_true",
                         help="print the effective config as JSON and exit")
        for opt in _OPTIONS:
            if opt.group not in groups:
                continue
            if opt.type is bool:
                cmd.add_argument(opt.flag, action="store_true", default=None, help=opt.help)
            else:
                cmd.add_argument(opt.flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def _check_value(opt: _Option, value) -> None:
    """Type and choice check of one merged value; '-' and '_' are alike in choices."""
    if value is None and opt.default is None:
        return
    name = f"{opt.section}.{opt.key}" if opt.section else opt.key
    types = (int, float) if opt.type is float else opt.type
    if not isinstance(value, types) or (isinstance(value, bool) and opt.type is not bool):
        raise ValueError(f"config {name} must be {opt.type.__name__}, got {value!r}")
    if opt.choices and (value.replace("_", "-") if opt.type is str else value) not in opt.choices:
        raise ValueError(f"config {name} must be one of {list(opt.choices)}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    for opt in _OPTIONS:
        (cfg.setdefault(opt.section, {}) if opt.section else cfg)[opt.key] = opt.default
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            if not isinstance(cfg[key], dict):
                cfg[key] = value
                continue
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object")
            for sub in value:
                if sub not in cfg[key]:
                    raise ValueError(f"unknown config key {key}.{sub}")
            cfg[key].update(value)
    for opt in _OPTIONS:
        table = cfg[opt.section] if opt.section else cfg
        flag_value = getattr(args, opt.flag[2:].replace("-", "_"), None)
        if flag_value is not None:
            table[opt.key] = flag_value
        _check_value(opt, table[opt.key])

    if not (cfg["duration"] > 0.0 and math.isfinite(cfg["duration"])):
        raise ValueError(f"duration must be finite and positive, got {cfg['duration']}")
    return cfg


def _field_from_config(cfg: dict) -> ControlField:
    p = cfg["protocol"]
    if not p["kind"]:
        raise ValueError("a protocol kind is required (--kind or config protocol.kind)")
    params = {key: value for key, value in p.items() if key != "kind" and value is not None}
    return ProtocolSpec(p["kind"], params).build(TimeGrid(cfg["grid"]["n_steps"]))


def _emit(cfg: dict, text: str) -> None:
    path = cfg["output"]["path"]
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _emit_columns(cfg: dict, label: str, header: str, columns, **extra) -> None:
    """Columns as CSV, or as JSON keyed by the header's names plus label and ``extra``."""
    if cfg["output"]["format"] == "json":
        _emit(cfg, json_text({"label": label, **dict(zip(header.split(","), map(list, columns))),
                              **extra}))
    else:
        _emit(cfg, csv_text(header, columns))


def _per_duration(values, T: float):
    """values / T, for an output in units of 1/T; refused where a finite value overflows."""
    with np.errstate(over="ignore"):
        scaled = np.divide(values, T)
    if np.any(np.isinf(scaled) & np.isfinite(values)):
        raise ValueError(f"--duration {T!r}: an output divided by it overflows a float")
    return scaled


def cmd_protocol(cfg: dict) -> None:
    field = _field_from_config(cfg)
    T = cfg["duration"]
    header, (t, *channels) = field.csv_columns()
    _emit_columns(cfg, field.label, header, [t * T, *(_per_duration(c, T) for c in channels)])


def cmd_simulate(cfg: dict) -> None:
    field = _field_from_config(cfg)
    T = cfg["duration"]
    setting = ErrorSetting(beta=float(cfg["errors"]["beta"]),
                           lambda2=float(cfg["errors"]["lambda2"]))
    if cfg["simulate"]["sse"]:
        if setting.beta != 0.0:
            raise ValueError(f"--beta {setting.beta:g}: the SSE ensemble has no systematic error")
        mc = cfg["monte_carlo"]
        result = monte_carlo_p2(field, setting.lambda2,
                                int(mc["n_traj"]), float(mc["dt"]), int(mc["seed"]))
        _emit(cfg, json_text({"p2_mean": result.p2_mean, "p2_stderr": result.p2_stderr,
                              "n_traj": result.n_traj, "seed": result.seed,
                              "dt": result.dt * T}))
        return
    traj = evolve_bloch(field, GROUND_BLOCH, setting)
    header, (t, *states) = traj.csv_columns()
    _emit_columns(cfg, field.label, header, [t * T, *states], p2_final=traj.final_p2())


def cmd_sensitivity(cfg: dict) -> None:
    field = _field_from_config(cfg)
    T = cfg["duration"]
    method = cfg["sensitivity"]["method"].replace("-", "_")

    def pack(qn_report, qs_report):
        return {"q_n": _per_duration(qn_report.q_n, T),
                "q_n_error": _per_duration(qn_report.error_estimate, T),
                "q_s": qs_report.q_s, "q_s_error": qs_report.error_estimate}

    out = {"protocol_label": field.label, "method": method,
           "grid": {"n_steps": field.grid.n_steps}}
    if method in ("formula", "both"):
        out.update(pack(qn_formula(field), qs_formula(field)))
    if method in ("finite_difference", "both"):
        # the derivative route keeps the method's old name, flag value and JSON key
        fd = pack(qn_derivative(field), qs_derivative(field))
        if method == "both":
            out["finite_difference"] = fd
        else:
            out.update(fd)
    _emit(cfg, json_text(out))


def _parse_axis(spec: str | None, fallback: Axis) -> Axis:
    if not spec:
        return fallback
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be 'min,max,n_points', got {spec!r}")
    return Axis(fallback.name, float(parts[0]), float(parts[1]), int(parts[2]))


def cmd_sweep(cfg: dict) -> None:
    figure = cfg["sweep"]["figure"]
    if figure is None:
        raise ValueError(f"sweep requires --figure in {set(FIGURES)}")
    default_axes, analysis, protocols = FIGURES[figure]
    if len(default_axes) == 1 and cfg["sweep"]["axis2"] is not None:
        raise ValueError(f"sweep --figure {figure} has one axis; --axis2 does not apply")
    axes = [_parse_axis(cfg["sweep"][f"axis{i}"], fallback)
            for i, fallback in enumerate(default_axes, start=1)]
    T = cfg["duration"]
    grid = TimeGrid(cfg["grid"]["n_steps"])
    base = cfg["output"]["path"] or f"figure{figure}"
    results = []  # every curve or map first, so a refusal leaves no partial figure behind
    for kind, params in protocols:
        result = analysis(ProtocolSpec(kind, params).build(grid) if kind else grid, *axes)
        if result.quantity == "q_n":  # q_N has units 1/T
            result = replace(result, values=_per_duration(result.values, T))
        results.append((f"{base}_{kind}" if kind else base, result))
    for path_base, result in results:
        write_text(path_base + ".csv", csv_text(*result.csv_columns()))
        result.to_json_sidecar(path_base + ".json")
        print(f"{path_base}.csv\n{path_base}.json")


# subcommand -> (handler, help, flag groups it takes)
_SUBCOMMANDS = {
    "protocol": (cmd_protocol, "emit a generated control field",
                 ("common", "format", "protocol")),
    "simulate": (cmd_simulate, "evolve a protocol (Bloch equation or SSE ensemble)",
                 ("common", "format", "protocol", "simulate")),
    "sensitivity": (cmd_sensitivity, "compute noise/systematic sensitivities",
                    ("common", "protocol", "sensitivity")),
    "sweep": (cmd_sweep, "reproduce a figure's data on a parameter grid", ("common", "sweep")),
}


_VALUE_FLAGS = frozenset(opt.flag for opt in _OPTIONS if opt.type is not bool)


def _attach_values(argv: list) -> list:
    """Rewrite '--beta -5e-2' as '--beta=-5e-2' for every value-taking flag.

    argparse takes a separate value that starts with '-' for a flag unless
    it looks like a plain negative number, so '-inf', '-1e-3' and an axis
    with a negative minimum would otherwise only parse in '=' form.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        value = argv[i + 1]
        if argv[i] in _VALUE_FLAGS and value.startswith("-") and not value.startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={value}"]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError) as exc:  # OSError only from reading --config
        print(f"invlab: {exc}", file=sys.stderr)
        return 2
    try:
        if args.dump_config:
            sys.stdout.write(json_text(cfg))
        else:
            _SUBCOMMANDS[args.command][0](cfg)
    except ValueError as exc:
        print(f"invlab: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"invlab: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
