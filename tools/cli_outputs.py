"""Write the outputs of a fixed set of invlab CLI runs to OUTDIR, for a byte comparison.

    python tools/cli_outputs.py OUTDIR

Each run calls invlab.cli.main in-process, with OUTDIR as the working
directory, and leaves its output files there together with <run>.stdout,
<run>.stderr and a line "<run> <exit code>" in exit_codes.txt.  invlab is
imported from this checkout's src/, never from an installed copy.  OUTDIR
must be empty or new (exit status 2 otherwise), so no file of an earlier run
survives into the comparison.  Run the script from two checkouts and compare
the directories with `diff -r`, or with tools/compare_outputs.py where
numbers may move in the last bits.  tests/test_golden.py reruns the runs
whose files are small and compares them with tests/golden/.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COLUMNS = "100"  # the terminal width argparse wraps --help to

# the kind settings: every family, each optimal one at two indices
KINDS = {
    "flat_pi": ["--kind", "flat_pi", "--alpha", "0.3"],
    "shaped_pi_sin": ["--kind", "shaped_pi", "--envelope", "sin"],
    "shaped_pi_flat": ["--kind", "shaped_pi", "--envelope", "flat"],
    "sinusoidal": ["--kind", "sinusoidal_adiabatic", "--omega0", "3", "--delta0", "2"],
    "transitionless": ["--kind", "transitionless", "--omega0", "3", "--delta0", "2"],
    "optimal_noise_3": ["--kind", "optimal_noise", "--n", "3"],
    "optimal_noise_7": ["--kind", "optimal_noise", "--n", "7"],
    "optimal_systematic_1": ["--kind", "optimal_systematic", "--n", "1"],
    "optimal_systematic_2": ["--kind", "optimal_systematic", "--n", "2"],
}


def runs():
    """(run name, argv) pairs; the names are unique file stems."""
    for name, kind in KINDS.items():
        yield f"protocol_{name}", ["protocol", *kind, "--out", f"protocol_{name}.csv"]
        yield f"protocol_{name}_json", ["protocol", *kind, "--format", "json", "--duration",
                                        "2.5", "--out", f"protocol_{name}.json"]
        yield f"sensitivity_{name}", ["sensitivity", *kind, "--method", "both",
                                      "--out", f"sensitivity_{name}.json"]
        # on 11 points the angle route and the propagator route of the formulas differ most
        yield f"sensitivity_{name}_coarse", ["sensitivity", *kind, "--method", "formula",
                                             "--grid-steps", "11",
                                             "--out", f"sensitivity_{name}_coarse.json"]
    # on 12 points (0 mod 4) the error estimate compares a prefix and a suffix of the grid
    yield "sensitivity_transitionless_12", ["sensitivity", *KINDS["transitionless"], "--method",
                                            "formula", "--grid-steps", "12",
                                            "--out", "sensitivity_transitionless_12.json"]
    # --duration is the one place T enters: q_N divides by T, q_S stays
    for name in ("transitionless", "optimal_noise_7"):
        yield f"sensitivity_{name}_duration", [
            "sensitivity", *KINDS[name], "--method", "both", "--duration", "2.5",
            "--out", f"sensitivity_{name}_duration.json"]
    # 2001 steps: two Bloch chunks, and a half-resolution solve whose last step is taken at h
    for name in ("transitionless", "optimal_noise_7"):
        yield f"sensitivity_{name}_2002", [
            "sensitivity", *KINDS[name], "--method", "both", "--grid-steps", "2002",
            "--out", f"sensitivity_{name}_2002.json"]
    bloch = ["simulate", *KINDS["transitionless"], "--beta", "0.05", "--lambda2", "0.1"]
    yield "simulate", [*bloch, "--out", "simulate.csv"]
    yield "simulate_json", [*bloch, "--format", "json", "--out", "simulate.json"]
    yield "simulate_duration", [*bloch, "--format", "csv", "--duration", "2.5",
                                "--out", "simulate_duration.csv"]
    yield "simulate_sse", ["simulate", *KINDS["transitionless"], "--sse", "--lambda2", "0.09",
                           "--n-traj", "300", "--seed", "42", "--out", "simulate_sse.json"]
    yield "simulate_sse_duration", ["simulate", *KINDS["transitionless"], "--sse", "--lambda2",
                                    "0.09", "--n-traj", "300", "--seed", "42", "--duration", "2.5",
                                    "--out", "simulate_sse_duration.json"]
    # the default ensemble (10^4 trajectories, dt = 1/4000) is one batch of ten 1024-wide
    # Philox streams; 10241 crosses a batch boundary
    for name, n_traj in (("_default", []), ("_10241", ["--n-traj", "10241"])):
        yield f"simulate_sse{name}", ["simulate", *KINDS["transitionless"], "--sse", "--lambda2",
                                      "0.09", "--seed", "42", *n_traj,
                                      "--out", f"simulate_sse{name}.json"]
    # 1025 trajectories cross the edge between the first two streams
    yield "simulate_sse_stream_edge", ["simulate", *KINDS["transitionless"], "--sse", "--lambda2",
                                       "0.09", "--seed", "42", "--n-traj", "1025",
                                       "--grid-steps", "101", "--dt", "0.001",
                                       "--out", "simulate_sse_stream_edge.json"]
    # optimal_noise's theta is evaluated at the SSE times; at dt = 1/8000 they fall between
    # the nodes of the field's grid
    for name, dt in (("", []), ("_dt8000", ["--dt", "0.000125"])):
        yield f"simulate_sse_optimal_noise{name}", [
            "simulate", *KINDS["optimal_noise_7"], "--sse", "--lambda2", "0.09", "--n-traj", "300",
            "--seed", "42", *dt, "--out", f"simulate_sse_optimal_noise{name}.json"]
    for figure in (1, 2, 4, 5, 7):
        yield f"sweep_{figure}", ["sweep", "--figure", str(figure), "--out", f"figure{figure}"]
    # q_N has units 1/T, so --duration rescales the Fig. 2 cells; P2 and q_S stay
    for figure in (1, 2, 5):
        yield f"sweep_{figure}_duration", ["sweep", "--figure", str(figure), "--duration", "2.5",
                                           "--out", f"figure{figure}_duration"]
    # the delta0 = 0 cells are singular fields, written as empty cells
    yield "sweep_2_signed", ["sweep", "--figure", "2", "--axis1=1,2,2", "--axis2=-1,1,3",
                             "--grid-steps", "101", "--out", "figure2_signed"]
    yield "sweep_5_signed", ["sweep", "--figure", "5", "--axis1=1,2,2", "--axis2=-1,1,3",
                             "--grid-steps", "101", "--out", "figure5_signed"]
    # a sweep always writes CSV and a JSON sidecar, so it takes no --format
    yield "sweep_format_json", ["sweep", "--figure", "4", "--format", "json", "--grid-steps", "101",
                                "--out", "figure4_format"]
    yield "help", ["--help"]
    for command in ("protocol", "simulate", "sensitivity", "sweep"):
        yield f"help_{command}", [command, "--help"]
    yield "dump_config", ["simulate", *KINDS["optimal_noise_7"], "--lambda2", "0.1",
                          "--dump-config"]
    # refusals, last so that the earlier lines of exit_codes.txt keep their bytes: an ensemble
    # whose Euler steps overflow, and a non-finite protocol parameter
    yield "simulate_sse_diverged", ["simulate", "--kind", "transitionless", "--omega0", "1e4",
                                    "--delta0", "1e4", "--sse", "--lambda2", "0", "--n-traj", "10",
                                    "--out", "simulate_sse_diverged.json"]
    yield "protocol_flat_pi_alpha_inf", ["protocol", "--kind", "flat_pi", "--alpha", "inf",
                                         "--out", "protocol_flat_pi_alpha_inf.csv"]
    # finite transitionless parameters whose channels overflow a float
    huge = ["--kind", "transitionless", "--omega0", "1e200", "--delta0", "1", "--grid-steps", "11"]
    yield "protocol_transitionless_1e200", ["protocol", *huge,
                                            "--out", "protocol_transitionless_1e200.csv"]
    yield "sensitivity_transitionless_1e200", ["sensitivity", *huge, "--method", "formula",
                                               "--out", "sensitivity_transitionless_1e200.json"]
    yield "sweep_2_1e200", ["sweep", "--figure", "2", "--axis1=1e200,1e201,2", "--axis2=1,2,2",
                            "--grid-steps", "11", "--out", "figure2_1e200"]
    # no corner of the plane overflows, the counter-diabatic term at delta0 = -0.25 does
    yield "sweep_2_least_delta0", ["sweep", "--figure", "2", "--axis1=1e153,2e153,2",
                                   "--axis2=-1,1,9", "--grid-steps", "11",
                                   "--out", "figure2_least_delta0"]
    # a field whose |Omega|^2 overflows, under the Bloch RK4 and the SSE step checks
    overflow = ["simulate", "--kind", "sinusoidal_adiabatic", "--omega0", "1e200", "--delta0",
                "1", "--grid-steps", "11", "--lambda2", "0.1"]
    yield "simulate_sinusoidal_1e200", [*overflow, "--out", "simulate_sinusoidal_1e200.csv"]
    yield "simulate_sse_sinusoidal_1e200", [*overflow, "--sse", "--n-traj", "4", "--dt", "0.025",
                                            "--out", "simulate_sse_sinusoidal_1e200.json"]
    # 30 SSE steps: the last group of four holds two
    yield "simulate_sse_tail_group", ["simulate", "--kind", "flat_pi", "--grid-steps", "11",
                                      "--sse", "--lambda2", "0.1", "--n-traj", "100",
                                      "--dt", "0.03333333333333333", "--seed", "3",
                                      "--out", "simulate_sse_tail_group.json"]
    # a field that does not invert, refused by the derivative route as by the formulas
    yield "sensitivity_sinusoidal_6_4_derivative", [
        "sensitivity", "--kind", "sinusoidal_adiabatic", "--omega0", "6", "--delta0", "4",
        "--method", "finite-difference", "--out", "sensitivity_sinusoidal_6_4_derivative.json"]
    # delta0 < 0: theta runs from pi to 0, so the stored cos(theta) starts at -1
    yield "sensitivity_transitionless_negative_delta0", [
        "sensitivity", "--kind", "transitionless", "--omega0", "3", "--delta0", "-2",
        "--method", "both", "--out", "sensitivity_transitionless_negative_delta0.json"]
    # shaped_pi's stage tables across two Bloch chunks, and a half solve of an odd step count
    yield "sensitivity_shaped_pi_sin_2002", [
        "sensitivity", *KINDS["shaped_pi_sin"], "--grid-steps", "2002", "--method", "both",
        "--out", "sensitivity_shaped_pi_sin_2002.json"]
    # on 2001 points a block is 3 cells: two blocks hold a singular delta0 = 0 cell, the last
    # is all regular, so both divisions of a block are run
    for figure in (2, 5):
        yield f"sweep_{figure}_blocks", ["sweep", "--figure", str(figure), "--axis1=1,2,2",
                                         "--axis2=0,2,4", "--out", f"figure{figure}_blocks"]
    # 4001 points: pure-state solves of two chunks, P2 maps and sensitivities alike
    yield "sweep_4_4001", ["sweep", "--figure", "4", "--grid-steps", "4001", "--axis1=-1,1,5",
                           "--out", "figure4_4001"]
    yield "sensitivity_optimal_systematic_1_4001", [
        "sensitivity", *KINDS["optimal_systematic_1"], "--method", "both", "--grid-steps", "4001",
        "--out", "sensitivity_optimal_systematic_1_4001.json"]
    # a bare sinusoidal field that inverts: the formulas read its propagator
    for n_points in ("2001", "4001"):
        yield f"sensitivity_sinusoidal_30_60_{n_points}", [
            "sensitivity", "--kind", "sinusoidal_adiabatic", "--omega0", "30", "--delta0", "60",
            "--method", "both", "--grid-steps", n_points,
            "--out", f"sensitivity_sinusoidal_30_60_{n_points}.json"]
    # JSON holds no NaN: a non-finite config is refused, not dumped
    yield "dump_config_beta_nan", ["simulate", "--kind", "flat_pi", "--beta", "nan",
                                   "--dump-config"]
    # a --duration so small that the channels and q_N divided by it overflow a float
    tiny = ["--duration", "1e-310"]
    yield "protocol_flat_pi_duration_tiny", ["protocol", "--kind", "flat_pi", "--grid-steps", "3",
                                             *tiny, "--out", "protocol_flat_pi_duration_tiny.csv"]
    yield "protocol_flat_pi_duration_tiny_json", [
        "protocol", "--kind", "flat_pi", "--grid-steps", "3", "--format", "json", *tiny,
        "--out", "protocol_flat_pi_duration_tiny.json"]
    yield "sensitivity_flat_pi_duration_tiny", [
        "sensitivity", "--kind", "flat_pi", "--grid-steps", "11", "--method", "formula", *tiny,
        "--out", "sensitivity_flat_pi_duration_tiny.json"]
    yield "sweep_2_duration_tiny", ["sweep", "--figure", "2", "--axis1=1,2,2", "--axis2=1,2,2",
                                    "--grid-steps", "11", *tiny, "--out", "figure2_duration_tiny"]
    # a dumped config read back with --config writes the same CSV as the flags it holds
    flags = ["simulate", *KINDS["optimal_noise_7"], "--lambda2", "0.1", "--grid-steps", "11"]
    yield "dump_config_11", [*flags, "--dump-config"]
    yield "simulate_config", ["simulate", "--config", "dump_config_11.stdout",
                              "--out", "simulate_config.csv"]
    yield "simulate_config_flags", [*flags, "--out", "simulate_config_flags.csv"]


def import_cli():
    """invlab.cli from this checkout's src/."""
    if not (SRC / "invlab" / "__init__.py").is_file():
        raise SystemExit(f"cli_outputs: no program source at {SRC / 'invlab'}")
    sys.path.insert(0, str(SRC))
    import invlab.cli
    if Path(invlab.__file__).resolve().parent != SRC / "invlab":
        raise SystemExit(f"cli_outputs: imported invlab from {invlab.__file__}, not {SRC}")
    return invlab.cli


def run(cli, name: str, args: list) -> int:
    """One run in the working directory: its files, <name>.stdout and <name>.stderr; its
    exit code.  argparse wraps --help to COLUMNS, which the caller sets."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    Path(f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    Path(f"{name}.stderr").write_text(stderr.getvalue(), encoding="utf-8")
    return code


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"cli_outputs: {out} is not an empty directory", file=sys.stderr)
        return 2
    cli = import_cli()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    os.environ["COLUMNS"] = COLUMNS
    codes = [f"{name} {run(cli, name, args)}\n" for name, args in runs()]
    Path("exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
