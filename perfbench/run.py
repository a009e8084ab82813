"""invlab benchmark: seeded CLI workloads driven in-process through invlab.cli.main.

    python3 perfbench/run.py --workload error-map --seed 1 --seconds 30 --trace 0

One client issues the next command only after the previous one returns
(closed loop).  A pass is one run through the workload's command list;
passes repeat while at least half of the next one fits in --seconds (at
least two passes for the end-to-end metrics), and every figure reported is a median over passes (or over commands, for
report_s) of times normalized for machine speed (speed.py).  Each
command's outputs are checked, untimed, in the first pass and must be
byte-identical in every later pass.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes
for half the time and traced passes for the rest and prints the
per-layer metrics.  The last stdout line is the result JSON; the line
before it carries provenance.  Results and spans are also written to
.perfbench_out/ at the checkout root.  See NOTES.md for the rationale.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_PASSES = 2  # end-to-end runs: the pass count, and so peak_rss_mb, must not follow speed

import layertrace  # noqa: E402  (these live next to this file)
import speed  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import invlab from this checkout's src/, never from an installed copy."""
    if not (SRC / "invlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'invlab'}")
    sys.path.insert(0, str(SRC))
    import invlab.cli
    if Path(invlab.__file__).resolve().parent != SRC / "invlab":
        raise SystemExit(f"perfbench: imported invlab from {invlab.__file__}, not {SRC}")
    return invlab.cli


def measure_setup(args):
    """Median setup time over fresh processes, normalized like command times."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
        p = json.loads(proc.stdout.splitlines()[-1])
        times.append(p["start"] - spawned + (p["ready"] - p["start"] - p["kernel_s"]) * p["speed"])
    return statistics.median(times)


class Pass(NamedTuple):
    seconds: float  # normalized command time
    raw: float  # raw command time
    wall: float  # raw wall time including checks
    times: list  # normalized time of each command
    raw_times: list  # raw time of each command


class Runner:
    """Runs a command list in the current directory and scores each command."""

    def __init__(self, cli, commands, probe, tracer=None):
        self.cli = cli
        self.commands = commands
        self.probe = probe
        self.tracer = tracer
        self.reference = {}  # command index -> output digest of the checked pass
        self.attempted = 0
        self.failures = []
        self.report_times = []
        self.bytes_per_pass = 0

    def run_command(self, k, cmd):
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.command = k
        self.probe.kind = "arrays" if cmd.kind == "ensemble" else "loops"
        self.probe.sample()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = 1
        t1 = time.perf_counter()
        stdout = out.getvalue()
        paths = stdout.split() if cmd.kind == "sweep" else [cmd.out]
        return rc, (self.probe.normalize(t0, t1), t1 - t0), paths, stdout, err.getvalue()

    def _trace(self, on):
        if self.tracer is not None:
            self.tracer.enabled = on

    def run_pass(self, traced=False):
        import checks  # needs invlab, which import_program puts on the path

        wall0 = time.perf_counter()
        times, raws = [], []
        written = 0
        for k, cmd in enumerate(self.commands):
            self._trace(traced)
            rc, (elapsed, raw), paths, stdout, stderr = self.run_command(k, cmd)
            self._trace(False)
            self.attempted += 1
            times.append(elapsed)
            raws.append(raw)
            if cmd.report:
                self.report_times.append(elapsed)
            problem = f"exit code {rc}: {stderr.strip()}" if rc != 0 else None
            if problem is None:
                digest, size = _digest(paths)
                written += size + len(stdout.encode())
                if k not in self.reference:
                    problem = checks.check(cmd, paths)
                    self.reference[k] = digest
                elif digest != self.reference[k]:
                    problem = "outputs differ from the first pass"
            if problem:
                self.failures.append(f"{' '.join(cmd.argv)}: {problem}")
        self.bytes_per_pass = written
        return Pass(sum(times), sum(raws), time.perf_counter() - wall0, times, raws)

    def run_for(self, seconds, traced=False, on_pass=None, min_passes=1):
        """Passes while at least half of the next one fits in `seconds`; at least `min_passes`."""
        start = time.perf_counter()
        passes = []
        while True:
            n_spans = len(self.tracer.spans) if self.tracer is not None else 0
            passes.append(self.run_pass(traced))
            if on_pass is not None:
                on_pass(n_spans)
            if len(passes) >= min_passes and time.perf_counter() - start + statistics.median(
                    p.wall for p in passes) / 2.0 > seconds:
                return passes


def _digest(paths):
    h = hashlib.sha256()
    size = 0
    for path in sorted(paths):
        data = Path(path).read_bytes()
        size += len(data)
        h.update(path.encode() + b"\0" + data)
    return h.hexdigest(), size


def end_to_end(passes, commands, runner, setup_s):
    # cells are sweep cells, or ensemble means on a workload without sweeps
    cell_kind = "sweep" if any(c.kind == "sweep" for c in commands) else "ensemble"
    cells = sum(c.cells for c in commands if c.kind == cell_kind)
    steps = sum(c.traj_steps for c in commands)
    cell_seconds = [sum(t for t, c in zip(p.times, commands) if c.kind == cell_kind)
                    for p in passes]
    m = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "cells_per_s": (statistics.median(cells / t for t in cell_seconds), "1/s"),
        "report_s": (statistics.median(runner.report_times), "s"),
        "traj_steps_per_s": (statistics.median(steps / p.seconds for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(runner, seconds):
    """Untraced passes for half the time, then traced ones; medians of the traced."""
    tracer = runner.tracer
    layer_passes = []

    def collect(first_span):
        tot = layertrace.layer_totals(tracer.spans[first_span:], first_span)
        layer_passes.append((tot, runner.bytes_per_pass))

    tracer.install()
    try:
        plain = runner.run_for(seconds / 2.0)
        traced = runner.run_for(seconds / 2.0, traced=True, on_pass=collect)
    finally:
        tracer.uninstall()
    overhead = (statistics.median(p.seconds for p in traced)
                / statistics.median(p.seconds for p in plain) - 1.0)
    per_pass = [layertrace.per_layer_metrics(tot, nbytes, overhead)
                for tot, nbytes in layer_passes]
    # share of each traced pass's raw command time spent in each layer's own code
    shares = {layer: statistics.median(tot.get(f"{layer}.self_s", 0.0) / p.raw
                                       for (tot, _), p in zip(layer_passes, traced))
              for layer in layertrace.LAYERS}
    return layertrace.median_metrics(per_pass, tracer.absent_layers()), plain + traced, shares


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def provenance(args, commands, threads_env, extra):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "argv_sha256": workloads.argv_hash(commands),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "INVLAB_THREADS": threads_env, "git_commit": git_commit(), **extra}


def main(argv=None):
    args = parse_args(argv)
    # the benchmark measures the default single worker that users get
    threads_env = os.environ.pop("INVLAB_THREADS", None)
    cli = import_program()
    setup_s = measure_setup(args) if args.trace == 0 else None
    commands = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = layertrace.Tracer() if args.trace else None
    runner = Runner(cli, commands, speed.SpeedProbe(), tracer)
    cwd = os.getcwd()
    os.chdir(outdir)  # commands name their outputs relative to the run directory
    try:
        with runner.probe:
            if args.trace:
                metrics, passes, shares = per_layer(runner, args.seconds)
            else:
                passes = runner.run_for(args.seconds, min_passes=MIN_PASSES)
                metrics = end_to_end(passes, commands, runner, setup_s)
    finally:
        os.chdir(cwd)
        shutil.rmtree(outdir, ignore_errors=True)
    extra = {"passes": len(passes), "raw_pass_s": [p.raw for p in passes],
             "raw_pass_s_median": statistics.median(p.raw for p in passes),
             "speed_samples": len(runner.probe.durations)}
    if args.trace:
        extra.update(absent=tracer.absent, layer_shares=shares)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"spans-{stem}.json")
    prov = provenance(args, commands, threads_env, extra)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"provenance": prov, "failures": runner.failures, **result}, indent=2) + "\n")
    for failure in runner.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
