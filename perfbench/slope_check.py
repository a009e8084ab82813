"""Check that speed normalization absorbs machine-speed drift on a workload.

    python3 perfbench/slope_check.py --workload error-map --seed 1 --seconds 120

Runs passes of the workload for --seconds and regresses log(normalized
command time) on log(raw command time), both centred on each command's own
mean.  A slope of 0 means the reference kernel absorbs every swing of raw
time; 1 means it corrects nothing.  Normalized times of a workload are only
trusted while its slope stays small: repeat this check whenever a change
alters the kind of work an engine does (a batched propagator, an SSE
rewrite) and, if the slope grows, retune that kind's kernel in speed.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import tempfile

import run
import speed
import workloads


def slope(passes):
    """Least-squares slope of centred log(normalized) on centred log(raw) times."""
    xs, ys = [], []
    for k in range(len(passes[0].times)):
        lx = [math.log(p.raw_times[k]) for p in passes]
        ly = [math.log(p.times[k]) for p in passes]
        mx, my = statistics.fmean(lx), statistics.fmean(ly)
        xs += [x - mx for x in lx]
        ys += [y - my for y in ly]
    sxx = sum(x * x for x in xs)
    return sum(x * y for x, y in zip(xs, ys)) / sxx, math.sqrt(sxx / len(xs))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=120.0)
    args = p.parse_args(argv)
    os.environ.pop("INVLAB_THREADS", None)
    cli = run.import_program()
    commands = workloads.generate(args.workload, args.seed)
    run.OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"slope-{args.workload}-", dir=run.OUT)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        runner = run.Runner(cli, commands, speed.SpeedProbe())
        with runner.probe:
            passes = runner.run_for(args.seconds, min_passes=3)
    finally:
        os.chdir(cwd)
        shutil.rmtree(outdir, ignore_errors=True)
    b, raw_sd = slope(passes)
    print(json.dumps({"workload": args.workload, "passes": len(passes), "slope": b,
                      "raw_log_sd": raw_sd}))


if __name__ == "__main__":
    main()
