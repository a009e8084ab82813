"""The CLI's outputs, pinned: tools/cli_outputs.py's runs whose every file is under 8 KiB,
and the FINGERPRINTED large runs, rerun in order and compared with tests/golden/.

tests/golden/ holds, for each small run, its output files, <run>.stdout, <run>.stderr and
its line "<run> <exit code>" in exit_codes.txt, as the tool writes them.  Text must match
exactly, numbers by tools/compare_outputs.py's rule to GOLDEN_REL relative.  For each
fingerprinted run, fingerprints.json holds its exit code and, for each file it writes,
``fingerprint``'s sums of the file's numbers, to GOLDEN_REL relative: a single number of
such a run can move by about GOLDEN_REL times the count unseen, and its text is not
pinned.  After a change that moves outputs on purpose, rewrite the directory from this
checkout with

    python tests/test_golden.py
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REL = 1e-12  # holds across SIMD paths; no real change hides under it
MAX_BYTES = 8 * 1024  # a run is pinned when every file it writes is smaller
# large runs pinned by fingerprints: the default Fig. 7 map, the largest solve path's output
FINGERPRINTED = ("sweep_7",)
FINGERPRINTS = GOLDEN / "fingerprints.json"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_outputs = _tool("cli_outputs")
compare_outputs = _tool("compare_outputs")
cli = cli_outputs.import_cli()  # invlab.cli from this checkout's src/


def _run_each(runs) -> list[tuple[str, int, set[str]]]:
    """Run each (name, args) in the working directory: its name, exit code and new files."""
    done = []
    for name, args in runs:
        before = set(os.listdir())
        code = cli_outputs.run(cli, name, args)
        done.append((name, code, set(os.listdir()) - before))
    return done


def fingerprint(path) -> dict:
    """Count, sum, sum of squares and max |x| of the numbers x_i of a file, read as
    tools/compare_outputs.py reads them, and the sum of i x_i, which a reordering moves."""
    x = [float(v) for _, v in compare_outputs.leaves(path) if compare_outputs._is_number(v)]
    return {"count": len(x), "sum": math.fsum(x), "sum_sq": math.fsum(v * v for v in x),
            "max_abs": max(map(abs, x), default=0.0),
            "sum_ix": math.fsum(i * v for i, v in enumerate(x))}


def _fingerprints(done) -> dict:
    """Run -> its exit code and the fingerprint of each file it wrote, of _run_each's runs."""
    return {name: {"exit_code": code, "files": {f: fingerprint(Path(f)) for f in sorted(new)}}
            for name, code, new in done}


def test_small_cli_outputs_match_the_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", cli_outputs.COLUMNS)
    names = [line.split()[0] for line in (GOLDEN / "exit_codes.txt").read_text().splitlines()]
    runs = [(name, args) for name, args in cli_outputs.runs() if name in names]
    assert [name for name, _ in runs] == names  # every pinned run exists, in the tool's order
    codes = "".join(f"{name} {code}\n" for name, code, _ in _run_each(runs))
    (tmp_path / "exit_codes.txt").write_text(codes, encoding="utf-8")

    files = sorted({p.name for root in (GOLDEN, tmp_path) for p in root.iterdir()}
                   - {FINGERPRINTS.name})
    faults = []
    for name in files:
        want, got = GOLDEN / name, tmp_path / name
        if not (want.is_file() and got.is_file()):
            faults.append(f"{name}: only in {'the rerun' if got.is_file() else 'tests/golden'}")
        elif want.read_bytes() != got.read_bytes():
            result = compare_outputs.compare(want, got)
            if isinstance(result, str):
                faults.append(f"{name}: text differs at {result}")
            elif result[2] > GOLDEN_REL:
                faults.append(f"{name}: max rel {result[2]:.3g} at {result[3]}")
    assert not faults, "\n".join(faults)


def test_large_cli_outputs_match_their_fingerprints(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", cli_outputs.COLUMNS)
    want = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(FINGERPRINTED)
    got = _fingerprints(_run_each((name, args) for name, args in cli_outputs.runs()
                                  if name in FINGERPRINTED))
    faults = []
    for run in FINGERPRINTED:
        if got[run]["exit_code"] != want[run]["exit_code"] or (
                sorted(got[run]["files"]) != sorted(want[run]["files"])):
            faults.append(f"{run}: exit code or files {got[run]} against {want[run]}")
            continue
        for name, a in want[run]["files"].items():
            b = got[run]["files"][name]
            if a["count"] != b["count"]:
                faults.append(f"{name}: {b['count']} numbers against {a['count']}")
            for key in ("sum", "sum_sq", "max_abs", "sum_ix"):
                if abs(a[key] - b[key]) > GOLDEN_REL * max(abs(a[key]), abs(b[key])):
                    faults.append(f"{name}: {key} {b[key]!r} against {a[key]!r}")
    assert not faults, "\n".join(faults)


def test_a_dumped_config_reproduces_the_run_of_its_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = ("dump_config_11", "simulate_config", "simulate_config_flags")
    done = _run_each((name, args) for name, args in cli_outputs.runs() if name in names)
    assert [(name, code) for name, code, _ in done] == [(name, 0) for name in names]
    csv = (tmp_path / "simulate_config.csv").read_bytes()
    assert csv.startswith(b"t,r1,r2,r3\n") and csv.count(b"\n") == 12
    assert csv == (tmp_path / "simulate_config_flags.csv").read_bytes()


def regenerate() -> None:
    """Rewrite tests/golden/ with every run whose files are all under MAX_BYTES, and the
    fingerprints of the FINGERPRINTED runs."""
    os.environ["COLUMNS"] = cli_outputs.COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        kept, large = [], []
        for name, code, new in _run_each(cli_outputs.runs()):
            if name in FINGERPRINTED:
                large.append((name, code, new))
            elif all(os.path.getsize(f) < MAX_BYTES for f in new):
                kept.append((name, code, new))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        GOLDEN.mkdir()
        for _, _, new in kept:
            for f in new:
                shutil.copyfile(f, GOLDEN / f)
        prints = _fingerprints(large)
    codes = "".join(f"{name} {code}\n" for name, code, _ in kept)
    (GOLDEN / "exit_codes.txt").write_text(codes, encoding="utf-8")
    FINGERPRINTS.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(kept)} runs, {len(prints)} fingerprinted")


if __name__ == "__main__":
    regenerate()
