"""The CLI's small outputs, pinned: tools/cli_outputs.py's runs whose every file is under
8 KiB, rerun in order and compared with tests/golden/.

tests/golden/ holds, for each such run, its output files, <run>.stdout, <run>.stderr and
its line "<run> <exit code>" in exit_codes.txt, as the tool writes them.  Text must match
exactly, numbers by tools/compare_outputs.py's rule to GOLDEN_REL relative.  After a change
that moves outputs on purpose, rewrite the directory from this checkout with

    python tests/test_golden.py
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REL = 1e-12  # holds across SIMD paths; no real change hides under it
MAX_BYTES = 8 * 1024  # a run is pinned when every file it writes is smaller


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


def test_small_cli_outputs_match_the_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", cli_outputs.COLUMNS)
    names = [line.split()[0] for line in (GOLDEN / "exit_codes.txt").read_text().splitlines()]
    runs = [(name, args) for name, args in cli_outputs.runs() if name in names]
    assert [name for name, _ in runs] == names  # every pinned run exists, in the tool's order
    codes = "".join(f"{name} {code}\n" for name, code, _ in _run_each(runs))
    (tmp_path / "exit_codes.txt").write_text(codes, encoding="utf-8")

    files = sorted({p.name for root in (GOLDEN, tmp_path) for p in root.iterdir()})
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


def test_a_dumped_config_reproduces_the_run_of_its_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = ("dump_config_11", "simulate_config", "simulate_config_flags")
    done = _run_each((name, args) for name, args in cli_outputs.runs() if name in names)
    assert [(name, code) for name, code, _ in done] == [(name, 0) for name in names]
    csv = (tmp_path / "simulate_config.csv").read_bytes()
    assert csv.startswith(b"t,r1,r2,r3\n") and csv.count(b"\n") == 12
    assert csv == (tmp_path / "simulate_config_flags.csv").read_bytes()


def regenerate() -> None:
    """Rewrite tests/golden/ with every run whose files are all under MAX_BYTES."""
    os.environ["COLUMNS"] = cli_outputs.COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        kept = []
        for name, code, new in _run_each(cli_outputs.runs()):
            if all(os.path.getsize(f) < MAX_BYTES for f in new):
                kept.append((name, code, new))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        GOLDEN.mkdir()
        for _, _, new in kept:
            for f in new:
                shutil.copyfile(f, GOLDEN / f)
    codes = "".join(f"{name} {code}\n" for name, code, _ in kept)
    (GOLDEN / "exit_codes.txt").write_text(codes, encoding="utf-8")
    print(f"{GOLDEN}: {len(kept)} runs")


if __name__ == "__main__":
    regenerate()
