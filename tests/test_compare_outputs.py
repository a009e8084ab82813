import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def compare(a, b):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def write_tree(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def test_numbers_that_moved_are_measured(tmp_path):
    csv_a = "t,p2\n0,0.5\n1,2e-12\n"
    csv_b = "t,p2\n0,0.50000000000000011\n1,3e-12\n"
    json_a = {"z": [1.0, 2.0], "a": {"q_n": 4.0, "label": "flat_pi"}, "n": 3}
    json_b = {"a": {"label": "flat_pi", "q_n": 4.000000000001}, "n": 3, "z": [1.0, 2.0]}
    write_tree(tmp_path / "a", {"same.csv": "t\n1\n", "f.csv": csv_a,
                                "r.json": json.dumps(json_a)})
    write_tree(tmp_path / "b", {"same.csv": "t\n1\n", "f.csv": csv_b,
                                "r.json": json.dumps(json_b, indent=2)})
    rc, lines = compare(tmp_path / "a", tmp_path / "b")
    assert rc == 0
    # identical files are skipped; 1e-12 apart at 2e-12 counts in abs only (below 1e-10)
    assert lines == [
        "f.csv: max abs 1e-12 (line 3 cell 2), max rel 2.22e-16 (line 2 cell 2), "
        "2 numbers differ",
        "r.json: max abs 1e-12 (/a/q_n), max rel 2.5e-13 (/a/q_n), 1 numbers differ",
    ]


def test_missing_files_and_text_changes_exit_1(tmp_path):
    write_tree(tmp_path / "a", {"only_a.csv": "t\n1\n", "h.csv": "t,p2\n0,\n",
                                "r.json": '{"label": "x", "q": 1}', "out.stdout": "wrote a\n"})
    write_tree(tmp_path / "b", {"h.csv": "t,p2\n0,0\n", "r.json": '{"label": "y", "q": 1}',
                                "out.stdout": "wrote a\n"})
    rc, lines = compare(tmp_path / "a", tmp_path / "b")
    assert rc == 1
    assert lines == [
        "h.csv: text differs at line 2 cell 2: '' against 0.0",
        f"only_a.csv: missing in {tmp_path / 'b'}",
        "r.json: text differs at /label: 'x' against 'y'",
    ]


def test_identical_trees_print_nothing(tmp_path):
    write_tree(tmp_path / "a", {"f.csv": "t\n0.1\n"})
    write_tree(tmp_path / "b", {"f.csv": "t\n0.1\n"})
    assert compare(tmp_path / "a", tmp_path / "b") == (0, [])
