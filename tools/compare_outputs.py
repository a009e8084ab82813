"""Report how far the numbers of two output trees are apart.

    python tools/compare_outputs.py DIR_A DIR_B

Files are paired by their path below each directory, and byte-identical
pairs are skipped.  For every other pair the script prints the largest
absolute and relative difference of its numbers: JSON files are compared
leaf by leaf with object keys sorted, every other file line by line and
cell by cell between commas (CSV cells, or whole lines of text).  The
relative difference is |a - b| / max(|a|, |b|), taken only where that
maximum exceeds 1e-10.  Two NaNs, or two equal infinities, agree.

Exit status 0 when the trees differ at most in numbers, 1 when a file is
missing from one side or text that is not a number differs, 2 on wrong
usage.  Run tools/cli_outputs.py in two checkouts to make the trees.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REL_FLOOR = 1e-10  # the relative difference is taken over values above this


def leaves(path: Path) -> list:
    """The file's items in order: JSON leaves by sorted key path, else the cells of each line."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        out = []

        def walk(node, key):
            if isinstance(node, dict):
                for k in sorted(node):
                    walk(node[k], f"{key}/{k}")
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    walk(item, f"{key}/{i}")
            else:
                out.append((key, node))

        walk(json.loads(text), "")
        return out
    return [(f"line {i + 1} cell {j + 1}", _number(cell))
            for i, line in enumerate(text.split("\n")) for j, cell in enumerate(line.split(","))]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(a: Path, b: Path):
    """(max abs, its place, max rel, its place, count of differing numbers), or a string
    naming the first place where text differs."""
    items_a, items_b = leaves(a), leaves(b)
    if len(items_a) != len(items_b):
        return f"{len(items_a)} against {len(items_b)} items"
    max_abs = max_rel = 0.0
    at_abs = at_rel = ""
    count = 0
    for (key_a, x), (key_b, y) in zip(items_a, items_b):
        if key_a != key_b:
            return f"{key_a} against {key_b}"
        if not (_is_number(x) and _is_number(y)):
            if x != y:
                return f"{key_a}: {x!r} against {y!r}"
            continue
        x, y = float(x), float(y)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        count += 1
        diff = abs(x - y)
        if diff > max_abs:
            max_abs, at_abs = diff, key_a
        scale = max(abs(x), abs(y))
        if scale > REL_FLOOR and diff / scale > max_rel:
            max_rel, at_rel = diff / scale, key_a
    return max_abs, at_abs, max_rel, at_rel, count


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(d) for d in argv]
    names = sorted({p.relative_to(root).as_posix() for root in roots
                    for p in root.rglob("*") if p.is_file()})
    status = 0
    for name in names:
        a, b = (root / name for root in roots)
        if not (a.is_file() and b.is_file()):
            print(f"{name}: missing in {argv[0] if not a.is_file() else argv[1]}")
            status = 1
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        result = compare(a, b)
        if isinstance(result, str):
            print(f"{name}: text differs at {result}")
            status = 1
        else:
            max_abs, at_abs, max_rel, at_rel, count = result
            print(f"{name}: max abs {max_abs:.3g} ({at_abs}), max rel {max_rel:.3g} ({at_rel}), "
                  f"{count} numbers differ")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
