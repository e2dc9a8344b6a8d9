#!/usr/bin/env python3
"""Compare two output trees written by the duallab CLI, file by file.

    python scripts/compare_runs.py A B

Each file is reported as byte-identical, or with the largest absolute and
relative difference over its numeric JSON fields and CSV cells.  The ``out``
entry of manifest.json (the output directory) is ignored.  Exits 1 when a
file exists on one side only, a non-numeric value differs, or a number
differs by more than 1e-12 * max(1, |a|), with a the value in A; 0 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

ATOL = 1e-12


class Diff:
    """Largest differences over the numbers of one file, and the first failure."""

    def __init__(self) -> None:
        self.count = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.failure: str | None = None

    def fail(self, where: str, a, b) -> None:
        if self.failure is None:
            self.failure = f"{where}: {a!r} vs {b!r}"

    def number(self, where: str, a: float, b: float) -> None:
        self.count += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        gap = abs(a - b)
        if math.isnan(gap):  # nan against a number, or inf against -inf
            self.fail(where, a, b)
            return
        self.max_abs = max(self.max_abs, gap)
        self.max_rel = max(self.max_rel, gap / max(abs(a), abs(b)))
        if gap > ATOL * max(1.0, abs(a)):
            self.fail(where, a, b)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk_json(diff: Diff, where: str, a, b) -> None:
    if _is_number(a) and _is_number(b):
        diff.number(where, float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            diff.fail(f"{where} keys", sorted(a), sorted(b))
        for key in a.keys() & b.keys():
            _walk_json(diff, f"{where}.{key}", a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.fail(f"{where} length", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _walk_json(diff, f"{where}[{i}]", x, y)
    elif a != b:
        diff.fail(where, a, b)


def _load_json(path: str, name: str):
    with open(path) as fh:
        payload = json.load(fh)
    if name == "manifest.json":
        payload.get("config", {}).pop("out", None)
    return payload


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(diff: Diff, path_a: str, path_b: str) -> None:
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b):
        diff.fail("rows", len(rows_a), len(rows_b))
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if len(row_a) != len(row_b):
            diff.fail(f"line {r} cells", len(row_a), len(row_b))
        for c, (x, y) in enumerate(zip(row_a, row_b), start=1):
            fx, fy = _as_float(x), _as_float(y)
            if fx is not None and fy is not None:
                diff.number(f"line {r} cell {c}", fx, fy)
            elif x != y:
                diff.fail(f"line {r} cell {c}", x, y)


def compare_file(path_a: str, path_b: str) -> tuple[str, bool]:
    """One report line for a file present on both sides, and whether it passes."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return "byte-identical", True
    diff = Diff()
    name = os.path.basename(path_a)
    if name.endswith(".json"):
        _walk_json(diff, "$", _load_json(path_a, name), _load_json(path_b, name))
    elif name.endswith(".csv"):
        _compare_csv(diff, path_a, path_b)
    else:
        diff.fail("bytes", "differ", "differ")
    if diff.failure is not None:
        return f"DIFFERS at {diff.failure}", False
    if diff.max_abs == 0.0:
        return f"same values over {diff.count} numbers (bytes differ)", True
    return (f"max abs diff {diff.max_abs:.3g}, max rel diff {diff.max_rel:.3g} "
            f"over {diff.count} numbers"), True


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: compare_runs.py A B  (two output directories)", file=sys.stderr)
        return 2
    root_a, root_b = argv
    files_a, files_b = _files(root_a), _files(root_b)
    ok = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}: only in {'A' if rel in files_a else 'B'}")
            ok = False
            continue
        line, passed = compare_file(os.path.join(root_a, rel), os.path.join(root_b, rel))
        print(f"{rel}: {line}")
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
