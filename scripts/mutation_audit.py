#!/usr/bin/env python3
"""Mutation audit: which one-token changes to the paper's formulas does the
Tier-1 suite notice?

Each mutant changes one token of one target function: it swaps ``+`` and
``-`` (also ``+=``/``-=`` and ``np.add``/``np.subtract``), swaps ``*`` and
``/`` (also ``*=``/``/=`` and ``np.multiply``/``np.divide``), drops a unary
minus, moves a literal index one step away from zero, or adds one to a
numeric literal.  The rewrite is made on the module's ``ast`` and written
back with ``ast.unparse``, into a copy of the checkout in a temporary
directory of its own; Tier-1 then runs there with ``-x`` under a timeout.
The outcome of each mutant is one of

- killed: the first failing test (or a timeout) is named;
- equivalent: listed in :data:`EQUIVALENT` with the reason no test can
  tell it from the original;
- survived: every test passed.  Each survivor that is not equivalent needs
  a test.

Usage, from the root of a checkout (standard library only):

    python3 scripts/mutation_audit.py                  # the default targets
    python3 scripts/mutation_audit.py market._accumulate bridge.bridged_fraction
    python3 scripts/mutation_audit.py --list           # the mutants, not run

The table goes to standard output as Markdown (``--out`` writes it to a
file as well).  A survivor costs one full suite run (a minute or more), so
the audit is not part of Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "duallab"

# the forward fills and the map back with its block reader and its reducer
DEFAULT_TARGETS = (
    "market._exp_paths",
    "market._euler_paths",
    "market._log_increments",
    "market._accumulate",
    "market._add_jumps",
    "market.PathBlocks.of",
    "market.PathBlocks.whole",
    "bridge._fraction_blocks",
    "bridge.dual_to_primal",
    "bridge.bridged_fraction",
    "bridge._max_abs_deviation",
)

# the test files run first, so that most mutants die within seconds; the
# other files of Tier-1 follow in name order
FIRST = ("tests/test_config_cli.py", "tests/test_market.py", "tests/test_bridge.py",
         "tests/test_allocation.py", "tests/test_threads.py", "tests/test_differential.py")

# mutant key -> why no test can tell it from the original
_BLOCK_SIZE = ("changes only how many paths a block holds; the fill is bit-identical for any "
               "block size, and the block stays within FILL_BLOCK_BYTES")
_NEGATIVE_SIZE = "numpy reads any negative size in a reshape as the inferred one"
EQUIVALENT: dict[str, str] = {
    "market._exp_paths: `max(1, FILL_BLOCK_BYTES // (8 * n_steps * max(1, k)))` -> "
    "`max(2, FILL_BLOCK_BYTES // (8 * n_steps * max(1, k)))`":
        "differs only where one path's coefficients exceed FILL_BLOCK_BYTES (n_steps * marks > "
        "8,192), with blocks of two paths for one; the fill is bit-identical for any block size",
    "market._exp_paths: `paths.stop - paths.start` -> `paths.stop + paths.start`":
        "a range's work arrays hold min(block, stop + start) paths, more than it reads only "
        "for a range shorter than one block, and never more than one block",
    "market._exp_paths: `8 * n_steps` -> `9 * n_steps`": _BLOCK_SIZE,
    "market._exp_paths: `max(1, k)` -> `max(2, k)`": _BLOCK_SIZE,
    "market._log_increments: `diff.shape[1] > 1` -> `diff.shape[1] > 2`":
        "a block of two paths takes the other branch, which forms the same values with "
        "temporaries two paths wide",
    "market._log_increments: `ratio.reshape(-1, k)` -> `ratio.reshape(-2, k)`": _NEGATIVE_SIZE,
    "mc.cv_mean: `values.reshape(n, -1)` -> `values.reshape(n, -2)`": _NEGATIVE_SIZE,
    "dual.dual_driver: `np.where(degenerate, 1.0, s)` -> `np.where(degenerate, 2.0, s)`":
        "the placeholder divides b only on steps where sigma vanishes, whose quotient the "
        "outer np.where replaces with 0.0",
    "market.PathBlocks.whole: `max(1, FILL_BLOCK_BYTES // (8 * n_steps))` -> "
    "`max(2, FILL_BLOCK_BYTES // (8 * n_steps))`":
        "differs only where one path's row exceeds FILL_BLOCK_BYTES (n_steps > 16,384), with "
        "blocks of two paths for one; the values are bit-identical for any block size",
    "bsde._BasisBuilder.design: `out.fill(1.0)` -> `out.fill(2.0)`":
        "doubles every row of the design, which is exact in binary floating point; the "
        "CholeskyQR2 and Householder bases, the fits, the rank and the condition number do not "
        "depend on the scale of the rows, so every output keeps its bits",
    "market.PathBlocks.whole: `8 * n_steps` -> `9 * n_steps`":
        "changes only how many paths a block holds, which stays within FILL_BLOCK_BYTES; the "
        "values are bit-identical for any block size",
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_UFUNCS = {"add": "subtract", "subtract": "add", "multiply": "divide", "divide": "multiply"}
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    node: ast.AST = tree
    for part in qualname.split("."):
        node = next(n for n in ast.iter_child_nodes(node)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return node


def _int_literal(node: ast.AST) -> int | None:
    """The value of an integer literal, signed or not; None otherwise."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant) and type(node.operand.value) is int):
        return -node.operand.value
    return None


def _index_literals(subscript: ast.Subscript) -> list[ast.AST]:
    """The literal integer indices and slice bounds of a subscript."""
    parts = subscript.slice.elts if isinstance(subscript.slice, ast.Tuple) else [subscript.slice]
    found = []
    for part in parts:
        bounds = (part.lower, part.upper, part.step) if isinstance(part, ast.Slice) else (part,)
        found += [b for b in bounds if b is not None and _int_literal(b) is not None]
    return found


def _points(function: ast.AST) -> list[tuple[ast.AST, str]]:
    """Every (node, operator) mutation point inside ``function``."""
    indices = {id(b) for n in ast.walk(function) if isinstance(n, ast.Subscript)
               for b in _index_literals(n)}
    inside_index = {id(c) for n in ast.walk(function) if id(n) in indices
                    for c in ast.walk(n)}
    points = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            points.append((node, "swap"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _UFUNCS and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "np"):
            points.append((node, "swap"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
                and id(node) not in inside_index:
            points.append((node, "drop minus"))
        elif id(node) in indices:
            points.append((node, "index"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float) \
                and id(node) not in inside_index:
            points.append((node, "literal"))
    return points


def _mutate(node: ast.AST, operator: str) -> ast.AST:
    """The mutated copy of ``node``."""
    new = copy.deepcopy(node)
    if operator == "swap" and isinstance(new, ast.Call):
        new.func.attr = _UFUNCS[new.func.attr]
    elif operator == "swap":
        new.op = _SWAPS[type(new.op)]()
    elif operator == "drop minus":
        new = new.operand
    elif operator == "index":
        value = _int_literal(new)
        new = ast.parse(str(value + 1 if value >= 0 else value - 1), mode="eval").body
    else:
        new.value = new.value + 1
    return new


def _context(function: ast.AST, node: ast.AST) -> ast.AST:
    """The expression a mutant is shown in: an operation or call itself, a
    literal in the expression that holds it, an index in its subscript."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.Call)):
        return node
    parents = {id(c): n for n in ast.walk(function) for c in ast.iter_child_nodes(n)}
    parent = parents.get(id(node))
    # up through keywords, signs, slices and index tuples
    def passed_through(n: ast.AST) -> bool:
        return (not isinstance(n, ast.expr) or isinstance(n, (ast.UnaryOp, ast.Slice))
                or isinstance(n, ast.Tuple) and isinstance(parents.get(id(n)), ast.Subscript))

    while parent is not None and passed_through(parent):
        parent = parents.get(id(parent))
    return parent if parent is not None else node


class _Replace(ast.NodeTransformer):
    def __init__(self, target: ast.AST, replacement: ast.AST):
        self.target, self.replacement = target, replacement

    def generic_visit(self, node):
        if node is self.target:
            return self.replacement
        return super().generic_visit(node)


def mutants(targets) -> list[dict]:
    """Every mutant of ``targets`` (``module.function`` or
    ``module.Class.method``): its key, file, line and mutated source."""
    out = []
    for target in targets:
        module, qualname = target.split(".", 1)
        path = PACKAGE / f"{module}.py"
        source = path.read_text()
        seen: dict[str, int] = {}
        for number in range(len(_points(_find(ast.parse(source), qualname)))):
            # a fresh tree per mutant: the rewrite replaces a node in place
            tree = ast.parse(source)
            node, operator = _points(_find(tree, qualname))[number]
            replacement = _mutate(node, operator)
            context = _context(_find(tree, qualname), node)
            before = ast.unparse(context)
            mutated = ast.unparse(_Replace(node, replacement).visit(tree))
            after = ast.unparse(replacement if context is node else context)
            key = f"{target}: `{before}` -> `{after}`"
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key += f" ({seen[key]})"
            out.append({"key": key, "file": path.relative_to(ROOT).as_posix(),
                        "line": node.lineno, "operator": operator, "source": mutated})
    return out


def _ignore(directory: str, names: list[str]) -> set[str]:
    skip = {".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks"}
    if pathlib.Path(directory).name == "perfbench":
        skip.add("out")
    return skip.intersection(names)


def run_suite(tree: pathlib.Path, timeout: float) -> tuple[str, str, float]:
    """Tier-1 with ``-x`` in the checkout ``tree``: (outcome, test, seconds)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    rest = sorted(p.relative_to(tree).as_posix() for p in (tree / "tests").glob("test_*.py"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               *FIRST, *(p for p in rest if p not in FIRST)]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", f"timeout after {timeout:g} s", time.monotonic() - start
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed", line.split(" ", 1)[1].split(" - ")[0], seconds
    return "killed", f"pytest exit {proc.returncode}", seconds


def audit(found: list[dict], timeout: float) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as scratch:
        base = pathlib.Path(scratch) / "base"
        shutil.copytree(ROOT, base, ignore=_ignore)
        outcome, test, seconds = run_suite(base, timeout)
        if outcome != "survived":
            raise SystemExit(f"the unmutated suite fails ({test}); fix it first")
        print(f"unmutated suite: passed in {seconds:.0f} s", file=sys.stderr)
        for number, mutant in enumerate(found, 1):
            tree = pathlib.Path(scratch) / f"mutant-{number}"
            shutil.copytree(base, tree)
            (tree / mutant["file"]).write_text(mutant["source"])
            mutant["outcome"], mutant["by"], mutant["seconds"] = run_suite(tree, timeout)
            if mutant["outcome"] == "survived" and mutant["key"] in EQUIVALENT:
                mutant["outcome"], mutant["by"] = "equivalent", EQUIVALENT[mutant["key"]]
            shutil.rmtree(tree)
            print(f"[{number}/{len(found)}] {mutant['outcome']:10s} {mutant['key']} "
                  f"({mutant['seconds']:.0f} s)", file=sys.stderr)
    return found


def table(found: list[dict]) -> str:
    lines = ["| mutant | line | outcome | by |", "| --- | --- | --- | --- |"]
    for m in found:
        by = f"`{m['by']}`" if m["outcome"] == "killed" and "::" in m["by"] else m["by"]
        key = m["key"].replace("|", "\\|")
        lines.append(f"| {key} | {m['file']}:{m['line']} | {m['outcome']} | {by} |")
    counts = {k: sum(m["outcome"] == k for m in found)
              for k in ("killed", "equivalent", "survived")}
    lines.append("")
    lines.append(", ".join(f"{n} {k}" for k, n in counts.items()) + f" of {len(found)} mutants")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", default=list(DEFAULT_TARGETS),
                        help="module.function or module.Class.method under src/duallab")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds per mutant before it counts as killed")
    parser.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    found = mutants(args.targets)
    if args.list:
        for m in found:
            print(f"{m['file']}:{m['line']}  {m['key']}")
        return 0
    text = table(audit(found, args.timeout))
    print(text)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    return 1 if any(m["outcome"] == "survived" for m in found) else 0


if __name__ == "__main__":
    sys.exit(main())
