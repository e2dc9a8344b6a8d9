#!/usr/bin/env python3
"""Run the bundled configs in two checkouts and compare their outputs.

    python scripts/golden_gate.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository (a ``git archive`` or
``git clone`` of each commit).  In each, the gate runs the duallab CLI from
that checkout's ``src`` on:
- every ``configs/*.yaml``, as configured and with ``--mode analytic``;
- both ``perfbench/configs/bridge_*.yaml``, as configured and with
  ``--mode regression``;
- ``simulate`` of ``configs/merton_log.yaml`` and ``configs/jump_dual.yaml``
  at ``--paths 10000``, whose ``paths.csv`` no bundled config writes;
each into a temporary directory.  A run's command is the ``mode:`` of its
config, except for the ``simulate`` runs.  Each pair of output trees goes to
``scripts/compare_runs.py`` (the copy beside this script), which must find
every file byte-identical; the exit codes and stderr of the two runs must
also match, with each side's output directory written as OUT.  The gate
reads ``perfbench/`` and writes nothing under either checkout.

Exits 0 when every pair matches, 1 on any difference, 2 on bad arguments.
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(HERE, "compare_runs.py")
MODE_LINE = re.compile(r"^mode:\s*([\w-]+)\s*$", re.MULTILINE)
# the configs also run as ``simulate`` (at SIMULATE_FLAGS), for their paths.csv
SIMULATED = ("configs/merton_log.yaml", "configs/jump_dual.yaml")
SIMULATE_FLAGS = ["--paths", "10000"]


def _runs(root: str) -> list[tuple[str, str | None, list[str]]]:
    """(config path relative to the checkout, command or None for the
    config's ``mode:``, extra CLI flags) per run."""
    runs = []
    for pattern, modes in (("configs/*.yaml", ([], ["--mode", "analytic"])),
                           ("perfbench/configs/bridge_*.yaml", ([], ["--mode", "regression"]))):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            runs.extend((os.path.relpath(path, root), None, flags) for flags in modes)
    runs.extend((config, "simulate", SIMULATE_FLAGS) for config in SIMULATED)
    return runs


def _command(config: str) -> str:
    with open(config) as fh:
        match = MODE_LINE.search(fh.read())
    if match is None:
        raise ValueError(f"{config}: no top-level 'mode:' line")
    return match.group(1)


def _run(root: str, config: str, command: str | None, flags: list[str],
         out: str) -> tuple[int, str]:
    """Exit code and stderr (with ``out`` written as OUT) of one CLI run."""
    path = os.path.join(root, config)
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "duallab.cli", command or _command(path), "--config", path,
         "--out", out, *flags],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    return proc.returncode, proc.stderr.replace(out, "OUT")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(d, "src")) for d in argv):
        print("usage: golden_gate.py PARENT CHANGE  (two checkouts of the repository)",
              file=sys.stderr)
        return 2
    roots = [os.path.abspath(d) for d in argv]
    runs = _runs(roots[0])
    other = _runs(roots[1])
    ok = runs == other
    if not ok:
        print(f"the checkouts bundle different configs: {runs} vs {other}")
    with tempfile.TemporaryDirectory(prefix="golden_gate_") as tmp:
        for n, (config, command, flags) in enumerate(runs):
            label = " ".join([*([command] if command else []), config, *flags])
            outs = [os.path.join(tmp, f"{side}_{n}") for side in ("parent", "change")]
            results = [_run(root, config, command, flags, out)
                       for root, out in zip(roots, outs)]
            for out in outs:
                os.makedirs(out, exist_ok=True)
            compare = subprocess.run([sys.executable, COMPARE, *outs], capture_output=True,
                                     text=True)
            # compare_runs.py passes numbers within 1e-12; the gate asks for the same bytes
            same = (results[0] == results[1] and compare.returncode == 0
                    and all(line.endswith(": byte-identical")
                            for line in compare.stdout.splitlines()))
            files = sum(len(names) for _, _, names in os.walk(outs[1]))
            print(f"{label}: {'same' if same else 'DIFFERS'} (exit {results[0][0]}"
                  f"{'' if results[0][0] == results[1][0] else f' vs {results[1][0]}'}, "
                  f"{files} files)")
            if not same:
                if results[0][1] != results[1][1]:
                    print(f"  stderr:\n    {results[0][1]!r}\n    {results[1][1]!r}")
                print("  " + compare.stdout.replace("\n", "\n  ").rstrip())
            ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
