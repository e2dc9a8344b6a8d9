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
- ``configs/jump_dual.yaml`` at sigma = 0 and drift 0.05, where the dual
  search takes its jump branch, at ``--paths 10000``, as configured and
  with ``--mode analytic``; each checkout's copy of the config is edited
  into the gate's temporary directory;
each into a temporary directory.  A run's command is the ``mode:`` of its
config, except for the ``simulate`` runs.  Each pair of output trees goes to
``scripts/compare_runs.py`` (the copy beside this script), which must find
every file byte-identical; the exit codes and stderr of the two runs must
also match, with each side's output directory written as OUT.  The sweep
no longer warns of a rank-deficient design (the diagnostics report it), so
a warning of that kind in the parent's stderr alone is dropped before the
comparison, and the run is reported as differing by it.  The gate reads
``perfbench/`` and writes nothing under either checkout.

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
# the config also runs at sigma = 0 with these market entries (at drift 0.1
# every candidate scenario is inadmissible), at SIMULATE_FLAGS
VANISHING_VOL = ("configs/jump_dual.yaml", {"vol": "0.0", "drift": "0.05"})
# the sweep's retired warning, with the source line Python prints under it
RANK_WARNING = re.compile(r"^.*RuntimeWarning: design matrix rank-deficient.*\n(  .*\n)?",
                          re.MULTILINE)


def _runs(root: str) -> list[tuple[str, str | None, list[str], dict | None]]:
    """(config path relative to the checkout, command or None for the
    config's ``mode:``, extra CLI flags, market entries to replace or None)
    per run."""
    runs = []
    for pattern, modes in (("configs/*.yaml", ([], ["--mode", "analytic"])),
                           ("perfbench/configs/bridge_*.yaml", ([], ["--mode", "regression"]))):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            runs.extend((os.path.relpath(path, root), None, flags, None) for flags in modes)
    runs.extend((config, "simulate", SIMULATE_FLAGS, None) for config in SIMULATED)
    config, market = VANISHING_VOL
    runs.extend((config, None, SIMULATE_FLAGS + flags, market)
                for flags in ([], ["--mode", "analytic"]))
    return runs


def _with_market(path: str, market: dict, dest: str) -> str:
    """Write to ``dest`` the config ``path`` with the indented ``key: value``
    line of each of ``market``'s keys replaced; return ``dest``."""
    with open(path) as fh:
        text = fh.read()
    for key, value in market.items():
        text, found = re.subn(rf"^(\s+{key}:)\s*\S+\s*$", rf"\g<1> {value}", text,
                              flags=re.MULTILINE)
        if found != 1:
            raise ValueError(f"{path}: {found} indented '{key}:' lines, not one")
    with open(dest, "w") as fh:
        fh.write(text)
    return dest


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
        for n, (config, command, flags, market) in enumerate(runs):
            label = " ".join([*([command] if command else []), config,
                              *(f"{k}={v}" for k, v in (market or {}).items()), *flags])
            outs = [os.path.join(tmp, f"{side}_{n}") for side in ("parent", "change")]
            configs = [config if market is None else
                       _with_market(os.path.join(root, config), market,
                                    os.path.join(tmp, f"{side}_{n}.yaml"))
                       for root, side in zip(roots, ("parent", "change"))]
            results = [_run(root, path, command, flags, out)
                       for root, path, out in zip(roots, configs, outs)]
            retired = bool(RANK_WARNING.search(results[0][1])
                           and not RANK_WARNING.search(results[1][1]))
            if retired:
                results[0] = (results[0][0], RANK_WARNING.sub("", results[0][1]))
            for out in outs:
                os.makedirs(out, exist_ok=True)
            compare = subprocess.run([sys.executable, COMPARE, *outs], capture_output=True,
                                     text=True)
            # compare_runs.py passes numbers within 1e-12; the gate asks for the same bytes
            same = (results[0] == results[1] and compare.returncode == 0
                    and all(line.endswith(": byte-identical")
                            for line in compare.stdout.splitlines()))
            files = sum(len(names) for _, _, names in os.walk(outs[1]))
            note = "; the parent alone warns of rank deficiency" if retired else ""
            print(f"{label}: {'same' if same else 'DIFFERS'} (exit {results[0][0]}"
                  f"{'' if results[0][0] == results[1][0] else f' vs {results[1][0]}'}, "
                  f"{files} files{note})")
            if not same:
                if results[0][1] != results[1][1]:
                    print(f"  stderr:\n    {results[0][1]!r}\n    {results[1][1]!r}")
                print("  " + compare.stdout.replace("\n", "\n  ").rstrip())
            ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
