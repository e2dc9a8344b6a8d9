#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print one table.

Usage (from the root of a checkout):

    python3 perfbench/suite.py [--seed 12345] [--seconds 20]

Each workload runs in its own process (``perfbench/run.py``), alternating
the canonical seed, checked against the goldens, with the held-out
``--seed``, checked against seed-independent invariants.  The table gives
every end-to-end metric with its unit and sample count, the failed share of
attempted repetitions, the accuracy figures read from the written outputs
per seed, and the layer self-time shares from the traced run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search_sweep", "paths_io")
RUN_TIMEOUT_S = 900


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(BENCH / "out" / workload / f"result-trace{trace}.json") as fh:
        record = json.load(fh)
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=12345, help="held-out workload seed")
    parser.add_argument("--seconds", type=float, default=55.0)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    ok = True
    for workload in WORKLOADS:
        plain, plain_rec = _run(workload, args.seed, args.seconds, 0)
        traced, traced_rec = _run(workload, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {workload}: {why[workload]}")
        if workload == WORKLOADS[0]:
            print(f"   machine: {json.dumps(plain_rec['machine'])}")
        for name, m in plain["metrics"].items():
            print(f"   {name:<22} {m['value']:>12.6g} {m['unit']:<6} "
                  f"median of {plain_rec['samples'][name]}")
        print(f"   {'fail_frac':<22} {failed / attempted:>12.6g} {'ratio':<6} "
              f"{failed} of {attempted} repetitions")
        for name, by_seed in sorted(plain_rec["accuracy"].items()):
            label = "known defect" if name.startswith("defect.") else "accuracy"
            print(f"   {label} {name}: " + ", ".join(
                f"seed {seed} {value:.6g}" for seed, value in by_seed.items()))
        for label, shares in traced_rec["layer_shares"].items():
            print(f"   {label}: layer self-time shares (traced, median of "
                  f"{traced_rec['samples']['trace.run_s']}): " + ", ".join(
                      f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
                      if v >= 0.001))
        tm = traced["metrics"]
        print(f"   traced run_s {tm['trace.run_s']['value']:.4g} s, untraced "
              f"{tm['trace.untraced_run_s']['value']:.4g} s, overhead "
              f"{tm['trace.overhead_s']['value']:+.3g} s, self times cover "
              f"{tm['trace.self_sum_frac']['value']:.2%} of the traced run")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
