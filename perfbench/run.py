#!/usr/bin/env python3
"""duallab benchmark: time to a verified solution, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search_sweep --seed 12345 --seconds 55 --trace 0

Every repetition runs in a fresh interpreter (perfbench/rep.py), as a user
runs one experiment, and times set-up and the run separately.  Repetitions
alternate between the canonical seed 20240521, whose outputs must match the
stored goldens, and ``--seed``, whose outputs must satisfy seed-independent
invariants; both count toward ``attempted`` and ``failed``.  With
``--trace 1`` each round is one untraced and one traced repetition, and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = pathlib.Path(__file__).resolve().parent
# The load comes from one process at a time.  Its BLAS pool is pinned to
# nproc threads, OpenBLAS's own default, capped at 2 so that a larger machine
# does not change the configuration being measured.
BLAS_THREADS = min(2, os.cpu_count() or 1)
MIN_REPS = 2          # untraced: one canonical and one --seed; traced: one pair
MAX_FAILURES = 3      # stop early instead of spinning on a broken program
REP_TIMEOUT_S = 90   # keeps a run with a hung repetition under 180 s


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    missing = [p for p in ("src/duallab/__init__.py", "src/duallab/cli.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        _fail(f"no duallab sources under {ROOT}: missing {', '.join(missing)}")


def _from_src(module_file: str) -> bool:
    return pathlib.Path(module_file).resolve().is_relative_to(ROOT / "src")


def _repetition(workload: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a child interpreter; returns its record."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), str(ROOT), workload, str(seed),
             str(int(traced))],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}:\n{proc.stderr.strip()}"}
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"no result line:\n{proc.stderr.strip()}"}
    if not _from_src(out["duallab"]):
        _fail(f"repetition imported duallab from {out['duallab']}, not {ROOT / 'src'}")
    return {
        "setup_s": out["certify"] - spawned,
        "import_s": out["import"] - spawned,
        "config_s": out["config"] - out["import"],
        "certify_s": out["certify"] - out["config"],
        "run_s": out["run_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "spans": out["spans"],
    }


def _bytes_written(cfgs) -> int:
    return sum(entry.stat().st_size for cfg in cfgs
               for entry in os.scandir(cfg.out_dir) if entry.is_file())


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240521,
                        help="workload seed for the invariant-checked repetitions")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measurement time; at least two repetitions always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _check_checkout()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    import duallab
    import layertrace
    import workloads as wl
    from machine import machine_info

    if not _from_src(duallab.__file__):
        _fail(f"imported duallab from {duallab.__file__}, not from {ROOT / 'src'}")
    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}  # the metrics, in their order
    (BENCH / "out" / workload.name).mkdir(parents=True, exist_ok=True)
    machine = machine_info()

    reps: list[dict] = []
    failures = 0
    loop_start = time.perf_counter()
    round_no = 0
    while True:
        seed = wl.CANONICAL_SEED if round_no % 2 == 0 else args.seed
        cfgs = [wl.make_config(str(ROOT), exp, seed, wl.out_dir(str(ROOT), workload, exp))
                for exp in workload.experiments]
        for traced in ((False, True) if args.trace else (False,)):
            rec = {"seed": seed, "traced": traced, **_repetition(workload.name, seed, traced)}
            if "error" not in rec:
                try:
                    rec["figures"] = wl.check(str(ROOT), workload, cfgs)
                    rec["bytes_written"] = _bytes_written(cfgs)
                except (wl.CheckError, OSError, KeyError, ValueError, TypeError) as exc:
                    rec["error"] = f"{type(exc).__name__}: {exc}"
            if "error" in rec:
                failures += 1
                print(f"repetition {len(reps)} (seed {seed}) FAILED: {rec['error']}",
                      file=sys.stderr)
            reps.append(rec)
        round_no += 1
        elapsed = time.perf_counter() - loop_start
        if failures >= MAX_FAILURES or (
                len(reps) >= MIN_REPS and elapsed * (round_no + 1) / round_no > args.seconds):
            break

    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]

    if args.trace:
        metrics = layertrace.medians(
            [layertrace.rep_metrics(r["spans"], r["run_s"]) for r in traced])
        metrics.update({
            "cli.bytes_written": _median(r["bytes_written"] for r in traced),
            "market.driver_mb": max(
                c.n_paths * c.n_steps * (1 + c.market_model().n_marks) * 8 for c in cfgs) / 1e6,
            "preferences.certify_s": _median(r["certify_s"] for r in ok),
            "config.load_s": _median(r["config_s"] for r in ok),
            "setup.import_s": _median(r["import_s"] for r in ok),
            "trace.run_s": _median(r["run_s"] for r in traced),
            "trace.untraced_run_s": _median(r["run_s"] for r in plain),
        })
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        samples = {k: len(traced) for k in units}
        samples.update({k: len(ok) for k in ("preferences.certify_s", "config.load_s",
                                             "setup.import_s")})
        samples["trace.untraced_run_s"] = len(plain)
    else:
        metrics = {"run_s": _median(r["run_s"] for r in plain),
                   "setup_s": _median(r["setup_s"] for r in plain),
                   "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain)}
        samples = {k: len(plain) for k in units}
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        _fail(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {name: metrics.get(name, 0.0) for name in units}

    figures: dict[str, dict] = {}
    for r in ok:
        for key, value in r["figures"].items():
            figures.setdefault(key, {}).setdefault(str(r["seed"]), value)

    record = {
        "workload": workload.name, "seed": args.seed,
        "canonical_seed": wl.CANONICAL_SEED, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "blas_threads": BLAS_THREADS,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "accuracy": figures, "metrics": metrics, "samples": samples,
    }
    if args.trace:
        per_rep = [layertrace.layer_shares(r["spans"]) for r in traced]
        record["layer_shares"] = {
            exp.label: layertrace.medians([shares[i] for shares in per_rep])
            for i, exp in enumerate(workload.experiments)}
        layertrace.write_spans(str(BENCH / "out" / workload.name / "spans.json"),
                               [r["spans"] for r in traced])
    with open(BENCH / "out" / workload.name / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} L3={machine['l3']} "
          f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']} "
          f"blas={machine['blas_build']} "
          f"blas_threads={[b['threads'] for b in machine['blas_runtime']]}")
    print(f"workload {workload.name}: {len(reps)} repetitions "
          f"(seeds {wl.CANONICAL_SEED} and {args.seed}), {failures} failed")
    for key, by_seed in sorted(figures.items()):
        if key.startswith("defect."):
            if any(by_seed.values()):
                print(f"  known defect seen: {key[len('defect.'):]} (see perfbench/NOTES.md)")
            continue
        print(f"  accuracy {key}: " + ", ".join(f"seed {s}: {v:.6g}" for s, v in by_seed.items()))
    for label, shares in record.get("layer_shares", {}).items():
        print(f"  {label} layer self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            if v >= 0.001))
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {units[key]} (median of {samples[key]})")

    result = {
        "correct": failures == 0 and bool(ok),
        "attempted": len(reps),
        "failed": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
