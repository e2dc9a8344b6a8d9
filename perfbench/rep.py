"""One workload repetition in a fresh interpreter, as a user runs one experiment.

Usage: python3 perfbench/rep.py <checkout root> <workload> <seed> <trace 0|1>

Started by run.py, which checks the outputs.  Prints one JSON line with
CLOCK_MONOTONIC stamps of the set-up steps (so the parent can measure set-up
from the moment it spawned this process), the timed run, the peak RSS and,
when traced, the spans.
"""

import json
import resource
import sys
import time

root, workload, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, f"{root}/src")
sys.path.insert(0, f"{root}/perfbench")

import duallab  # noqa: E402  (set-up: the import is timed)
import duallab.cli  # noqa: E402,F401
import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

t_import = time.monotonic()
spec = wl.WORKLOADS[workload]
cfgs = [wl.make_config(root, exp, seed, wl.out_dir(root, spec, exp)) for exp in spec.experiments]
t_config = time.monotonic()
cfgs[0].utility()
t_certify = time.monotonic()

wl.clear_outputs(cfgs)
tracer = layertrace.Tracer()
if trace:
    tracer.install()
t0 = time.perf_counter()
wl.run_once(cfgs)
run_s = time.perf_counter() - t0
tracer.uninstall()

print(json.dumps({
    "duallab": duallab.__file__,
    "import": t_import, "config": t_config, "certify": t_certify,
    "run_s": run_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "spans": tracer.take(),
}))
