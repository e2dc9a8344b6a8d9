"""Layer tracing for the benchmark, from outside the program.

Each public function of interest is wrapped, and the wrapper is installed in
every ``duallab`` module namespace that bound the original: ``wealth_paths``,
for example, is imported into ``market``, ``primal``, ``robust``, ``bridge``
and ``cli``, so patching one module would miss most calls.  Spans (name,
start, end, parent, info) are kept in memory and written out at the end.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time
import warnings

# (module, attribute, layer) for every wrapped function; the layer groups
# spans into the per-layer metrics.
TARGETS = (
    ("cli", "run_experiment", "cli"),
    ("preferences", "certify_pair", "preferences.certify"),
    ("market", "simulate_drivers", "market.simulate"),
    ("market", "price_paths", "market.forward"),
    ("market", "wealth_paths", "market.forward"),
    ("market", "density_paths", "market.forward"),
    ("market", "terminal_log_wealth", "market.terminal"),
    ("market", "terminal_log_density", "market.terminal"),
    ("market", "ensemble_to_csv", "market.csv"),
    ("market", "ensemble_summary", "market.csv"),
    ("mc", "cv_mean", "mc.cv_mean"),
    ("bsde", "solve_linear_bsde", "bsde.sweep"),
    ("primal", "solve_primal_search", "primal"),
    ("primal", "primal_foc_residual", "primal.checks"),
    ("primal", "hamiltonian_derivative_check", "primal.checks"),
    ("dual", "solve_dual_search", "dual"),
    ("dual", "evaluate_dual_scenario", "dual"),
    ("dual", "scenario_from_theta1", "dual.scenario"),
    ("dual", "dual_foc_residual", "dual.checks"),
    ("dual", "replicating_portfolio", "dual.replication"),
    ("dual", "replication_check", "dual.replication"),
    ("robust", "solve_robust_saddle", "robust"),
    ("robust", "solve_robust_dual", "robust"),
    ("robust", "robust_primal_foc_residuals", "robust.checks"),
    ("robust", "robust_dual_foc_residuals", "robust.checks"),
    ("bridge", "primal_to_dual", "bridge"),
    ("bridge", "dual_to_primal", "bridge"),
    ("bridge", "robust_primal_to_dual", "bridge"),
    ("bridge", "robust_dual_to_primal", "bridge"),
    ("bridge", "bridged_fraction", "bridge"),
    ("bridge", "verify_product_identity", "bridge"),
)


def _search_info(result) -> dict:
    values = getattr(result, "payoff", None)
    if values is None:
        values = result.candidate_values
    flat = [float(v) for v in values.ravel()]
    return {"candidates": len(flat),
            "admissible": sum(1 for v in flat if v != float("-inf"))}


def _sweep_info(result, ensemble) -> dict:
    per_step = result.diagnostics["per_step"]
    n_columns = result.diagnostics["n_columns"]
    return {
        "path_steps": ensemble.n_paths * ensemble.grid.n_steps,
        "rank_deficient_steps": sum(1 for s in per_step if s["rank"] < n_columns),
        "max_cond": max(s["cond"] for s in per_step),
    }


class Tracer:
    """Wraps the TARGETS in place; ``install``/``uninstall`` toggle tracing."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, info]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        if layer == "bsde.sweep":
            @functools.wraps(fn)
            def wrapper(ensemble, *args, **kwargs):
                idx = tracer._open(name, layer)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        result = fn(ensemble, *args, **kwargs)
                finally:
                    tracer._close(idx)
                info = _sweep_info(result, ensemble)
                info["rank_warnings"] = sum(
                    1 for w in caught if issubclass(w.category, RuntimeWarning))
                tracer.spans[idx][5] = info
                return result
            return wrapper

        collect = _search_info if layer in ("primal", "dual", "robust") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if collect is not None:
                tracer.spans[idx][5] = collect(result)
            return result
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "duallab" or n.startswith("duallab."))]
        for mod_name, attr, layer in TARGETS:
            original = getattr(sys.modules[f"duallab.{mod_name}"], attr)
            wrapper = self._wrap(original, f"{mod_name}.{attr}", layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        # compensated_jumps is a property rebuilt on every access
        ens_cls = sys.modules["duallab.market"].PathEnsemble
        prop = ens_cls.__dict__["compensated_jumps"]
        self._patches.append((ens_cls, "compensated_jumps", prop))
        ens_cls.compensated_jumps = property(
            self._wrap(prop.fget, "market.compensated_jumps", "market.comp_jumps"),
            doc=prop.__doc__)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def write_spans(path: str, reps: list[list[list]]) -> None:
    """Write the spans of every traced repetition, times relative to its root."""
    payload = []
    for spans in reps:
        t0 = spans[0][2] if spans else 0.0
        payload.append([
            {"name": s[0], "layer": s[1], "start": s[2] - t0, "end": s[3] - t0,
             "parent": s[4], **({"info": s[5]} if s[5] else {})}
            for s in spans
        ])
    with open(path, "w") as fh:
        json.dump(payload, fh)


# layers timed inclusively (their own nested calls are not counted twice),
# reported as <layer>_s plus a call count where one is named
_INCLUSIVE = {
    "bsde.sweep": ("bsde.sweep_s", "bsde.sweeps"),
    "market.comp_jumps": ("market.comp_jumps_s", "market.comp_jumps_calls"),
    "market.terminal": ("market.terminal_s", "market.terminal_calls"),
    "mc.cv_mean": ("mc.cv_mean_s", "mc.cv_mean_calls"),
    "market.forward": ("market.forward_s", "market.forward_calls"),
    "market.csv": ("market.csv_s", None),
    "market.simulate": ("market.simulate_s", None),
    "dual.scenario": ("dual.scenario_s", None),
    "dual.replication": ("dual.replication_s", None),
    "primal.checks": ("primal.checks_s", None),
    "dual.checks": ("dual.checks_s", None),
    "robust.checks": ("robust.checks_s", None),
    "preferences.certify": ("preferences.run_certify_s", None),
}
# module entry layers reported by self time
_SELF = {"cli": "cli.self_s", "primal": "primal.self_s", "dual": "dual.self_s",
         "robust": "robust.self_s", "bridge": "bridge.self_s"}


def rep_metrics(spans: list[list], run_s: float) -> dict:
    """Per-layer metrics of one traced repetition, ``run_s`` its wall time.

    Layers the repetition did not reach are absent; run.py reports them as 0.
    """
    selfs = self_times(spans)
    m: dict[str, float] = collections.defaultdict(float)
    for i, (name, layer, start, end, parent, info) in enumerate(spans):
        if layer in _INCLUSIVE:
            time_key, count_key = _INCLUSIVE[layer]
            p = parent
            while p >= 0 and spans[p][1] != layer:
                p = spans[p][4]
            if p < 0:
                m[time_key] += end - start
            if count_key:
                m[count_key] += 1
        if layer in _SELF:
            m[_SELF[layer]] += selfs[i]
        if layer == "bridge":
            m["bridge.calls"] += 1
        if layer == "bsde.sweep":
            m["bsde.rank_deficient_steps"] += info["rank_deficient_steps"]
            m["bsde.max_cond"] = max(m["bsde.max_cond"], info["max_cond"])
            m["bsde.rank_warnings"] += info["rank_warnings"]
            m["bsde.path_steps_per_s"] += info["path_steps"]  # divided below
        if layer in ("primal", "dual", "robust") and info:
            m[f"{layer}.candidates"] += info["candidates"]
            if layer != "primal":
                m[f"{layer}.admissible_frac"] += info["admissible"]  # divided below
    sweep_s = m.get("bsde.sweep_s", 0.0)
    m["bsde.path_steps_per_s"] = m["bsde.path_steps_per_s"] / sweep_s if sweep_s else 0.0
    for layer in ("dual", "robust"):
        n = m.get(f"{layer}.candidates", 0.0)
        if n:
            m[f"{layer}.admissible_frac"] /= n
    m["trace.self_sum_frac"] = sum(selfs) / run_s
    m["trace.spans"] = len(spans)
    return dict(m)


def medians(reps: list[dict]) -> dict:
    """Median of each key over the repetitions; a key a repetition lacks counts as 0."""
    keys = sorted({k for r in reps for k in r})
    return {k: statistics.median(r.get(k, 0.0) for r in reps) for k in keys}


def layer_shares(spans: list[list]) -> list[dict]:
    """Per top-level span (one per experiment, in order), the share of its
    time spent in each layer's own code.  Each experiment's shares add up to one.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[4] < 0]
    out = []
    for i in roots:
        total = spans[i][3] - spans[i][2]
        shares: dict[str, float] = {}
        for j, s in enumerate(spans):
            k = j
            while spans[k][4] >= 0:
                k = spans[k][4]
            if k == i:
                shares[s[1]] = shares.get(s[1], 0.0) + selfs[j] / total
        out.append(shares)
    return out
