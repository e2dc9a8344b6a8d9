"""The benchmark's layer tracer (perfbench/layertrace.py) wraps named functions
of the program from outside it and reads a few result fields, and its
workloads (perfbench/workloads.py) import the program's API and read the
files it writes.  These tests pin that contract, so a rename or a moved
field fails here and not only in a benchmark run.  Both modules are
imported, never modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import duallab as dl
from duallab.config import ExperimentConfig, validate_config

from conftest import make_ensemble

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name: str):
    """A perfbench module, loaded from its file: an import of a renamed or
    removed name of the program fails here."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


layertrace = _load_perfbench("layertrace")
workloads = _load_perfbench("workloads")


def test_every_target_is_a_function_of_its_module():
    missing = [f"{mod}.{attr}" for mod, attr, _ in layertrace.TARGETS
               if not inspect.isfunction(getattr(importlib.import_module(f"duallab.{mod}"),
                                                 attr, None))]
    assert missing == []


def test_compensated_jumps_is_a_property():
    assert isinstance(dl.PathEnsemble.__dict__["compensated_jumps"], property)


def test_search_results_carry_what_the_tracer_counts(base_model, log_pair, quad_penalty):
    ens = make_ensemble(base_model, n_steps=10, n_paths=500, seed=5)
    saddle = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, [0.5, 0.625, 0.75],
                                    [-0.125, 0.0], ens, adjoint_mode="analytic")
    assert saddle.payoff.shape == (3, 2)
    assert layertrace._search_info(saddle) == {"candidates": 6, "admissible": 6}

    plain = dl.solve_primal_search(base_model, log_pair, 1.0, [1.0, 1.25], ens,
                                   adjoint_mode="analytic")
    assert plain.payoff is None and plain.candidate_values.shape == (2,)
    assert layertrace._search_info(plain) == {"candidates": 2, "admissible": 2}


def test_sweep_diagnostics_carry_what_the_tracer_reads(base_model):
    ens = make_ensemble(base_model, n_steps=10, n_paths=500, seed=7)
    triple = dl.solve_linear_bsde(ens, ens.channel("S")[:, -1])
    diagnostics = triple.diagnostics
    assert isinstance(diagnostics["n_columns"], int)
    assert all({"rank", "cond"} <= set(step) for step in diagnostics["per_step"])
    info = layertrace._sweep_info(triple, ens)
    assert info["path_steps"] == 500 * 10 and info["max_cond"] >= 1.0


def _duallab_modules():
    return {name: module for name, module in sys.modules.items()
            if module is not None and (name == "duallab" or name.startswith("duallab."))}


def test_install_then_uninstall_restores_every_module(base_model, log_pair, quad_penalty):
    before = {name: dict(vars(module)) for name, module in _duallab_modules().items()}
    prop = dl.PathEnsemble.__dict__["compensated_jumps"]
    ens = make_ensemble(base_model, n_steps=10, n_paths=500, seed=9)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert dl.solve_robust_saddle is not before["duallab"]["solve_robust_saddle"]
        dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, [0.625], [-0.125], ens,
                               adjoint_mode="analytic")
    finally:
        tracer.uninstall()
    spans = tracer.take()
    names = [span[0] for span in spans]
    assert names[0] == "robust.solve_robust_saddle"
    # the saddle's residuals are read through the robust module, at call time
    assert "robust.robust_primal_foc_residuals" in names
    assert "primal.primal_foc_residual" in names
    for name, module in _duallab_modules().items():
        now = vars(module)
        changed = [key for key, value in before.get(name, {}).items() if now.get(key) is not value]
        assert changed == [], name
    assert dl.PathEnsemble.__dict__["compensated_jumps"] is prop


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_invariants_hold_on_small_runs(tmp_path, name):
    """Every experiment of a workload, at a few paths, writes the files its
    invariant check reads, and passes that check (not the goldens, which are
    taken at 50k paths)."""
    for exp in workloads.WORKLOADS[name].experiments:
        cfg = workloads.make_config(str(ROOT), exp, 4242, str(tmp_path / exp.label))
        paths = 500 if cfg.mode == "simulate" else 2_000
        cfg = validate_config({**cfg.raw, "mc": {**cfg.raw["mc"], "paths": paths}})
        workloads.run_once([cfg])
        workloads._INVARIANTS[cfg.mode](cfg, workloads.read_outputs(cfg))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_configs_carry_what_the_benchmark_reads(tmp_path, name):
    """perfbench/rep.py builds each workload's configs with make_config and
    times cfgs[0].utility() as set-up; workloads.py reads these fields and
    methods of every config."""
    for exp in workloads.WORKLOADS[name].experiments:
        out = str(tmp_path / exp.label)
        cfg = workloads.make_config(str(ROOT), exp, 4242, out)
        assert isinstance(cfg, ExperimentConfig)
        assert isinstance(cfg.utility(), dl.UtilityPair)
        assert (cfg.out_dir, cfg.seed) == (out, 4242)
        assert cfg.mode in workloads._PAYLOADS and cfg.x0 > 0
        grid = cfg.time_grid()
        assert isinstance(cfg.market_model(), dl.MarketModel)
        assert (cfg.n_steps, cfg.n_paths) == (grid.n_steps, cfg.raw["mc"]["paths"])
