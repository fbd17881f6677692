"""The traced benchmark run must still find and call every name it wraps.

``perfbench/tracing.py`` wraps public functions where their callers look
them up (``owner.__dict__[attr]``), so renaming or moving one of them
silently breaks the per-layer report, and its counter hooks read positional
arguments and results, so a signature change breaks them.  The module is
loaded read-only from its file; patches last for one traced call only.
The benchmark's own self-test runs here too, so a change to the program
that breaks ``perfbench/`` fails this suite.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _load_tracing()
PATCHES = TRACING_MODULE.PATCHES


@pytest.mark.parametrize("module_name,path", [(m, p) for m, p, _, _ in PATCHES])
def test_patched_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = owner.__dict__[cls]
    assert callable(owner.__dict__[attr])


def test_config_eval_counter_exists():
    from qram import kernels
    assert "config_evals" in kernels.counters


#: Per method: the spans a traced solve records, the spans it must not
#: record, and the counter-hook counts.  The agent finds each task's start
#: in the cached ``config_costs``, so it evaluates no grid.  A classic solve
#: builds its job lists in one batched pass, not through the per-task
#: embed_task / upper_frontier / config_metrics path, and both exact oracles
#: read the instance's utility table, not one config_metrics call per task.
TRACED_SOLVE = {
    "classic": ({"classic.greedy_allocate", "classic.ledger.fits",
                 "problem.system_utility"},
                {"classic.embed_task", "classic.upper_frontier",
                 "kernels.config_metrics"},
                {"classic.upgrades", "classic.dropped"}),
    "agent": ({"allocator.allocate_with_proposals", "classic.base_configuration",
               "allocator.next_config", "agent.forward",
               "env.encode_state", "problem.system_utility"},
              {"kernels.config_metrics"},
              {"allocator.upgrades", "allocator.dropped"}),
    "dp": ({"exact.optimal_allocation_dp",
            "kernels.fill_knapsack_table", "problem.system_utility"},
           {"kernels.config_metrics"},
           {"kernels.fill_knapsack_table.cells"}),
    "brute": ({"exact.optimal_allocation",
               "kernels.scan_best_feasible", "problem.system_utility"},
              {"kernels.config_metrics"},
              {"kernels.scan_best_feasible.states"}),
}


def _traced(argv):
    """Run one CLI call under the tracer; returns the span names recorded
    and the tracer."""
    from qram import cli

    tracer = TRACING_MODULE.Tracer()
    with tracer.installed(op=0):
        assert cli.main(argv) == 0
    assert all(span[4] == 0 for span in tracer.spans)
    assert not hasattr(cli.system_utility, "__wrapped__")  # patches undone
    return {span[0] for span in tracer.spans}, tracer


@pytest.mark.parametrize("method", sorted(TRACED_SOLVE))
def test_traced_solve_records_spans_and_counts(method, tmp_path):
    from qram import cli
    from qram.agent import init_params, save
    from qram.core import DEFAULT_CONFIG_SPACE
    from qram.rng import PortableRng

    scenario, weights = tmp_path / "scenario.json", tmp_path / "weights.json"
    assert cli.main(["gen", "--targets", "2", "--seed", "3", "--out", str(scenario)]) == 0
    save(init_params(PortableRng(0)), weights, config_space=DEFAULT_CONFIG_SPACE)
    recorded, tracer = _traced(["solve", "--scenario", str(scenario),
                                "--method", method, "--weights", str(weights),
                                "--out", str(tmp_path / "result.json")])
    spans, absent, counts = TRACED_SOLVE[method]
    assert "cli.solve" in recorded
    assert spans <= recorded, spans - recorded
    assert not absent & recorded, absent & recorded
    assert counts <= set(tracer.counts), counts - set(tracer.counts)


def test_traced_train_records_spans(tmp_path):
    recorded, _ = _traced(["train", "--steps", "3",
                           "--out", str(tmp_path / "weights.json")])
    assert {"cli.train", "env.reset", "classic.base_configuration", "env.step",
            "agent.forward", "agent.a2c_update"} <= recorded
    assert "kernels.config_metrics" not in recorded


def test_benchmark_self_test_passes():
    # Every workload once on toy inputs, untraced and traced, in a fresh
    # interpreter: the self-test imports the program from src/ itself.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
