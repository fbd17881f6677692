"""Toy-size self-test of the benchmark.

    python -m pytest -q perfbench/selftest.py

Runs every workload once on tiny inputs, untraced and traced, and checks
that each metric named in BENCHMARK.json is emitted with its unit; then
feeds a deliberately over-budget assignment through the output checker.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qram.cli  # noqa: E402
from qram.core import DEFAULT_CONFIG_SPACE  # noqa: E402
from qram.perf import Scenario  # noqa: E402
from qram.problem import build_tracking_instance, default_bounds, system_utility  # noqa: E402

import run  # noqa: E402
from checks import read_allocation  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.Spec(solve_targets=(4, 6, 8), solve_scenarios=(1, 1, 1),
                     train_steps=(3, 6, 9), train_seeds_per_length=1,
                     dp_targets=(4, 6), dp_scenarios_per_size=1)
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = run.run_workload(workload, seed=1, seconds=0, trace=trace,
                              work=tmp_path, spec=TOY)
    assert result["correct"], result["detail"]["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["detail"]["digest"] is not None


def test_over_budget_assignment_counts_as_a_failure(tmp_path):
    ops = workloads.build_round("solve-classic", 1, tmp_path, TOY)
    op = ops[0]
    assert run.timed_call(qram.cli.main, op.argv)[1] == 0
    out = op.outputs[0]
    doc = json.loads(out.read_text(encoding="utf-8"))

    # Every task at its most expensive configuration, with the utility that
    # assignment really has, so only the resource bound is violated.
    scenario_path = Path(op.argv[op.argv.index("--scenario") + 1])
    scenario = Scenario.from_dict(json.loads(scenario_path.read_text(encoding="utf-8")))
    instance = build_tracking_instance(scenario, default_bounds(len(scenario.targets)),
                                       DEFAULT_CONFIG_SPACE)
    space = DEFAULT_CONFIG_SPACE
    costliest = {"dwell_length": space.dwell_grid[0],
                 "transmit_duration": space.tx_duration_grid[-1],
                 "transmit_power": space.tx_power_grid[-1]}
    doc["assignment"] = {str(t.id): costliest for t in instance.tasks}
    doc["system_utility"] = system_utility(read_allocation(doc), instance)
    out.write_text(json.dumps(doc), encoding="utf-8")

    checker = run.Checker(ops)
    checker.record(0, 0, "")
    assert (checker.attempted, checker.failed) == (1, 1)
    assert any("exceeds the resource bounds" in m for m in checker.messages)
