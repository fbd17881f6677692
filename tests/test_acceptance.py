"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``criterion N ... PASS/FAIL`` line (visible with
``pytest -s``); the assertions carry the same conditions.
"""

import json

import numpy as np
import pytest

from conftest import train_agent
from helpers import (gift_wrap_frontier, random_point_cloud,
                     random_small_instance)
from qram.agent import forward, greedy_action
from qram.allocator import allocate_with_agent, allocate_with_proposals, \
    frontier_proposer
from qram.classic import (base_configuration, embed_task, job_list_for,
                          solve_classic, upper_frontier)
from qram.cli import main as cli_main
from qram.core import (Allocation, ConfigSpace, DEFAULT_CONFIG_SPACE,
                       ResourceBounds, compound_resource, resource_of)
from qram.env import DEFAULT_ENV_BOUNDS, encode_state
from qram.exact import optimal_allocation
from qram.perf import generate_scenario, task_utility
from qram.problem import (build_tracking_instance, default_bounds, is_feasible,
                          system_utility)
from qram.rng import PortableRng
from qram import remark1

import test_agent as agent_checks


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


# --------------------------------------------------------------- criterion 1

def _equality_instance(seed: int, upgrades: int):
    """All configurations on the frontier, budget exactly exhausted.

    One dwell, one power and an evenly spaced transmit-duration grid make the
    compound resource linear and the utility strictly concave along the only
    axis, so every grid point is a frontier point and all upgrade costs are
    equal.  The occupancy bound is the exact usage after the globally best
    ``upgrades`` marginal gains, so the greedy pass ends with the budget
    exhausted and must coincide with the exhaustive optimum.
    """
    n_tasks = 4 + seed % 3
    scenario = generate_scenario(n_tasks, 9_000 + seed)
    space = ConfigSpace((100.0,), (2.0, 4.0, 6.0, 8.0, 10.0), (2.0,))
    probe_bounds = ResourceBounds(bounds=(10.0, 1000.0),
                                  compound_weights=(1.0, 0.0))
    probe = build_tracking_instance(scenario, probe_bounds, space)

    gains = []
    for task in probe.tasks:
        utils = [task_utility(c, task) for c in space]
        for level in range(len(utils) - 1):
            gains.append((utils[level + 1] - utils[level], task.id, level))
    gains.sort(reverse=True)
    chosen = sorted(gains[:upgrades], key=lambda g: (g[1], g[2]))
    level_of = {t.id: 0 for t in probe.tasks}
    for _, tid, level in chosen:
        level_of[tid] = max(level_of[tid], level + 1)

    # Exact budget: same sequential summation the feasibility check uses.
    rows = np.zeros((n_tasks, 2))
    for i, task in enumerate(probe.tasks):
        rows[i] = resource_of(space.config_at(level_of[task.id]))
    budget = float(np.cumsum(rows, axis=0)[-1][0])
    bounds = ResourceBounds(bounds=(budget, 1000.0), compound_weights=(1.0, 0.0))
    return build_tracking_instance(scenario, bounds, space)


def test_criterion_1_oracle_dominance_and_equality():
    dominance_ok = True
    for seed in range(200):
        inst = random_small_instance(seed)
        alloc, _ = solve_classic(inst)
        _, best = optimal_allocation(inst)
        if not (system_utility(alloc, inst) <= best):
            dominance_ok = False
            break

    equality_ok = True
    for seed in range(20):
        inst = _equality_instance(seed, upgrades=6 + 2 * (seed % 3))
        greedy_alloc, _ = solve_classic(inst)
        brute_alloc, brute_u = optimal_allocation(inst)
        if system_utility(greedy_alloc, inst) != brute_u:
            equality_ok = False
            break

    ok = dominance_ok and equality_ok
    _report(1, "oracle dominance & worst-case equality", ok)
    assert dominance_ok, "greedy exceeded the exhaustive optimum"
    assert equality_ok, "greedy != optimum on an all-frontier exhausted instance"


# --------------------------------------------------------------- criterion 2

def test_criterion_2_refinement_pathology_frozen():
    rows = remark1.demo_rows()
    i, j = remark1.NON_MONOTONE_PAIR
    greedy_drops = rows[j]["greedy_utility"] < rows[i]["greedy_utility"] - 1e-9
    optimum_holds = all(
        b["optimal_utility"] >= a["optimal_utility"] - 1e-12
        for a, b in zip(rows, rows[1:]))
    ok = greedy_drops and optimum_holds
    _report(2, "greedy worsens under grid refinement", ok)
    assert greedy_drops
    assert optimum_holds


# --------------------------------------------------------------- criterion 3

def test_criterion_3_hull_against_exhaustive_oracle():
    rng = PortableRng(31_337)
    ok = True
    for _ in range(1000):
        cloud = random_point_cloud(rng, max_points=40)
        if list(upper_frontier(cloud).points) != gift_wrap_frontier(cloud):
            ok = False
            break
    _report(3, "hull equals exhaustive frontier oracle", ok)
    assert ok


# --------------------------------------------------------------- criterion 4

def test_criterion_4_gradient_fidelity():
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 50:
        params, trajectory = agent_checks.toy_case(seed)
        seed += 1
        if not agent_checks.kink_free(params, trajectory):
            continue  # finite differences are invalid at a rectifier kink
        worst = max(worst, agent_checks.fd_worst_error(params, trajectory))
        checked += 1
    ok = worst < 1e-4
    _report(4, f"analytic gradients vs central differences (worst {worst:.2e})", ok)
    assert ok


# --------------------------------------------------------------- criterion 5

@pytest.mark.slow
def test_criterion_5_agent_quality(trained_agent):
    params, _ = trained_agent

    scenario = generate_scenario(500, 99)
    bounds = DEFAULT_ENV_BOUNDS
    near = 0
    for target in scenario.targets:
        inst = build_tracking_instance(
            type(scenario)(targets=(target,), seed=0), bounds,
            DEFAULT_CONFIG_SPACE)
        task = inst.tasks[0]
        base = base_configuration(DEFAULT_CONFIG_SPACE, target, bounds)
        logits, _ = forward(params, encode_state(DEFAULT_CONFIG_SPACE, base,
                                                 target))
        config = DEFAULT_CONFIG_SPACE.config_at(greedy_action(logits))
        frontier = job_list_for(task, DEFAULT_CONFIG_SPACE, bounds)
        r = compound_resource(resource_of(config), bounds)
        u = task_utility(config, target)
        attainable = max((p.utility for p in frontier.points if p.resource <= r),
                         default=frontier.points[0].utility)
        near += u >= 0.95 * attainable
    proximity = near / 500

    mean_ratio = {}
    for n in (20, 150):
        ratios = []
        for run in range(20):
            scn = generate_scenario(n, 1000 * n + run)
            inst = build_tracking_instance(scn, default_bounds(n),
                                           DEFAULT_CONFIG_SPACE)
            classic_alloc, _ = solve_classic(inst)
            agent_alloc, _ = allocate_with_agent(params, inst)
            ratios.append(system_utility(agent_alloc, inst)
                          / system_utility(classic_alloc, inst))
        mean_ratio[n] = float(np.mean(ratios))

    ok = proximity >= 0.80 and mean_ratio[20] >= 0.90 and mean_ratio[150] >= 0.85
    _report(5, f"agent quality (proximity {proximity:.2f}, "
               f"ratio@20 {mean_ratio[20]:.3f}, ratio@150 {mean_ratio[150]:.3f})",
            ok)
    assert proximity >= 0.80
    assert mean_ratio[20] >= 0.90
    assert mean_ratio[150] >= 0.85


# --------------------------------------------------------------- criterion 6

@pytest.mark.slow
def test_criterion_6_runtime_scaling_shape(tmp_path):
    out = tmp_path / "runtime.csv"
    assert cli_main(["bench", "runtime", "--mode", "by-configs",
                     "--runs", "20", "--out", str(out)]) == 0
    import csv as csv_mod
    rows = list(csv_mod.DictReader(open(out)))
    c = np.array([float(r["configs"]) for r in rows])
    joblist = np.array([float(r["joblist_s"]) for r in rows])
    fwd = np.array([float(r["forward_s"]) for r in rows])
    exponent = float(np.polyfit(np.log(c), np.log(joblist), 1)[0])
    spread = float(fwd.max() / fwd.min())
    increasing = bool(np.all(np.diff(joblist) > 0))
    ok = exponent >= 1.0 and spread < 2.0 and increasing
    _report(6, f"runtime scaling (exponent {exponent:.3f}, forward spread "
               f"{spread:.2f}x)", ok)
    assert increasing, "per-task job-list time must grow with the grid"
    assert exponent >= 1.0
    assert spread < 2.0


# --------------------------------------------------------------- criterion 7

def test_criterion_7_oracle_agent_equivalence():
    ok = True
    for seed in range(100):
        inst = random_small_instance(seed + 500)
        classic_alloc, _ = solve_classic(inst)
        oracle_alloc, _ = allocate_with_proposals(frontier_proposer(inst), inst)
        if system_utility(oracle_alloc, inst) != system_utility(classic_alloc,
                                                                inst):
            ok = False
            break
    _report(7, "frontier-oracle agent reproduces greedy exactly", ok)
    assert ok


# --------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_8_pipelines_bit_reproducible(tmp_path):
    def run_all(tag: str):
        d = tmp_path / tag
        d.mkdir()
        scenario = d / "scenario.json"
        cli_main(["gen", "--targets", "5", "--seed", "17", "--out", str(scenario)])
        weights = d / "weights.json"
        curve = d / "curve.csv"
        cli_main(["train", "--steps", "300", "--seed", "17", "--out",
                  str(weights), "--curve", str(curve)])
        classic = d / "classic.json"
        cli_main(["solve", "--scenario", str(scenario), "--method", "classic",
                  "--out", str(classic)])
        agent = d / "agent.json"
        cli_main(["solve", "--scenario", str(scenario), "--method", "agent",
                  "--weights", str(weights), "--out", str(agent)])
        bench = d / "bench.csv"
        cli_main(["bench", "utility", "--targets", "4..6", "--step", "2",
                  "--runs", "2", "--weights", str(weights), "--out", str(bench)])
        demo = d / "remark1.csv"
        cli_main(["demo", "remark1", "--out", str(demo)])

        def stripped(path):
            doc = json.loads(path.read_text())
            doc.pop("timings", None)
            return json.dumps(doc, sort_keys=True)

        return {"scenario": scenario.read_bytes(),
                "weights": weights.read_bytes(),
                "curve": curve.read_bytes(),
                "classic": stripped(classic),
                "agent": stripped(agent),
                "bench": bench.read_bytes(),
                "demo": demo.read_bytes()}

    first = run_all("a")
    second = run_all("b")
    mismatched = [k for k in first if first[k] != second[k]]
    ok = not mismatched
    _report(8, "seeded pipelines bit-reproducible", ok)
    assert ok, f"outputs differ: {mismatched}"
