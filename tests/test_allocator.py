from collections import Counter

import numpy as np
import pytest

from helpers import random_small_instance
from qram.allocator import (allocate_with_agent, allocate_with_proposals,
                            frontier_proposer, network_proposer, next_config)
from qram.classic import base_configuration, job_list_for, solve_classic
from qram.core import Allocation, Configuration, DEFAULT_CONFIG_SPACE, \
    ResourceBounds
from qram.agent import init_params, zero_params
from qram.perf import generate_scenario
from qram.problem import (build_tracking_instance, default_bounds, is_feasible,
                          system_utility)
from qram.rng import PortableRng


def _instance(n=5, seed=1, bounds=None):
    bounds = bounds or default_bounds(n)
    return build_tracking_instance(generate_scenario(n, seed), bounds,
                                   DEFAULT_CONFIG_SPACE)


def test_next_config_zero_params_picks_action_zero():
    inst = _instance(n=1)
    task = inst.tasks[0]
    target = inst.target_for(task)
    config = next_config(zero_params(), task, target,
                         DEFAULT_CONFIG_SPACE.config_at(30))
    assert config == DEFAULT_CONFIG_SPACE.config_at(0)


def test_next_config_deterministic():
    inst = _instance(n=1)
    task = inst.tasks[0]
    target = inst.target_for(task)
    params = init_params(PortableRng(3))
    current = DEFAULT_CONFIG_SPACE.config_at(10)
    assert next_config(params, task, target, current) \
        == next_config(params, task, target, current)


def test_next_config_rejects_mismatched_action_space():
    inst = _instance(n=1)
    params = init_params(PortableRng(1), n_actions=12)
    with pytest.raises(ValueError):
        next_config(params, inst.tasks[0], inst.target_for(inst.tasks[0]),
                    DEFAULT_CONFIG_SPACE.config_at(0))


def test_empty_instance_allocates_nothing():
    scenario = generate_scenario(1, 1)
    inst = build_tracking_instance(scenario, default_bounds(1),
                                   DEFAULT_CONFIG_SPACE)
    inst = type(inst)(tasks=(), bounds=inst.bounds, scenario=inst.scenario)
    alloc, trace = allocate_with_proposals(lambda *a: None, inst)
    assert len(alloc.assignment) == 0 and trace.upgrades == ()


def test_frontier_oracle_reproduces_classic_exactly():
    for seed in range(25):
        inst = random_small_instance(seed)
        classic_alloc, classic_trace = solve_classic(inst)
        agent_alloc, agent_trace = allocate_with_proposals(
            frontier_proposer(inst), inst)
        assert agent_alloc.assignment == classic_alloc.assignment
        assert system_utility(agent_alloc, inst) \
            == system_utility(classic_alloc, inst)
        assert agent_trace.dropped == classic_trace.dropped
        assert [ (u.task_id, u.config) for u in agent_trace.upgrades] \
            == [(u.task_id, u.config) for u in classic_trace.upgrades]


def test_adversarial_proposer_terminates_feasibly():
    # A proposer cycling through the whole grid must be stopped by the guard.
    inst = _instance(n=4, seed=7)

    state = {"i": 0}

    def chaotic(task, target, current):
        state["i"] = (state["i"] + 13) % DEFAULT_CONFIG_SPACE.size
        return DEFAULT_CONFIG_SPACE.config_at(state["i"])

    alloc, trace = allocate_with_proposals(chaotic, inst)
    assert is_feasible(alloc, inst)
    assert len(trace.upgrades) <= len(inst.tasks) * (DEFAULT_CONFIG_SPACE.size + 1)


def test_proposer_is_asked_once_per_draw_in_loop_order():
    # The loop draws each kept task's step once, in id order, and then only
    # after accepting that task's upgrade; the step asks the proposer once
    # per draw, from the accepted configuration.  An eager chain or a draw
    # after a rejection would reorder or add calls.
    inst = _instance(n=12, seed=3,
                     bounds=ResourceBounds((0.02, 0.5), (1.0, 1.0)))
    oracle = frontier_proposer(inst)
    calls = []

    def recording(task, target, current):
        calls.append((task.id, current))
        return oracle(task, target, current)

    _, trace = allocate_with_proposals(recording, inst)
    assert trace.dropped and trace.upgrades  # bound-limited on both counts
    start = {t.id: base_configuration(t.config_space, inst.target_for(t),
                                      inst.bounds)
             for t in inst.tasks}
    kept = sorted(set(start) - set(trace.dropped))
    assert calls == ([(tid, start[tid]) for tid in kept]
                     + [(u.task_id, u.config) for u in trace.upgrades])


def test_cycle_guard_allows_exactly_size_plus_one_upgrades():
    # Flipping between two frontier points improves the quotient both ways
    # (the way back frees resource and loses utility), so under ample bounds
    # only the guard stops it: grid size + 1 proposals, each accepted.
    inst = _instance(n=3, seed=2,
                     bounds=ResourceBounds((10.0, 100.0), (1.0, 1.0)))
    ends = {}
    for task in inst.tasks:
        points = job_list_for(task, inst.target_for(task), inst.bounds).points
        ends[task.id] = (points[0].config, points[-1].config)
    calls = Counter()

    def flip(task, target, current):
        calls[task.id] += 1
        low, high = ends[task.id]
        return high if current == low else low

    _, trace = allocate_with_proposals(flip, inst)
    size = DEFAULT_CONFIG_SPACE.size
    assert calls == {t.id: size + 1 for t in inst.tasks}
    assert Counter(u.task_id for u in trace.upgrades) == calls


def test_network_allocation_feasible_after_every_size(trained_agent):
    params, _ = trained_agent
    for n in (1, 7, 40):
        inst = _instance(n=n, seed=n)
        alloc, _ = allocate_with_agent(params, inst)
        assert is_feasible(alloc, inst)
        assert sorted(alloc.assignment) == [t.id for t in inst.tasks]


def test_trained_single_task_close_to_classic(trained_agent):
    # With ample resources a lone task usually ends within 5% of the job-list
    # result.  The desk-scale net is weakest on the low-slope frontier tail
    # (three-step episodes rarely visit it), so the tail tolerances are loose.
    params, _ = trained_agent
    bounds = ResourceBounds(bounds=(1.0, 5.0), compound_weights=(1.0, 1.0))
    ratios = []
    for seed in range(40):
        inst = _instance(n=1, seed=100 + seed, bounds=bounds)
        classic_alloc, _ = solve_classic(inst)
        agent_alloc, _ = allocate_with_agent(params, inst)
        ratios.append(system_utility(agent_alloc, inst)
                      / system_utility(classic_alloc, inst))
    ratios = np.asarray(ratios)
    assert np.mean(ratios >= 0.95) >= 0.70
    assert ratios.mean() >= 0.93
    assert ratios.min() >= 0.80


def test_stationary_proposal_retires_task():
    inst = _instance(n=2, seed=5)
    base_cfg = {}

    def stubborn(task, target, current):
        base_cfg.setdefault(task.id, current)
        return current  # never proposes anything new

    alloc, trace = allocate_with_proposals(stubborn, inst)
    assert trace.upgrades == ()
    assert alloc.assignment == base_cfg
