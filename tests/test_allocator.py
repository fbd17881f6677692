from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (frontier_proposer, lazy_allocate_with_proposals,
                     random_small_instance, random_small_space, raw_quotient,
                     rescan_upgrade_loop, resource_of, single_row_proposer,
                     with_arrays, zero_network)
from qram import allocator, classic
from qram.agent import WeightFormatError, init_params, load
from qram.allocator import (allocate_with_agent, allocate_with_proposals,
                            network_proposer, next_config)
from qram.classic import (base_configuration, greedy_allocate, job_list_for,
                          solve_classic)
from qram.core import (Configuration, DEFAULT_CONFIG_SPACE, ResourceBounds,
                       grid_configurations)
from qram.perf import TYPE_ORDER, generate_scenario
from qram.problem import (build_tracking_instance, default_bounds, is_feasible,
                          system_utility, target_block)
from qram.rng import PortableRng

#: The frozen weights the benchmark solves with.
FROZEN_WEIGHTS = (Path(__file__).resolve().parent.parent / "perfbench"
                  / "weights" / "agent-seed1-30k.json")


def _instance(n=5, seed=1, bounds=None):
    bounds = bounds or default_bounds(n)
    return build_tracking_instance(generate_scenario(n, seed), bounds,
                                   DEFAULT_CONFIG_SPACE)


def test_next_config_zero_params_picks_action_zero():
    inst = _instance(n=3)
    assert next_config(zero_network(), inst, [0, 1, 2],
                       [30, 0, 89]) == [0] * 3


def test_next_config_deterministic():
    inst = _instance(n=4)
    positions = [0, 1, 2, 3]
    params = init_params(PortableRng(3))
    currents = [10, 20, 10, 5]
    assert next_config(params, inst, positions, currents) \
        == next_config(params, inst, positions, currents)


def test_next_config_rejects_mismatched_action_space():
    inst = _instance(n=1)
    params = init_params(PortableRng(1), n_actions=12)
    with pytest.raises(ValueError):
        next_config(params, inst, [0], [0])


def test_empty_instance_allocates_nothing():
    scenario = generate_scenario(1, 1)
    inst = build_tracking_instance(scenario, default_bounds(1),
                                   DEFAULT_CONFIG_SPACE)
    inst = build_tracking_instance(type(scenario)((), seed=1), inst.bounds,
                                   inst.space)
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
        assert [(u.task_id, u.index) for u in agent_trace.upgrades] \
            == [(u.task_id, u.index) for u in classic_trace.upgrades]


def test_adversarial_proposer_terminates_feasibly():
    # A proposer cycling through the whole grid must be stopped by the guard.
    inst = _instance(n=4, seed=7)

    state = {"i": 0}
    calls = Counter()

    def chaotic(positions, currents):
        proposals = []
        for pos in positions:
            calls[inst.tasks[pos].id] += 1
            state["i"] = (state["i"] + 13) % DEFAULT_CONFIG_SPACE.size
            proposals.append(state["i"])
        return proposals

    alloc, trace = allocate_with_proposals(chaotic, inst)
    assert is_feasible(alloc, inst)
    assert max(calls.values()) <= DEFAULT_CONFIG_SPACE.size + 1
    assert len(trace.upgrades) <= len(inst.tasks) * (DEFAULT_CONFIG_SPACE.size + 1)


def test_proposer_is_asked_once_per_wave_about_live_kept_chains():
    # Under the frontier oracle a task's chain is its job list, live at wave
    # k while the list has more than k points.  Wave k asks about every live
    # chain once, in id order, from point k; dropped tasks are never asked.
    # A wave runs only when a draw needs it: wave k once some task has k
    # accepted upgrades.  An extra, missing or reordered call fails.
    inst = _instance(n=12, seed=3,
                     bounds=ResourceBounds((0.02, 0.5), (1.0, 1.0)))
    oracle = frontier_proposer(inst)
    waves = []

    def recording(positions, currents):
        waves.append(([inst.tasks[pos].id for pos in positions], list(currents)))
        return oracle(positions, currents)

    _, trace = allocate_with_proposals(recording, inst)
    assert trace.dropped and trace.upgrades  # bound-limited on both counts
    points = {t.id: [p.index
                     for p in job_list_for(t, inst.space, inst.bounds).points]
              for t in inst.tasks}
    kept = sorted(set(points) - set(trace.dropped))
    depth = max(Counter(u.task_id for u in trace.upgrades).values())
    assert depth + 1 < max(len(points[tid]) for tid in kept)  # waves saved
    assert waves == [([tid for tid in kept if len(points[tid]) > k],
                      [points[tid][k] for tid in kept if len(points[tid]) > k])
                     for k in range(depth + 1)]
    assert not set(trace.dropped) & {tid for ids, _ in waves for tid in ids}


def test_cycle_guard_allows_exactly_size_plus_one_upgrades():
    # Flipping between two frontier points improves the quotient both ways
    # (the way back frees resource and loses utility), so under ample bounds
    # only the guard stops it: grid size + 1 proposals, each accepted.
    inst = _instance(n=3, seed=2,
                     bounds=ResourceBounds((10.0, 100.0), (1.0, 1.0)))
    ends = {}
    for task in inst.tasks:
        points = job_list_for(task, inst.space, inst.bounds).points
        ends[task.id] = (points[0].index, points[-1].index)
    calls = Counter()

    def flip(positions, currents):
        proposals = []
        for pos, current in zip(positions, currents):
            calls[inst.tasks[pos].id] += 1
            low, high = ends[inst.tasks[pos].id]
            proposals.append(high if current == low else low)
        return proposals

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

    def stubborn(positions, currents):
        for pos, current in zip(positions, currents):
            base_cfg.setdefault(inst.tasks[pos].id, inst.space.config_at(current))
        return list(currents)  # never proposes anything new

    alloc, trace = allocate_with_proposals(stubborn, inst)
    assert trace.upgrades == ()
    assert alloc.assignment == base_cfg


def _outcome(alloc, trace):
    return (sorted(alloc.assignment.items()), trace.dropped,
            [(u.task_id, u.index, repr(u.ratio)) for u in trace.upgrades])


NETWORKS = {"frozen": lambda: load(FROZEN_WEIGHTS)[0],
            "zero": zero_network,
            "init": lambda: init_params(PortableRng(5))}

BOUNDS = {"default": default_bounds,
          "tight": lambda n: ResourceBounds((0.15, 0.5), (1.0, 1.0)),
          "weights-1-2": lambda n: ResourceBounds(default_bounds(n).bounds,
                                                  (1.0, 2.0))}


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_waves_match_the_lazy_per_draw_reference(network, bounds):
    # Allocations, dropped ids and traces (ratios by repr) of the wave path
    # equal those of a proposer asked one row at a time, once per draw.
    params = NETWORKS[network]()
    for n in (3, 20, 150, 500, 1000):
        inst = build_tracking_instance(generate_scenario(n, 1000 + n),
                                       BOUNDS[bounds](n), DEFAULT_CONFIG_SPACE)
        assert _outcome(*allocate_with_agent(params, inst)) == _outcome(
            *lazy_allocate_with_proposals(
                single_row_proposer(params, inst.space), inst)), n


def _with_both_loops(monkeypatch, solve):
    """``solve()`` with the parking ``upgrade_loop``, then with the
    rescanning reference in its place, as outcomes."""
    got = _outcome(*solve())
    with monkeypatch.context() as patch:
        patch.setattr(classic, "upgrade_loop", rescan_upgrade_loop)
        patch.setattr(allocator, "upgrade_loop", rescan_upgrade_loop)
        return got, _outcome(*solve())


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
def test_parking_loop_matches_the_rescanning_reference(bounds, monkeypatch):
    # Classic and agent allocations, dropped ids and traces (ratios by repr)
    # equal those of a loop that rescans every candidate after each upgrade.
    networks = [NETWORKS["frozen"](), NETWORKS["zero"]()]
    for n in (3, 20, 150, 500, 1000):
        inst = build_tracking_instance(generate_scenario(n, 1000 + n),
                                       BOUNDS[bounds](n), DEFAULT_CONFIG_SPACE)
        lists = [job_list_for(task, inst.space, inst.bounds)
                 for task in inst.tasks]
        got, want = _with_both_loops(monkeypatch,
                                     lambda: greedy_allocate(lists, inst))
        assert got == want, ("classic", n)
        for params in networks:
            got, want = _with_both_loops(
                monkeypatch, lambda: allocate_with_agent(params, inst))
            assert got == want, ("agent", n)


def test_parking_loop_matches_the_rescanning_reference_on_small_instances(
        monkeypatch):
    for seed in range(40):
        inst = random_small_instance(seed)
        got, want = _with_both_loops(monkeypatch, lambda: solve_classic(inst))
        assert got == want, seed
        got, want = _with_both_loops(monkeypatch, lambda: allocate_with_proposals(
            frontier_proposer(inst), inst))
        assert got == want, seed


def test_next_config_stores_a_non_finite_row_as_an_error():
    inst = _instance(n=3)
    params = zero_network()
    params = with_arrays(params, b_policy=np.where(
        np.arange(params.n_actions) == 4, np.inf, 0.0))
    proposals = next_config(params, inst, [0, 1, 2], [0] * 3)
    assert [str(p) for p in proposals] == [
        f"network logits are not finite (task {t.id}); the weights overflow"
        for t in inst.tasks]
    assert all(isinstance(p, WeightFormatError) for p in proposals)


def _overflow_instance(type_of_top: bool):
    """Six tasks that all propose the same first upgrade, bounds with room
    for exactly one, and a network that overflows only for tasks of one
    type once they run with a longer transmit duration.

    Returns (params, instance, the overflowing type's task ids in ratio
    order, the upgrade's grid index).  The type is the top-ranked task's type if
    ``type_of_top``, else another type present in the scenario.
    """
    space = DEFAULT_CONFIG_SPACE
    upgrade = Configuration(1100.0, 4.0, 1.0)
    up = grid_configurations(space).index(upgrade)
    scenario = generate_scenario(6, 8)
    start = space.config_at(base_configuration(
        space, target_block(scenario.targets[:1]), default_bounds(6))[0])
    room = 1.5 * (resource_of(upgrade) - resource_of(start))
    bounds = ResourceBounds(tuple((6 * resource_of(start) + room).tolist()),
                            (1.0, 1.0))
    inst = build_tracking_instance(scenario, bounds, space)
    by_ratio = sorted(inst.tasks, key=lambda t: (
        -raw_quotient(start, upgrade, t, bounds), t.id))
    top = by_ratio[0].ttype
    ttype = top if type_of_top else next(
        t.ttype for t in by_ratio if t.ttype is not top)
    params = zero_network()
    hot = np.zeros_like(params.w_trunk)
    hot[0, 0] = hot[params.hidden, 0] = 1e200
    params = with_arrays(
        params,
        w_sit1=np.outer(np.eye(params.situational_in)[TYPE_ORDER.index(ttype)],
                        np.eye(params.hidden)[0]),
        w_sit2=np.diag(np.eye(params.hidden)[0]),
        w_cfg=np.outer([0.0, 1.0, 0.0], np.eye(params.hidden)[0]),
        w_trunk=hot, b_trunk=-1e200 * np.eye(params.hidden)[0],
        w_policy=np.outer(np.eye(params.hidden)[0], np.full(space.size, 1e200)),
        b_policy=np.eye(space.size)[up])
    overflowing = [t.id for t in by_ratio if t.ttype is ttype]
    return params, inst, overflowing, up


def test_an_overflow_in_an_undrawn_step_is_never_raised():
    # The top task's upgrade is accepted, so its second step is drawn and
    # the second wave runs; it overflows for the other type's tasks, whose
    # first upgrade no longer fits, so their failed steps are never drawn.
    params, inst, overflowing, upgrade = _overflow_instance(type_of_top=False)
    waves = []
    inner = network_proposer(params, inst)

    def recording(positions, currents):
        waves.append(inner(positions, currents))
        return waves[-1]

    alloc, trace = allocate_with_proposals(recording, inst)
    assert len(waves) == 2
    assert sorted(t.id for t, p in zip(inst.tasks, waves[1])
                  if isinstance(p, WeightFormatError)) == sorted(overflowing)
    assert [(u.task_id, u.index) for u in trace.upgrades] \
        == [(trace.upgrades[0].task_id, upgrade)]
    assert trace.upgrades[0].task_id not in overflowing
    assert is_feasible(alloc, inst)


def test_an_overflow_is_raised_when_its_step_is_drawn():
    # Same network, but the top task overflows: its second step is drawn
    # right after its upgrade is accepted and raises, naming the task.
    params, inst, overflowing, _ = _overflow_instance(type_of_top=True)
    with pytest.raises(WeightFormatError) as err:
        allocate_with_agent(params, inst)
    assert str(err.value) == (f"network logits are not finite (task "
                              f"{overflowing[0]}); the weights overflow")


@pytest.mark.parametrize("bad", [-1, DEFAULT_CONFIG_SPACE.size,
                                 DEFAULT_CONFIG_SPACE.config_at(5), True],
                         ids=["negative", "size", "configuration", "bool"])
def test_a_proposal_that_is_not_a_grid_index_raises_when_drawn(bad):
    # A negative index would wrap to the end of the grid, one past it would
    # read past the tables, a Configuration is the old protocol, and True
    # would pass for index 1.  Each ends its chain with an IndexError, which
    # the first draw raises.
    inst = _instance(n=4, seed=7)
    with pytest.raises(IndexError) as err:
        allocate_with_proposals(
            lambda positions, currents: [bad] * len(positions), inst)
    assert str(err.value) == (f"task {inst.tasks[0].id}: proposal {bad!r} is "
                              f"not a configuration index in [0, 90)")


@pytest.mark.parametrize("bounds", ["default", "tight"])
def test_a_small_random_grid_matches_the_rescanning_reference(bounds,
                                                               monkeypatch):
    # All 60 tasks run on a small random grid.  Classic and the frontier
    # oracle give the same outcome as the rescanning reference, which reads
    # rows from the scalar model.  Every seed takes upgrades, and under
    # tight bounds seeds 4, 8 and 11 also drop tasks.
    drops = 0
    for seed in (1, 4, 5, 8, 11):
        small = random_small_space(PortableRng(seed))
        inst = build_tracking_instance(generate_scenario(60, 500 + seed),
                                       BOUNDS[bounds](60), small)
        got, want = _with_both_loops(monkeypatch, lambda: solve_classic(inst))
        assert got == want and got[2], seed
        oracle = _with_both_loops(monkeypatch, lambda: allocate_with_proposals(
            frontier_proposer(inst), inst))
        assert oracle == (got, want), seed
        drops += len(got[1])
    assert drops or bounds == "default"


def test_solvers_construct_no_configuration_after_warm_up(monkeypatch):
    # Inside the solvers a choice is a grid index; the allocation reads
    # its configurations from the cached grid tuple.
    inst = _instance(n=150, seed=11)
    params = load(FROZEN_WEIGHTS)[0]
    solves = (lambda: solve_classic(inst),
              lambda: allocate_with_agent(params, inst))
    for solve in solves:
        solve()  # fills the per-grid caches
    built = []
    post_init = Configuration.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(Configuration, "__post_init__", counted)
    Configuration(100.0, 2.0, 1.0)
    assert len(built) == 1  # the count sees a construction
    built.clear()
    for solve in solves:
        solve()
    assert built == []
