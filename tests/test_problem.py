import numpy as np
import pytest

from helpers import reference_target_row, resource_of, task_utility, usage_loop
from qram.core import Allocation, Configuration, DEFAULT_CONFIG_SPACE, \
    ResourceBounds, allocation_usage
from qram.perf import Scenario, Target, TargetType, generate_scenario
from qram import problem, remark1
from qram.problem import (ProblemInstance, build_tracking_instance, default_bounds,
                          evaluate_allocation, is_feasible, system_utility,
                          target_block)


def _instance(n=4, seed=42):
    return build_tracking_instance(generate_scenario(n, seed), default_bounds(n),
                                   DEFAULT_CONFIG_SPACE)


def test_default_bounds_rule():
    assert default_bounds(20).bounds == (0.6, 5.0)
    assert default_bounds(150).bounds == (1.0, 5.0)  # capped at one timeline


def test_instance_validates_task_ids_and_targets():
    inst = _instance()
    with pytest.raises(ValueError):
        ProblemInstance(inst.ids + inst.ids[:1],
                        target_block(inst.tasks + inst.tasks[:1]),
                        bounds=inst.bounds, space=inst.space)
    with pytest.raises(ValueError, match="target block of shape"):
        ProblemInstance(inst.ids, inst.block[:-1], inst.bounds, inst.space)


def test_lookups_with_unsorted_non_contiguous_ids():
    targets = (Target(7, TargetType.MISSILE, 40.0, 600.0),
               Target(3, TargetType.HELICOPTER, 120.0, 50.0),
               Target(11, TargetType.FIGHTER, 75.0, 300.0))
    scenario = Scenario(targets=targets, seed=0)
    inst = build_tracking_instance(scenario, default_bounds(3), DEFAULT_CONFIG_SPACE)
    config = DEFAULT_CONFIG_SPACE.config_at(0)
    expected = 0.0
    for target, task in zip(targets, inst.tasks):
        assert task == target
        assert inst.tasks[inst.position[target.id]] is task
        expected += task_utility(config, target)
    alloc = Allocation(assignment={t.id: config for t in targets})
    assert system_utility(alloc, inst) == expected
    assert is_feasible(alloc, inst)
    for unknown in (0, 4, 12):
        assert unknown not in inst.position
        with pytest.raises(KeyError, match=f"no task with id {unknown}"):
            is_feasible(Allocation(assignment={unknown: config}), inst)


def test_target_block_matches_the_per_target_reference():
    # Rows hold the README's columns bit for bit for all three types, the
    # block is read-only, and an instance's rows and positions follow its
    # task order, not its ids.
    targets = generate_scenario(40, 3).targets
    assert {t.ttype for t in targets} == set(TargetType)
    block = target_block(targets)
    want = np.array([reference_target_row(t) for t in targets])
    assert block.shape == want.shape == (40, 8)
    assert block.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        block[0, 0] = 2.0
    assert target_block([]).shape == (0, 8)
    shuffled = tuple(targets[(7 * k + 3) % 40] for k in range(40))
    inst = build_tracking_instance(Scenario(targets=shuffled, seed=3),
                                   default_bounds(40), DEFAULT_CONFIG_SPACE)
    assert inst.block.tobytes() == np.array(
        [reference_target_row(t) for t in shuffled]).tobytes()
    assert not inst.block.flags.writeable
    assert inst.position == {t.id: pos for pos, t in enumerate(shuffled)}


def test_scenario_block_is_the_target_block_bit_for_bit():
    # The instance block built from a scenario's columns, also from a file
    # with integer ranges and speeds, and with no targets at all.
    for scenario in (generate_scenario(300, 5), Scenario.from_dict(
            {"format": 1, "seed": 0, "targets": [
                {"id": 4, "ttype": "Missile", "range_km": 90, "speed_mps": 1000},
                {"id": 2, "ttype": "Helicopter", "range_km": 5.5, "speed_mps": 0}]}),
            Scenario((), seed=0)):
        block = problem.scenario_block(scenario)
        assert block.shape == (len(scenario.ids), 8)
        assert block.tobytes() == target_block(scenario.targets).tobytes()
        assert not block.flags.writeable


def test_system_utility_empty_allocation():
    assert system_utility(Allocation(), _instance()) == 0.0


def test_system_utility_single_task():
    inst = _instance()
    task = inst.tasks[2]
    config = DEFAULT_CONFIG_SPACE.config_at(17)
    alloc = Allocation(assignment={task.id: config})
    assert system_utility(alloc, inst) == task_utility(config, task)


def test_system_utility_is_termwise_sum():
    inst = _instance()
    alloc = Allocation(assignment={t.id: DEFAULT_CONFIG_SPACE.config_at(10 + t.id)
                                   for t in inst.tasks})
    expected = 0.0
    for task in inst.tasks:
        expected += task_utility(alloc.assignment[task.id], task)
    assert system_utility(alloc, inst) == expected


def test_system_utility_additive_over_disjoint_sets():
    inst = _instance(n=6, seed=11)
    left = Allocation(assignment={t.id: DEFAULT_CONFIG_SPACE.config_at(5)
                                  for t in inst.tasks[:3]})
    right = Allocation(assignment={t.id: DEFAULT_CONFIG_SPACE.config_at(60)
                                   for t in inst.tasks[3:]})
    both = Allocation(assignment={**left.assignment, **right.assignment})
    total = system_utility(left, inst) + system_utility(right, inst)
    assert system_utility(both, inst) == pytest.approx(total, rel=1e-15)


def test_system_utility_rejects_unknown_task():
    inst = _instance()
    with pytest.raises(KeyError):
        system_utility(Allocation(assignment={99: DEFAULT_CONFIG_SPACE.config_at(0)}),
                       inst)


def test_system_utility_rejects_off_grid_config():
    inst = _instance()
    with pytest.raises(ValueError):
        system_utility(Allocation(assignment={0: Configuration(201.0, 2.0, 1.0)}),
                       inst)


def test_evaluate_allocation_is_both_passes_after_one_check(monkeypatch):
    # One grid lookup per assigned task; utilities in instance order and the
    # usage equal the scalar references bit for bit.
    inst = _instance(n=6, seed=5)
    alloc = Allocation(assignment={t.id: DEFAULT_CONFIG_SPACE.config_at(7 * t.id)
                                   for t in reversed(inst.tasks[1:])})
    lookups = []
    index_of = DEFAULT_CONFIG_SPACE.index_of
    monkeypatch.setattr(type(DEFAULT_CONFIG_SPACE), "index_of",
                        lambda space, config: lookups.append(config)
                        or index_of(config))
    utilities, usage = evaluate_allocation(alloc, inst)
    assert sorted(lookups) == sorted(alloc.assignment.values())
    assigned = [t for t in inst.tasks if t.id in alloc.assignment]
    assert list(utilities.items()) == [
        (t.id, task_utility(alloc.assignment[t.id], t)) for t in assigned]
    assert usage.tobytes() == usage_loop(
        [alloc.assignment[t.id] for t in assigned]).tobytes()
    assert system_utility(alloc, inst, utilities) == system_utility(alloc, inst)
    with pytest.raises(KeyError, match="no task with id 99"):
        evaluate_allocation(Allocation(assignment={99: DEFAULT_CONFIG_SPACE.config_at(0)}),
                            inst)
    with pytest.raises(ValueError, match="task 0: .* is not on its grid"):
        evaluate_allocation(Allocation(assignment={0: Configuration(201.0, 2.0, 1.0)}),
                            inst)


def test_is_feasible_empty_and_boundary():
    inst = _instance()
    assert is_feasible(Allocation(), inst)

    config = DEFAULT_CONFIG_SPACE.config_at(33)
    usage = resource_of(config)
    exact = build_tracking_instance(
        generate_scenario(4, 42),
        ResourceBounds(bounds=(float(usage[0]), float(usage[1])),
                       compound_weights=(1.0, 1.0)),
        DEFAULT_CONFIG_SPACE)
    assert is_feasible(Allocation(assignment={0: config}), exact)  # inclusive


def test_is_feasible_single_violation():
    scenario = generate_scenario(1, 1)
    tight = build_tracking_instance(
        scenario, ResourceBounds(bounds=(1e-6, 5.0), compound_weights=(1.0, 1.0)),
        DEFAULT_CONFIG_SPACE)
    alloc = Allocation(assignment={0: DEFAULT_CONFIG_SPACE.config_at(0)})
    assert not is_feasible(alloc, tight)


def test_infeasibility_is_antitone_under_extension():
    scenario = generate_scenario(3, 2)
    tight = build_tracking_instance(
        scenario, ResourceBounds(bounds=(0.02, 5.0), compound_weights=(1.0, 1.0)),
        DEFAULT_CONFIG_SPACE)
    heavy = DEFAULT_CONFIG_SPACE.config_at(12)  # dwell 100, tx 10: occupancy 0.1
    partial = Allocation(assignment={0: heavy})
    assert not is_feasible(partial, tight)
    for extra in range(20):
        bigger = Allocation(assignment={0: heavy,
                                        1: DEFAULT_CONFIG_SPACE.config_at(extra)})
        assert not is_feasible(bigger, tight)


# ------------------------------------------------------------ one usage sum

SUM_GRIDS = (DEFAULT_CONFIG_SPACE, *remark1.config_space_chain())


@pytest.mark.parametrize("ascending", [True, False], ids=["ids-ascend", "ids-shuffled"])
@pytest.mark.parametrize("n_tasks", [1, 150, 500, 1000])
@pytest.mark.parametrize("grid", range(len(SUM_GRIDS)))
def test_every_usage_sum_is_the_scalar_loop_bit_for_bit(grid, n_tasks, ascending):
    """The reported usage, ``is_feasible`` and the benchmark's task-id-order
    sum all add resource vectors exactly as a one-vector-at-a-time loop does,
    each in its own order: instance order, or ascending task id."""
    space = SUM_GRIDS[grid]
    rng = np.random.default_rng(1000 * grid + n_tasks + ascending)
    targets = generate_scenario(n_tasks, grid + n_tasks).targets
    if not ascending:
        targets = tuple(targets[i] for i in rng.permutation(n_tasks))
    instance = build_tracking_instance(Scenario(targets, seed=0),
                                       default_bounds(n_tasks), space)
    picked = [t.id for t in targets if rng.random() < 0.7]
    for ids in ([], [targets[0].id], picked, [t.id for t in targets]):
        alloc = Allocation(assignment={
            tid: space.config_at(int(rng.integers(space.size)))
            for tid in rng.permutation(ids).tolist()})
        in_order = [alloc.assignment[t.id] for t in targets
                    if t.id in alloc.assignment]
        want = usage_loop(in_order)
        assert evaluate_allocation(alloc, instance)[1].tobytes() == want.tobytes()
        by_id = [alloc.assignment[tid] for tid in sorted(alloc.assignment)]
        assert allocation_usage(alloc).tobytes() == usage_loop(by_id).tobytes()
        if not ids:
            assert is_feasible(alloc, instance)
            continue
        # Limits at the loop's total and one ulp below it in either entry.
        below = np.nextafter(want, 0.0)
        for limits in (want, below, [want[0], below[1]], [below[0], want[1]]):
            bounds = ResourceBounds(bounds=tuple(map(float, limits)),
                                    compound_weights=(1.0, 1.0))
            bounded = ProblemInstance(instance.ids, instance.block, bounds, space)
            assert is_feasible(alloc, bounded) == bool(np.all(want <= limits))
