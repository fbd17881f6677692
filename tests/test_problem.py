import pytest

from qram.core import Allocation, Configuration, ConfigSpace, DEFAULT_CONFIG_SPACE, \
    ResourceBounds, resource_of
from qram.perf import Scenario, Target, TargetType, generate_scenario, task_utility
from qram import problem
from qram.problem import (ProblemInstance, build_tracking_instance, default_bounds,
                          evaluate_allocation, is_feasible, resource_usage,
                          system_utility, task_utilities)


def _instance(n=4, seed=42):
    return build_tracking_instance(generate_scenario(n, seed), default_bounds(n),
                                   DEFAULT_CONFIG_SPACE)


def test_default_bounds_rule():
    assert default_bounds(20).bounds == (0.6, 5.0)
    assert default_bounds(150).bounds == (1.0, 5.0)  # capped at one timeline


def test_instance_validates_task_ids_and_targets():
    inst = _instance()
    with pytest.raises(ValueError):
        ProblemInstance(tasks=inst.tasks + (inst.tasks[0],), bounds=inst.bounds,
                        space=inst.space)


def test_lookups_with_unsorted_non_contiguous_ids():
    targets = (Target(7, TargetType.MISSILE, 40.0, 600.0),
               Target(3, TargetType.HELICOPTER, 120.0, 50.0),
               Target(11, TargetType.FIGHTER, 75.0, 300.0))
    scenario = Scenario(targets=targets, seed=0)
    inst = build_tracking_instance(scenario, default_bounds(3), DEFAULT_CONFIG_SPACE)
    config = DEFAULT_CONFIG_SPACE.config_at(0)
    expected = 0.0
    for target, task in zip(targets, inst.tasks):
        assert task is target
        assert inst.task_by_id(target.id) is task
        expected += task_utility(config, target)
    alloc = Allocation(assignment={t.id: config for t in targets})
    assert system_utility(alloc, inst) == expected
    assert is_feasible(alloc, inst)
    for unknown in (0, 4, 12):
        with pytest.raises(KeyError):
            inst.task_by_id(unknown)
        with pytest.raises(KeyError):
            is_feasible(Allocation(assignment={unknown: config}), inst)


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
    inst = _instance(n=6, seed=5)
    alloc = Allocation(assignment={t.id: DEFAULT_CONFIG_SPACE.config_at(7 * t.id)
                                   for t in reversed(inst.tasks[1:])})
    checks = []
    check = problem._check_assignment
    monkeypatch.setattr(problem, "_check_assignment",
                        lambda *a: checks.append(1) or check(*a))
    utilities, usage = evaluate_allocation(alloc, inst)
    assert len(checks) == 1
    assert list(utilities.items()) == list(task_utilities(alloc, inst).items())
    assert usage.tobytes() == resource_usage(alloc, inst).tobytes()
    assert system_utility(alloc, inst, utilities) == system_utility(alloc, inst)
    with pytest.raises(KeyError):
        evaluate_allocation(Allocation(assignment={99: DEFAULT_CONFIG_SPACE.config_at(0)}),
                            inst)
    with pytest.raises(ValueError):
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
