import itertools
import time

import numpy as np
import pytest

from helpers import random_small_instance, random_small_space
from qram import kernels, remark1
from qram.core import (Allocation, ConfigSpace, DEFAULT_CONFIG_SPACE,
                       ResourceBounds, resource_of)
from qram.exact import (DP_TABLE_CAP, CapacityError, optimal_allocation,
                        optimal_allocation_dp)
from qram.perf import Target, TargetType, generate_scenario, task_utility
from qram.problem import (ProblemInstance, build_tracking_instance,
                          default_bounds, is_feasible, system_utility,
                          utility_table)
from qram.rng import PortableRng

SMALL_SPACE = ConfigSpace((100.0, 500.0, 1100.0), (2.0, 6.0, 10.0), (1.0, 4.0))


def _instance(n, seed, bounds, space=SMALL_SPACE):
    return build_tracking_instance(generate_scenario(n, seed), bounds, space)


def test_single_task_is_argmax_over_feasible_configs():
    bounds = ResourceBounds(bounds=(0.05, 0.2), compound_weights=(1.0, 1.0))
    inst = _instance(1, 3, bounds)
    target = inst.tasks[0]
    alloc, best = optimal_allocation(inst)
    utilities = [(task_utility(c, target), c) for c in SMALL_SPACE
                 if np.all(resource_of(c) <= np.asarray(bounds.bounds))]
    expected_u = max(u for u, _ in utilities)
    assert best == expected_u
    assert alloc.assignment[0] == max(utilities)[1]


def test_starved_bound_drops_everything():
    # A bound below any configuration's requirement forces the empty answer.
    bounds = ResourceBounds(bounds=(1e-9, 5.0), compound_weights=(1.0, 1.0))
    inst = _instance(3, 4, bounds)
    alloc, best = optimal_allocation(inst)
    assert len(alloc.assignment) == 0
    assert best == 0.0


def test_capacity_cap_raises_with_product():
    # The cap counts the states the scan enumerates: every task also has
    # its drop digit, so 90 configurations are 91 states per task.
    bounds = ResourceBounds((0.5, 5.0), (1.0, 1.0))
    inst = _instance(6, 1, bounds, space=DEFAULT_CONFIG_SPACE)
    with pytest.raises(CapacityError) as err:
        optimal_allocation(inst)
    assert err.value.product == 91**6
    # 5 tasks x 39 configurations: 39**5 (90.2M) is under the cap, but the
    # scan would enumerate 40**5 (102.4M) states.
    space = ConfigSpace((100.0, 300.0, 500.0),
                        tuple(2.0 * k for k in range(1, 14)), (1.0,))
    assert space.size == 39
    with pytest.raises(CapacityError) as err:
        optimal_allocation(_instance(5, 1, bounds, space=space))
    assert err.value.product == 40**5


def test_optimal_result_is_feasible_and_deterministic():
    for seed in range(10):
        inst = random_small_instance(seed)
        a1, u1 = optimal_allocation(inst)
        a2, u2 = optimal_allocation(inst)
        assert u1 == u2 and a1.assignment == a2.assignment
        assert is_feasible(a1, inst)
        assert u1 == system_utility(a1, inst)


#: Grids of 2, 6 and 12 configurations.
GRIDS_OF_DIFFERENT_SIZES = (
    ConfigSpace((400.0,), (4.0,), (1.0, 3.0)),
    ConfigSpace((200.0, 600.0), (2.0, 5.0, 8.0), (2.0,)),
    ConfigSpace((150.0, 300.0, 900.0), (3.0, 9.0), (1.5, 4.0)))


def _three_task_instance(bounds, space):
    """Tasks 10, 7, 4 (in that order), all on ``space``."""
    targets = (Target(10, TargetType.MISSILE, 80.0, 700.0),
               Target(7, TargetType.HELICOPTER, 30.0, 40.0),
               Target(4, TargetType.FIGHTER, 120.0, 300.0))
    return ProblemInstance(tasks=targets, bounds=bounds, space=space)


def _literal_optimum(inst):
    """Every assignment in code order (dropping is each task's last digit),
    sums added in task order, the first maximum winning."""
    r1, r2 = inst.bounds.bounds
    options = [list(inst.space) + [None] for _ in inst.tasks]
    best_u, best = -1.0, None
    for choice in itertools.product(*options):
        tu = to = tp = 0.0
        for task, config in zip(inst.tasks, choice):
            if config is not None:
                tu += task_utility(config, task)
                occ, pw = resource_of(config)
                to += occ
                tp += pw
        if to <= r1 and tp <= r2 and tu > best_u:
            best_u, best = tu, choice
    return {t.id: c for t, c in zip(inst.tasks, best) if c is not None}, best_u


@pytest.mark.parametrize("r1", [0.005, 0.02, 0.04, 0.07, 0.1, 0.2])
@pytest.mark.parametrize("r2", [0.01, 0.05, 0.1, 0.2, 0.5])
def test_oracles_on_grids_of_different_sizes(r1, r2):
    for space in GRIDS_OF_DIFFERENT_SIZES:
        inst = _three_task_instance(ResourceBounds((r1, r2), (1.0, 1.0)), space)
        alloc, best = optimal_allocation(inst)
        assert (alloc.assignment, best) == _literal_optimum(inst)
        assert is_feasible(alloc, inst)
        assert best == system_utility(alloc, inst)

        alloc, dp = optimal_allocation_dp(inst)
        assert dp == system_utility(alloc, inst)
        assert all(config in space for config in alloc.assignment.values())


def _utility_table_cases():
    """The default grid at 20 and 150 targets under four bound settings,
    random sub-grids and the remark1 grid chain."""
    for n in (20, 150):
        default = default_bounds(n)
        for bounds in (default,
                       ResourceBounds((0.15, 0.5), default.compound_weights),
                       ResourceBounds(default.bounds, (1.0, 2.0)),
                       ResourceBounds(default.bounds, (1.0, 0.0))):
            yield _instance(n, 11, bounds, space=DEFAULT_CONFIG_SPACE)
    for seed in range(20):
        yield _instance(30, seed, default_bounds(30),
                        space=random_small_space(PortableRng(seed)))
    scenario = generate_scenario(remark1.N_TARGETS, remark1.SCENARIO_SEED)
    for space in remark1.config_space_chain():
        yield build_tracking_instance(scenario, remark1.BOUNDS, space)


def test_utility_table_equals_the_per_task_kernel():
    for inst in _utility_table_cases():
        kernels.counters["config_evals"] = 0
        table = utility_table(inst)
        assert kernels.counters["config_evals"] == len(inst.tasks) * inst.space.size
        assert table.shape == (len(inst.tasks), inst.space.size)
        for row, target in zip(table, inst.tasks):
            want = kernels.config_metrics(inst.space, target, inst.bounds)[0]
            assert row.tobytes() == want.tobytes()


def test_oracles_pass_their_kernels_the_grid_cost_columns(monkeypatch):
    """Only utility is per task: occupancy, power and cost reach the kernels
    as the grid's columns, and every task picks from the whole grid."""
    calls = {}

    def recorder(name):
        kernel = getattr(kernels, name)

        def record(*args):
            calls[name] = args
            return kernel(*args)
        return record

    for name in ("scan_best_feasible", "fill_knapsack_table"):
        monkeypatch.setattr(kernels, name, recorder(name))
    for space in GRIDS_OF_DIFFERENT_SIZES:
        inst = _three_task_instance(ResourceBounds((0.04, 0.2), (1.0, 1.0)), space)
        optimal_allocation(inst)
        optimal_allocation_dp(inst)
        util, occ, pw, ncfg = calls["scan_best_feasible"][:4]
        dp_util, cost, dp_ncfg = calls["fill_knapsack_table"][:3]
        grid, tasks = space.size, len(inst.tasks)
        assert [np.shape(a) for a in (occ, pw, cost)] == [(grid,)] * 3
        assert np.shape(util) == np.shape(dp_util) == (tasks, grid)
        assert list(ncfg) == list(dp_ncfg) == [grid] * tasks


# ------------------------------------------------------------------ knapsack

def _single_resource_instance(n, seed, r1, space=SMALL_SPACE):
    bounds = ResourceBounds(bounds=(r1, 1000.0), compound_weights=(1.0, 0.0))
    return _instance(n, seed, bounds, space)


def test_dp_matches_exhaustive_on_grid_aligned_costs():
    # Single dwell keeps occupancy on an exact 0.004 lattice, so quantisation
    # with that step is lossless and the oracles must agree exactly.
    space = ConfigSpace((500.0,), (2.0, 4.0, 6.0, 8.0, 10.0), (1.0, 2.0, 4.0))
    step = (2.0 / 500.0) / 0.05  # occupancy lattice / bound, in compound units
    for seed in range(8):
        inst = _single_resource_instance(3, seed, 0.05, space=space)
        _, brute = optimal_allocation(inst)
        _, dp = optimal_allocation_dp(inst, resource_grid_step=step)
        assert dp == brute


def test_dp_refinement_never_decreases():
    inst = _single_resource_instance(4, 9, 0.06)
    budget = 1.0  # compound of the bounds under unit weight
    values = []
    for cells in (200, 400, 800, 1600):
        _, u = optimal_allocation_dp(inst, resource_grid_step=budget / cells)
        values.append(u)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_dp_never_exceeds_exhaustive():
    for seed in range(8):
        inst = _single_resource_instance(3, seed, 0.05)
        _, brute = optimal_allocation(inst)
        _, dp = optimal_allocation_dp(inst)
        assert dp <= brute + 1e-12


def test_dp_compound_relaxation_bounds_the_optimum():
    for seed in range(5):
        inst = random_small_instance(seed)
        _, brute = optimal_allocation(inst)
        _, dp = optimal_allocation_dp(inst)
        assert dp >= brute - 1e-12


def test_dp_value_is_system_utility_of_its_allocation():
    for seed in range(5):
        inst = _instance(12, seed, ResourceBounds((0.3, 2.0), (1.0, 1.0)),
                         space=DEFAULT_CONFIG_SPACE)
        alloc, dp = optimal_allocation_dp(inst)
        assert dp == system_utility(alloc, inst)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf"),
                                  0.0, -0.5])
def test_dp_rejects_a_step_that_is_not_positive_and_finite(step):
    inst = _single_resource_instance(3, 1, 0.05)
    with pytest.raises(ValueError, match="resource grid step must be positive "
                                         "and finite"):
        optimal_allocation_dp(inst, resource_grid_step=step)


def test_dp_table_cap_raises_before_solving():
    inst = _single_resource_instance(3, 1, 0.05)
    with pytest.raises(CapacityError) as err:
        optimal_allocation_dp(inst, resource_grid_step=1e-15)
    assert err.value.cap == DP_TABLE_CAP
    assert err.value.product > DP_TABLE_CAP
    with pytest.raises(CapacityError):  # budget / step overflows to inf
        optimal_allocation_dp(inst, resource_grid_step=5e-324)


def test_dp_desk_scale_timing():
    # Informational: 10 tasks x 90 configs at the default quantisation.
    inst = build_tracking_instance(
        generate_scenario(10, 2),
        ResourceBounds(bounds=(0.3, 1000.0), compound_weights=(1.0, 0.0)),
        DEFAULT_CONFIG_SPACE)
    start = time.perf_counter()
    optimal_allocation_dp(inst)
    elapsed = time.perf_counter() - start
    print(f"dp 10x90 @ default step: {elapsed*1e3:.1f} ms")
    assert elapsed < 5.0
