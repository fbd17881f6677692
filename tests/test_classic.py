from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (gift_wrap_frontier, random_point_cloud, random_small_instance,
                     synthetic_points)
from qram import kernels
from qram.classic import (JobList, UsageLedger, base_configuration, embed_task,
                          greedy_allocate, job_list_for, solve_classic,
                          upper_frontier)
from qram.core import (Allocation, Configuration, ConfigSpace,
                       DEFAULT_CONFIG_SPACE, ResourceBounds, compound_resource,
                       resource_of)
from qram.exact import optimal_allocation
from qram.perf import generate_scenario, task_utility
from qram.problem import (build_tracking_instance, default_bounds, is_feasible,
                          system_utility)
from qram.rng import PortableRng

BOUNDS = default_bounds(4)


def _instance(n=4, seed=42, bounds=BOUNDS, space=DEFAULT_CONFIG_SPACE):
    return build_tracking_instance(generate_scenario(n, seed), bounds, space)


# ------------------------------------------------------------------ embedding

def test_embed_task_one_point_per_config():
    inst = _instance()
    kernels.counters["config_evals"] = 0
    points = embed_task(inst.tasks[0], inst.target_for(inst.tasks[0]), inst.bounds)
    assert len(points) == 90
    assert kernels.counters["config_evals"] == 90


def test_embed_task_single_cell_grid():
    space = ConfigSpace((500.0,), (6.0,), (2.0,))
    inst = _instance(space=space)
    points = embed_task(inst.tasks[0], inst.target_for(inst.tasks[0]), inst.bounds)
    assert len(points) == 1


def test_embed_matches_scalar_model_bitwise():
    inst = _instance()
    task = inst.tasks[0]
    target = inst.target_for(task)
    for p in embed_task(task, target, inst.bounds):
        assert p.utility == task_utility(p.config, target)
        assert p.resource == compound_resource(resource_of(p.config), inst.bounds)


# ------------------------------------------------------------------- frontier

def test_frontier_single_point():
    pts = synthetic_points([(1.0, 1.0)])
    assert upper_frontier(pts).points == tuple(pts)


def test_frontier_rejects_empty():
    with pytest.raises(ValueError):
        upper_frontier([])


def test_frontier_collinear_keeps_endpoints():
    pts = synthetic_points([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    frontier = upper_frontier(pts)
    assert [(p.resource, p.utility) for p in frontier.points] == [(1, 1), (3, 3)]


def test_frontier_worked_examples():
    keep_all = synthetic_points([(1, 1), (2, 3), (3, 3.5), (4, 3.6)])
    frontier = upper_frontier(keep_all)
    assert len(frontier.points) == 4

    chord = synthetic_points([(1, 1), (2, 1.5), (3, 3)])
    frontier = upper_frontier(chord)
    assert [(p.resource, p.utility) for p in frontier.points] == [(1, 1), (3, 3)]


def test_frontier_matches_exhaustive_oracle():
    rng = PortableRng(2024)
    for _ in range(300):
        cloud = random_point_cloud(rng)
        got = upper_frontier(cloud).points
        want = gift_wrap_frontier(cloud)
        assert list(got) == want


def test_job_list_invariants_enforced():
    bad = synthetic_points([(1.0, 1.0), (2.0, 1.0)])  # utility not increasing
    with pytest.raises(ValueError):
        JobList(task_id=0, points=tuple(bad))
    not_concave = synthetic_points([(1.0, 1.0), (2.0, 1.5), (3.0, 3.0)])
    with pytest.raises(ValueError):
        JobList(task_id=0, points=tuple(not_concave))


def test_job_list_ratios_strictly_decreasing():
    inst = _instance()
    for task in inst.tasks:
        jl = job_list_for(task, inst.target_for(task), inst.bounds)
        ratios = jl.ratios()
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r > 0 for r in ratios)


def test_frontier_subset_of_input_and_majorises():
    rng = PortableRng(77)
    for _ in range(50):
        cloud = random_point_cloud(rng)
        frontier = upper_frontier(cloud).points
        assert set(frontier) <= set(cloud)
        # every input point lies on or below every chord spanning it
        for a, b in zip(frontier, frontier[1:]):
            for p in cloud:
                if a.resource <= p.resource <= b.resource:
                    chord = a.utility + (b.utility - a.utility) * (
                        (p.resource - a.resource) / (b.resource - a.resource))
                    assert p.utility <= chord + 1e-12


def test_base_configuration_is_first_frontier_point():
    inst = _instance(n=10, seed=5)
    for task in inst.tasks:
        target = inst.target_for(task)
        jl = job_list_for(task, target, inst.bounds)
        assert base_configuration(task.config_space, target, inst.bounds) \
            == jl.points[0].config


# --------------------------------------------------------------------- greedy

def test_greedy_single_task_ample_resources_maxes_out():
    bounds = ResourceBounds(bounds=(1.0, 5.0), compound_weights=(1.0, 1.0))
    inst = _instance(n=1, seed=3, bounds=bounds)
    task = inst.tasks[0]
    jl = job_list_for(task, inst.target_for(task), bounds)
    alloc, trace = greedy_allocate([jl], inst)
    assert alloc.assignment[task.id] == jl.points[-1].config
    assert len(trace.upgrades) == len(jl.points) - 1


def test_greedy_tie_breaks_to_lower_task_id():
    # Two identical targets; room for exactly one upgrade above the bases.
    scenario = generate_scenario(2, 9)
    t0 = scenario.targets[0]
    twin = type(t0)(id=1, ttype=t0.ttype, range_km=t0.range_km,
                    speed_mps=t0.speed_mps)
    scenario = type(scenario)(targets=(t0, twin), seed=9)
    space = ConfigSpace((500.0, 1100.0), (2.0, 4.0), (1.0,))
    probe = build_tracking_instance(
        scenario, ResourceBounds((10.0, 10.0), (1.0, 1.0)), space)
    base = base_configuration(space, t0, probe.bounds)
    jl = job_list_for(probe.tasks[0], t0, probe.bounds)
    first_upgrade = jl.points[1].config
    r1 = (2 * resource_of(base) + (resource_of(first_upgrade) - resource_of(base)))[0]
    inst = build_tracking_instance(
        scenario, ResourceBounds((r1, 10.0), (1.0, 1.0)), space)
    lists = [job_list_for(task, inst.target_for(task), inst.bounds)
             for task in inst.tasks]
    alloc, trace = greedy_allocate(lists, inst)
    upgraded = [u.task_id for u in trace.upgrades]
    assert upgraded and upgraded[0] == 0
    assert alloc.assignment[0] != base and alloc.assignment[1] == base


def test_greedy_requires_matching_job_lists():
    inst = _instance(n=2)
    jl = job_list_for(inst.tasks[0], inst.target_for(inst.tasks[0]), inst.bounds)
    with pytest.raises(ValueError):
        greedy_allocate([jl], inst)


def test_greedy_never_infeasible_and_below_optimum():
    for seed in range(30):
        inst = random_small_instance(seed)
        alloc, trace = solve_classic(inst)
        assert is_feasible(alloc, inst)
        _, best = optimal_allocation(inst)
        assert system_utility(alloc, inst) <= best


def test_greedy_drops_highest_ids_on_overload():
    # Bounds too small even for the cheapest configurations of all tasks.
    scenario = generate_scenario(4, 8)
    space = ConfigSpace((1100.0,), (2.0,), (1.0,))
    occ = resource_of(space.config_at(0))[0]
    bounds = ResourceBounds(bounds=(occ * 2.5, 5.0), compound_weights=(1.0, 1.0))
    inst = build_tracking_instance(scenario, bounds, space)
    alloc, trace = solve_classic(inst)
    assert trace.dropped == (3, 2)[:len(trace.dropped)] or trace.dropped == (2, 3)
    assert sorted(alloc.assignment) == [0, 1]
    assert is_feasible(alloc, inst)


def test_greedy_trace_ratios_match_job_lists():
    inst = _instance(n=3, seed=21)
    lists = {t.id: job_list_for(t, inst.target_for(t), inst.bounds)
             for t in inst.tasks}
    _, trace = greedy_allocate(list(lists.values()), inst)
    position = {tid: 0 for tid in lists}
    for step in trace.upgrades:
        jl = lists[step.task_id]
        pos = position[step.task_id]
        expected = ((jl.points[pos + 1].utility - jl.points[pos].utility)
                    / (jl.points[pos + 1].resource - jl.points[pos].resource))
        assert step.ratio == expected
        assert step.config == jl.points[pos + 1].config
        position[step.task_id] += 1


# --------------------------------------------------------------------- ledger

def _sequential_sum(rows):
    return np.cumsum(rows, axis=0)[-1] if len(rows) else np.zeros(2)


def _random_rows(rng, n):
    """Non-negative rows over five orders of magnitude, a quarter of them 0."""
    rows = rng.random((n, 2)) * 10.0 ** rng.integers(-4, 2, size=(n, 2))
    rows[rng.random(n) < 0.25] = 0.0
    return rows


def _ulps(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def _drift_rows(n):
    """A unit row, then rows of 3/4 ulp(1): every add rounds up, so the
    sequential sum drifts n/4 ulps above the exact one, and removing the
    unit row leaves a candidate total that is off by about that much."""
    rows = np.full((n, 2), 3 * 2.0**-54)
    rows[0] = 1.0
    return rows


@pytest.mark.parametrize("n_tasks,drift", [(0, False), (1, False), (2, False),
                                           (9, False), (150, False), (150, True)])
def test_ledger_matches_replace_and_resum(n_tasks, drift):
    """fits/feasible equal the full replace-cumsum-compare check, also with
    every limit within two ulps of the sum the check computes."""
    rng = np.random.default_rng(n_tasks)
    ids = [int(i) for i in rng.permutation(n_tasks) * 3 + 1]
    for _ in range(12):
        rows = _drift_rows(n_tasks) if drift else _random_rows(rng, n_tasks)
        planned = rows.copy()
        if drift:
            planned[0] = 0.0
        elif n_tasks:
            planned[rng.integers(n_tasks)] = _random_rows(rng, 1)[0]
        for offsets in ((0, 0), (1, -1), (-1, 2), (2, 0), (-2, -2)):
            limits = np.array([_ulps(s, k) for s, k in
                               zip(_sequential_sum(planned), offsets)])
            instance = SimpleNamespace(
                tasks=[SimpleNamespace(id=tid) for tid in ids],
                bounds=SimpleNamespace(bounds=tuple(limits.tolist())))
            ledger = UsageLedger(instance)
            mirror = np.zeros((n_tasks, 2))

            def check_feasible():
                assert ledger.usage() == tuple(_sequential_sum(mirror).tolist())
                assert ledger.feasible() == bool(np.all(_sequential_sum(mirror)
                                                        <= limits))

            def check_fits(i, vec):
                saved = mirror[i].copy()
                mirror[i] = vec
                expected = bool(np.all(_sequential_sum(mirror) <= limits))
                mirror[i] = saved
                assert ledger.fits(ids[i], vec) == expected

            check_feasible()
            for i, tid in enumerate(ids):
                if rows[i].any():
                    ledger.set_row(tid, rows[i])
                else:
                    ledger.clear_row(tid)
                mirror[i] = rows[i]
                check_feasible()
            for i in range(n_tasks):
                check_fits(i, planned[i])
                check_fits(i, rows[i])
            for _ in range(3 * n_tasks):
                i = int(rng.integers(n_tasks))
                vec = planned[i] if rng.random() < 0.5 else _random_rows(rng, 1)[0]
                check_fits(i, vec)
                if rng.random() < 0.3:
                    if rng.random() < 0.2:
                        ledger.clear_row(ids[i])
                        mirror[i] = 0.0
                    else:
                        ledger.set_row(ids[i], vec)
                        mirror[i] = vec
                    check_feasible()
