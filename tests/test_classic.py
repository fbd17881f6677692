import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (assert_frontier_shape, gift_wrap_frontier,
                     linear_drop_until_feasible,
                     random_point_cloud, random_small_instance,
                     random_small_space, rescan_upgrade_loop,
                     scalar_base_configuration, synthetic_points, task_utility)
from qram import classic, cli, kernels, remark1
from qram.classic import (JobPoint, UsageLedger, _drop_until_feasible,
                          base_configuration, embed_task, greedy_allocate,
                          instance_job_lists, job_list_for, solve_classic,
                          upgrade_loop, upper_frontier, utility_table)
from qram.core import (Allocation, ConfigSpace,
                       DEFAULT_CONFIG_SPACE, ResourceBounds, compound_resource,
                       resource_of)
from qram.exact import optimal_allocation
from qram.perf import generate_scenario
from qram.problem import (build_tracking_instance, default_bounds, is_feasible,
                          system_utility, target_block)
from qram.rng import PortableRng

BOUNDS = default_bounds(4)


def _instance(n=4, seed=42, bounds=BOUNDS, space=DEFAULT_CONFIG_SPACE):
    return build_tracking_instance(generate_scenario(n, seed), bounds, space)


# ------------------------------------------------------------------ embedding

def test_embed_task_one_point_per_config():
    inst = _instance()
    kernels.counters["config_evals"] = 0
    points = embed_task(inst.tasks[0], inst.space, inst.bounds)
    assert len(points) == 90
    assert kernels.counters["config_evals"] == 90


def test_embed_task_single_cell_grid():
    space = ConfigSpace((500.0,), (6.0,), (2.0,))
    inst = _instance(space=space)
    points = embed_task(inst.tasks[0], space, inst.bounds)
    assert len(points) == 1


def test_embed_matches_scalar_model_bitwise():
    inst = _instance()
    task = inst.tasks[0]
    for p in embed_task(task, inst.space, inst.bounds):
        config = inst.space.config_at(p.index)
        assert p.utility == task_utility(config, task)
        assert p.resource == compound_resource(resource_of(config), inst.bounds)


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
        frontier = upper_frontier(cloud)
        assert_frontier_shape(frontier)
        assert list(frontier.points) == gift_wrap_frontier(cloud)


def test_negative_resource_is_rejected_by_the_job_list():
    # The cheapest point of a cloud always opens its frontier, even at the
    # lowest utility, and resources increase along the list, so
    # upper_frontier's check on the cheapest point covers every point.
    cloud = synthetic_points([(2.0, 3.0), (-0.5, 0.0), (1.0, 2.0)])
    with pytest.raises(ValueError, match=r"resource must be non-negative: -0\.5"):
        upper_frontier(cloud)


def test_job_list_ratios_strictly_decreasing():
    inst = _instance()
    for task in inst.tasks:
        jl = job_list_for(task, inst.space, inst.bounds)
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


@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)],
                         ids=lambda w: f"{w[0]:g},{w[1]:g}")
def test_base_configuration_is_first_frontier_point(weights):
    # Under (1, 0) the compound is occupancy alone, so the cheapest compound
    # ties across the power axis and utility breaks the tie.  The batched
    # lookup must also pick what the scalar first-max rule picks.
    bounds = ResourceBounds(default_bounds(10).bounds, weights)
    rng = PortableRng(19)
    spaces = [DEFAULT_CONFIG_SPACE] + [random_small_space(rng) for _ in range(20)]
    for space in spaces:
        ties = len(kernels.config_costs(space, bounds)[3])
        assert ties == (len(space.tx_power_grid)
                        if weights == (1.0, 0.0) else 1)
        inst = _instance(n=10, seed=5, bounds=bounds, space=space)
        got = base_configuration(space, target_block(inst.tasks), bounds)
        assert got == [scalar_base_configuration(space, task, bounds)
                       for task in inst.tasks]
        assert got == [job_list_for(task, space, bounds).points[0].index
                       for task in inst.tasks]
    assert base_configuration(DEFAULT_CONFIG_SPACE, target_block([]), bounds) == []


# ------------------------------------------------- job lists of an instance

def _instance_cases():
    """(instance, label): the benchmark sizes under four bound settings,
    random sub-grids and the remark1 grid chain."""
    for n in (20, 150, 500, 1000):
        default = default_bounds(n)
        for label, bounds in (
                ("default", default),
                ("0.15,0.5", ResourceBounds((0.15, 0.5), default.compound_weights)),
                ("w1,2", ResourceBounds(default.bounds, (1.0, 2.0))),
                ("w1,0", ResourceBounds(default.bounds, (1.0, 0.0)))):
            yield _instance(n=n, seed=11, bounds=bounds), f"{n} {label}"
    for seed in range(20):
        space = random_small_space(PortableRng(seed))
        yield _instance(n=30, seed=seed, bounds=default_bounds(30),
                        space=space), f"small grid {seed}"
    scenario = generate_scenario(remark1.N_TARGETS, remark1.SCENARIO_SEED)
    for space in remark1.config_space_chain():
        yield (build_tracking_instance(scenario, remark1.BOUNDS, space),
               f"remark1 {space.size}")


def test_instance_job_lists_equal_the_per_task_path():
    for inst, label in _instance_cases():
        got = instance_job_lists(inst, utility_table(inst))
        want = [job_list_for(task, inst.space, inst.bounds) for task in inst.tasks]
        assert got == want, label
        assert repr(got) == repr(want), label


def test_job_lists_of_both_builders_have_the_frontier_shape():
    for inst, _ in _instance_cases():
        for jl in instance_job_lists(inst, utility_table(inst)):
            assert_frontier_shape(jl)
        for task in inst.tasks:
            assert_frontier_shape(job_list_for(task, inst.space, inst.bounds))


def test_instance_job_lists_keep_the_tie_rules():
    # Coarse utilities tie within and across compound levels; each level
    # must keep its lowest grid index, as upper_frontier's sort does.  A
    # table equal to the compound column puts every level on one line
    # (each cross is exactly 0), so the hull keeps only the two ends.
    bounds = ResourceBounds(default_bounds(8).bounds, (1.0, 0.0))
    for space in (DEFAULT_CONFIG_SPACE, *remark1.config_space_chain()):
        inst = _instance(n=8, seed=3, bounds=bounds, space=space)
        comp = kernels.config_costs(space, bounds)[0]
        util = utility_table(inst)
        tables = [np.round(util / step) * step for step in (0.5, 0.1, 0.02)]
        for table in (*tables, np.broadcast_to(comp, util.shape)):
            want = [upper_frontier(list(map(JobPoint, range(space.size),
                                            comp.tolist(), row.tolist())),
                                   task_id=task.id)
                    for task, row in zip(inst.tasks, table)]
            assert repr(instance_job_lists(inst, table)) == repr(want)


def test_instance_job_lists_count_every_configuration():
    inst = _instance(n=500, seed=11, bounds=default_bounds(500))
    kernels.counters["config_evals"] = 0
    for task in inst.tasks:
        job_list_for(task, inst.space, inst.bounds)
    per_task = kernels.counters["config_evals"]
    kernels.counters["config_evals"] = 0
    solve_classic(inst)
    assert kernels.counters["config_evals"] == per_task == 500 * 90


def test_classic_solve_builds_no_point_per_configuration(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a classic solve built a point per configuration")

    def refuse_point(*args, **kwargs):
        raise AssertionError("a classic solve built a JobPoint")

    for owner in ("qram.classic", "qram.cli"):
        monkeypatch.setattr(f"{owner}.embed_task", refuse)
        monkeypatch.setattr(f"{owner}.upper_frontier", refuse)
    monkeypatch.setattr("qram.classic.JobPoint", refuse_point)
    inst = _instance(n=150, seed=11, bounds=default_bounds(150))
    alloc, _ = solve_classic(inst)
    assert is_feasible(alloc, inst)
    scenario = tmp_path / "scenario.json"
    assert cli.main(["gen", "--targets", "150", "--seed", "11",
                     "--out", str(scenario)]) == 0
    assert cli.main(["solve", "--scenario", str(scenario), "--method", "classic",
                     "--out", str(tmp_path / "result.json")]) == 0


# --------------------------------------------------------------------- greedy

def test_greedy_single_task_ample_resources_maxes_out():
    bounds = ResourceBounds(bounds=(1.0, 5.0), compound_weights=(1.0, 1.0))
    inst = _instance(n=1, seed=3, bounds=bounds)
    task = inst.tasks[0]
    jl = job_list_for(task, inst.space, bounds)
    alloc, trace = greedy_allocate([jl], inst)
    assert alloc.assignment[task.id] == inst.space.config_at(
        jl.points[-1].index)
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
    base = space.config_at(base_configuration(space, target_block([t0]),
                                              probe.bounds)[0])
    jl = job_list_for(probe.tasks[0], space, probe.bounds)
    first_upgrade = space.config_at(jl.points[1].index)
    r1 = (2 * resource_of(base) + (resource_of(first_upgrade) - resource_of(base)))[0]
    inst = build_tracking_instance(
        scenario, ResourceBounds((r1, 10.0), (1.0, 1.0)), space)
    lists = [job_list_for(task, space, inst.bounds) for task in inst.tasks]
    alloc, trace = greedy_allocate(lists, inst)
    upgraded = [u.task_id for u in trace.upgrades]
    assert upgraded and upgraded[0] == 0
    assert alloc.assignment[0] != base and alloc.assignment[1] == base


def test_greedy_requires_matching_job_lists():
    inst = _instance(n=2)
    lists = [job_list_for(task, inst.space, inst.bounds) for task in inst.tasks]
    # Task 1 without a list; every task with a list, but task 0 with two.
    for bad in (lists[:1], lists + lists[:1]):
        with pytest.raises(ValueError, match="exactly one job list per task"):
            greedy_allocate(bad, inst)


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


def test_upgrade_loop_asks_for_steps_once_after_the_drop():
    # Four single-configuration tasks, room for two: the steps function is
    # called once, with the kept ids in ascending order, after the drop.
    scenario = generate_scenario(4, 8)
    space = ConfigSpace((1100.0,), (2.0,), (1.0,))
    occ = resource_of(space.config_at(0))[0]
    inst = build_tracking_instance(
        scenario, ResourceBounds((occ * 2.5, 5.0), (1.0, 1.0)), space)
    calls = []

    def steps(kept):
        calls.append(list(kept))
        return {tid: iter(()) for tid in kept}

    alloc, trace = upgrade_loop(inst, {t.id: 0 for t in inst.tasks}, steps)
    assert calls == [[0, 1]] and trace.dropped == (2, 3)
    assert sorted(alloc.assignment) == [0, 1] and trace.upgrades == ()


def test_greedy_trace_ratios_match_job_lists():
    inst = _instance(n=3, seed=21)
    lists = {t.id: job_list_for(t, inst.space, inst.bounds) for t in inst.tasks}
    _, trace = greedy_allocate(list(lists.values()), inst)
    position = {tid: 0 for tid in lists}
    for step in trace.upgrades:
        jl = lists[step.task_id]
        pos = position[step.task_id]
        expected = ((jl.points[pos + 1].utility - jl.points[pos].utility)
                    / (jl.points[pos + 1].resource - jl.points[pos].resource))
        assert step.ratio == expected
        assert step.index == jl.points[pos + 1].index
        position[step.task_id] += 1


def _count_fits(monkeypatch):
    """Record every ``UsageLedger.fits`` call as (task id, answer)."""
    asked = []
    fits = UsageLedger.fits

    def counted(self, task_id, vec):
        answer = fits(self, task_id, vec)
        asked.append((task_id, answer))
        return answer
    monkeypatch.setattr(UsageLedger, "fits", counted)
    return asked


def _trace(trace):
    return [(u.task_id, u.index, repr(u.ratio)) for u in trace.upgrades]


def test_a_lowering_upgrade_unparks_the_refused_candidates(monkeypatch):
    # Power binds (limit 0.65); occupancy never does.  Tasks 1 and 2 ask
    # for +0.29 kW at ratio 3 and are refused, so they are parked.  Task
    # 0's first step lowers its power from 0.4 to 0.12 kW (and raises its
    # occupancy), which frees room for one of them.  After the merge the
    # three ratio-3 candidates go in task id order, until 2 does not fit,
    # and only then task 3's ratio-0.5 step, which waited in the order.
    # That step lowers power too, so task 2 is asked once more.
    space = ConfigSpace((100.0,), (1.0, 2.0, 10.0, 12.0, 20.0, 30.0),
                        (1.0, 4.0))

    def config(tx, power):  # the grid index; row: tx/100, power*tx/100
        return (space.tx_duration_grid.index(tx) * len(space.tx_power_grid)
                + space.tx_power_grid.index(power))

    def row(index):
        return resource_of(space.config_at(index))

    instance = SimpleNamespace(
        tasks=[SimpleNamespace(id=tid) for tid in range(4)],
        position={tid: tid for tid in range(4)},
        bounds=ResourceBounds((1.0, 0.65), (1.0, 1.0)), space=space)
    start = {0: config(10.0, 4.0), 1: config(1.0, 1.0), 2: config(1.0, 1.0),
             3: config(1.0, 4.0)}
    plan = {0: [(config(12.0, 1.0), 1.0), (config(20.0, 1.0), 3.0)],
            1: [(config(30.0, 1.0), 3.0)],
            2: [(config(30.0, 1.0), 3.0)],
            3: [(config(2.0, 1.0), 0.5)]}
    assert (row(plan[0][0][0]) < row(start[0])).tolist() == [False, True]

    def steps(kept):
        return {tid: iter(plan[tid]) for tid in kept}

    ref_alloc, ref_trace = rescan_upgrade_loop(instance, start, steps)
    asked = _count_fits(monkeypatch)
    alloc, trace = upgrade_loop(instance, start, steps)
    assert [(u.task_id, u.ratio) for u in trace.upgrades] == [
        (0, 1.0), (0, 3.0), (1, 3.0), (3, 0.5)]
    want = {0: plan[0][1][0], 1: plan[1][0][0], 2: start[2], 3: plan[3][0][0]}
    assert alloc.assignment == ref_alloc.assignment == {
        tid: space.config_at(index) for tid, index in want.items()}
    assert trace.dropped == ref_trace.dropped == ()
    assert _trace(trace) == _trace(ref_trace)
    # Each refusal is asked once, and again only after a lowering upgrade.
    assert asked == [(1, False), (2, False), (0, True), (0, True), (1, True),
                     (2, False), (3, True), (2, False)]


def test_classic_loop_asks_each_refusal_once_without_a_lowering_upgrade(
        monkeypatch):
    # The benchmark's first 500-target scenario (seed 11): no accepted
    # upgrade lowers a resource, so the ledger refuses each kept task at
    # most once.  A rescan from the top after every upgrade asked 22,432
    # times for 1,067 upgrades.
    inst = build_tracking_instance(generate_scenario(500, 11_050_000),
                                   default_bounds(500), DEFAULT_CONFIG_SPACE)
    lists = [job_list_for(task, inst.space, inst.bounds) for task in inst.tasks]
    asked = _count_fits(monkeypatch)
    alloc, trace = greedy_allocate(lists, inst)
    assert len(trace.upgrades) == 1067 and not trace.dropped
    assert len(asked) <= len(trace.upgrades) + len(alloc.assignment)


def test_classic_solve_resums_the_ledger_a_handful_of_times(monkeypatch):
    # A write is O(1).  The ledger re-sums its rows after a block write
    # (the start rows, the drop) and when a check lands inside its band
    # while drifted; a check still inside the band sums a copy.  Re-summing
    # after every accepted upgrade took 1,070 sums at 500 targets and
    # 1,114 at 1000.
    sums, resums = [], []
    total, resum = classic._sequential_sum, UsageLedger._resum

    def counted_sum(mat):
        sums.append(mat.shape)
        return total(mat)

    def counted_resum(self):
        resums.append(self)
        resum(self)
    monkeypatch.setattr(classic, "_sequential_sum", counted_sum)
    monkeypatch.setattr(UsageLedger, "_resum", counted_resum)
    inst = build_tracking_instance(generate_scenario(500, 11_050_000),
                                   default_bounds(500), DEFAULT_CONFIG_SPACE)
    _, trace = solve_classic(inst)
    assert len(trace.upgrades) == 1067 and not trace.dropped
    assert len(resums) <= 2 and len(sums) <= 4
    # Over the fixed 5 kW of default_bounds, 1000 targets drop tasks: the
    # drop bisects, then clears the dropped rows as one block.
    sums.clear()
    inst = build_tracking_instance(generate_scenario(1000, 11_100_000),
                                   default_bounds(1000), DEFAULT_CONFIG_SPACE)
    _, trace = solve_classic(inst)
    assert trace.dropped
    assert len(sums) <= math.ceil(math.log2(1000)) + 2


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
                position={tid: pos for pos, tid in enumerate(ids)},
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


def test_ledger_long_write_chain_matches_replace_and_resum():
    """Thousands of O(1) writes, few re-sums: every fits, feasible and usage
    answer equals the full replace-cumsum-compare check.  A unit entry
    carries the error of a sum taken while it was held, and entries of 3/4
    ulp(1) round up on every add (see ``_drift_rows``), so clearing a unit
    leaves the held usage off by many ulps.  Each check moves the limits to
    within two ulps of the sequential sum it asks about."""
    rng = np.random.default_rng(23)
    n = 160
    ids = [int(i) for i in rng.permutation(n) * 2 + 5]
    instance = SimpleNamespace(tasks=[SimpleNamespace(id=tid) for tid in ids],
                               position={tid: pos for pos, tid in enumerate(ids)},
                               bounds=SimpleNamespace(bounds=(1.0, 1.0)))
    ledger = UsageLedger(instance)
    mirror = np.zeros((n, 2))
    entries = np.array([1.0, 0.25, 3 * 2.0**-54, 0.0])

    def draw():
        return rng.choice(entries, size=2, p=[0.02, 0.03, 0.85, 0.1])

    def limits_near(total):  # stands in for bounds that change per check
        ledger._limits = tuple(float(_ulps(s, int(k))) for s, k in
                               zip(total, rng.integers(-2, 3, size=2)))
        return np.array(ledger._limits)

    def check_fits(i, vec, limits=None):
        replaced = mirror.copy()
        replaced[i] = vec
        total = _sequential_sum(replaced)
        if limits is None:
            limits = limits_near(total)
        assert ledger.fits(ids[i], vec) == bool(np.all(total <= limits))

    # A sum taken with a unit entry first, then the unit cleared in O(1).
    mirror[:] = 3 * 2.0**-54
    mirror[0] = 1.0
    for tid, row in zip(ids, mirror):
        ledger.set_row(tid, row)
    assert ledger.usage() == tuple(_sequential_sum(mirror).tolist())
    for step in range(3000):
        i = 0 if step == 0 else int(rng.integers(n))
        if step == 0 or rng.random() < 0.2:
            ledger.clear_row(ids[i])
            mirror[i] = 0.0
        else:
            mirror[i] = draw()
            ledger.set_row(ids[i], mirror[i])
        limits = limits_near(_sequential_sum(mirror))
        j = int(rng.integers(n))
        check_fits(j, mirror[j].copy(), limits)
        check_fits(j, draw(), limits)
        check_fits(j, draw())
        if step % 100 == 99:  # both re-sum a drifted ledger
            limits = limits_near(_sequential_sum(mirror))
            assert ledger.feasible() == bool(np.all(_sequential_sum(mirror)
                                                    <= limits))
            assert ledger.usage() == tuple(_sequential_sum(mirror).tolist())


def _ledger(ids, rows, limits):
    instance = SimpleNamespace(tasks=[SimpleNamespace(id=tid) for tid in ids],
                               position={tid: pos for pos, tid in enumerate(ids)},
                               bounds=SimpleNamespace(bounds=tuple(limits)))
    ledger = UsageLedger(instance)
    for tid, row in zip(ids, rows):
        ledger.set_row(tid, row)
    return ledger


@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7, 40, 300])
def test_drop_bisection_matches_linear_drop_loop(n_tasks):
    """The bisecting drop loop drops the same ids and leaves the same usage
    as dropping one id at a time, with every limit at, or one ulp either
    side of, the sequential usage left after k drops (k = 0 .. all)."""
    rng = np.random.default_rng(100 + n_tasks)
    ids = [int(i) for i in rng.permutation(n_tasks) * 3 + 2]  # instance order
    by_id = sorted(ids)
    for _ in range(4):
        rows = _random_rows(rng, n_tasks)
        ks = sorted({0, n_tasks, *rng.integers(0, n_tasks + 1, size=4).tolist()})
        for k in ks:
            kept = rows.copy()
            kept[[ids.index(tid) for tid in by_id[n_tasks - k:]]] = 0.0
            for offsets in ((0, 0), (1, 1), (-1, -1), (-1, 0), (0, -1), (1, -1)):
                limits = [_ulps(s, o) for s, o in
                          zip(_sequential_sum(kept), offsets)]
                ref, got = _ledger(ids, rows, limits), _ledger(ids, rows, limits)
                ref_active, got_active = by_id.copy(), by_id.copy()
                expected = linear_drop_until_feasible(ref, ref_active)
                assert _drop_until_feasible(got, got_active) == expected
                assert got_active == ref_active
                assert got.usage() == ref.usage()
                assert got.feasible() == ref.feasible()
                if offsets == (0, 0) or min(offsets) > 0:
                    assert len(expected) <= k
