"""Shared test utilities: independent oracles and instance generators."""

import math
from bisect import bisect_left, insort
from dataclasses import replace

import numpy as np

from qram.agent import (AgentParams, WeightFormatError, forward, greedy_action,
                        init_params)
from qram.classic import (AllocationTrace, JobPoint, UpgradeStep, UsageLedger,
                          _drop_until_feasible, base_configuration,
                          upgrade_loop)
from qram.core import Allocation, ConfigSpace, ResourceBounds, resource_of
from qram.env import encode_state, raw_quotient
from qram.perf import generate_scenario
from qram.problem import build_tracking_instance
from qram.rng import PortableRng


def gift_wrap_frontier(points):
    """Exhaustive frontier oracle, algorithmically independent of the
    monotone chain: keep the best point per resource level, then repeatedly
    walk to the maximum-slope strictly-improving point (slope ties resolved
    to the farthest point, which skips collinear interiors)."""
    best = {}
    for p in points:
        held = best.get(p.resource)
        if held is None or (-p.utility, p.index) < (-held.utility, held.index):
            best[p.resource] = p
    start = min(best.values(), key=lambda p: (p.resource, -p.utility, p.index))
    chain = [start]
    while True:
        cur = chain[-1]
        cands = [p for p in best.values()
                 if p.resource > cur.resource and p.utility > cur.utility]
        if not cands:
            return chain
        slope = lambda p: (p.utility - cur.utility) / (p.resource - cur.resource)
        chain.append(max(cands, key=lambda p: (slope(p), p.resource)))


def synthetic_points(values):
    """JobPoints from (resource, utility) pairs; grid indices are distinct
    and follow the input order."""
    return [JobPoint(index=i, resource=float(r), utility=float(u))
            for i, (r, u) in enumerate(values)]


def random_point_cloud(rng: PortableRng, max_points: int = 40):
    """Random cloud on a coarse quarter-grid: duplicates and collinear runs
    are common on purpose."""
    n = 1 + rng.randint(max_points)
    return synthetic_points([(rng.randint(21) / 4.0, rng.randint(21) / 4.0)
                             for _ in range(n)])


def zero_network() -> AgentParams:
    """The default network architecture with every weight and bias zero."""
    init = init_params(PortableRng(0))
    return replace(init, flat=np.zeros_like(init.flat))


def with_arrays(params: AgentParams, **arrays) -> AgentParams:
    """A copy of ``params`` with the named weights and biases replaced."""
    out = replace(params, flat=params.flat.copy())
    for name, array in arrays.items():
        getattr(out, name)[...] = array
    return out


def random_small_space(rng: PortableRng) -> ConfigSpace:
    """Random sub-grid of the default operating grid, at most 24 cells."""
    dwell_pool = (100.0, 300.0, 500.0, 700.0, 900.0, 1100.0)
    tx_pool = (2.0, 4.0, 6.0, 8.0, 10.0)
    pw_pool = (1.0, 2.0, 4.0)

    def pick(pool, k):
        chosen = set()
        while len(chosen) < k:
            chosen.add(pool[rng.randint(len(pool))])
        return tuple(sorted(chosen))

    return ConfigSpace(dwell_grid=pick(dwell_pool, 1 + rng.randint(4)),
                       tx_duration_grid=pick(tx_pool, 1 + rng.randint(3)),
                       tx_power_grid=pick(pw_pool, 1 + rng.randint(2)))


def random_small_instance(seed: int, max_tasks: int = 5):
    """Random constrained instance small enough for exhaustive search."""
    rng = PortableRng(seed)
    n_tasks = 1 + rng.randint(max_tasks)
    scenario = generate_scenario(n_tasks, seed)
    space = random_small_space(rng)
    # Scale the occupancy bound between starvation and near-saturation.
    occs = [resource_of(c)[0] for c in space]
    lo = min(occs) * n_tasks * 0.5
    hi = max(occs) * n_tasks * 1.2
    r1 = rng.uniform(lo, hi)
    r2 = rng.uniform(0.01, 0.5)
    bounds = ResourceBounds(bounds=(r1, r2), compound_weights=(1.0, 1.0))
    return build_tracking_instance(scenario, bounds, space)


def _set(section, key, value):
    def edit(doc):
        (doc if section is None else doc[section])[key] = value
    return edit


def _drop(section, key):
    def edit(doc):
        del doc[section][key]
    return edit


#: Edits of a saved weight file's header (the JSON object ``save`` writes)
#: that ``agent.load`` must refuse with a WeightFormatError, by case id.
MALFORMED_WEIGHT_HEADERS = {
    "hidden-float": _set("architecture", "hidden", 100.9),
    "situational-in-float": _set("architecture", "situational_in", 5.0),
    "format-bool": _set(None, "format", True),
    "power-grid-bool": _set("config_space", "tx_power_grid", [True, 2, 4]),
    "power-grid-string": _set("config_space", "tx_power_grid", "124"),
    "dwell-grid-decreasing": _set("config_space", "dwell_grid",
                                  [1100.0, 900.0, 700.0, 500.0, 300.0, 100.0]),
    "dwell-grid-missing": _drop("config_space", "dwell_grid"),
    "config-space-list": _set(None, "config_space", [1, 2, 3]),
}


def linear_drop_until_feasible(ledger, active):
    """Reference drop loop: drop the highest remaining id, one at a time,
    re-checking the whole ledger after every drop."""
    dropped = []
    while active and not ledger.feasible():
        tid = max(active)
        active.remove(tid)
        dropped.append(tid)
        ledger.clear_row(tid)
    return sorted(dropped)


def rescan_upgrade_loop(instance, start, steps):
    """Reference greedy loop: after every accepted upgrade it scans the
    candidates again from the top, and asks the ledger about every
    candidate it has already refused.  Same contract as
    ``classic.upgrade_loop``, which parks refused candidates instead.  A
    row is read from the scalar model, ``resource_of(config_at(index))``,
    not from the cost table the loop reads."""
    space = instance.space

    def row(index):
        return resource_of(space.config_at(index))

    ledger = UsageLedger(instance)
    active = sorted(start)
    for tid in active:
        ledger.set_row(tid, row(start[tid]))
    dropped = _drop_until_feasible(ledger, active)
    current = {tid: start[tid] for tid in active}
    task_steps = steps(active)

    candidates = {}
    order = []  # (-ratio, tid), kept sorted

    def refresh(tid):
        if tid in candidates:
            del order[bisect_left(order, (-candidates.pop(tid)[2], tid))]
        step = next(task_steps[tid], None)
        if step is not None:
            index, ratio = step
            candidates[tid] = (index, row(index), ratio)
            insort(order, (-ratio, tid))

    for tid in active:
        refresh(tid)

    upgrades = []
    while candidates:
        for _, tid in order:
            index, vec, ratio = candidates[tid]
            if ledger.fits(tid, vec):
                ledger.set_row(tid, vec)
                current[tid] = index
                upgrades.append(UpgradeStep(task_id=tid, index=index,
                                            ratio=ratio))
                refresh(tid)
                break
        else:
            break  # no feasible upgrade anywhere

    return (Allocation(assignment={tid: space.config_at(index)
                                   for tid, index in current.items()}),
            AllocationTrace(dropped=tuple(dropped), upgrades=tuple(upgrades)))


def argmax_knapsack_table(util, cost, ncfg, budget):
    """Reference knapsack: the full argmax choice table and its backtrack.

    Returns (dp, picks) like ``kernels.fill_knapsack_table``, with ``cost``
    one column shared by every task: every task builds one candidate row per
    configuration plus the drop row, takes the column argmax (ties to
    dropping, then the lowest index) and records it; the picks are read
    back from the full budget.
    """
    util = np.ascontiguousarray(util, dtype=np.float64)
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    ncfg = np.asarray(ncfg, dtype=np.int64)
    budget = int(budget)
    n = len(ncfg)
    dp = np.zeros(budget + 1, dtype=np.float64)
    choice = np.empty((n, budget + 1), dtype=np.int32)
    table = np.empty((int(ncfg.max(initial=0)) + 1, budget + 1), dtype=np.float64)
    for i in range(n):
        rows = table[:ncfg[i] + 1]
        rows.fill(-np.inf)
        rows[0] = dp  # drop the task
        for c in range(ncfg[i]):
            w = int(cost[c])
            if w > budget:
                continue
            rows[1 + c, w:] = dp[:budget + 1 - w] + util[i, c]
        pick = np.argmax(rows, axis=0)
        dp = rows[pick, np.arange(budget + 1)]
        choice[i] = np.where(pick == 0, ncfg[i], pick - 1)

    picks = np.empty(n, dtype=np.int64)
    j = budget
    for i in range(n - 1, -1, -1):
        c = int(choice[i, j])
        picks[i] = c
        if c < ncfg[i]:
            j -= int(cost[c])
    return dp, picks


def lazy_allocate_with_proposals(propose, instance):
    """Reference agent allocation: asks ``propose(task, current)`` once per
    draw, from the accepted grid index, for the next grid index.

    Each task's step iterator asks the proposer only when the loop draws
    it, retires the task on a stationary or non-improving proposal, and
    asks at most grid size + 1 times.  The allocator's wave path must give
    the same allocation and trace for any proposer that depends only on
    (task, configuration).
    """
    space, bounds = instance.space, instance.bounds

    def steps(task, current):
        for _ in range(space.size + 1):  # cycle guard
            proposal = propose(task, current)
            quotient = raw_quotient(space.config_at(current),
                                    space.config_at(proposal), task,
                                    bounds)
            if proposal == current or quotient <= 0.0:
                return  # stationary or non-improving: retire
            yield proposal, quotient
            current = proposal  # resumed only once the upgrade was accepted

    start = {task.id: base_configuration(space, task, bounds)
             for task in instance.tasks}
    with np.errstate(over="ignore", invalid="ignore"):
        return upgrade_loop(instance, start, lambda kept: {
            tid: steps(instance.task_by_id(tid), start[tid]) for tid in kept})


def single_row_proposer(params, space):
    """The network asked about one observation row at a time on the grid
    ``space``: a per-task proposer for :func:`lazy_allocate_with_proposals`."""
    def propose(task, current):
        logits, _ = forward(params, encode_state(space, current, task))
        action = greedy_action(logits)
        if not math.isfinite(logits[action]):
            raise WeightFormatError(f"network logits are not finite (task "
                                    f"{task.id}); the weights overflow")
        return action
    return propose
