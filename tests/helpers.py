"""Shared test utilities: independent oracles and instance generators."""

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, replace

import numpy as np

from qram.agent import (AgentParams, Transition, WeightFormatError, a2c_update,
                        forward, init_params, sample_action)
from qram.classic import (AllocationTrace, JobPoint, UpgradeStep, UsageLedger,
                          _drop_until_feasible, base_configuration,
                          job_list_for, upgrade_loop)
from qram.core import Allocation, ConfigSpace, Configuration, ResourceBounds
from qram.env import EPISODE_LENGTH, encode_state, quotient
from qram.kernels import _SCAN_CHUNK, _outer_sums
from qram.perf import (ERROR_HALF_M, GROWTH_SCALE_M, MEASUREMENT_COEFF_M,
                       SNR_CONST, TYPE_UTILITY_WEIGHT, Target, TargetType,
                       generate_scenario)
from qram.problem import build_tracking_instance, target_block
from qram.rng import PortableRng


# --------------------------------------------------------------------------
# The scalar utility model: one (configuration, target) pair at a time, in
# Python floats and ``math``.  It is the reference ``kernels.utility`` must
# equal bit for bit.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityValue:
    """Expected steady-state tracking error in meters (smaller is better)."""

    track_error: float

    def __post_init__(self):
        if self.track_error <= 0:
            raise ValueError(f"track error must be positive: {self.track_error}")


def snr(config: Configuration, target: Target) -> float:
    """Signal-to-noise ratio: energy on target over the fourth power of range."""
    r2 = target.range_km * target.range_km
    r4 = r2 * r2
    return SNR_CONST * config.transmit_power * config.transmit_duration / r4


def quality(config: Configuration, target: Target) -> QualityValue:
    """Tracking error: measurement error grown by target travel per revisit."""
    sigma = MEASUREMENT_COEFF_M / math.sqrt(snr(config, target))
    travel = target.speed_mps * (config.dwell_length / 1000.0)
    ratio = travel / GROWTH_SCALE_M
    growth = math.sqrt(1.0 + ratio * ratio)
    return QualityValue(track_error=sigma * growth)


def utility_from_quality(q: QualityValue, target: Target) -> float:
    """Saturating utility in (0, type weight], halved at ERROR_HALF_M."""
    weight = TYPE_UTILITY_WEIGHT[target.ttype]
    return weight / (1.0 + q.track_error / ERROR_HALF_M)


def task_utility(config: Configuration, target: Target) -> float:
    return utility_from_quality(quality(config, target), target)


def reference_target_row(target: Target) -> list[float]:
    """A ``target_block`` row from the README's column definitions: the type
    one-hot (helicopter, fighter, missile), range / 150 km, speed / 1000
    m/s, then range in km, speed in m/s and the type weight (helicopter 1.0,
    fighter 1.2, missile 1.5)."""
    weights = {TargetType.HELICOPTER: 1.0, TargetType.FIGHTER: 1.2,
               TargetType.MISSILE: 1.5}
    return ([1.0 if target.ttype is kind else 0.0 for kind in weights]
            + [target.range_km / 150.0, target.speed_mps / 1000.0,
               target.range_km, target.speed_mps, weights[target.ttype]])


# --------------------------------------------------------------------------
# The scalar cost model: one configuration at a time, in Python floats.  It
# is the reference ``core.costs``, ``core.compound_resource`` and every
# usage sum must equal bit for bit.
# --------------------------------------------------------------------------

def resource_of(config: Configuration) -> np.ndarray:
    """Resource vector [time occupancy, average power in kW] of a
    configuration: the duty fraction transmit/dwell, and the peak power
    scaled by the same duty fraction."""
    occupancy = config.transmit_duration / config.dwell_length
    avg_power = config.transmit_power * config.transmit_duration / config.dwell_length
    return np.array([occupancy, avg_power], dtype=np.float64)


def compound_of(config: Configuration, bounds: ResourceBounds) -> float:
    """Compound resource of one configuration, from the scalar cost model:
    the weighted sum of each resource over its bound."""
    occupancy, avg_power = resource_of(config).tolist()
    (w1, w2), (r1, r2) = bounds.compound_weights, bounds.bounds
    return w1 * (occupancy / r1) + w2 * (avg_power / r2)


def usage_loop(configs) -> np.ndarray:
    """Resource total of configurations, added one vector at a time."""
    usage = np.zeros(2, dtype=np.float64)
    for config in configs:
        usage += resource_of(config)
    return usage


def raw_quotient(c_in: Configuration, c: Configuration, target: Target,
                 bounds: ResourceBounds) -> float:
    """Utility-to-resource difference quotient between two configurations,
    from the scalar model."""
    return quotient(task_utility(c, target) - task_utility(c_in, target),
                    compound_of(c, bounds) - compound_of(c_in, bounds))


def scalar_base_configuration(space: ConfigSpace, target: Target,
                              bounds: ResourceBounds) -> int:
    """Reference start index: over the least-compound configurations, in
    index order, the first of highest scalar utility."""
    costs = [compound_of(c, bounds) for c in space]
    cheapest = [i for i, r in enumerate(costs) if r == min(costs)]
    return max(cheapest, key=lambda i: task_utility(space.config_at(i), target))


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


def assert_frontier_shape(job_list):
    """The shape both job-list builders guarantee: equal columns of at least
    one job, a non-negative first resource, strictly rising resource and
    utility, and positive, strictly falling step ratios."""
    index, resource, utility = job_list.index, job_list.resource, job_list.utility
    assert len(index) == len(resource) == len(utility) >= 1
    assert resource[0] >= 0
    for column in (resource, utility):
        assert all(a < b for a, b in zip(column, column[1:]))
    ratios = job_list.ratios()
    assert all(r > 0 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


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
        ledger.set_row(tid, (0.0, 0.0))
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


def full_scan_best_feasible(util, occ, pw, ncfg, r1, r2):
    """Reference scan: judges every state, in ascending code order.

    Returns (best utility, picks) like ``kernels.scan_best_feasible``, which
    must equal it bit for bit.  Each group of prefix entries is extended by
    the trailing block (the longest run of trailing tasks of at most
    ``_SCAN_CHUNK`` states) and judged with one argmax; a later group
    replaces the best only when strictly better, so the lowest code among
    the maxima wins.
    """
    util = np.asarray(util, dtype=np.float64)
    occ = np.asarray(occ, dtype=np.float64)
    pw = np.asarray(pw, dtype=np.float64)
    r1, r2 = float(r1), float(r2)
    ncfg = [int(k) for k in ncfg]
    n = len(ncfg)
    radix = [k + 1 for k in ncfg]
    vu = [np.append(util[i, :k], 0.0) for i, k in enumerate(ncfg)]
    vo = [np.append(occ[:k], 0.0) for k in ncfg]
    vp = [np.append(pw[:k], 0.0) for k in ncfg]
    split, block = max(n - 1, 0), radix[-1] if n else 1
    while split > 0 and block * radix[split - 1] <= _SCAN_CHUNK:
        split -= 1
        block *= radix[split]
    start = np.zeros(1)
    pu, po, pp = (_outer_sums(start, v[:split]) for v in (vu, vo, vp))
    group = max(1, _SCAN_CHUNK // block)

    best_u = -1.0
    best_code = -1
    for k in range(0, len(pu), group):
        tu = _outer_sums(pu[k:k + group], vu[split:])
        to = _outer_sums(po[k:k + group], vo[split:])
        tp = _outer_sums(pp[k:k + group], vp[split:])
        cand = np.where((to <= r1) & (tp <= r2), tu, -np.inf)
        j = int(np.argmax(cand))
        if cand[j] > best_u:
            best_u = float(cand[j])
            best_code = k * block + j
    return float(best_u), np.array(np.unravel_index(best_code, radix), dtype=np.int64)


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

    start = dict(zip([task.id for task in instance.tasks],
                     base_configuration(space, target_block(instance.tasks),
                                        bounds)))
    with np.errstate(over="ignore", invalid="ignore"):
        return upgrade_loop(instance, start, lambda kept: {
            tid: steps(instance.tasks[instance.position[tid]], start[tid]) for tid in kept})


def allocating_train(env, total_steps: int, seed: int):
    """``agent.train`` as a loop that lets every update allocate its own
    outputs: the reference for the train loop's reused buffers."""
    rng = PortableRng(seed)
    params = init_params(rng, n_actions=env.space.size)
    mean_square = np.zeros_like(params.flat)
    curve = []
    for _ in range(total_steps // EPISODE_LENGTH):
        state = env.reset()
        trajectory = []
        for _ in range(EPISODE_LENGTH):
            logits, _ = forward(params, state)
            action = sample_action(logits, rng)
            result = env.step(action)
            trajectory.append(Transition(state, action, result.reward))
            state = result.next_state
        params, mean_square, metrics = a2c_update(params, mean_square,
                                                  trajectory)
        curve.append((metrics["mean_reward"], metrics["loss"]))
    return params, mean_square, curve


def single_row_proposer(params, space):
    """The network asked about one observation row at a time on the grid
    ``space``: a per-task proposer for :func:`lazy_allocate_with_proposals`."""
    def propose(task, current):
        logits, _ = forward(params, encode_state(space, [current],
                                                 target_block([task]))[0])
        action = int(np.argmax(logits))
        if not math.isfinite(logits[action]):
            raise WeightFormatError(f"network logits are not finite (task "
                                    f"{task.id}); the weights overflow")
        return action
    return propose


def frontier_proposer(instance):
    """Perfect wave proposer: the next job-list point (itself when exhausted).

    Driving the allocation loop with this oracle reproduces the classical
    greedy result exactly; it pins down the loop's semantics.
    """
    lists = {target.id: job_list_for(target, instance.space, instance.bounds)
             for target in instance.tasks}

    def next_point(target, current):
        points = lists[target.id].points
        for i, p in enumerate(points):
            if p.index == current:
                return points[i + 1].index if i + 1 < len(points) else current
        raise ValueError(f"task {target.id}: {current} is not on its frontier")

    def propose(positions, currents):
        return [next_point(instance.tasks[pos], current)
                for pos, current in zip(positions, currents)]
    return propose
