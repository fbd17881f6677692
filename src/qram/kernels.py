"""Hot numeric kernels: the utility model, grid costs and metrics,
exhaustive scan, knapsack table.

Each kernel is one vectorised numpy implementation, and :func:`utility`
(with :func:`snr`) is the package's one implementation of the radar model.
The scan and the knapsack take a (tasks x grid) utility table beside the
grid's cost columns, one copy shared by every task: a configuration's cost
does not depend on its target.  ``counters`` tallies the (target,
configuration) utilities evaluated so runs can report how much work they
did.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (compound_resource, costs, expanded_grids,
                   grid_configurations)
from .perf import (ERROR_HALF_M, GROWTH_SCALE_M, MAX_UTILITY,
                   MEASUREMENT_COEFF_M, SNR_CONST, TYPE_UTILITY_WEIGHT)

#: Cumulative count of single-configuration utility evaluations (tests
#: reset this).
counters = {"config_evals": 0}

#: Assignment codes evaluated per vectorised block of the exhaustive scan.
_SCAN_CHUNK = 1 << 18

#: Candidate cells built per vectorised block of the knapsack table.
_TABLE_CHUNK = 1 << 18


# --------------------------------------------------------------------------
# Configuration costs and metrics.  Occupancy, average power and compound
# depend only on the grid and the bounds, so they are computed once per
# (grid, bounds); only utility needs the target.
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def config_costs(space, bounds):
    """Cost columns of every grid configuration under ``bounds``.

    Returns (compound, occupancy, avg_power, cheapest): three read-only
    float64 arrays in grid order, from ``core.costs`` and
    ``core.compound_resource`` over the grid's columns, and the read-only
    indices of least compound in ascending order.  Raises ValueError naming
    the first configuration whose compound is not finite, and when the
    largest utility (``perf.MAX_UTILITY``, the largest type weight) over
    the smallest gap between distinct compound levels, which bounds every
    upgrade ratio, is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        occ, avg_pw = costs(*expanded_grids(space))
        comp = compound_resource((occ, avg_pw), bounds)
    bad = np.flatnonzero(~np.isfinite(comp))
    if len(bad):
        raise ValueError(f"the compound resource of "
                         f"{grid_configurations(space)[bad[0]]} is not finite "
                         f"under {bounds}")
    levels = sorted(set(comp.tolist()))
    gap = min((b - a for a, b in zip(levels, levels[1:])), default=math.inf)
    if not math.isfinite(MAX_UTILITY / gap):
        raise ValueError(f"the upgrade ratios are not finite under {bounds}: "
                         f"compound levels lie {gap!r} apart")
    cheapest = np.flatnonzero(comp == comp.min())
    for column in (comp, occ, avg_pw, cheapest):
        column.setflags(write=False)
    return comp, occ, avg_pw, cheapest


def config_metrics(space, target, bounds):
    """Evaluate every configuration of a grid against one target.

    Returns (utility, compound, occupancy, avg_power) float64 arrays in grid
    order.  Only utility is computed here, by :func:`utility`; the other
    three are the read-only ``config_costs`` columns.
    """
    comp, occ, avg_pw, _ = config_costs(space, bounds)
    dwell, tx, pw = expanded_grids(space)
    counters["config_evals"] += len(dwell)
    util = utility(dwell, tx, pw, target.range_km, target.speed_mps,
                   TYPE_UTILITY_WEIGHT[target.ttype])
    return util, comp, occ, avg_pw


def snr(tx, pw, range_km):
    """Signal-to-noise ratio by the range equation, element-wise: energy on
    target (power x transmit duration) over the fourth power of range."""
    rr = range_km * range_km
    r4 = rr * rr
    return SNR_CONST * pw * tx / r4


def utility(dwell, tx, pw, range_km, speed_mps, weight):
    """Utility of configuration columns (dwell, transmit duration, power)
    against target columns (range, speed, type weight), element-wise; any
    argument may be a scalar that broadcasts.

    The tracking error is the measurement error 100 m / sqrt(SNR), grown by
    the target's travel per revisit (the dwell); utility saturates as
    ``weight / (1 + error / ERROR_HALF_M)``.  ``tests/helpers.py`` keeps a
    one-float-at-a-time reference that pins it bit for bit.
    """
    sigma = MEASUREMENT_COEFF_M / np.sqrt(snr(tx, pw, range_km))
    travel = speed_mps * (dwell / 1000.0)
    ratio = travel / GROWTH_SCALE_M
    growth = np.sqrt(1.0 + ratio * ratio)
    err = sigma * growth
    return weight / (1.0 + err / ERROR_HALF_M)


# --------------------------------------------------------------------------
# Exhaustive feasible-assignment scan (the brute-force oracle's inner loop).
#
# States are mixed-radix codes: task 0 is the most significant digit, digit
# values 0..n_i-1 pick a configuration and digit n_i drops the task, so
# ascending code order is lexicographic order of the assignment vectors.
# The scan returns the digits, the picks, of the FIRST code attaining the
# maximum feasible utility.
#
# Totals are built by outer sums, not by decoding codes.  Each task has a
# value vector of n_i + 1 entries (its configurations, then 0.0 for
# "dropped").  The tasks split into a leading prefix and a trailing block:
# the longest run of trailing tasks whose radix product B is at most
# min(_SCAN_CHUNK, isqrt(total states)), and at least the last task, so the
# prefix and the block are about equally large.  The prefix totals are
# built once by left-to-right outer adds, (p[:, None] + v[None, :]).ravel();
# a chosen set of prefix entries is then extended by the block's tasks,
# again left to right, and judged with one feasibility mask and one argmax.
#
# Bit identity: every state's totals are still ((0.0 + v_0) + v_1) + ...
# in task order, exactly as a per-code decode adds them (adding 0.0 for a
# dropped task leaves a sum unchanged, as it did there).
#
# Bounds.  Two upper bounds on a prefix's states, both built left to right
# in the block's order on the prefix's utility total.  The loose bound adds
# each block task's largest value (its best utility, or the drop's 0.0).
# The fitting bound adds, per block task, the largest value among its
# entries that fit next to the prefix alone: po + o <= r1 and pp + p <= r2,
# as float adds (the drop's 0.0 always fits).  Proof that no state beats
# either: round-to-nearest addition is monotone in each argument and every
# occupancy and power entry is >= 0, so along a state the running totals
# never fall, each block task's entry o lies under the final occupancy
# (fl(po + o) <= fl(S + o) <= total, S >= po being the running total before
# it), and likewise for power.  A fitting state therefore picks, for every
# block task, an entry that fits next to the prefix, of value at most that
# task's fitting maximum, and its utility total is at most the fitting
# bound, itself at most the loose bound.  By the same argument no state
# extending a prefix over a limit fits: such prefixes are skipped.
#
# Order.  The other prefixes go in descending loose-bound order, in chunks
# of 1, 2, 4, ... prefixes, doubling up to G = max(1, _SCAN_CHUNK // B), so
# the first states judged are the most promising and the best found rises
# early.  A chunk's fitting bounds are computed when it is taken, lazily:
# most prefixes are never taken.  They are not built when every grid entry
# fits next to every prefix of the chunk (each is then the loose bound), nor
# when the chunk's smallest prefix total reaches the best found: a fitting
# bound adds maxima >= 0.0 to its prefix total, so it is at least that
# total and the chunk keeps every prefix.  The prefixes kept are sorted
# ascending before the outer sums, so in C order state j of the chunk has
# code rows[j // B] * B + j % B, codes ascend, and argmax returns the
# chunk's lowest code among its maxima.  A chunk's best replaces the best
# found if it is strictly greater, or equal with a lower code.
#
# Stop.  A prefix is skipped only when a bound is STRICTLY below the best
# found: the loose bound ends the scan, the fitting bound drops the prefix
# from its chunk.  The best found never exceeds the optimum (it starts at
# -1.0, then is a feasible total), and the prefix of the first optimal code
# fits and has both bounds at least the optimum: it is never skipped, and
# the merge keeps the lowest code among equal maxima.  The picks are those
# of the full scan.
#
# Memory: one chunk holds at most G*B states, at most max(_SCAN_CHUNK, B),
# and its fitting mask G x (largest block radix - 1) cells, no more; B is at
# most max(_SCAN_CHUNK, largest radix).  The prefix holds total / B entries:
# with one radix r for every task, as the oracle passes, and at most
# _SCAN_CHUNK**2 states (the oracle's cap is far below), that is at most
# sqrt(total * r).
# --------------------------------------------------------------------------

def _outer_sums(base, vectors):
    """Left-to-right sums ``base[a] + v0[b] + v1[c] + ...`` in C order."""
    for v in vectors:
        base = (base[:, None] + v).ravel()
    return base


def scan_best_feasible(util, occ, pw, ncfg, r1, r2):
    """Return (best utility, picks) over every assignment.

    ``occ`` and ``pw`` are the grid's occupancy and power columns, shared by
    every task, and every entry is >= 0; row i of ``util`` holds task i's
    utilities on the grid.  Task i picks from the first ``ncfg[i]`` grid
    configurations; the oracle passes the grid size for every task, and
    ``ncfg`` stays because the benchmark's counter hooks read it.
    ``picks[i]`` is task i's configuration in the first assignment, in code
    order, that attains the best feasible utility, and ``ncfg[i]`` drops the
    task.  Empty allocations are part of the search, so a result is always
    found.  Only prefixes whose utility bounds, over every block value and
    over the block values that fit next to the prefix, can still reach the
    best found are judged, and the result is that of judging every state.
    No block the scan evaluates, and no fitting mask, holds more than
    max(_SCAN_CHUNK, largest radix) cells.
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
    limit = min(_SCAN_CHUNK, math.isqrt(math.prod(radix)))
    split, block = max(n - 1, 0), radix[-1] if n else 1
    while split > 0 and block * radix[split - 1] <= limit:
        split -= 1
        block *= radix[split]
    start = np.zeros(1)
    pu, po, pp = (_outer_sums(start, v[:split]) for v in (vu, vo, vp))
    bound = pu
    for v in vu[split:]:
        bound = bound + v.max()  # v ends with the drop's 0.0
    fits = np.flatnonzero((po <= r1) & (pp <= r2))
    order = fits[np.argsort(-bound[fits], kind="stable")]
    ranked = -bound[order]  # ascending
    group = max(1, _SCAN_CHUNK // block)
    wide = max(ncfg[split:], default=0)
    top_o, top_p = occ[:wide].max(initial=0.0), pw[:wide].max(initial=0.0)

    best_u = -1.0
    best_code = -1
    k, size = 0, 1
    while True:
        # Prefixes whose loose bound is not below the best found, next chunk.
        stop = min(k + size, int(np.searchsorted(ranked, -best_u, side="right")))
        if k >= stop:
            break
        rows = order[k:stop]
        k, size = stop, min(2 * size, group)
        if pu[rows].min() < best_u and (po[rows].max() + top_o > r1
                                         or pp[rows].max() + top_p > r2):
            # Keep the prefixes whose fitting bound is not below the best.
            fitting = ((po[rows, None] + occ[:wide] <= r1)
                       & (pp[rows, None] + pw[:wide] <= r2))
            fit_u = pu[rows]
            for i in range(split, n):
                values = np.where(fitting[:, :ncfg[i]], util[i, :ncfg[i]], 0.0)
                fit_u = fit_u + values.max(axis=1, initial=0.0)
            rows = rows[fit_u >= best_u]
            if not len(rows):
                continue
        rows = np.sort(rows)
        tu = _outer_sums(pu[rows], vu[split:])
        to = _outer_sums(po[rows], vo[split:])
        tp = _outer_sums(pp[rows], vp[split:])
        cand = np.where((to <= r1) & (tp <= r2), tu, -np.inf)
        j = int(np.argmax(cand))
        code = int(rows[j // block]) * block + j % block
        if cand[j] > best_u or (cand[j] == best_u and code < best_code):
            best_u = float(cand[j])
            best_code = code
    return float(best_u), np.array(np.unravel_index(best_code, radix), dtype=np.int64)


# --------------------------------------------------------------------------
# Multiple-choice knapsack table over a quantised scalar resource.
#
# hist[i, j] is the best utility of tasks 0..i-1 within integer budget j
# (hist[0] = 0.0).  Task i's candidate rows are the drop row hist[i] and,
# per configuration c of cost w_c, hist[i, j - w_c] + u_c (-inf for j < w_c);
# hist[i + 1] is their column max.  The full argmax table records in each
# column the first maximum over [drop, c = 0, 1, ...]: ties prefer dropping,
# then the lowest configuration index.
#
# Pruning, for the values only.  Every row hist[i] is nondecreasing in j
# (hist[0] is constant, and a candidate row of a nondecreasing row is
# nondecreasing), and round-to-nearest addition is monotone.  So within one
# integer cost level w every configuration's row lies at or below the row of
# the level's best utility b_w.  A level is dominated, its row at or below
# another candidate row in every column, when b_w <= 0.0 (the drop row) or
# when a cheaper level w' < w has b_w' >= b_w (hist[i, j - w'] >=
# hist[i, j - w]).  The Pareto levels are the affordable levels whose best
# beats 0.0 and every cheaper level's best (the dominance of Sinha and
# Zoltners, Oper. Res. 1979).  Any other level is dominated by the drop row
# or by the cheapest level attaining the cheaper levels' best, which is a
# Pareto level, so the column max is the max over the drop row and the
# Pareto levels alone.  Every hist entry is >= +0.0 and every candidate
# entry is >= +0.0 or -inf (no signed zero, no NaN), so that max is bit for
# bit the value the first-argmax choice picks.  The costs are the grid's,
# shared by every task: the affordable configurations are sorted by cost
# and split into levels once per call.  The level maxima of every task are
# one maximum.reduceat over those columns of an n x (affordable) copy of
# the utilities, masked to each task's first ncfg[i] configurations, and
# the Pareto test is one exclusive maximum.accumulate.  On the benchmark
# scenarios 15 cost levels of 90 configurations remain per task.
#
# Fill.  The Pareto rows are one fancy index into a sliding window over a
# -inf-padded copy of hist[i], plus the level maxima in one broadcast; the
# next row is their max(axis=0) and the drop row.  Columns go in blocks of
# at most _TABLE_CHUNK candidate cells, so a task's scratch stays bounded;
# the (n + 1) x (budget + 1) value history is kept for the backtrack.
#
# Backtrack.  The picks follow the full argmax table's own rule: from j =
# budget, task i (last to first) takes the first maximum of hist[i, j]
# followed by hist[i, j - w_c] + u_c over every affordable c < ncfg[i] with
# w_c <= j, in index order.  The hist rows are the full table's bit for bit,
# so the picks are too.  The Pareto levels alone would not give them: an
# earlier, worse configuration of the same cost can tie a level's best
# after rounding, and the argmax table picks it.
# --------------------------------------------------------------------------

def fill_knapsack_table(util, cost, ncfg, budget):
    """Fill the quantised multiple-choice knapsack table.

    ``cost`` is the grid's one column of integer costs, shared by every
    task; row i of ``util`` holds task i's utilities on the grid.  Task i
    picks from the first ``ncfg[i]`` grid configurations; the oracle passes
    the grid size for every task, and ``ncfg`` stays because the
    benchmark's counter hooks read it.  Returns (dp, picks): ``dp[j]`` is
    the best utility within budget j, and ``picks[i]`` is task i's
    configuration on the backtrack from the full budget (``ncfg[i]`` =
    dropped).  Each task's row is filled from its Pareto cost levels only,
    and the values and picks are those of the full argmax table.
    """
    util = np.ascontiguousarray(util, dtype=np.float64)
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    ncfg = np.asarray(ncfg, dtype=np.int64)
    budget = int(budget)
    n = len(ncfg)
    hist = np.empty((n + 1, budget + 1), dtype=np.float64)
    hist[0] = 0.0
    # budget cells of -inf, then the previous row: window[budget - w] is the
    # previous row shifted right by w.
    padded = np.full(2 * budget + 1, -np.inf)
    window = np.lib.stride_tricks.sliding_window_view(padded, budget + 1)
    # The affordable configurations in index order and by cost, their cost
    # levels, each task's best utility per level, and its Pareto levels.
    affordable = np.flatnonzero(cost[:ncfg.max(initial=0)] <= budget)
    by_cost = affordable[np.argsort(cost[affordable], kind="stable")]
    level, start = np.unique(cost[by_cost], return_index=True)
    own = np.where(by_cost < ncfg[:, None], util[:, by_cost], -np.inf)
    best = np.maximum.reduceat(own, start, axis=1)
    prior = np.zeros_like(best)
    np.maximum.accumulate(best[:, :-1], axis=1, out=prior[:, 1:])
    pareto = best > np.maximum(prior, 0.0)
    for i in range(n):
        prev, nxt = hist[i], hist[i + 1]
        keep = np.flatnonzero(pareto[i])
        if len(keep) == 0:
            nxt[:] = prev
            continue
        padded[budget:] = prev
        shift, gain = budget - level[keep], best[i, keep][:, None]
        block = max(1, _TABLE_CHUNK // len(keep))
        for a in range(0, budget + 1, block):
            rows = window[shift, a:a + block]
            rows += gain
            np.maximum(prev[a:a + block], rows.max(axis=0), out=nxt[a:a + block])

    picks = np.empty(n, dtype=np.int64)
    j = budget
    ends = np.searchsorted(affordable, ncfg)
    for i in range(n - 1, -1, -1):
        fits = affordable[:ends[i]]
        fits = fits[cost[fits] <= j]
        w = cost[fits]
        first = int(np.argmax(np.concatenate(
            ((hist[i, j],), hist[i, j - w] + util[i, fits]))))
        if first == 0:
            picks[i] = ncfg[i]
        else:
            picks[i] = fits[first - 1]
            j -= int(w[first - 1])
    return hist[n].copy(), picks
