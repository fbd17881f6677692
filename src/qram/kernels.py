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

from .core import expanded_grids, grid_configurations
from .perf import (ERROR_HALF_M, GROWTH_SCALE_M, MEASUREMENT_COEFF_M, SNR_CONST,
                   TYPE_UTILITY_WEIGHT)

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
    float64 arrays in grid order, bit for bit equal to ``core.resource_of``
    and ``core.compound_resource`` of each configuration, and the read-only
    indices of least compound in ascending order.  Raises ValueError naming
    the first configuration whose compound is not finite.
    """
    dwell, tx, pw = expanded_grids(space)
    (r1, r2), (w1, w2) = bounds.bounds, bounds.compound_weights
    with np.errstate(over="ignore", invalid="ignore"):
        occ = tx / dwell
        avg_pw = pw * tx / dwell
        comp = w1 * (occ / r1) + w2 * (avg_pw / r2)
    bad = np.flatnonzero(~np.isfinite(comp))
    if len(bad):
        raise ValueError(f"the compound resource of "
                         f"{grid_configurations(space)[bad[0]]} is not finite "
                         f"under {bounds}")
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
# Bound.  A prefix's bound adds each block task's largest value (its best
# utility, or the drop's 0.0) to the prefix's utility total, left to right
# in the block's order.  Round-to-nearest addition is monotone in each
# argument, so every state that extends the prefix totals at most its
# bound.  Every occupancy and power entry is >= 0, so by the same argument
# no state extending a prefix over a limit can fit: such prefixes are
# skipped.
#
# Order.  The other prefixes go in descending bound order, in chunks of
# G = max(1, _SCAN_CHUNK // B) prefixes.  A chunk's prefixes are sorted
# ascending before the outer sums, so in C order state j of the chunk has
# code rows[j // B] * B + j % B, codes ascend, and argmax returns the
# chunk's lowest code among its maxima.  A chunk's best replaces the best
# found if it is strictly greater, or equal with a lower code.
#
# Stop.  A prefix is skipped only when its bound is STRICTLY below the best
# found.  The best found never exceeds the optimum (it starts at -1.0, then
# is a feasible total), and the prefix of the first optimal code fits and
# bounds at least the optimum: it is never skipped, and the merge keeps the
# lowest code among equal maxima.  The picks are those of the full scan.
#
# Memory: one chunk holds G*B states, at most max(_SCAN_CHUNK, B), and B is
# at most max(_SCAN_CHUNK, largest radix).  The prefix holds total / B
# entries: with one radix r for every task, as the oracle passes, and at
# most _SCAN_CHUNK**2 states (the oracle's cap is far below), that is at
# most sqrt(total * r).
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
    found.  Only prefixes whose utility bound can still reach the best found
    are judged, and the result is that of judging every state.  No block
    the scan evaluates holds more than max(_SCAN_CHUNK, largest radix)
    states.
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

    best_u = -1.0
    best_code = -1
    k = 0
    while True:
        # Prefixes whose bound is not below the best found, next chunk only.
        stop = min(k + group, int(np.searchsorted(ranked, -best_u, side="right")))
        if k >= stop:
            break
        rows = np.sort(order[k:stop])
        k = stop
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
# per configuration c of cost w_c, hist[i, j - w_c] + u_c (-inf for j < w_c).
# The choice in column j is the first maximum over [drop, c = 0, 1, ...]:
# ties prefer dropping, then the lowest configuration index.
#
# Pruning.  A configuration is skipped when it can never be that first
# maximum in any column: its cost exceeds the budget (its row is all -inf),
# its utility is <= 0 (its row is <= the drop row, which comes first), or an
# EARLIER configuration c' dominates it (w_c' <= w_c and u_c' >= u_c).  The
# dominance argument: hist[i] is nondecreasing in j, so hist[i, j - w_c'] >=
# hist[i, j - w_c], and round-to-nearest addition is monotone, so row c' >=
# row c in every column and c' wins every tie.  A dominator passes the
# first two tests whenever c does, and if it is dominated in turn, its own
# earlier dominator also dominates c: so every pruned c has an unpruned
# earlier dominator.  The costs are the grid's, shared by every task, so the
# cost half of dominance (c' < c and w_c' <= w_c) is one mask per call over
# the affordable configurations; per task only the utility compare is
# built.  A dominator of a c with u_c > 0 has u_c' > 0 too, so the compare
# may run over every affordable configuration before the utility test.
#
# Fill.  The surviving rows are one fancy index into a sliding window over
# a -inf-padded copy of hist[i], plus the utilities in one broadcast; the
# next row is their max(axis=0) and the drop row.  Every entry is >= +0.0 or
# -inf (no signed zero, no NaN), so the maximum is bit for bit the value the
# first-argmax choice would pick.  Columns go in blocks of at most
# _TABLE_CHUNK candidate cells, so a task's scratch stays bounded; the
# (n + 1) x (budget + 1) value history is kept for the backtrack.
#
# Backtrack.  From j = budget, task i (last to first) takes the first
# maximum of hist[i, j] followed by hist[i, j - w_c] + u_c over its unpruned
# c with w_c <= j: the same adds and the same first-max rule as a column
# argmax, so the picks are those of the full argmax table.
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
    dropped).
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
    # The affordable configurations in index order, and the cost half of
    # dominance among them: cheaper[a, b] for a < b no dearer than b.
    affordable = np.flatnonzero(cost[:ncfg.max(initial=0)] <= budget)
    cheaper = np.triu(cost[affordable, None] <= cost[affordable], 1)
    kept = []
    for i, m in enumerate(np.searchsorted(affordable, ncfg)):
        u = util[i, affordable[:m]]
        live = (u > 0.0) & ~(cheaper[:m, :m] & (u[:, None] >= u)).any(axis=0)
        keep = affordable[:m][live]
        kept.append(keep)
        prev, nxt = hist[i], hist[i + 1]
        if len(keep) == 0:
            nxt[:] = prev
            continue
        padded[budget:] = prev
        shift, gain = budget - cost[keep], u[live][:, None]
        block = max(1, _TABLE_CHUNK // len(keep))
        for a in range(0, budget + 1, block):
            rows = window[shift, a:a + block]
            rows += gain
            np.maximum(prev[a:a + block], rows.max(axis=0), out=nxt[a:a + block])

    picks = np.empty(n, dtype=np.int64)
    j = budget
    for i in range(n - 1, -1, -1):
        fits = kept[i][cost[kept[i]] <= j]
        w = cost[fits]
        best = int(np.argmax(np.concatenate(
            ((hist[i, j],), hist[i, j - w] + util[i, fits]))))
        if best == 0:
            picks[i] = ncfg[i]
        else:
            picks[i] = fits[best - 1]
            j -= int(w[best - 1])
    return hist[n].copy(), picks
