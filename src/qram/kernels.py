"""Hot numeric kernels: grid evaluation, exhaustive scan, knapsack table.

Each kernel is one vectorised numpy implementation.  ``counters`` tallies
single-configuration evaluations so runs can report how much work they did.
"""

from __future__ import annotations

import numpy as np

from .perf import (ERROR_HALF_M, GROWTH_SCALE_M, MEASUREMENT_COEFF_M, SNR_CONST,
                   TYPE_UTILITY_WEIGHT)

#: Cumulative count of single-configuration evaluations (tests reset this).
counters = {"config_evals": 0}

#: Assignment codes evaluated per vectorised block of the exhaustive scan.
_SCAN_CHUNK = 1 << 18


# --------------------------------------------------------------------------
# Configuration metrics: utility, compound resource and the resource vector
# for every grid point against one target.
# --------------------------------------------------------------------------

def config_metrics(dwell, tx, pw, target, bounds):
    """Evaluate parallel arrays of configurations against one target.

    Returns (utility, compound, occupancy, avg_power) float64 arrays aligned
    with the inputs, bit for bit equal to ``task_utility``, ``resource_of``
    and ``compound_resource`` of the scalar model.
    """
    counters["config_evals"] += len(dwell)
    dwell = np.asarray(dwell, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    pw = np.asarray(pw, dtype=np.float64)
    (r1, r2), (w1, w2) = bounds.bounds, bounds.compound_weights
    occ = tx / dwell
    avg_pw = pw * tx / dwell
    comp = w1 * (occ / r1) + w2 * (avg_pw / r2)
    rr = target.range_km * target.range_km
    r4 = rr * rr
    s = SNR_CONST * pw * tx / r4
    sigma = MEASUREMENT_COEFF_M / np.sqrt(s)
    travel = target.speed_mps * (dwell / 1000.0)
    ratio = travel / GROWTH_SCALE_M
    growth = np.sqrt(1.0 + ratio * ratio)
    err = sigma * growth
    util = TYPE_UTILITY_WEIGHT[target.ttype] / (1.0 + err / ERROR_HALF_M)
    return util, comp, occ, avg_pw


# --------------------------------------------------------------------------
# Exhaustive feasible-assignment scan (the brute-force oracle's inner loop).
#
# States are mixed-radix codes: task 0 is the most significant digit, digit
# values 0..n_i-1 pick a configuration and digit n_i drops the task, so
# ascending code order is lexicographic order of the assignment vectors.
# The scan keeps the FIRST code attaining the maximum feasible utility.
# --------------------------------------------------------------------------

def scan_best_feasible(util, occ, pw, ncfg, r1, r2):
    """Return (best utility, mixed-radix code, strides) over every assignment.

    ``util/occ/pw`` are (n_tasks, max_configs) arrays padded per row beyond
    ``ncfg[i]``; digit n_i drops task i.  Empty allocations are part of the
    search, so a result is always found.
    """
    util = np.ascontiguousarray(util, dtype=np.float64)
    occ = np.ascontiguousarray(occ, dtype=np.float64)
    pw = np.ascontiguousarray(pw, dtype=np.float64)
    r1, r2 = float(r1), float(r2)
    ncfg = np.asarray(ncfg, dtype=np.int64)
    n = len(ncfg)
    radix = ncfg + 1
    strides = np.empty(n, dtype=np.int64)
    acc = 1
    for i in range(n - 1, -1, -1):
        strides[i] = acc
        acc *= int(radix[i])
    total = int(acc)

    best_u = -1.0
    best_code = -1
    for start in range(0, total, _SCAN_CHUNK):
        codes = np.arange(start, min(start + _SCAN_CHUNK, total), dtype=np.int64)
        tu = np.zeros(codes.shape[0], dtype=np.float64)
        to = np.zeros(codes.shape[0], dtype=np.float64)
        tp = np.zeros(codes.shape[0], dtype=np.float64)
        rem = codes
        for i in range(n):
            d = rem // strides[i]
            rem = rem - d * strides[i]
            sel = d < ncfg[i]
            idx = np.where(sel, d, 0)
            tu = tu + np.where(sel, util[i, idx], 0.0)
            to = to + np.where(sel, occ[i, idx], 0.0)
            tp = tp + np.where(sel, pw[i, idx], 0.0)
        feasible = (to <= r1) & (tp <= r2)
        cand = np.where(feasible, tu, -np.inf)
        j = int(np.argmax(cand))
        if cand[j] > best_u:
            best_u = float(cand[j])
            best_code = int(codes[j])
    return float(best_u), int(best_code), strides


# --------------------------------------------------------------------------
# Multiple-choice knapsack table over a quantised scalar resource.
#
# dp[j] = best utility with integer budget j; choice[i, j] records the pick
# for task i (ncfg[i] = dropped).  Ties prefer dropping, then the lowest
# configuration index.
# --------------------------------------------------------------------------

def fill_knapsack_table(util, cost, ncfg, budget):
    """Fill the quantised multiple-choice knapsack table.

    ``cost`` holds per-configuration integer costs; returns (dp, choice).
    """
    util = np.ascontiguousarray(util, dtype=np.float64)
    cost = np.ascontiguousarray(cost, dtype=np.int64)
    ncfg = np.asarray(ncfg, dtype=np.int64)
    budget = int(budget)
    n = len(ncfg)
    dp = np.zeros(budget + 1, dtype=np.float64)
    choice = np.empty((n, budget + 1), dtype=np.int32)
    for i in range(n):
        rows = np.full((ncfg[i] + 1, budget + 1), -np.inf, dtype=np.float64)
        rows[0] = dp  # drop the task
        for c in range(ncfg[i]):
            w = int(cost[i, c])
            if w > budget:
                continue
            rows[1 + c, w:] = dp[:budget + 1 - w] + util[i, c]
        pick = np.argmax(rows, axis=0)
        dp = rows[pick, np.arange(budget + 1)]
        choice[i] = np.where(pick == 0, ncfg[i], pick - 1)
    return dp, choice
