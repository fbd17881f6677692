"""The hot kernels against literal reference computations."""

import numpy as np

from qram import kernels
from qram.core import DEFAULT_CONFIG_SPACE, ResourceBounds, expanded_grids
from qram.perf import Target, TargetType

TARGET = Target(id=0, ttype=TargetType.FIGHTER, range_km=62.5, speed_mps=340.0)
BOUNDS = ResourceBounds(bounds=(0.6, 5.0), compound_weights=(1.0, 1.0))


def _grid_args():
    dwell, tx, pw = expanded_grids(DEFAULT_CONFIG_SPACE)
    return dwell, tx, pw


def _scan_case(seed):
    rng = np.random.default_rng(seed)
    n, cmax = 4, 6
    ncfg = rng.integers(1, cmax + 1, size=n)
    util = rng.uniform(0.1, 1.5, size=(n, cmax))
    occ = rng.uniform(0.0, 0.1, size=(n, cmax))
    pw = rng.uniform(0.0, 0.4, size=(n, cmax))
    return util, occ, pw, ncfg


def test_scan_brute_reference():
    # Cross-check the scan against a literal python enumeration.
    import itertools
    util, occ, pw, ncfg = _scan_case(42)
    r1, r2 = 0.15, 0.5
    best_u, best_code = -1.0, -1
    radix = [int(k) + 1 for k in ncfg]
    for digits in itertools.product(*(range(r) for r in radix)):
        tu = to = tp = 0.0
        for i, d in enumerate(digits):
            if d < ncfg[i]:
                tu += util[i, d]
                to += occ[i, d]
                tp += pw[i, d]
        if to <= r1 and tp <= r2 and tu > best_u:
            best_u = tu
            code = 0
            for i, d in enumerate(digits):
                code = code * radix[i] + d
            best_code = code
    got_u, got_code, _ = kernels.scan_best_feasible(util, occ, pw, ncfg, r1, r2)
    assert got_u == best_u
    assert got_code == best_code


def _dp_case(seed):
    rng = np.random.default_rng(seed)
    n, cmax = 3, 5
    ncfg = rng.integers(1, cmax + 1, size=n)
    util = rng.uniform(0.1, 1.5, size=(n, cmax))
    cost = rng.integers(0, 40, size=(n, cmax))
    return util, cost, ncfg


def test_dp_table_monotone_in_budget():
    util, cost, ncfg = _dp_case(7)
    dp, _ = kernels.fill_knapsack_table(util, cost, ncfg, 80)
    assert np.all(np.diff(dp) >= 0)


def test_eval_counter_accumulates():
    kernels.counters["config_evals"] = 0
    dwell, tx, pw = _grid_args()
    kernels.config_metrics(dwell, tx, pw, TARGET, BOUNDS)
    assert kernels.counters["config_evals"] == 90
