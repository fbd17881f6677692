"""The hot kernels against literal reference computations."""

import itertools
import re

import numpy as np
import pytest

from helpers import (argmax_knapsack_table, full_scan_best_feasible,
                     random_small_instance, random_small_space, snr,
                     task_utility)
from qram import kernels, remark1
from qram.core import (DEFAULT_CONFIG_SPACE, ConfigSpace, ResourceBounds,
                       compound_resource, resource_of)
from qram.perf import TYPE_UTILITY_WEIGHT, Target, TargetType, generate_scenario
from qram.problem import build_tracking_instance, default_bounds, utility_table
from qram.rng import PortableRng

TARGET = Target(id=0, ttype=TargetType.FIGHTER, range_km=62.5, speed_mps=340.0)
BOUNDS = ResourceBounds(bounds=(0.6, 5.0), compound_weights=(1.0, 1.0))
WEIGHTS = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]


# ------------------------------------------------------------ configuration costs

@pytest.mark.parametrize("weights", WEIGHTS, ids=str)
def test_config_costs_match_scalar_model(weights):
    bounds = ResourceBounds(bounds=BOUNDS.bounds, compound_weights=weights)
    rng = PortableRng(5)
    for space in [DEFAULT_CONFIG_SPACE] + [random_small_space(rng) for _ in range(20)]:
        comp, occ, pw, cheapest = kernels.config_costs(space, bounds)
        vectors = [resource_of(c) for c in space]
        want = [compound_resource(v, bounds) for v in vectors]
        assert comp.tolist() == want
        assert occ.tolist() == [float(v[0]) for v in vectors]
        assert pw.tolist() == [float(v[1]) for v in vectors]
        assert cheapest.tolist() == [i for i, r in enumerate(want) if r == min(want)]


def test_utility_matches_scalar_model_row_by_row():
    # One target per row, as a wave evaluates them, and one target against
    # the whole grid, as config_metrics does.
    targets = generate_scenario(200, 9).targets
    configs = [DEFAULT_CONFIG_SPACE.config_at((7 * i) % 90) for i in range(200)]
    got = kernels.utility(
        np.array([c.dwell_length for c in configs]),
        np.array([c.transmit_duration for c in configs]),
        np.array([c.transmit_power for c in configs]),
        np.array([t.range_km for t in targets]),
        np.array([t.speed_mps for t in targets]),
        np.array([TYPE_UTILITY_WEIGHT[t.ttype] for t in targets]))
    assert got.tolist() == [task_utility(c, t) for c, t in zip(configs, targets)]
    util = kernels.config_metrics(DEFAULT_CONFIG_SPACE, TARGET, BOUNDS)[0]
    assert util.tolist() == [task_utility(c, TARGET) for c in DEFAULT_CONFIG_SPACE]


def test_snr_matches_scalar_model():
    targets = generate_scenario(200, 9).targets
    configs = [DEFAULT_CONFIG_SPACE.config_at((7 * i) % 90) for i in range(200)]
    got = kernels.snr(np.array([c.transmit_duration for c in configs]),
                      np.array([c.transmit_power for c in configs]),
                      np.array([t.range_km for t in targets]))
    assert got.tolist() == [snr(c, t) for c, t in zip(configs, targets)]


def test_config_costs_are_read_only_and_cached_per_grid_and_bounds():
    columns = kernels.config_costs(DEFAULT_CONFIG_SPACE, BOUNDS)
    for column in columns:
        with pytest.raises(ValueError):
            column[0] = 0
    space = ConfigSpace.from_dict(DEFAULT_CONFIG_SPACE.to_dict())
    bounds = ResourceBounds(bounds=(0.6, 5.0), compound_weights=(1.0, 1.0))
    assert space is not DEFAULT_CONFIG_SPACE and bounds is not BOUNDS
    assert kernels.config_costs(space, bounds) is columns


def test_config_costs_name_first_non_finite_configuration():
    # 1e-310 is subnormal: occupancy / 1e-310 overflows to inf, and weight 0
    # times inf is NaN, on every configuration.
    bounds = ResourceBounds(bounds=(1e-310, 5.0), compound_weights=(0.0, 1.0))
    first = DEFAULT_CONFIG_SPACE.config_at(0)
    with pytest.raises(ValueError, match=re.escape(
            f"the compound resource of {first} is not finite under {bounds}")):
        kernels.config_costs(DEFAULT_CONFIG_SPACE, bounds)
    # 100 * occupancy / 1e-308 overflows once occupancy exceeds about 0.018:
    # 2/300 stays finite, 10/300 (configuration 1) does not.
    space = ConfigSpace((300.0, 1100.0), (2.0, 10.0), (1.0,))
    bounds = ResourceBounds(bounds=(1e-308, 5.0), compound_weights=(100.0, 1.0))
    with pytest.raises(ValueError, match=re.escape(
            f"the compound resource of {space.config_at(1)} is not finite")):
        kernels.config_costs(space, bounds)


def _scan_case(seed):
    rng = np.random.default_rng(seed)
    n, cmax = 4, 6
    ncfg = rng.integers(1, cmax + 1, size=n)
    util = rng.uniform(0.1, 1.5, size=(n, cmax))
    occ = rng.uniform(0.0, 0.1, size=cmax)
    pw = rng.uniform(0.0, 0.4, size=cmax)
    return util, occ, pw, ncfg


def _brute_scan(util, occ, pw, ncfg, r1, r2):
    """Literal python enumeration of every assignment in code order; ``occ``
    and ``pw`` are the grid's columns, shared by every task."""
    best_u, best_picks = -1.0, None
    radix = [int(k) + 1 for k in ncfg]
    for digits in itertools.product(*(range(r) for r in radix)):
        tu = to = tp = 0.0
        for i, d in enumerate(digits):
            if d < ncfg[i]:
                tu += util[i, d]
                to += occ[d]
                tp += pw[d]
        if to <= r1 and tp <= r2 and tu > best_u:
            best_u, best_picks = tu, list(digits)
    return best_u, best_picks


def _assert_scan_matches(util, occ, pw, ncfg, r1, r2):
    got_u, got_picks = kernels.scan_best_feasible(util, occ, pw, ncfg, r1, r2)
    want_u, want_picks = _brute_scan(util, occ, pw, ncfg, r1, r2)
    assert got_u == want_u
    assert got_picks.tolist() == want_picks
    return got_u, want_picks


def test_scan_brute_reference():
    # Cross-check the scan against a literal python enumeration.
    util, occ, pw, ncfg = _scan_case(42)
    _assert_scan_matches(util, occ, pw, ncfg, 0.15, 0.5)


def _quarter_case(rng, n, cmax):
    """Values on a quarter grid: equal totals, hence tied optima, are common."""
    ncfg = rng.integers(1, cmax + 1, size=n)
    util = rng.integers(1, 9, size=(n, cmax)) / 4.0
    occ, pw = (rng.integers(1, 9, size=cmax) / 4.0 for _ in range(2))
    return util, occ, pw, ncfg


@pytest.mark.parametrize("chunk", [1 << 18, 64, 16, 4])
@pytest.mark.parametrize("seed", range(6))
def test_scan_matches_enumeration(chunk, seed, monkeypatch):
    """1-5 tasks of 1-7 configurations, random and quarter-grid values,
    whole, multi-block (chunk 16, 64) and chunk-below-radix (4) scans."""
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(1000 + seed)
    for n in range(1, 6):
        cmax = int(rng.integers(1, 8))
        if seed % 2:
            util, occ, pw, ncfg = _quarter_case(rng, n, cmax)
            r1, r2 = rng.integers(0, 4 * n + 2, size=2) / 4.0
        else:
            ncfg = rng.integers(1, cmax + 1, size=n)
            util = rng.uniform(0.1, 1.5, size=(n, cmax))
            occ = rng.uniform(0.0, 0.1, size=cmax)
            pw = rng.uniform(0.0, 0.4, size=cmax)
            r1, r2 = rng.uniform(0.0, 0.1 * n), rng.uniform(0.0, 0.4 * n)
        _assert_scan_matches(util, occ, pw, ncfg, r1, r2)


@pytest.mark.parametrize("chunk", [1 << 18, 16])
def test_scan_ties_resolve_to_lowest_code(chunk, monkeypatch):
    # Every configuration is worth the same, so each single-task assignment
    # ties; the lowest code picks configuration 0 of task 0 and drops the rest.
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    ncfg = np.array([3, 4, 5])
    ones = np.ones((3, 5))
    best_u, best_picks = _assert_scan_matches(ones, ones[0], ones[0], ncfg, 1.0, 1.0)
    assert (best_u, best_picks) == (1.0, [0, 4, 5])


@pytest.mark.parametrize("chunk", [1 << 18, 16, 4])
def test_scan_only_all_dropped_feasible(chunk, monkeypatch):
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(5)
    util, occ, pw, ncfg = _quarter_case(rng, 4, 6)
    for r1, r2 in ((0.0, 100.0), (100.0, 0.2), (0.2, 0.2)):
        best_u, best_picks = _assert_scan_matches(util, occ, pw, ncfg, r1, r2)
        assert best_u == 0.0
        assert best_picks == ncfg.tolist()  # every task dropped


@pytest.mark.parametrize("ncfg", [[40], [2, 40], [40, 3], [3, 40, 2]])
def test_scan_radix_above_chunk(ncfg, monkeypatch):
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", 16)
    rng = np.random.default_rng(len(ncfg))
    ncfg = np.array(ncfg)
    util = rng.uniform(0.1, 1.0, size=(len(ncfg), 40))
    occ, pw = (rng.uniform(0.1, 1.0, size=40) for _ in range(2))
    _assert_scan_matches(util, occ, pw, ncfg, 0.9, 1.1)


def _record_judged(monkeypatch):
    """Record the size of every block the scan judges with one argmax."""
    sizes = []
    argmax = np.argmax

    def recording_argmax(a, *args, **kwargs):
        sizes.append(len(a))
        return argmax(a, *args, **kwargs)

    monkeypatch.setattr(np, "argmax", recording_argmax)
    return sizes


@pytest.mark.parametrize("chunk", [1 << 18, 64, 16, 4])
def test_scan_blocks_are_bounded_and_cover_every_state(chunk, monkeypatch):
    """Each block judged by one argmax holds at most max(chunk, largest
    radix) states, and the blocks together hold every state once.  Every
    utility is 0.0 and the limits are above every total, so each prefix's
    bound ties the best found and no state may be skipped."""
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    sizes = _record_judged(monkeypatch)
    for ncfg in ([6, 2, 7, 1, 5], [3, 40, 2], [7] * 5):
        sizes.clear()
        ncfg = np.array(ncfg)
        util = np.zeros((len(ncfg), int(ncfg.max())))
        cost = np.ones(int(ncfg.max()))
        limit = len(ncfg) + 1.0
        kernels.scan_best_feasible(util, cost, cost, ncfg, limit, limit)
        radix = (ncfg + 1).tolist()
        assert sum(sizes) == int(np.prod(radix))
        assert max(sizes) <= max(chunk, max(radix))


def _oracle_scan_args(instance):
    """The arguments ``exact.optimal_allocation`` passes to the scan."""
    _, occ, pw, _ = kernels.config_costs(instance.space, instance.bounds)
    return (utility_table(instance), occ, pw,
            [instance.space.size] * len(instance.tasks), *instance.bounds.bounds)


def _remark1_instances():
    scenario = generate_scenario(remark1.N_TARGETS, remark1.SCENARIO_SEED)
    return [build_tracking_instance(scenario, remark1.BOUNDS, space)
            for space in remark1.config_space_chain()]


def _default_grid_instances():
    return [build_tracking_instance(generate_scenario(4, seed), bounds,
                                    DEFAULT_CONFIG_SPACE)
            for bounds in (default_bounds(4),
                           ResourceBounds((0.15, 0.5), (1.0, 1.0)))
            for seed in (1, 2)]


def _assert_scan_is_the_full_scan(*args):
    got_u, got_picks = kernels.scan_best_feasible(*args)
    want_u, want_picks = full_scan_best_feasible(*args)
    assert np.float64(got_u).tobytes() == np.float64(want_u).tobytes()
    assert got_picks.tolist() == want_picks.tolist()


def test_scan_is_the_full_scan_on_the_oracle_instances():
    # The three remark1 grids, four default-grid targets under two bounds,
    # and the random small instances of acceptance criterion 1.
    for instance in _remark1_instances() + _default_grid_instances():
        _assert_scan_is_the_full_scan(*_oracle_scan_args(instance))
    for seed in range(200):
        _assert_scan_is_the_full_scan(*_oracle_scan_args(random_small_instance(seed)))


@pytest.mark.parametrize("chunk", [1 << 18, 64, 16, 4])
def test_scan_is_the_full_scan_on_tied_quarter_grids(chunk, monkeypatch):
    """Quarter-grid values tie often, so equal bounds and equal maxima in
    different chunks are common; the picks must still be the full scan's."""
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        util, occ, pw, ncfg = _quarter_case(rng, n, int(rng.integers(1, 8)))
        r1, r2 = rng.integers(0, 4 * n + 2, size=2) / 4.0
        _assert_scan_is_the_full_scan(util, occ, pw, ncfg, r1, r2)


@pytest.mark.parametrize("chunk", [1 << 18, 4])
def test_scan_judges_a_prefix_whose_bound_ties_the_best_found(chunk, monkeypatch):
    # Picks (0, 1) and (1, 0) both total 3.0; (1, 1) would total 4.0 but
    # does not fit.  At chunk 4 each prefix is its own chunk: prefix 1
    # (bound 4.0) goes first and finds code 3, then prefix 0, whose bound
    # 3.0 only ties that best, must still be judged and its lower code 1 win.
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    util = np.array([[1.0, 2.0], [1.0, 2.0]])
    best_u, best_picks = _assert_scan_matches(
        util, np.array([0.25, 0.5]), np.zeros(2), [2, 2], 0.75, 1.0)
    assert (best_u, best_picks) == (3.0, [0, 1])


def test_scan_bound_skips_states(monkeypatch):
    # remark1's 60-configuration grid offers 61**4 states, four targets of
    # the default grid 91**4; the bound leaves a small share to judge.
    sizes = _record_judged(monkeypatch)
    kernels.scan_best_feasible(*_oracle_scan_args(_remark1_instances()[-1]))
    assert sum(sizes) < 61**4 / 4
    sizes.clear()
    kernels.scan_best_feasible(*_oracle_scan_args(_default_grid_instances()[0]))
    assert sum(sizes) < 91**4 / 100


def _dp_case(seed):
    rng = np.random.default_rng(seed)
    n, cmax = 3, 5
    ncfg = rng.integers(1, cmax + 1, size=n)
    util = rng.uniform(0.1, 1.5, size=(n, cmax))
    cost = rng.integers(0, 40, size=cmax)
    return util, cost, ncfg


def test_dp_table_monotone_in_budget():
    util, cost, ncfg = _dp_case(7)
    dp, _ = kernels.fill_knapsack_table(util, cost, ncfg, 80)
    assert np.all(np.diff(dp) >= 0)


def _knapsack_case(rng):
    """Random table inputs: quarter-grid or continuous utilities (some <= 0),
    one shared cost column with zero costs and costs at and above the
    budget, duplicated (cost, utility) pairs at other indices and garbage
    utilities beyond each task's ``ncfg``."""
    n, cmax, budget = (int(rng.integers(lo, hi)) for lo, hi in ((0, 7), (1, 9), (0, 31)))
    ncfg = rng.integers(0, cmax + 1, size=n)
    if rng.random() < 0.5:
        util = rng.integers(-2, 9, size=(n, cmax)) / 4.0
    else:
        util = rng.uniform(-0.2, 1.5, size=(n, cmax))
    cost = rng.integers(0, budget + 4, size=cmax)
    cost[rng.random(size=cmax) < 0.15] = budget
    for _ in range(cmax // 2):  # copy a cost to another index ...
        a, b = rng.integers(0, cmax, size=2)
        cost[b] = cost[a]
        copies = rng.random(size=n) < 0.5  # ... and, for some tasks, its utility
        util[copies, b] = util[copies, a]
    for i in range(n):
        util[i, ncfg[i]:] = 100.0
    return util, cost, ncfg, budget


def _assert_knapsack_matches(util, cost, ncfg, budget):
    dp, picks = kernels.fill_knapsack_table(util, cost, ncfg, budget)
    want_dp, want_picks = argmax_knapsack_table(util, cost, ncfg, budget)
    assert dp.tobytes() == want_dp.tobytes()
    assert picks.tolist() == want_picks.tolist()


@pytest.mark.parametrize("chunk", [1 << 18, 64, 1])
def test_knapsack_matches_argmax_table(chunk, monkeypatch):
    monkeypatch.setattr(kernels, "_TABLE_CHUNK", chunk)
    rng = np.random.default_rng(2024)
    for _ in range(400):
        _assert_knapsack_matches(*_knapsack_case(rng))
    quarter = np.array([[0.5, 0.5, 0.25, 0.75, 0.0, 0.25],
                        [0.25, 0.5, 0.5, 0.75, -0.25, 0.5],
                        [0.5, 0.25, 0.5, 0.5, 0.25, 0.5]])
    cost = np.array([2, 1, 1, 3, 0, 1])
    for budget in (0, 1, 2, 3, 4, 6):
        _assert_knapsack_matches(quarter, cost, [6, 6, 6], budget)
        _assert_knapsack_matches(quarter, cost, [3, 6, 5], budget)
    _assert_knapsack_matches(np.zeros((0, 3)), np.zeros(3), [], 5)
    _assert_knapsack_matches(np.zeros((0, 0)), np.zeros(0), [], 0)


def test_eval_counter_accumulates():
    kernels.counters["config_evals"] = 0
    kernels.config_metrics(DEFAULT_CONFIG_SPACE, TARGET, BOUNDS)
    assert kernels.counters["config_evals"] == 90
