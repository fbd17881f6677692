"""The hot kernels against literal reference computations."""

import itertools
import re

import numpy as np
import pytest

from helpers import (argmax_knapsack_table, compound_of,
                     full_scan_best_feasible, random_small_instance,
                     random_small_space, resource_of, snr, task_utility)
from qram import exact, kernels, remark1
from qram.core import DEFAULT_CONFIG_SPACE, ConfigSpace, ResourceBounds
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
        want = [compound_of(c, bounds) for c in space]
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


@pytest.mark.parametrize("chunk", [1 << 18, 64, 16, 4])
def test_scan_judges_a_prefix_whose_fitting_bound_ties_the_best_found(
        chunk, monkeypatch):
    # Task 1's configuration 2 (utility 5.0) fits next to no prefix, so each
    # loose bound is 5.0 above the fitting one.  Prefix 1 (loose bound 7.0)
    # goes first, alone, and finds (1, 0) = 3.0 at code 4.  Prefix 0's
    # fitting bound, 1.0 + 2.0, only ties that best: it must still be judged
    # so that its lower code 1, (0, 1), wins.  The drop prefix's fitting
    # bound, 0.0 + 2.0, is below the best and is skipped.
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    util = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 5.0]])
    args = (util, np.array([0.25, 0.5, 0.8]), np.zeros(3), [2, 3], 0.75, 1.0)
    _assert_scan_is_the_full_scan(*args)
    best_u, best_picks = _assert_scan_matches(*args)
    assert (best_u, best_picks) == (3.0, [0, 1])


def _fitting_bound_cases():
    """Scan arguments where the fitting bound skips prefixes that the loose
    bound would judge."""
    cases = {}
    for n in (3, 4):
        scenario = generate_scenario(n, remark1.SCENARIO_SEED)
        cases[f"remark1-bounds-{n}-targets"] = _oracle_scan_args(
            build_tracking_instance(scenario, remark1.BOUNDS, DEFAULT_CONFIG_SPACE))
    rng = np.random.default_rng(29)
    util = rng.uniform(0.1, 1.5, size=(4, 7))
    occ, pw = rng.uniform(0.01, 0.1, size=7), rng.uniform(0.01, 0.4, size=7)
    ncfg = [7, 5, 7, 6]
    cases["occupancy-of-one-configuration"] = (util, occ, pw, ncfg, occ[3], 10.0)
    cases["power-of-one-configuration"] = (util, occ, pw, ncfg, 10.0, pw[5])
    cases["both-of-one-configuration"] = (util, occ, pw, ncfg, occ[2], pw[2])
    # No two configurations fit together: beside an assigned prefix, only
    # the block's drops fit.
    cases["only-drops-fit-beside-one"] = (util, occ, pw, ncfg, occ.min() * 1.5, 10.0)
    cases["only-drops-fit-beside-one-on-power"] = (util, occ, pw, ncfg,
                                                   10.0, pw.min() * 1.5)
    return cases


@pytest.mark.parametrize("case", sorted(_fitting_bound_cases()))
def test_scan_is_the_full_scan_where_the_fitting_bound_binds(case, monkeypatch):
    args = _fitting_bound_cases()[case]
    want_u, want_picks = full_scan_best_feasible(*args)
    for chunk in (1 << 18, 64, 16, 4):
        monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
        got_u, got_picks = kernels.scan_best_feasible(*args)
        assert np.float64(got_u).tobytes() == np.float64(want_u).tobytes()
        assert got_picks.tolist() == want_picks.tolist()
    if case.startswith("only-drops"):
        assert sum(p < k for p, k in zip(want_picks, args[3])) == 1


@pytest.mark.parametrize("chunk", [1 << 18, 64, 16, 4])
def test_scan_fitting_masks_are_bounded(chunk, monkeypatch):
    """Every masked array the scan builds, the fitting bound's included,
    holds at most max(chunk, largest radix) cells."""
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    sizes = []
    where = np.where

    def recording_where(*args):
        out = where(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "where", recording_where)
    judged = _record_judged(monkeypatch)
    for args in _fitting_bound_cases().values():
        sizes.clear()
        judged.clear()
        kernels.scan_best_feasible(*args)
        assert max(sizes) <= max(chunk, max(args[3]) + 1)
        assert len(sizes) > len(judged)  # fitting bounds were built


@pytest.mark.parametrize("chunk", [1 << 18, 64, 16, 4])
def test_scan_builds_no_fitting_bound_that_can_skip_nothing(chunk, monkeypatch):
    """Every utility is 0.0, so every chunk's smallest prefix total reaches
    the best found and no fitting bound could skip a prefix; the power limit
    keeps most grid entries from fitting beside a prefix, so only that test
    keeps the fitting masks from being built.  The scan builds one masked
    array per judged block and no other, and is the full scan's."""
    args = (np.zeros((4, 40)), np.full(40, 0.01), 0.01 * np.arange(1, 41),
            [40] * 4, 10.0, 0.6)
    want_u, want_picks = full_scan_best_feasible(*args)
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    masked = []
    where = np.where

    def recording_where(*args):
        masked.append(1)
        return where(*args)

    monkeypatch.setattr(np, "where", recording_where)
    judged = _record_judged(monkeypatch)
    got_u, got_picks = kernels.scan_best_feasible(*args)
    assert len(masked) == len(judged) > 0
    assert np.float64(got_u).tobytes() == np.float64(want_u).tobytes()
    assert got_picks.tolist() == want_picks.tolist()


def test_scan_bound_skips_states(monkeypatch):
    # remark1's 60-configuration grid offers 61**4 states, four targets of
    # the default grid 91**4; the bound leaves a small share to judge.
    sizes = _record_judged(monkeypatch)
    kernels.scan_best_feasible(*_oracle_scan_args(_remark1_instances()[-1]))
    assert sum(sizes) < 61**4 / 4
    sizes.clear()
    kernels.scan_best_feasible(*_oracle_scan_args(_default_grid_instances()[0]))
    assert sum(sizes) < 91**4 / 100
    # The fitting bound and the doubling chunks find the best early: the
    # remark1 grids judge 13,750, 76,664 and 543,266 states, four default-
    # grid targets 8,281.
    for instance, most in zip(_remark1_instances() + _default_grid_instances()[:1],
                              (30_000, 150_000, 700_000, 50_000)):
        sizes.clear()
        kernels.scan_best_feasible(*_oracle_scan_args(instance))
        assert sum(sizes) < most


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


@pytest.mark.parametrize("chunk", [1 << 18, 64, 1])
def test_knapsack_backtrack_keeps_the_argmax_tables_tie_rule(chunk, monkeypatch):
    """Ties the Pareto levels alone would resolve otherwise.  Task 0's
    configuration 0 (cost 2) is dominated by the cheaper, later 3 (cost 1)
    of the same utility; task 2's 2 (cost 3) by its 3 (cost 1).  Where the
    previous row is flat the dominated row ties its dominator, and the
    argmax table takes the lower index.  Task 1's 0 and 1 share cost 2, and
    1.0 ties 1.0 + 2**-52 on a row of value 2.0.  Task 1 may pick only
    configurations 0 and 1: the utilities of 100.0 at cost 1 beyond its
    ``ncfg`` must not enter its level maxima."""
    monkeypatch.setattr(kernels, "_TABLE_CHUNK", chunk)
    cost = np.array([2, 2, 3, 1, 2, 1])
    util = np.array([[2.0, 0.5, 0.25, 2.0, 0.3, 0.1],
                     [1.0, 1.0 + 2.0**-52, 100.0, 100.0, 100.0, 100.0],
                     [0.5, 0.25, 0.75, 0.75, 0.5, 0.25]])
    for budget in range(12):
        _assert_knapsack_matches(util, cost, [6, 2, 6], budget)
    dp, picks = kernels.fill_knapsack_table(util, cost, [6, 2, 6], 8)
    assert (dp[3], dp[8], picks.tolist()) == (3.0, 3.75, [0, 0, 2])


def _dp_kernel_args(n_targets, seed):
    """The arguments ``exact.optimal_allocation_dp`` passes to the knapsack
    kernel on a generated scenario under the default bounds and step."""
    calls = []
    fill = kernels.fill_knapsack_table

    def record(*args):
        calls.append(args)
        return fill(*args)

    instance = build_tracking_instance(generate_scenario(n_targets, seed),
                                       default_bounds(n_targets),
                                       DEFAULT_CONFIG_SPACE)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "fill_knapsack_table", record)
        exact.optimal_allocation_dp(instance)
    (args,) = calls
    return args


def test_knapsack_matches_argmax_table_at_real_size():
    util, cost, ncfg, budget = _dp_kernel_args(150, 11)
    assert util.shape == (150, 90) and budget == exact.DP_DEFAULT_CELLS
    _assert_knapsack_matches(util, cost, ncfg, budget)


def _pareto_level_count(util, cost, k, budget):
    """Cost levels among the first ``k`` affordable configurations whose best
    utility beats 0.0 and every cheaper level's, one at a time."""
    best = {}
    for c in range(k):
        if cost[c] <= budget:
            best[cost[c]] = max(best.get(cost[c], -np.inf), util[c])
    count, top = 0, 0.0
    for w in sorted(best):
        if best[w] > top:
            count, top = count + 1, best[w]
    return count


def test_knapsack_builds_one_row_per_pareto_cost_level(monkeypatch):
    """Each task's row is filled from its Pareto cost levels only: 15 rows
    of 90 configurations on a 150-target scenario, every row over the whole
    budget."""
    util, cost, ncfg, budget = _dp_kernel_args(150, 11)
    gathered = []
    view = np.lib.stride_tricks.sliding_window_view

    class Window(np.ndarray):
        def __getitem__(self, key):
            rows = np.ndarray.__getitem__(self, key)
            gathered.append(rows.shape)
            return rows.view(np.ndarray)

    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view",
                        lambda *args: view(*args).view(Window))
    kernels.fill_knapsack_table(util, cost, ncfg, budget)
    want = [_pareto_level_count(util[i], cost, k, budget) for i, k in enumerate(ncfg)]
    assert set(want) == {15}
    assert gathered == [(k, budget + 1) for k in want]


def test_eval_counter_accumulates():
    kernels.counters["config_evals"] = 0
    kernels.config_metrics(DEFAULT_CONFIG_SPACE, TARGET, BOUNDS)
    assert kernels.counters["config_evals"] == 90
