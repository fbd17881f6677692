import math

import pytest

from helpers import (QualityValue, quality, snr, task_utility,
                     utility_from_quality)
from qram.core import Configuration, DEFAULT_CONFIG_SPACE, _json_int
from qram.perf import (ERROR_HALF_M, Scenario, Target, TargetType,
                       TYPE_SPEED_RANGE, TYPE_UTILITY_WEIGHT, generate_scenario)
from qram.rng import PortableRng

CAL_CONFIG = Configuration(500.0, 6.0, 2.0)


def fighter(range_km=50.0, speed=200.0, tid=0):
    return Target(tid, TargetType.FIGHTER, range_km, speed)


# ---------------------------------------------------------------- scenarios

def test_generate_scenario_deterministic():
    assert generate_scenario(4, 1) == generate_scenario(4, 1)
    assert generate_scenario(4, 1) != generate_scenario(4, 2)


def test_generate_scenario_rejects_empty():
    with pytest.raises(ValueError):
        generate_scenario(0, 1)


def test_generate_scenario_distributions():
    scenario = generate_scenario(1000, 7)
    seen = {t: [] for t in TargetType}
    for target in scenario.targets:
        assert 5.0 <= target.range_km <= 150.0
        lo, hi = TYPE_SPEED_RANGE[target.ttype]
        assert lo <= target.speed_mps <= hi
        seen[target.ttype].append(target.speed_mps)
    for ttype, speeds in seen.items():
        assert len(speeds) > 200  # roughly uniform over the three types
        lo, hi = TYPE_SPEED_RANGE[ttype]
        span = hi - lo
        assert min(speeds) < lo + 0.1 * span
        assert max(speeds) > hi - 0.1 * span


def test_generate_scenario_unique_ids():
    scenario = generate_scenario(150, 3)
    assert len({t.id for t in scenario.targets}) == 150


def test_scenario_json_round_trip():
    scenario = generate_scenario(5, 11)
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def _scenario_per_row(d):
    """The scenario reader as one Target per row: a bad row raises its own
    error, the first in file order, before the seed and the id check."""
    if d.get("format") != 1:
        raise ValueError(f"unsupported scenario format {d.get('format')!r}")
    return Scenario(tuple(Target.from_dict(t) for t in d["targets"]),
                    seed=_json_int(d, "seed"))


def _outcome(read, doc):
    try:
        return read(doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return type(exc), str(exc)


#: Field values a scenario file may hold, valid or not, by field.
_FIELD_VALUES = {
    "id": [1.5, True, "3", -4, 10**30, 0, None],
    "ttype": ["Tank", None, ["Fighter"], "fighter", "Missile", "Helicopter"],
    "range_km": [True, "50", math.nan, math.inf, -1, 0, -0.0, 10**400, 10**300,
                 1e-300, 5, 149.5, None],
    "speed_mps": [0, 100, 100.0, 450, 1000, 1000.0001, 300.0, math.nan, -0.0,
                  "x", 10**400, 60.5],
}


def test_scenario_columns_read_as_the_per_row_check():
    # Each document has a few random faults, or none: the column reader
    # returns the per-row reader's scenario, or raises its error.
    rng = PortableRng(8)
    fields = list(_FIELD_VALUES)
    kinds = set()
    for trial in range(400):
        doc = generate_scenario(6, trial).to_dict()
        rows = doc["targets"]
        for _ in range(rng.randint(3)):
            row, fault = rng.randint(6), rng.randint(len(fields) + 4)
            if fault == len(fields) + 2:
                doc["seed"] = [1.5, "x", True][rng.randint(3)]
            elif not isinstance(rows[row], dict):
                continue
            elif fault < len(fields):
                values = _FIELD_VALUES[fields[fault]]
                rows[row][fields[fault]] = values[rng.randint(len(values))]
            elif fault == len(fields):
                rows[row].pop(fields[rng.randint(len(fields))], None)
            elif fault == len(fields) + 1:
                rows[row] = [5, [1], "x", None][rng.randint(4)]
            else:
                rows[row]["id"] = rows[row - 1].get("id") if isinstance(
                    rows[row - 1], dict) else 0
        want = _outcome(_scenario_per_row, doc)
        got = _outcome(Scenario.from_dict, doc)
        assert got == want
        kinds.add(type(want).__name__ if isinstance(want, Scenario)
                  else want[0].__name__)
    assert kinds == {"Scenario", "ValueError", "KeyError", "TypeError"}


def test_scenario_holds_columns_and_builds_targets_on_request():
    scenario = generate_scenario(5, 11)
    targets = scenario.targets
    assert [t.id for t in targets] == list(scenario.ids) == [0, 1, 2, 3, 4]
    assert tuple(t.ttype for t in targets) == scenario.types
    assert tuple(t.range_km for t in targets) == scenario.range_km
    assert tuple(t.speed_mps for t in targets) == scenario.speed_mps
    assert Scenario(targets, seed=11) == scenario
    columns = Scenario.from_dict(scenario.to_dict())
    assert columns == scenario and columns.targets == targets
    assert Scenario.from_dict({"format": 1, "seed": 0, "targets": []}).ids == ()


def test_target_speed_validation():
    with pytest.raises(ValueError):
        Target(0, TargetType.MISSILE, 50.0, 100.0)  # too slow for a missile


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_target_rejects_non_finite_range(bad):
    with pytest.raises(ValueError):
        fighter(range_km=bad)


# ----------------------------------------------------------------- the model

def test_snr_linear_in_power():
    t = fighter()
    c1 = Configuration(500.0, 6.0, 1.0)
    c2 = Configuration(500.0, 6.0, 2.0)
    assert snr(c2, t) == pytest.approx(2.0 * snr(c1, t), rel=1e-15)


def test_snr_fourth_power_range_law():
    c = CAL_CONFIG
    assert snr(c, fighter(100.0)) == pytest.approx(snr(c, fighter(50.0)) / 16.0,
                                                   rel=1e-12)


def test_snr_calibration_point():
    # Recompute the constant from its defining point.
    k = 20.0 * 50.0**4 / (2.0 * 6.0)
    expected = k * 2.0 * 6.0 / 50.0**4
    assert snr(CAL_CONFIG, fighter()) == pytest.approx(expected, rel=1e-12)
    assert snr(CAL_CONFIG, fighter()) == pytest.approx(20.0, rel=1e-12)


def test_quality_zero_speed_is_pure_measurement_error():
    hover = Target(1, TargetType.HELICOPTER, 50.0, 0.0)
    q = quality(CAL_CONFIG, hover)
    assert q.track_error == 100.0 / math.sqrt(snr(CAL_CONFIG, hover))


def test_quality_snr_quadrupling_halves_error():
    t = fighter(speed=200.0)
    c1 = Configuration(500.0, 2.0, 2.0)
    c4 = Configuration(500.0, 8.0, 2.0)  # 4x transmit energy
    assert quality(c4, t).track_error == pytest.approx(
        quality(c1, t).track_error / 2.0, rel=1e-12)


def test_quality_worked_example():
    # sigma = 100/sqrt(20), growth = sqrt(1 + 0.1^2)
    q = quality(CAL_CONFIG, fighter())
    assert q.track_error == pytest.approx((100.0 / math.sqrt(20.0))
                                          * math.sqrt(1.01), rel=1e-12)
    assert q.track_error == pytest.approx(22.47, abs=0.01)


def test_utility_limits_and_midpoint():
    missile = Target(0, TargetType.MISSILE, 50.0, 600.0)
    tiny = utility_from_quality(QualityValue(1e-9), missile)
    assert tiny == pytest.approx(TYPE_UTILITY_WEIGHT[TargetType.MISSILE], rel=1e-6)
    half = utility_from_quality(QualityValue(ERROR_HALF_M), missile)
    assert half == pytest.approx(1.5 / 2.0, rel=1e-12)


def test_utility_worked_example():
    missile = Target(0, TargetType.MISSILE, 50.0, 600.0)
    u = utility_from_quality(QualityValue(22.47), missile)
    assert u == pytest.approx(1.035, abs=1e-3)


def test_task_utility_is_the_composition():
    t = fighter()
    for config in (CAL_CONFIG, Configuration(1100.0, 2.0, 1.0)):
        assert task_utility(config, t) == utility_from_quality(quality(config, t), t)


def test_task_utility_monotone_over_full_grid():
    # Non-decreasing in power and transmit duration at fixed dwell, checked
    # exhaustively over all 90 cells for a spread of targets.
    targets = [fighter(15.0, 150.0, 0), fighter(60.0, 400.0, 1),
               Target(2, TargetType.MISSILE, 120.0, 900.0),
               Target(3, TargetType.HELICOPTER, 40.0, 60.0)]
    space = DEFAULT_CONFIG_SPACE
    for target in targets:
        for dwell in space.dwell_grid:
            for tx_i, tx in enumerate(space.tx_duration_grid):
                for pw_i, pw in enumerate(space.tx_power_grid):
                    u = task_utility(Configuration(dwell, tx, pw), target)
                    if pw_i + 1 < len(space.tx_power_grid):
                        up = Configuration(dwell, tx, space.tx_power_grid[pw_i + 1])
                        assert task_utility(up, target) >= u
                    if tx_i + 1 < len(space.tx_duration_grid):
                        up = Configuration(dwell, space.tx_duration_grid[tx_i + 1], pw)
                        assert task_utility(up, target) >= u


def test_task_utility_bounded():
    scenario = generate_scenario(50, 13)
    for target in scenario.targets:
        for config in DEFAULT_CONFIG_SPACE:
            u = task_utility(config, target)
            assert 0.0 < u <= 1.5


def test_type_weights_factor_out():
    fast = 320.0  # legal for both fighters and missiles
    a = Target(0, TargetType.FIGHTER, 80.0, fast)
    b = Target(1, TargetType.MISSILE, 80.0, fast)
    ua = task_utility(CAL_CONFIG, a)
    ub = task_utility(CAL_CONFIG, b)
    assert ub / ua == pytest.approx(1.5 / 1.2, rel=1e-12)
