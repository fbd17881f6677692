import math

import pytest

from helpers import (QualityValue, quality, snr, task_utility,
                     utility_from_quality)
from qram.core import Configuration, DEFAULT_CONFIG_SPACE
from qram.perf import (ERROR_HALF_M, Scenario, Target, TargetType,
                       TYPE_SPEED_RANGE, TYPE_UTILITY_WEIGHT, generate_scenario)

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
