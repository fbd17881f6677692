import re

import numpy as np
import pytest

from helpers import (compound_of, raw_quotient, scalar_base_configuration,
                     task_utility)
from qram.classic import base_configuration
from qram.core import (Configuration, ConfigSpace, DEFAULT_CONFIG_SPACE,
                       ResourceBounds)
from qram.env import (CONFIG_WIDTH, DEFAULT_ENV_BOUNDS, EPISODE_LENGTH,
                      QUOTIENT_CAP, SITUATIONAL_WIDTH, TrackingEnv,
                      config_features, encode_state, quotient)
from qram.perf import Target, TargetType, generate_scenario
from qram.problem import target_block
from qram.rng import PortableRng


# Column blocks of an observation row: type one-hot, (range, speed), grid indices.
ONEHOT = slice(0, 3)
SITUATION = slice(3, SITUATIONAL_WIDTH)
CONFIG = slice(SITUATIONAL_WIDTH, SITUATIONAL_WIDTH + CONFIG_WIDTH)


def make_env(seed=5):
    return TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=seed)


def grid_index(state):
    """The default grid's index of an observation's configuration columns."""
    i_d, i_t, i_p = np.rint(state[CONFIG] * (5.0, 4.0, 2.0)).astype(int)
    return int(i_d * 15 + i_t * 3 + i_p)  # row-major over 6 x 5 x 3


def scalar_reward(c_in, c, target, bounds):
    """The step reward from the scalar model: the utility change over the
    magnitude of the compound change, clipped and scaled to [-1, 1]."""
    du = task_utility(c, target) - task_utility(c_in, target)
    dr = compound_of(c, bounds) - compound_of(c_in, bounds)
    return max(-QUOTIENT_CAP, min(QUOTIENT_CAP, quotient(du, abs(dr)))) / QUOTIENT_CAP


# -------------------------------------------------------------------- resets

def test_reset_is_deterministic():
    s1 = make_env().reset()
    s2 = make_env().reset()
    assert np.array_equal(s1, s2)


def test_observation_is_one_float64_row():
    target = Target(0, TargetType.FIGHTER, 75.0, 250.0)
    block = encode_state(DEFAULT_CONFIG_SPACE, [89], target_block([target]))
    assert block.shape == (1, SITUATIONAL_WIDTH + CONFIG_WIDTH)
    assert block.dtype == np.float64
    assert tuple(block[0]) == (0.0, 1.0, 0.0, 0.5, 0.25, 1.0, 1.0, 1.0)


def test_config_columns_are_the_feature_table_rows():
    # Each grid index divided by its axis length - 1, 0 on a one-point axis.
    target = Target(0, TargetType.FIGHTER, 75.0, 250.0)
    for space in (DEFAULT_CONFIG_SPACE,
                  ConfigSpace((100.0,), (2.0, 4.0), (1.0, 2.0, 4.0))):
        table = config_features(space)
        assert table.shape == (space.size, CONFIG_WIDTH)
        assert not table.flags.writeable
        for index, config in enumerate(space):
            axes = ((space.dwell_grid, config.dwell_length),
                    (space.tx_duration_grid, config.transmit_duration),
                    (space.tx_power_grid, config.transmit_power))
            expected = tuple(grid.index(x) / (len(grid) - 1)
                             if len(grid) > 1 else 0.0 for grid, x in axes)
            assert tuple(table[index]) == expected
            assert tuple(encode_state(space, [index], target_block([target]))[
                0, CONFIG]) == expected


def reference_row(space, index, target):
    """An observation row from the README's column definitions: the type
    one-hot (helicopter, fighter, missile), range / 150 km, speed / 1000 m/s,
    then the dwell, duration and power grid indices, each divided by its
    axis length - 1 (0 on a one-point axis)."""
    config = space.config_at(index)
    onehot = [1.0 if target.ttype is t else 0.0 for t in
              (TargetType.HELICOPTER, TargetType.FIGHTER, TargetType.MISSILE)]
    axes = ((space.dwell_grid, config.dwell_length),
            (space.tx_duration_grid, config.transmit_duration),
            (space.tx_power_grid, config.transmit_power))
    return (onehot + [target.range_km / 150.0, target.speed_mps / 1000.0]
            + [grid.index(x) / (len(grid) - 1) if len(grid) > 1 else 0.0
               for grid, x in axes])


def test_encode_state_block_matches_the_per_row_reference():
    # Every grid index once, in a scrambled order, paired with targets of
    # all three types; the block equals the reference rows bit for bit.
    targets = list(generate_scenario(40, 3).targets)
    assert {t.ttype for t in targets} == set(TargetType)
    for space in (DEFAULT_CONFIG_SPACE,
                  ConfigSpace((100.0,), (2.0, 4.0), (1.0, 2.0, 4.0))):
        indices = [(7 * k + 3) % space.size for k in range(space.size)]
        paired = [targets[k % len(targets)] for k in range(space.size)]
        block = encode_state(space, indices, target_block(paired))
        want = np.array([reference_row(space, index, target)
                         for index, target in zip(indices, paired)])
        assert block.shape == want.shape == (space.size, 8)
        assert block.tobytes() == want.tobytes()


def test_encode_state_pairs_indices_with_targets():
    # An empty batch is a block of no rows; unpaired inputs raise.
    block = encode_state(DEFAULT_CONFIG_SPACE, [], target_block([]))
    assert block.shape == (0, 8) and block.dtype == np.float64
    target = Target(0, TargetType.FIGHTER, 75.0, 250.0)
    for indices, targets in (([0, 1], [target]), ([0], [target, target])):
        with pytest.raises(ValueError):
            encode_state(DEFAULT_CONFIG_SPACE, indices, target_block(targets))


def test_encode_state_rejects_an_index_off_the_grid():
    # A negative index would otherwise wrap to the end of the grid, and a
    # fractional one would be truncated.  The message names the first bad
    # index of the batch, in config_at's words.
    space = DEFAULT_CONFIG_SPACE
    targets = [Target(k, TargetType.FIGHTER, 75.0, 250.0) for k in range(3)]
    for bad in (-1, space.size, 2.5, True):
        want = f"configuration index {bad} out of range [0, {space.size})"
        with pytest.raises(IndexError, match=re.escape(want)):
            space.config_at(bad)
        for pos in range(3):
            indices = [4, 5, 6]
            indices[pos] = bad
            if pos < 2:
                indices[2] = space.size + 5  # a later bad index is not named
            with pytest.raises(IndexError) as err:
                encode_state(space, indices, target_block(targets))
            assert str(err.value) == want, (bad, pos)


def test_reset_starts_at_cheapest_config():
    env = make_env(11)
    state = env.reset()
    base, = base_configuration(env.space, target_block([env.target]), env.bounds)
    assert base == scalar_base_configuration(env.space, env.target, env.bounds)
    assert grid_index(state) == base
    i_d, rest = divmod(base, 15)  # row-major over 6 x 5 x 3
    i_t, i_p = divmod(rest, 3)
    assert tuple(state[CONFIG]) == (i_d / 5.0, i_t / 4.0, i_p / 2.0)


def test_reset_covers_the_situational_square():
    env = make_env(17)
    lo = np.array([1.0, 1.0])
    hi = np.array([0.0, 0.0])
    for _ in range(10_000):
        s = env.reset()
        feats = s[SITUATION]
        assert np.all(feats >= 0.0) and np.all(feats <= 1.0)
        lo = np.minimum(lo, feats)
        hi = np.maximum(hi, feats)
    assert lo[0] < 0.05 and hi[0] > 0.95      # range feature
    assert lo[1] < 0.02 and hi[1] > 0.95      # speed feature


def test_state_features_bounded():
    env = make_env(23)
    for _ in range(200):
        s = env.reset()
        for block in (s[ONEHOT], s[CONFIG], s[SITUATION]):
            assert all(0.0 <= x <= 1.0 for x in block)
        assert sum(s[ONEHOT]) == 1.0


# ----------------------------------------------------------------- quotients

def test_quotient_arithmetic():
    assert quotient(0.1, 0.05) == 2.0
    assert quotient(0.0, 0.0) == 0.0
    assert quotient(1e-15, 0.0) == 0.0         # both below thresholds
    assert quotient(0.5, 1e-12) == QUOTIENT_CAP
    assert quotient(-0.5, 1e-12) == -QUOTIENT_CAP


def test_raw_quotient_same_config_is_zero():
    target = Target(0, TargetType.FIGHTER, 60.0, 300.0)
    c = DEFAULT_CONFIG_SPACE.config_at(40)
    assert raw_quotient(c, c, target, DEFAULT_ENV_BOUNDS) == 0.0


def test_raw_quotient_argmax_matches_exhaustive_scan():
    target = Target(0, TargetType.MISSILE, 45.0, 700.0)
    bounds = DEFAULT_ENV_BOUNDS
    base = DEFAULT_CONFIG_SPACE.config_at(
        base_configuration(DEFAULT_CONFIG_SPACE, [target], bounds)[0])
    # independent scan: recompute the quotient per config from the model
    best, best_q = None, -np.inf
    for config in DEFAULT_CONFIG_SPACE:
        du = task_utility(config, target) - task_utility(base, target)
        dr = compound_of(config, bounds) - compound_of(base, bounds)
        if abs(dr) < 1e-9:
            q = 0.0 if abs(du) < 1e-12 else np.sign(du) * QUOTIENT_CAP
        else:
            q = du / dr
        if q > best_q:
            best, best_q = config, q
    quotients = [raw_quotient(base, c, target, bounds)
                 for c in DEFAULT_CONFIG_SPACE]
    assert max(quotients) == best_q
    assert DEFAULT_CONFIG_SPACE.config_at(int(np.argmax(quotients))) == best


def test_training_quotient_sign_flips_for_downgrades():
    # The reward divides by the compound moved: an upgrade scores its raw
    # quotient, and the downgrade back scores the same, negated.
    bounds = DEFAULT_ENV_BOUNDS
    cheap = Configuration(1100.0, 2.0, 1.0)
    rich = Configuration(100.0, 10.0, 4.0)
    space = DEFAULT_CONFIG_SPACE
    env = make_env(43)
    assert space.config_at(grid_index(env.reset())) == cheap
    target = env.target
    up = env.step(list(space).index(rich)).reward
    down = env.step(list(space).index(cheap)).reward
    assert up > 0 > down
    assert up == raw_quotient(cheap, rich, target, bounds) / QUOTIENT_CAP
    assert down == -raw_quotient(rich, cheap, target, bounds) / QUOTIENT_CAP


# --------------------------------------------------------------------- steps

def test_step_noop_action_rewards_zero():
    env = make_env(3)
    action = grid_index(env.reset())
    assert env.step(action).reward == 0.0


@pytest.mark.parametrize("bounds", [DEFAULT_ENV_BOUNDS,
                                    ResourceBounds((0.15, 0.5), (1.0, 1.0))],
                         ids=["default", "tight"])
def test_step_rewards_match_the_scalar_model(bounds):
    # Every action from the reset start, then a second step from there, for
    # several seeded targets: each reward equals the scalar model's bit for
    # bit.
    space = DEFAULT_CONFIG_SPACE
    for seed in range(6):
        for action in range(space.size):
            env = TrackingEnv(space, bounds, seed=seed)
            start = space.config_at(grid_index(env.reset()))
            config = space.config_at(action)
            assert env.step(action).reward == scalar_reward(
                start, config, env.target, bounds), (seed, action)
            nxt = (7 * action + seed) % space.size
            assert env.step(nxt).reward == scalar_reward(
                config, space.config_at(nxt), env.target, bounds), (seed, action)


def test_step_caps_the_reward():
    env = make_env(29)
    found = False
    for _ in range(300):
        env.reset()
        result = env.step(60)
        if result.reward == 1.0:
            found = True
            break
    assert found, "expected at least one capped transition"


def test_rewards_always_in_unit_interval():
    env = make_env(31)
    rng = PortableRng(0)
    for _ in range(200):
        env.reset()
        for _ in range(EPISODE_LENGTH):
            r = env.step(rng.randint(env.space.size)).reward
            assert -1.0 <= r <= 1.0


def test_episode_is_three_steps_and_done_contract():
    env = make_env(1)
    env.reset()
    assert not env.step(0).done
    assert not env.step(1).done
    assert env.step(2).done
    with pytest.raises(RuntimeError):
        env.step(0)
    env.reset()
    with pytest.raises(ValueError):
        env.step(900)
    with pytest.raises(ValueError):
        env.step(2.5)
    with pytest.raises(ValueError):
        env.step(True)


def test_return_is_dominated_by_first_reward():
    gamma = 0.005
    env = make_env(37)
    rng = PortableRng(1)
    for _ in range(100):
        env.reset()
        rewards = [env.step(rng.randint(env.space.size)).reward
                   for _ in range(EPISODE_LENGTH)]
        ret = rewards[0] + gamma * rewards[1] + gamma**2 * rewards[2]
        assert abs(ret - rewards[0]) <= gamma * (1 + gamma)


def test_golden_trajectory():
    # Frozen from a seeded run; guards the whole mechanics end to end.
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=123)
    state = env.reset()
    assert tuple(state[ONEHOT]) == (0.0, 0.0, 1.0)
    assert tuple(state[CONFIG]) == (1.0, 0.0, 0.0)
    assert tuple(state[SITUATION]) == (0.36319617683491834, 0.9779928970018673)
    r1 = env.step(40)
    assert r1.reward == 0.471597045936412 and not r1.done
    assert tuple(r1.next_state[CONFIG]) == (0.4, 0.75, 0.5)
    r2 = env.step(13)
    assert r2.reward == 0.011773933558855193 and not r2.done
    r3 = env.step(89)
    assert r3.reward == -0.0016732043533724422 and r3.done


def test_target_frozen_within_episode():
    env = make_env(41)
    s0 = env.reset()
    target_before = env.target
    for a in (5, 50, 85):
        s = env.step(a).next_state
        assert tuple(s[ONEHOT]) == tuple(s0[ONEHOT])
        assert tuple(s[SITUATION]) == tuple(s0[SITUATION])
    assert env.target == target_before
