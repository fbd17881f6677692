import base64
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import train_agent
from helpers import (MALFORMED_WEIGHT_HEADERS, allocating_train, with_arrays,
                     zero_network)
from qram import agent
from qram.agent import (AgentParams, TrainingError, Transition, UpdateBuffers,
                        WeightFormatError, a2c_update, forward, init_params, load,
                        loss_and_gradients, sample_action, save, softmax,
                        train, _forward_batch, _shapes)
from qram.core import DEFAULT_CONFIG_SPACE
from qram.env import DEFAULT_ENV_BOUNDS, TrackingEnv, encode_state
from qram.perf import Target, TargetType
from qram.problem import target_block
from qram.rng import PortableRng

#: ``qram train --steps 30000 --seed 1``, frozen for the benchmark.
FROZEN_WEIGHTS = (Path(__file__).resolve().parent.parent / "perfbench" / "weights"
                  / "agent-seed1-30k.json")

FIXED_STATE = encode_state(DEFAULT_CONFIG_SPACE, [0], target_block(
    [Target(0, TargetType.FIGHTER, 75.0, 250.0)]))[0]


def rand_state(rng: PortableRng) -> np.ndarray:
    """Random observation row; the draws come in the order one-hot, grid
    features, (range, speed), which the seeded toy cases depend on."""
    onehot = [0.0, 0.0, 0.0]
    onehot[rng.randint(3)] = 1.0
    config_features = [rng.random(), rng.random(), rng.random()]
    situational = [rng.random(), rng.random()]
    return np.array(onehot + situational + config_features)


def zero_mean_squares(params: AgentParams) -> np.ndarray:
    return np.zeros_like(params.flat)


def toy_case(seed: int):
    """Small random network plus a 3-step trajectory for gradient probes."""
    rng = PortableRng(seed)
    hidden = 3 + rng.randint(6)
    n_actions = 4 + rng.randint(3)
    params = init_params(rng, hidden=hidden, n_actions=n_actions)
    trajectory = [Transition(rand_state(rng), rng.randint(n_actions),
                             rng.uniform(-1.0, 1.0)) for _ in range(3)]
    return params, trajectory


def kink_free(params, trajectory, margin=1e-3) -> bool:
    """Finite differences are meaningless next to a rectifier kink; only
    probe cases whose pre-activations keep a safe distance."""
    _, _, cache = _forward_batch(params, np.stack([t.state for t in trajectory]))
    (_, _, z1, _, z2, _, zc, _, _, zt, _) = cache
    return all(np.abs(z).min() > margin for z in (z1, z2, zc, zt))


def fd_worst_error(params, trajectory, h=1e-5) -> float:
    _, grads, metrics = loss_and_gradients(params, trajectory)
    adv = metrics["advantages"]
    worst = 0.0
    for i in range(params.flat.size):
        plus = params.flat.copy()
        plus[i] += h
        lp, _, _ = loss_and_gradients(replace(params, flat=plus), trajectory,
                                      advantages=adv)
        minus = params.flat.copy()
        minus[i] -= h
        lm, _, _ = loss_and_gradients(replace(params, flat=minus), trajectory,
                                      advantages=adv)
        numeric = (lp - lm) / (2 * h)
        worst = max(worst, abs(grads.flat[i] - numeric)
                    / max(abs(grads.flat[i]), abs(numeric), 1e-6))
    return worst


# -------------------------------------------------------------------- forward

def test_zero_params_give_uniform_policy_and_zero_value():
    params = zero_network()
    logits, value = forward(params, FIXED_STATE)
    assert np.all(logits == 0.0)
    assert value == 0.0
    assert np.allclose(softmax(logits), 1.0 / 90.0)


def test_forward_deterministic():
    params = init_params(PortableRng(3))
    l1, v1 = forward(params, FIXED_STATE)
    l2, v2 = forward(params, FIXED_STATE)
    assert np.array_equal(l1, l2) and v1 == v2


def test_forward_golden_outputs():
    params = init_params(PortableRng(7))
    logits, value = forward(params, FIXED_STATE)
    assert logits[0] == 0.02935521276686872
    assert logits[1] == 0.06584729823421429
    assert logits[2] == 0.019953109673457103
    assert logits[3] == -0.08187420078889943
    assert value == 0.014646929135126798
    assert float(logits.sum()) == 0.10985836052619427


def test_forward_rejects_rows_the_network_does_not_read():
    # An 8-value row fits a 4+4 network by total width, but its split
    # (5 situational + 3 configuration columns) does not.
    params = init_params(PortableRng(1), situational_in=4, config_in=4)
    with pytest.raises(ValueError, match="4\\+4"):
        forward(params, FIXED_STATE)
    with pytest.raises(ValueError):
        forward(init_params(PortableRng(1)), FIXED_STATE[:7])


def test_forward_takes_a_stack_of_rows():
    # 150 rows run as three blocks; an empty stack gives empty outputs.
    params = init_params(PortableRng(3))
    target = Target(0, TargetType.HELICOPTER, 80.0, 60.0)
    rows = encode_state(DEFAULT_CONFIG_SPACE, [i % 90 for i in range(0, 750, 5)],
                        target_block([target] * 150))
    assert len(rows) > 2 * agent.FORWARD_BLOCK
    logits, values = forward(params, rows)
    assert logits.shape == (150, params.n_actions) and values.shape == (150,)
    for row, row_logits, value in zip(rows, logits, values):
        single, single_value = forward(params, row)
        assert np.allclose(row_logits, single, rtol=1e-12, atol=1e-15)
        assert math.isclose(value, single_value, rel_tol=1e-12, abs_tol=1e-15)
    empty_logits, empty_values = forward(params, rows[:0])
    assert empty_logits.shape == (0, params.n_actions) and empty_values.shape == (0,)
    with pytest.raises(ValueError):
        forward(params, rows[None])
    with pytest.raises(ValueError):
        forward(params, rows[:, :7])


def test_softmax_normalised():
    params = init_params(PortableRng(9))
    logits, _ = forward(params, FIXED_STATE)
    assert abs(softmax(logits).sum() - 1.0) < 1e-12


def test_head_separation():
    params = init_params(PortableRng(11))
    logits, value = forward(params, FIXED_STATE)
    policy_only = with_arrays(params, w_policy=params.w_policy + 0.5,
                              b_policy=params.b_policy - 0.25)
    l2, v2 = forward(policy_only, FIXED_STATE)
    assert v2 == value and not np.array_equal(l2, logits)
    value_only = with_arrays(params, w_value=params.w_value * 2.0)
    l3, v3 = forward(value_only, FIXED_STATE)
    assert np.array_equal(l3, logits) and v3 != value


# --------------------------------------------------------------------- buffer

def test_named_arrays_are_views_of_flat_in_layout_order():
    params, _ = toy_case(3)
    layout = _shapes(params.situational_in, params.config_in, params.hidden,
                     params.n_actions)
    assert [name for name, _ in params.named_arrays()] == [n for n, _ in layout]
    offset = 0
    for (name, array), (_, shape) in zip(params.named_arrays(), layout):
        assert array.shape == shape, name
        assert np.shares_memory(array, params.flat), name
        assert array.__array_interface__["data"][0] == (
            params.flat.__array_interface__["data"][0] + 8 * offset), name
        offset += math.prod(shape)
    assert offset == params.flat.size


def test_save_payload_is_the_flat_buffer(tmp_path):
    params = init_params(PortableRng(21))
    path = tmp_path / "weights.json"
    save(params, path)
    payload = base64.b64decode(json.loads(path.read_text())["weights_b64"])
    assert payload == params.flat.astype("<f8").tobytes()


def test_params_reject_a_buffer_of_the_wrong_size():
    params = init_params(PortableRng(1), hidden=4, n_actions=5)
    for size in (params.flat.size - 1, params.flat.size + 1, 0):
        with pytest.raises(ValueError, match="expected"):
            replace(params, flat=np.zeros(size))
    with pytest.raises(ValueError, match="expected"):
        replace(params, flat=params.flat.reshape(1, -1))


def test_update_leaves_its_inputs_unchanged():
    params, traj = toy_case(8)
    mean_square = np.full_like(params.flat, 0.25)
    flat_before, ms_before = params.flat.tobytes(), mean_square.tobytes()
    new_params, new_ms, _ = a2c_update(params, mean_square, traj)
    assert params.flat.tobytes() == flat_before
    assert mean_square.tobytes() == ms_before
    assert not np.shares_memory(new_params.flat, params.flat)
    assert not np.shares_memory(new_ms, mean_square)
    assert not np.array_equal(new_params.flat, params.flat)


def test_update_into_caller_buffers_matches_a_fresh_update():
    params, traj = toy_case(8)
    mean_square = np.full_like(params.flat, 0.25)
    fresh_params, fresh_ms, fresh_metrics = a2c_update(params, mean_square, traj)
    # Stale contents in every buffer must not leak into the outputs.
    out = UpdateBuffers.like(params)
    for buffer in (out.params.flat, out.mean_square, out.grads.flat, out.scratch):
        buffer.fill(np.nan)
    new_params, new_ms, metrics = a2c_update(params, mean_square, traj, out=out)
    assert new_params is out.params and new_ms is out.mean_square
    assert new_params.flat.tobytes() == fresh_params.flat.tobytes()
    assert new_ms.tobytes() == fresh_ms.tobytes()
    assert metrics["loss"] == fresh_metrics["loss"]
    for output in (new_params.flat, new_ms):
        for given in (params.flat, mean_square):
            assert not np.shares_memory(output, given)
    # The same buffers serve a second update, as in the train loop.
    again, again_ms, _ = a2c_update(params, mean_square, traj, out=out)
    assert again.flat.tobytes() == fresh_params.flat.tobytes()
    assert again_ms.tobytes() == fresh_ms.tobytes()


# -------------------------------------------------------------------- actions

def test_sample_action_uniform_statistics():
    logits = np.zeros(4)
    rng = PortableRng(13)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[sample_action(logits, rng)] += 1
    expected = n / 4
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_sample_action_certain_choice():
    logits = np.zeros(10)
    logits[6] = 1000.0
    rng = PortableRng(17)
    assert all(sample_action(logits, rng) == 6 for _ in range(50))


def _loop_sample(logits, rng):
    """The draw as a running sum over the probabilities, one at a time."""
    probs = softmax(logits)
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


class _FixedDraw:
    """Stands in for the rng: ``random`` returns one given value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_action_matches_the_running_sum_loop():
    gen = np.random.default_rng(11)
    for seed in range(300):
        logits = gen.normal(size=90) * gen.uniform(0.1, 40.0)
        a, b = PortableRng(seed), PortableRng(seed)
        assert [sample_action(logits, a) for _ in range(5)] \
            == [_loop_sample(logits, b) for _ in range(5)]
    # At a partial sum, just below it, and beyond a total that rounds below
    # 1; NaN logits fall to the last index in both.
    logits = gen.normal(size=90)
    partial = np.cumsum(softmax(logits))
    draws = [0.0, float(np.nextafter(partial[-1], 2.0)), 1.0 - 2**-53]
    for s in partial[:-1]:
        draws += [float(s), float(np.nextafter(s, -1.0))]
    for u in draws:
        assert sample_action(logits, _FixedDraw(u)) \
            == _loop_sample(logits, _FixedDraw(u)), u
    with np.errstate(invalid="ignore"):
        nan = np.full(90, np.nan)
        assert sample_action(nan, _FixedDraw(0.3)) \
            == _loop_sample(nan, _FixedDraw(0.3)) == 89


# -------------------------------------------------------------------- updates

def test_zero_episode_keeps_zero_params():
    # Zero rewards on zero params: returns, values and advantages all vanish
    # and a uniform policy sits at the entropy maximum, so nothing moves.
    params = zero_network()
    traj = [Transition(rand_state(PortableRng(i)), 0, 0.0) for i in range(3)]
    new_params, _, metrics = a2c_update(params, zero_mean_squares(params), traj)
    assert metrics["policy_loss"] == 0.0
    assert metrics["value_loss"] == 0.0
    for _, array in new_params.named_arrays():
        assert np.all(array == 0.0)


def test_update_is_deterministic():
    params, traj = toy_case(5)
    ms = zero_mean_squares(params)
    p1, o1, m1 = a2c_update(params, ms, traj)
    p2, o2, m2 = a2c_update(params, ms, traj)
    for (n1, a1), (_, a2) in zip(p1.named_arrays(), p2.named_arrays()):
        assert np.array_equal(a1, a2), n1
    assert m1["loss"] == m2["loss"]


def test_update_rejects_wrong_episode_length():
    params, traj = toy_case(6)
    with pytest.raises(ValueError):
        a2c_update(params, zero_mean_squares(params), traj[:2])


def test_gradients_match_finite_differences():
    checked = 0
    seed = 0
    while checked < 10:
        params, traj = toy_case(seed)
        seed += 1
        if not kink_free(params, traj):
            continue
        assert fd_worst_error(params, traj) < 1e-4
        checked += 1


# ------------------------------------------------------------------- training

def test_train_zero_steps_returns_init():
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=2)
    params, curve = train(env, 0, seed=2)
    reference = init_params(PortableRng(2), n_actions=90)
    for (name, a), (_, b) in zip(params.named_arrays(), reference.named_arrays()):
        assert np.array_equal(a, b), name
    assert curve == []
    with pytest.raises(ValueError, match="non-negative"):
        train(env, -1, seed=2)


def test_train_is_seed_deterministic():
    def run():
        env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=4)
        return train(env, 300, seed=4)

    p1, c1 = run()
    p2, c2 = run()
    for (name, a), (_, b) in zip(p1.named_arrays(), p2.named_arrays()):
        assert np.array_equal(a, b), name
    assert c1 == c2


def test_train_matches_a_loop_that_allocates_every_update():
    # The train loop swaps two sets of buffers; ten updates cover both
    # parities of the swap.
    def env():
        return TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=9)

    params, curve = train(env(), 30, seed=9)
    ref_params, _, ref_curve = allocating_train(env(), 30, seed=9)
    assert params.flat.tobytes() == ref_params.flat.tobytes()
    assert [(c.mean_reward, c.loss) for c in curve] == ref_curve


def test_train_curve_row_per_episode():
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=6)
    _, curve = train(env, 99, seed=6)
    assert len(curve) == 33
    assert [c.episode for c in curve] == list(range(33))
    assert all(c.step == (c.episode + 1) * 3 for c in curve)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_rejects_diverged_weights(monkeypatch):
    # A learning rate of 1e308 overflows the one RMSprop step; the loss of
    # that episode was finite, so only a check of the final weights sees it.
    monkeypatch.setattr(agent, "LEARNING_RATE", 1e308)
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=1)
    with pytest.raises(TrainingError, match="non-finite"):
        train(env, 3, seed=1)


@pytest.mark.slow
def test_desk_scale_training_improves_rewards(trained_agent):
    # Mean episode reward must rise between the first and last training
    # decile; seed 1 comes from the shared fixture, 2 and 3 run here.
    curves = [trained_agent[1]]
    for seed in (2, 3):
        curves.append(train_agent(seed)[1])
    for curve in curves:
        rewards = np.array([c.mean_reward for c in curve])
        decile = len(rewards) // 10
        assert rewards[-decile:].mean() > rewards[:decile].mean()


@pytest.mark.slow
def test_desk_scale_training_reproduces_the_frozen_weights(trained_agent,
                                                           tmp_path):
    # The shared seed-1 run, saved as ``qram train`` saves it, must be the
    # benchmark's frozen weight file byte for byte.
    path = tmp_path / "weights.json"
    save(trained_agent[0], path, config_space=DEFAULT_CONFIG_SPACE)
    assert path.read_bytes() == FROZEN_WEIGHTS.read_bytes()


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    params = init_params(PortableRng(21))
    path = tmp_path / "weights.json"
    save(params, path, config_space=DEFAULT_CONFIG_SPACE)
    loaded, space = load(path)
    assert space == DEFAULT_CONFIG_SPACE
    for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
        assert np.array_equal(a, b), name


def test_weight_payload_golden_checksum(tmp_path):
    params = init_params(PortableRng(7))
    path = tmp_path / "weights.json"
    save(params, path, config_space=DEFAULT_CONFIG_SPACE)
    payload = json.loads(path.read_text())["weights_b64"]
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == ("6a3ffaf1f93051bcf0ee63776afa8a88"
                      "abf1f31cd202e847bb93e80dff214c29")


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text("not json at all")
    with pytest.raises(WeightFormatError):
        load(path)

    params = init_params(PortableRng(1))
    save(params, path)
    doc = json.loads(path.read_text())
    doc["format"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError):
        load(path)

    save(params, path)
    doc = json.loads(path.read_text())
    doc["architecture"]["hidden"] = 42
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError):
        load(path)


@pytest.mark.parametrize("edit", MALFORMED_WEIGHT_HEADERS.values(),
                         ids=MALFORMED_WEIGHT_HEADERS.keys())
def test_load_rejects_malformed_headers(edit, tmp_path):
    path = tmp_path / "weights.json"
    save(init_params(PortableRng(1)), path, config_space=DEFAULT_CONFIG_SPACE)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError):
        load(path)


def test_load_rejects_negative_sizes_before_reshaping(tmp_path):
    # n_actions = -90 turns the 40391 weights of a 5+3, 100-unit, 90-action
    # network into 40391 - 2 * (100 * 90 + 90) by a naive count; a payload
    # of that size must still be refused as a header error.
    path = tmp_path / "weights.json"
    save(init_params(PortableRng(1)), path)
    doc = json.loads(path.read_text())
    doc["architecture"]["n_actions"] = -90
    doc["weights_b64"] = base64.b64encode(
        np.zeros(40391 - 2 * 9090).astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match="positive"):
        load(path)


def test_load_rejects_a_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(WeightFormatError, match="not a JSON object"):
        load(path)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_load_rejects_non_finite_payload(bad, tmp_path):
    params = init_params(PortableRng(1))
    w_trunk = params.w_trunk.copy()
    w_trunk[0, 0] = bad
    path = tmp_path / "weights.json"
    save(with_arrays(params, w_trunk=w_trunk), path)
    with pytest.raises(WeightFormatError, match="non-finite"):
        load(path)
