import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import train_agent
from qram.agent import (AgentParams, OptimizerState, TrainConfig,
                        TrainingError, Transition, WeightFormatError,
                        a2c_update, forward, greedy_action, init_params, load,
                        loss_and_gradients, sample_action, save, softmax,
                        train, zero_params, _forward_batch, _stack_states)
from qram.core import DEFAULT_CONFIG_SPACE
from qram.env import DEFAULT_ENV_BOUNDS, TrackingEnv, State, encode_state
from qram.perf import Target, TargetType
from qram.rng import PortableRng

FIXED_STATE = encode_state(DEFAULT_CONFIG_SPACE, DEFAULT_CONFIG_SPACE.config_at(0),
                           Target(0, TargetType.FIGHTER, 75.0, 250.0))


def rand_state(rng: PortableRng) -> State:
    onehot = [0.0, 0.0, 0.0]
    onehot[rng.randint(3)] = 1.0
    return State(task_onehot=tuple(onehot),
                 config_features=(rng.random(), rng.random(), rng.random()),
                 situational=(rng.random(), rng.random()))


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
    x_sit, x_cfg = _stack_states([t.state for t in trajectory])
    _, _, cache = _forward_batch(params, x_sit, x_cfg)
    (_, _, z1, _, z2, _, zc, _, _, zt, _) = cache
    return all(np.abs(z).min() > margin for z in (z1, z2, zc, zt))


def fd_worst_error(params, trajectory, h=1e-5) -> float:
    cfg = TrainConfig(total_steps=0, seed=0)
    _, grads, metrics = loss_and_gradients(params, trajectory, cfg)
    adv = metrics["advantages"]
    worst = 0.0
    for name, arr in params.named_arrays():
        flat_grad = grads[name].ravel()
        for i in range(arr.size):
            plus = arr.copy().ravel()
            plus[i] += h
            lp, _, _ = loss_and_gradients(
                replace(params, **{name: plus.reshape(arr.shape)}), trajectory,
                cfg, advantages=adv)
            minus = arr.copy().ravel()
            minus[i] -= h
            lm, _, _ = loss_and_gradients(
                replace(params, **{name: minus.reshape(arr.shape)}), trajectory,
                cfg, advantages=adv)
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(flat_grad[i] - numeric)
                        / max(abs(flat_grad[i]), abs(numeric), 1e-6))
    return worst


# -------------------------------------------------------------------- forward

def test_zero_params_give_uniform_policy_and_zero_value():
    params = zero_params()
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


def test_softmax_normalised():
    params = init_params(PortableRng(9))
    logits, _ = forward(params, FIXED_STATE)
    assert abs(softmax(logits).sum() - 1.0) < 1e-12


def test_head_separation():
    params = init_params(PortableRng(11))
    logits, value = forward(params, FIXED_STATE)
    policy_only = replace(params, w_policy=params.w_policy + 0.5,
                          b_policy=params.b_policy - 0.25)
    l2, v2 = forward(policy_only, FIXED_STATE)
    assert v2 == value and not np.array_equal(l2, logits)
    value_only = replace(params, w_value=params.w_value * 2.0)
    l3, v3 = forward(value_only, FIXED_STATE)
    assert np.array_equal(l3, logits) and v3 != value


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


def test_greedy_action_tie_breaks_low():
    logits = np.zeros(9)
    logits[3] = logits[7] = 2.5
    assert greedy_action(logits) == 3


# -------------------------------------------------------------------- updates

def test_zero_episode_keeps_zero_params():
    # Zero rewards on zero params: returns, values and advantages all vanish
    # and a uniform policy sits at the entropy maximum, so nothing moves.
    params = zero_params()
    opt = OptimizerState.zeros_like(params)
    cfg = TrainConfig(total_steps=0, seed=0)
    traj = [Transition(rand_state(PortableRng(i)), 0, 0.0) for i in range(3)]
    new_params, _, metrics = a2c_update(params, opt, traj, cfg)
    assert metrics["policy_loss"] == 0.0
    assert metrics["value_loss"] == 0.0
    for _, array in new_params.named_arrays():
        assert np.all(array == 0.0)


def test_update_is_deterministic():
    params, traj = toy_case(5)
    opt = OptimizerState.zeros_like(params)
    cfg = TrainConfig(total_steps=0, seed=0)
    p1, o1, m1 = a2c_update(params, opt, traj, cfg)
    p2, o2, m2 = a2c_update(params, opt, traj, cfg)
    for (n1, a1), (_, a2) in zip(p1.named_arrays(), p2.named_arrays()):
        assert np.array_equal(a1, a2), n1
    assert m1["loss"] == m2["loss"]


def test_update_rejects_wrong_episode_length():
    params, traj = toy_case(6)
    with pytest.raises(ValueError):
        a2c_update(params, OptimizerState.zeros_like(params), traj[:2],
                   TrainConfig(total_steps=0, seed=0))


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
    params, curve = train(env, TrainConfig(total_steps=0, seed=2))
    reference = init_params(PortableRng(2), n_actions=90)
    for (name, a), (_, b) in zip(params.named_arrays(), reference.named_arrays()):
        assert np.array_equal(a, b), name
    assert curve == []


def test_train_is_seed_deterministic():
    def run():
        env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=4)
        return train(env, TrainConfig(total_steps=300, seed=4))

    p1, c1 = run()
    p2, c2 = run()
    for (name, a), (_, b) in zip(p1.named_arrays(), p2.named_arrays()):
        assert np.array_equal(a, b), name
    assert c1 == c2


def test_train_curve_row_per_episode():
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=6)
    _, curve = train(env, TrainConfig(total_steps=99, seed=6))
    assert len(curve) == 33
    assert [c.episode for c in curve] == list(range(33))
    assert all(c.step == (c.episode + 1) * 3 for c in curve)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_rejects_diverged_weights():
    # A learning rate of 1e308 overflows the one RMSprop step; the loss of
    # that episode was finite, so only a check of the final weights sees it.
    env = TrackingEnv(DEFAULT_CONFIG_SPACE, DEFAULT_ENV_BOUNDS, seed=1)
    with pytest.raises(TrainingError, match="non-finite"):
        train(env, TrainConfig(total_steps=3, seed=1, learning_rate=1e308))


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_load_rejects_non_finite_payload(bad, tmp_path):
    params = init_params(PortableRng(1))
    w_trunk = params.w_trunk.copy()
    w_trunk[0, 0] = bad
    path = tmp_path / "weights.json"
    save(replace(params, w_trunk=w_trunk), path)
    with pytest.raises(WeightFormatError, match="non-finite"):
        load(path)
