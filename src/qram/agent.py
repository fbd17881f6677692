"""Split-input advantage actor-critic, built directly on numpy.

The network runs target-related data (type one-hot, range, speed) through two
dense layers and the current configuration features through one, concatenates
both paths, and feeds a common trunk layer whose output branches into a
policy head (one logit per configuration) and a scalar value head.  All
hidden layers are rectified linear.

Training is single-worker advantage actor-critic over three-step episodes:
discounted returns, advantage-weighted log-likelihood, squared value error
and an entropy bonus, with gradients derived by hand and applied via RMSprop.
Everything is float64 and driven by :class:`~qram.rng.PortableRng`, so a
seed pins the full training run bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import ConfigSpace
from .env import EPISODE_LENGTH, State, TrackingEnv
from .rng import PortableRng


class TrainingError(RuntimeError):
    """Raised when an update produces non-finite numbers."""


class WeightFormatError(ValueError):
    """Raised when a weight file cannot be decoded against expectations."""


WEIGHT_FORMAT_VERSION = 1
ACTIVATION_NAME = "relu"


@dataclass(frozen=True)
class AgentParams:
    """All network weights; field order is the canonical serialisation order."""

    w_sit1: np.ndarray
    b_sit1: np.ndarray
    w_sit2: np.ndarray
    b_sit2: np.ndarray
    w_cfg: np.ndarray
    b_cfg: np.ndarray
    w_trunk: np.ndarray
    b_trunk: np.ndarray
    w_policy: np.ndarray
    b_policy: np.ndarray
    w_value: np.ndarray
    b_value: np.ndarray

    @property
    def situational_in(self) -> int:
        return self.w_sit1.shape[0]

    @property
    def config_in(self) -> int:
        return self.w_cfg.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_sit1.shape[1]

    @property
    def n_actions(self) -> int:
        return self.w_policy.shape[1]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def _glorot(rng: PortableRng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    flat = np.array([rng.uniform(-limit, limit) for _ in range(fan_in * fan_out)],
                    dtype=np.float64)
    return flat.reshape(fan_in, fan_out)


def init_params(rng: PortableRng, situational_in: int = 5, config_in: int = 3,
                hidden: int = 100, n_actions: int = 90) -> AgentParams:
    """Scaled-uniform weight init (biases zero); draw order is fixed."""
    return AgentParams(
        w_sit1=_glorot(rng, situational_in, hidden), b_sit1=np.zeros(hidden),
        w_sit2=_glorot(rng, hidden, hidden), b_sit2=np.zeros(hidden),
        w_cfg=_glorot(rng, config_in, hidden), b_cfg=np.zeros(hidden),
        w_trunk=_glorot(rng, 2 * hidden, hidden), b_trunk=np.zeros(hidden),
        w_policy=_glorot(rng, hidden, n_actions), b_policy=np.zeros(n_actions),
        w_value=_glorot(rng, hidden, 1), b_value=np.zeros(1),
    )


def zero_params(situational_in: int = 5, config_in: int = 3, hidden: int = 100,
                n_actions: int = 90) -> AgentParams:
    return AgentParams(
        w_sit1=np.zeros((situational_in, hidden)), b_sit1=np.zeros(hidden),
        w_sit2=np.zeros((hidden, hidden)), b_sit2=np.zeros(hidden),
        w_cfg=np.zeros((config_in, hidden)), b_cfg=np.zeros(hidden),
        w_trunk=np.zeros((2 * hidden, hidden)), b_trunk=np.zeros(hidden),
        w_policy=np.zeros((hidden, n_actions)), b_policy=np.zeros(n_actions),
        w_value=np.zeros((hidden, 1)), b_value=np.zeros(1),
    )


def _forward_batch(params: AgentParams, x_sit: np.ndarray, x_cfg: np.ndarray):
    """Batched forward pass; returns outputs plus the caches backprop needs."""
    z1 = x_sit @ params.w_sit1 + params.b_sit1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params.w_sit2 + params.b_sit2
    h2 = np.maximum(z2, 0.0)
    zc = x_cfg @ params.w_cfg + params.b_cfg
    hc = np.maximum(zc, 0.0)
    trunk_in = np.concatenate([h2, hc], axis=1)
    zt = trunk_in @ params.w_trunk + params.b_trunk
    ht = np.maximum(zt, 0.0)
    logits = ht @ params.w_policy + params.b_policy
    values = (ht @ params.w_value + params.b_value)[:, 0]
    cache = (x_sit, x_cfg, z1, h1, z2, h2, zc, hc, trunk_in, zt, ht)
    return logits, values, cache


def _stack_states(states: list[State]) -> tuple[np.ndarray, np.ndarray]:
    x_sit = np.stack([s.situational_input() for s in states])
    x_cfg = np.stack([s.config_input() for s in states])
    return x_sit, x_cfg


def forward(params: AgentParams, state: State) -> tuple[np.ndarray, float]:
    """Policy logits and state value for a single observation."""
    x_sit, x_cfg = _stack_states([state])
    if x_sit.shape[1] != params.situational_in or x_cfg.shape[1] != params.config_in:
        raise ValueError(
            f"state features ({x_sit.shape[1]}+{x_cfg.shape[1]}) do not match "
            f"network inputs ({params.situational_in}+{params.config_in})")
    logits, values, _ = _forward_batch(params, x_sit, x_cfg)
    return logits[0], float(values[0])


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


def sample_action(logits: np.ndarray, rng: PortableRng) -> int:
    """Draw an action index from the softmax distribution."""
    probs = softmax(logits)
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1  # guard against accumulated rounding


def greedy_action(logits: np.ndarray) -> int:
    """Argmax action; ties go to the lowest index."""
    return int(np.argmax(logits))


@dataclass(frozen=True)
class Transition:
    state: State
    action: int
    reward: float


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    seed: int = 0
    discount: float = 0.005
    learning_rate: float = 7e-4
    rmsprop_decay: float = 0.99
    rmsprop_epsilon: float = 1e-5
    entropy_coeff: float = 0.01
    value_coeff: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1): {self.discount}")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ValueError(f"rmsprop_decay must be in (0, 1): {self.rmsprop_decay}")
        for name in ("learning_rate", "rmsprop_epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.total_steps < 0:
            raise ValueError("invalid step counts")


@dataclass(frozen=True)
class OptimizerState:
    """RMSprop running mean squares, one array per parameter."""

    mean_square: dict

    @classmethod
    def zeros_like(cls, params: AgentParams) -> "OptimizerState":
        return cls(mean_square={name: np.zeros_like(a)
                                for name, a in params.named_arrays()})


def _returns(rewards: list[float], discount: float) -> np.ndarray:
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        out[t] = acc
    return out


def loss_and_gradients(params: AgentParams, trajectory: list[Transition],
                       cfg: TrainConfig, advantages: np.ndarray | None = None):
    """Actor-critic loss and its analytic gradients for one episode.

    The advantage weighting the log-likelihood is a constant of the
    optimisation (no gradient flows through it); passing ``advantages``
    pins it explicitly, which is what a finite-difference probe of this
    loss must do.
    """
    states = [tr.state for tr in trajectory]
    actions = np.array([tr.action for tr in trajectory])
    rewards = [tr.reward for tr in trajectory]
    x_sit, x_cfg = _stack_states(states)
    logits, values, cache = _forward_batch(params, x_sit, x_cfg)
    (x_sit, x_cfg, z1, h1, z2, h2, zc, hc, trunk_in, zt, ht) = cache

    returns = _returns(rewards, cfg.discount)
    if advantages is None:
        advantages = returns - values
    log_probs = _log_softmax(logits)
    probs = np.exp(log_probs)
    entropy = -(probs * log_probs).sum(axis=1)
    batch = np.arange(len(trajectory))

    policy_loss = float(-(advantages * log_probs[batch, actions]).sum())
    value_loss = float(cfg.value_coeff * ((returns - values) ** 2).sum())
    entropy_term = float(-cfg.entropy_coeff * entropy.sum())
    total = policy_loss + value_loss + entropy_term

    # Head gradients: advantage-weighted (softmax - onehot) for the policy,
    # plus the entropy bonus; squared error for the value head.
    d_logits = probs * advantages[:, None]
    d_logits[batch, actions] -= advantages
    d_logits += cfg.entropy_coeff * probs * (log_probs + entropy[:, None])
    d_values = -2.0 * cfg.value_coeff * (returns - values)

    d_ht = d_logits @ params.w_policy.T + d_values[:, None] * params.w_value[:, 0]
    d_zt = d_ht * (zt > 0.0)
    d_trunk_in = d_zt @ params.w_trunk.T
    hidden = params.hidden
    d_h2 = d_trunk_in[:, :hidden]
    d_hc = d_trunk_in[:, hidden:]
    d_zc = d_hc * (zc > 0.0)
    d_z2 = d_h2 * (z2 > 0.0)
    d_h1 = d_z2 @ params.w_sit2.T
    d_z1 = d_h1 * (z1 > 0.0)

    grads = {
        "w_sit1": x_sit.T @ d_z1, "b_sit1": d_z1.sum(axis=0),
        "w_sit2": h1.T @ d_z2, "b_sit2": d_z2.sum(axis=0),
        "w_cfg": x_cfg.T @ d_zc, "b_cfg": d_zc.sum(axis=0),
        "w_trunk": trunk_in.T @ d_zt, "b_trunk": d_zt.sum(axis=0),
        "w_policy": ht.T @ d_logits, "b_policy": d_logits.sum(axis=0),
        "w_value": ht.T @ d_values[:, None], "b_value": np.array([d_values.sum()]),
    }
    metrics = {"loss": total, "policy_loss": policy_loss,
               "value_loss": value_loss, "entropy": float(entropy.mean()),
               "mean_reward": float(np.mean(rewards)),
               "advantages": advantages}
    return total, grads, metrics


def a2c_update(params: AgentParams, opt_state: OptimizerState,
               trajectory: list[Transition], cfg: TrainConfig):
    """One RMSprop step on one episode; returns new params, state, metrics."""
    if len(trajectory) != EPISODE_LENGTH:
        raise ValueError(f"expected {EPISODE_LENGTH} transitions, "
                         f"got {len(trajectory)}")
    total, grads, metrics = loss_and_gradients(params, trajectory, cfg)
    if not math.isfinite(total):
        raise TrainingError(
            f"non-finite loss {total!r} (policy {metrics['policy_loss']!r}, "
            f"value {metrics['value_loss']!r}); rewards "
            f"{[tr.reward for tr in trajectory]!r}")

    new_values = {}
    new_ms = {}
    for name, array in params.named_arrays():
        g = grads[name]
        ms = (cfg.rmsprop_decay * opt_state.mean_square[name]
              + (1.0 - cfg.rmsprop_decay) * g * g)
        new_ms[name] = ms
        new_values[name] = array - cfg.learning_rate * g / np.sqrt(
            ms + cfg.rmsprop_epsilon)
    return (replace(params, **new_values), OptimizerState(mean_square=new_ms),
            metrics)


@dataclass(frozen=True)
class TrainLogEntry:
    step: int
    episode: int
    mean_reward: float
    loss: float


def train(env: TrackingEnv, cfg: TrainConfig):
    """Run ``total_steps`` environment steps (one update per episode).

    Returns the final parameters and the per-episode learning curve.  The
    parameter init and the action sampling share one seeded stream, the
    environment owns its own, so a (env seed, cfg seed) pair fixes the run.
    """
    rng = PortableRng(cfg.seed)
    params = init_params(rng, n_actions=env.space.size)
    opt_state = OptimizerState.zeros_like(params)
    curve: list[TrainLogEntry] = []
    episodes = cfg.total_steps // EPISODE_LENGTH
    for episode in range(episodes):
        state = env.reset()
        trajectory = []
        for _ in range(EPISODE_LENGTH):
            logits, _ = forward(params, state)
            action = sample_action(logits, rng)
            result = env.step(action)
            trajectory.append(Transition(state=state, action=action,
                                         reward=result.reward))
            state = result.next_state
        params, opt_state, metrics = a2c_update(params, opt_state, trajectory, cfg)
        curve.append(TrainLogEntry(step=(episode + 1) * EPISODE_LENGTH,
                                   episode=episode,
                                   mean_reward=metrics["mean_reward"],
                                   loss=metrics["loss"]))
    return params, curve


# --------------------------------------------------------------------------
# Persistence: versioned JSON header plus base64 little-endian float64 payload.
# --------------------------------------------------------------------------

def save(params: AgentParams, path, config_space: ConfigSpace | None = None) -> None:
    payload = np.concatenate([a.ravel() for _, a in params.named_arrays()])
    doc = {
        "format": WEIGHT_FORMAT_VERSION,
        "activation": ACTIVATION_NAME,
        "architecture": {
            "situational_in": params.situational_in,
            "config_in": params.config_in,
            "hidden": params.hidden,
            "n_actions": params.n_actions,
        },
        "config_space": config_space.to_dict() if config_space else None,
        "weights_b64": base64.b64encode(
            payload.astype("<f8").tobytes()).decode("ascii"),
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def load(path) -> tuple[AgentParams, ConfigSpace | None]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise WeightFormatError(f"cannot read weight file {path}: {exc}") from exc
    if doc.get("format") != WEIGHT_FORMAT_VERSION:
        raise WeightFormatError(f"unsupported weight format {doc.get('format')!r}")
    if doc.get("activation") != ACTIVATION_NAME:
        raise WeightFormatError(f"unsupported activation {doc.get('activation')!r}")
    try:
        arch = doc["architecture"]
        template = zero_params(situational_in=int(arch["situational_in"]),
                               config_in=int(arch["config_in"]),
                               hidden=int(arch["hidden"]),
                               n_actions=int(arch["n_actions"]))
        flat = np.frombuffer(base64.b64decode(doc["weights_b64"]), dtype="<f8")
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFormatError(f"malformed weight file {path}: {exc}") from exc
    expected = sum(a.size for _, a in template.named_arrays())
    if flat.size != expected:
        raise WeightFormatError(f"weight payload has {flat.size} values, "
                                f"expected {expected}")
    values = {}
    offset = 0
    for name, a in template.named_arrays():
        values[name] = flat[offset:offset + a.size].reshape(a.shape).astype(np.float64)
        offset += a.size
    space = (ConfigSpace.from_dict(doc["config_space"])
             if doc.get("config_space") else None)
    return AgentParams(**values), space
