"""Split-input advantage actor-critic, built directly on numpy.

The network runs target-related data (type one-hot, range, speed) through two
dense layers and the current configuration features through one, concatenates
both paths, and feeds a common trunk layer whose output branches into a
policy head (one logit per configuration) and a scalar value head.  All
hidden layers are rectified linear.

All weights and biases live in one float64 buffer, :attr:`AgentParams.flat`,
laid out by :func:`_shapes`; each named array is a view into it.  Gradients
and the RMSprop mean squares share that layout, and the weight file stores
the buffer as it is.

Training is single-worker advantage actor-critic over three-step episodes:
discounted returns, advantage-weighted log-likelihood, squared value error
and an entropy bonus, with gradients derived by hand and applied via RMSprop
as a few whole-buffer ufuncs, in buffers the train loop allocates once.
Everything is float64 and driven by :class:`~qram.rng.PortableRng`, so a
seed pins the full training run bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import ConfigSpace, _json_int
from .env import CONFIG_WIDTH, EPISODE_LENGTH, SITUATIONAL_WIDTH, TrackingEnv
from .rng import PortableRng


class TrainingError(RuntimeError):
    """Raised when an update produces non-finite numbers."""


class WeightFormatError(ValueError):
    """Raised when a weight file cannot be decoded against expectations."""


WEIGHT_FORMAT_VERSION = 1
ACTIVATION_NAME = "relu"

# A2C settings: the usual values (after Mnih et al., 2016) except the
# discount, which is kept tiny because the reward is a per-move quotient: a
# larger one lets an agent farm reward by cycling around triangles in
# resource-utility space (see :mod:`qram.env`).
DISCOUNT = 0.005
LEARNING_RATE = 7e-4
RMSPROP_DECAY = 0.99
RMSPROP_EPSILON = 1e-5
ENTROPY_COEFF = 0.01
VALUE_COEFF = 0.5

#: Rows per block of a batched forward pass: more rows per block save
#: little time and hold more memory.
FORWARD_BLOCK = 64

#: The four sizes that fix the layout, in weight-file header order.
ARCHITECTURE = ("situational_in", "config_in", "hidden", "n_actions")


def _shapes(situational_in: int, config_in: int, hidden: int,
            n_actions: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in buffer order."""
    return [("w_sit1", (situational_in, hidden)), ("b_sit1", (hidden,)),
            ("w_sit2", (hidden, hidden)), ("b_sit2", (hidden,)),
            ("w_cfg", (config_in, hidden)), ("b_cfg", (hidden,)),
            ("w_trunk", (2 * hidden, hidden)), ("b_trunk", (hidden,)),
            ("w_policy", (hidden, n_actions)), ("b_policy", (n_actions,)),
            ("w_value", (hidden, 1)), ("b_value", (1,))]


def _size(shapes: list[tuple[str, tuple[int, ...]]]) -> int:
    return sum(math.prod(shape) for _, shape in shapes)


@dataclass(frozen=True)
class AgentParams:
    """All network weights as one float64 buffer laid out by :func:`_shapes`.

    Every weight and bias named there (``w_sit1``, ``b_sit1``, ...) is an
    attribute holding a reshaped view of ``flat``.
    """

    flat: np.ndarray
    situational_in: int
    config_in: int
    hidden: int
    n_actions: int

    def __post_init__(self):
        shapes = self._layout()
        size = _size(shapes)
        if self.flat.shape != (size,):
            raise ValueError(f"weight buffer has {self.flat.size} values, "
                             f"expected {size}")
        offset = 0
        for name, shape in shapes:
            end = offset + math.prod(shape)
            object.__setattr__(self, name, self.flat[offset:end].reshape(shape))
            offset = end

    def _layout(self) -> list[tuple[str, tuple[int, ...]]]:
        return _shapes(self.situational_in, self.config_in, self.hidden,
                       self.n_actions)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name, _ in self._layout()]


def init_params(rng: PortableRng, situational_in: int = SITUATIONAL_WIDTH,
                config_in: int = CONFIG_WIDTH, hidden: int = 100,
                n_actions: int = 90) -> AgentParams:
    """Scaled-uniform weight init (biases zero); draw order is buffer order."""
    arch = (situational_in, config_in, hidden, n_actions)
    params = AgentParams(np.zeros(_size(_shapes(*arch))), *arch)
    for name, view in params.named_arrays():
        if name.startswith("w_"):
            limit = math.sqrt(6.0 / sum(view.shape))
            view[...] = rng.uniforms(-limit, limit, view.size).reshape(view.shape)
    return params


def _forward_batch(params: AgentParams, x: np.ndarray):
    """Batched forward pass over stacked observation rows; returns outputs
    plus the caches backprop needs."""
    x_sit = x[:, :params.situational_in]
    x_cfg = x[:, params.situational_in:]
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


def forward(params: AgentParams, rows: np.ndarray):
    """Policy logits and state value for one observation row, or for a
    stack of rows (one logit row and one value per observation)."""
    width = SITUATIONAL_WIDTH + CONFIG_WIDTH
    if (rows.ndim not in (1, 2) or rows.shape[-1] != width
            or (params.situational_in, params.config_in)
            != (SITUATIONAL_WIDTH, CONFIG_WIDTH)):
        raise ValueError(
            f"observation of shape {rows.shape} (rows of {SITUATIONAL_WIDTH}+"
            f"{CONFIG_WIDTH} expected) does not match network inputs "
            f"({params.situational_in}+{params.config_in})")
    if rows.ndim == 1:
        logits, values, _ = _forward_batch(params, rows[None, :])
        return logits[0], float(values[0])
    # Blocks of rows keep the hidden activations of one pass small.
    logits = np.empty((len(rows), params.n_actions))
    values = np.empty(len(rows))
    for i in range(0, len(rows), FORWARD_BLOCK):
        block = slice(i, i + FORWARD_BLOCK)
        logits[block], values[block], _ = _forward_batch(params, rows[block])
    return logits, values


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


def sample_action(logits: np.ndarray, rng: PortableRng) -> int:
    """Draw an action index from the softmax distribution: the first index
    whose running probability sum exceeds a uniform draw."""
    partial_sums = softmax(logits).cumsum()
    u = rng.random()
    i = int(partial_sums.searchsorted(u, side="right"))
    # Guard: rounding can leave the total below u, and NaN sums exceed
    # nothing, so both fall to the last index.
    last = len(partial_sums) - 1
    return i if i <= last and u < partial_sums[i] else last


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float


def _returns(rewards: list[float]) -> np.ndarray:
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + DISCOUNT * acc
        out[t] = acc
    return out


def loss_and_gradients(params: AgentParams, trajectory: list[Transition],
                       advantages: np.ndarray | None = None,
                       grads: AgentParams | None = None):
    """Actor-critic loss and its analytic gradients for one episode.

    The advantage weighting the log-likelihood is a constant of the
    optimisation (no gradient flows through it); passing ``advantages``
    pins it explicitly, which is what a finite-difference probe of this
    loss must do.  The gradients are written to ``grads``, laid out like
    ``params``, or to a new buffer if it is None.
    """
    actions = np.array([tr.action for tr in trajectory])
    rewards = [tr.reward for tr in trajectory]
    logits, values, cache = _forward_batch(
        params, np.stack([tr.state for tr in trajectory]))
    (x_sit, x_cfg, z1, h1, z2, h2, zc, hc, trunk_in, zt, ht) = cache

    returns = _returns(rewards)
    if advantages is None:
        advantages = returns - values
    log_probs = _log_softmax(logits)
    probs = np.exp(log_probs)
    entropy = -(probs * log_probs).sum(axis=1)
    batch = np.arange(len(trajectory))

    policy_loss = float(-(advantages * log_probs[batch, actions]).sum())
    value_loss = float(VALUE_COEFF * ((returns - values) ** 2).sum())
    entropy_term = float(-ENTROPY_COEFF * entropy.sum())
    total = policy_loss + value_loss + entropy_term

    # Head gradients: advantage-weighted (softmax - onehot) for the policy,
    # plus the entropy bonus; squared error for the value head.
    d_logits = probs * advantages[:, None]
    d_logits[batch, actions] -= advantages
    d_logits += ENTROPY_COEFF * probs * (log_probs + entropy[:, None])
    d_values = -2.0 * VALUE_COEFF * (returns - values)

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

    if grads is None:
        grads = replace(params, flat=np.empty_like(params.flat))
    for w, b, inputs, delta in ((grads.w_sit1, grads.b_sit1, x_sit, d_z1),
                                (grads.w_sit2, grads.b_sit2, h1, d_z2),
                                (grads.w_cfg, grads.b_cfg, x_cfg, d_zc),
                                (grads.w_trunk, grads.b_trunk, trunk_in, d_zt),
                                (grads.w_policy, grads.b_policy, ht, d_logits)):
        np.matmul(inputs.T, delta, out=w)
        delta.sum(axis=0, out=b)
    np.matmul(ht.T, d_values[:, None], out=grads.w_value)
    grads.b_value[0] = d_values.sum()
    metrics = {"loss": total, "policy_loss": policy_loss,
               "value_loss": value_loss, "entropy": float(entropy.mean()),
               "mean_reward": float(np.mean(rewards)),
               "advantages": advantages}
    return total, grads, metrics


@dataclass
class UpdateBuffers:
    """Storage for one :func:`a2c_update`, owned by its caller.

    The update writes its new parameters to ``params`` and its new mean
    squares to ``mean_square``; ``grads`` and ``scratch`` are work space.
    Every buffer is laid out like ``AgentParams.flat``, and none may
    overlap the parameters or mean squares the update reads.
    """

    params: AgentParams
    mean_square: np.ndarray
    grads: AgentParams
    scratch: np.ndarray

    @classmethod
    def like(cls, params: AgentParams) -> UpdateBuffers:
        return cls(replace(params, flat=np.empty_like(params.flat)),
                   np.empty_like(params.flat),
                   replace(params, flat=np.empty_like(params.flat)),
                   np.empty_like(params.flat))


def a2c_update(params: AgentParams, mean_square: np.ndarray,
               trajectory: list[Transition], out: UpdateBuffers | None = None):
    """One RMSprop step on one episode.

    ``mean_square`` is the running mean square of the gradient, one array
    laid out like ``params.flat``; returns new params, new mean squares and
    metrics, and leaves both inputs unchanged.  The new params and mean
    squares are ``out.params`` and ``out.mean_square`` when ``out`` is
    given, and new buffers otherwise.
    """
    if len(trajectory) != EPISODE_LENGTH:
        raise ValueError(f"expected {EPISODE_LENGTH} transitions, "
                         f"got {len(trajectory)}")
    if out is None:
        out = UpdateBuffers.like(params)
    total, grads, metrics = loss_and_gradients(params, trajectory,
                                               grads=out.grads)
    if not math.isfinite(total):
        raise TrainingError(
            f"non-finite loss {total!r} (policy {metrics['policy_loss']!r}, "
            f"value {metrics['value_loss']!r}); rewards "
            f"{[tr.reward for tr in trajectory]!r}")

    # ms = D*ms + (1-D)*g*g and p - LR*g / sqrt(ms + eps), evaluated in that
    # element-wise order so that seeded runs stay bit-identical.
    g, ms, scratch, flat = grads.flat, out.mean_square, out.scratch, out.params.flat
    np.multiply(RMSPROP_DECAY, mean_square, out=ms)
    np.multiply(1.0 - RMSPROP_DECAY, g, out=scratch)
    scratch *= g
    ms += scratch
    np.add(ms, RMSPROP_EPSILON, out=scratch)
    np.sqrt(scratch, out=scratch)
    np.multiply(LEARNING_RATE, g, out=flat)
    flat /= scratch
    np.subtract(params.flat, flat, out=flat)
    return out.params, ms, metrics


@dataclass(frozen=True)
class TrainLogEntry:
    step: int
    episode: int
    mean_reward: float
    loss: float


def train(env: TrackingEnv, total_steps: int, seed: int = 0):
    """Run ``total_steps`` environment steps (one update per episode).

    Training runs whole episodes only: a remainder of fewer than
    ``EPISODE_LENGTH`` (3) steps is not run.  Returns the final parameters
    and the per-episode learning curve.  The parameter init and the action
    sampling share one stream seeded with ``seed``, the environment owns its
    own, so an (env seed, seed) pair fixes the run.
    """
    if total_steps < 0:
        raise ValueError(f"total_steps must be non-negative: {total_steps}")
    rng = PortableRng(seed)
    params = init_params(rng, n_actions=env.space.size)
    mean_square = np.zeros_like(params.flat)
    # Each update writes into the spare buffers, whose old contents are no
    # longer read; the inputs it read become the next update's spares.
    spare = UpdateBuffers.like(params)
    curve: list[TrainLogEntry] = []
    episodes = total_steps // EPISODE_LENGTH
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
        new_params, new_mean_square, metrics = a2c_update(
            params, mean_square, trajectory, out=spare)
        spare.params, spare.mean_square = params, mean_square
        params, mean_square = new_params, new_mean_square
        curve.append(TrainLogEntry(step=(episode + 1) * EPISODE_LENGTH,
                                   episode=episode,
                                   mean_reward=metrics["mean_reward"],
                                   loss=metrics["loss"]))
    # Non-finite values are absorbing under the RMSprop step, and a weight
    # behind a ReLU that stays shut can blow up with the loss still finite,
    # so one check of the final parameters catches every divergence.
    if not np.isfinite(params.flat).all():
        name = next(name for name, array in params.named_arrays()
                    if not np.isfinite(array).all())
        raise TrainingError(f"training diverged: non-finite values in "
                            f"{name} after {episodes} episodes")
    return params, curve


# --------------------------------------------------------------------------
# Persistence: versioned JSON header plus base64 little-endian float64 payload.
# --------------------------------------------------------------------------

def save(params: AgentParams, path, config_space: ConfigSpace | None = None) -> None:
    doc = {
        "format": WEIGHT_FORMAT_VERSION,
        "activation": ACTIVATION_NAME,
        "architecture": {key: getattr(params, key) for key in ARCHITECTURE},
        "config_space": config_space.to_dict() if config_space else None,
        "weights_b64": base64.b64encode(
            params.flat.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def load(path) -> tuple[AgentParams, ConfigSpace | None]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise WeightFormatError(f"cannot read weight file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise WeightFormatError(f"weight file {path} is not a JSON object")
    if type(doc.get("format")) is not int or doc["format"] != WEIGHT_FORMAT_VERSION:
        raise WeightFormatError(f"unsupported weight format {doc.get('format')!r}")
    if doc.get("activation") != ACTIVATION_NAME:
        raise WeightFormatError(f"unsupported activation {doc.get('activation')!r}")
    try:
        arch = {key: _json_int(doc["architecture"], key) for key in ARCHITECTURE}
        for key, value in arch.items():
            if value < 1:
                raise ValueError(f"{key} must be positive, got {value}")
        payload = np.frombuffer(base64.b64decode(doc["weights_b64"]), dtype="<f8")
        space = (None if doc.get("config_space") is None
                 else ConfigSpace.from_dict(doc["config_space"]))
        params = AgentParams(payload.astype(np.float64), **arch)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise WeightFormatError(f"malformed weight file {path}: {detail}") from exc
    if not np.isfinite(params.flat).all():
        raise WeightFormatError(f"weight payload of {path} holds non-finite "
                                f"values")
    return params, space
