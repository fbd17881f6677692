"""Single-task training environment for the configuration-proposal agent.

An episode looks at one randomly drawn target.  The observation is the task
type (one-hot), the current configuration (normalised grid indices) and the
situational picture (normalised range and speed).  An action names the next
configuration; the reward is the utility-to-resource difference quotient
between old and new configuration, clipped and scaled to [-1, 1].

The training reward divides the utility change by the *magnitude* of the
resource change.  With the signed quotient, walking back down a concave
frontier scores the (steep) slope of the segment below, so the best
immediate action from any interior frontier point would be a downgrade and a
greedy proposal chain would oscillate between two cheap configurations
instead of climbing.  Judging moves by utility gained per resource moved
keeps upgrades positive, makes every downgrade negative, and leaves the
steepest upgrade (the next frontier point) as the argmax, which is exactly
the proposal the global allocation loop needs.

Episodes last exactly three steps and discounting is kept extremely low by
the trainer: without both, an agent could still farm reward by cycling
around triangles in resource-utility space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classic import base_configuration
from .core import (Configuration, ConfigSpace, ResourceBounds,
                   compound_resource, resource_of)
from .perf import (RANGE_INTERVAL_KM, TYPE_ORDER, TYPE_SPEED_RANGE, Target,
                   task_utility)
from .rng import PortableRng

#: Episode length in environment steps.
EPISODE_LENGTH = 3
#: Symmetric cap on the raw quotient; rewards are quotient/QUOTIENT_CAP.
QUOTIENT_CAP = 50.0
#: Below this resource difference the quotient is treated as degenerate.
EPS_RESOURCE = 1e-9
#: Below this utility difference a degenerate quotient counts as zero.
EPS_UTILITY = 1e-12

#: Widths of the two network inputs a state encodes: the type one-hot plus
#: (range, speed), and the three normalised grid indices.
SITUATIONAL_WIDTH = len(TYPE_ORDER) + 2
CONFIG_WIDTH = 3

#: Bounds used for training and single-task evaluation: full timeline, 5 kW.
DEFAULT_ENV_BOUNDS = ResourceBounds(bounds=(1.0, 5.0), compound_weights=(1.0, 1.0))


@dataclass(frozen=True)
class State:
    """Observation: type one-hot, config grid features, situational features."""

    task_onehot: tuple[float, float, float]
    config_features: tuple[float, float, float]
    situational: tuple[float, float]

    def situational_input(self) -> np.ndarray:
        """Target-related half of the network input (type + situation)."""
        return np.array(self.task_onehot + self.situational, dtype=np.float64)

    def config_input(self) -> np.ndarray:
        return np.array(self.config_features, dtype=np.float64)


@dataclass(frozen=True)
class StepResult:
    next_state: State
    reward: float
    done: bool


def _grid_feature(index: int, length: int) -> float:
    return index / (length - 1) if length > 1 else 0.0


def encode_state(space: ConfigSpace, config: Configuration, target: Target) -> State:
    onehot = tuple(1.0 if target.ttype is t else 0.0 for t in TYPE_ORDER)
    i_d, i_t, i_p = space.grid_indices(config)
    features = (_grid_feature(i_d, len(space.dwell_grid)),
                _grid_feature(i_t, len(space.tx_duration_grid)),
                _grid_feature(i_p, len(space.tx_power_grid)))
    situational = (target.range_km / RANGE_INTERVAL_KM[1],
                   target.speed_mps / TYPE_SPEED_RANGE[TYPE_ORDER[-1]][1])
    return State(task_onehot=onehot, config_features=features,
                 situational=situational)


def quotient(delta_u: float, delta_r: float) -> float:
    """Difference quotient with degenerate-case rules.

    A vanishing resource difference yields 0 for a vanishing utility
    difference, otherwise the cap with the sign of the utility change (free
    utility is maximally attractive, a no-op neutral).
    """
    if abs(delta_r) < EPS_RESOURCE:
        if abs(delta_u) < EPS_UTILITY:
            return 0.0
        return QUOTIENT_CAP if delta_u > 0 else -QUOTIENT_CAP
    return delta_u / delta_r


def _deltas(c_in: Configuration, c: Configuration, target: Target,
            bounds: ResourceBounds) -> tuple[float, float]:
    """Utility and compound-resource change of the move from c_in to c."""
    du = task_utility(c, target) - task_utility(c_in, target)
    dr = (compound_resource(resource_of(c), bounds)
          - compound_resource(resource_of(c_in), bounds))
    return du, dr


def raw_quotient(c_in: Configuration, c: Configuration, target: Target,
                 bounds: ResourceBounds) -> float:
    """Utility-to-resource difference quotient between two configurations."""
    return quotient(*_deltas(c_in, c, target, bounds))


def training_quotient(c_in: Configuration, c: Configuration, target: Target,
                      bounds: ResourceBounds) -> float:
    """Reward quotient: utility change per unit of resource *moved*.

    Same as :func:`raw_quotient` for upgrades; sign-flipped for moves that
    free resource, so downgrades can never outscore upgrades (see the module
    docstring).
    """
    du, dr = _deltas(c_in, c, target, bounds)
    return quotient(du, abs(dr))


class TrackingEnv:
    """Seeded episode stream; one instance is single-threaded."""

    def __init__(self, space: ConfigSpace, bounds: ResourceBounds = DEFAULT_ENV_BOUNDS,
                 seed: int = 0):
        self.space = space
        self.bounds = bounds
        self._rng = PortableRng(seed)
        self._serial = 0
        self._target: Target | None = None
        self._config: Configuration | None = None
        self._steps = 0
        self._done = True

    @property
    def target(self) -> Target:
        if self._target is None:
            raise RuntimeError("reset the environment first")
        return self._target

    @property
    def current_config(self) -> Configuration:
        if self._config is None:
            raise RuntimeError("reset the environment first")
        return self._config

    def _draw_target(self) -> Target:
        rng = self._rng
        ttype = TYPE_ORDER[rng.randint(len(TYPE_ORDER))]
        range_km = rng.uniform(*RANGE_INTERVAL_KM)
        speed = rng.uniform(*TYPE_SPEED_RANGE[ttype])
        target = Target(id=self._serial, ttype=ttype, range_km=range_km,
                        speed_mps=speed)
        self._serial += 1
        return target

    def reset(self) -> State:
        self._target = self._draw_target()
        self._config = base_configuration(self.space, self._target, self.bounds)
        self._steps = 0
        self._done = False
        return encode_state(self.space, self._config, self._target)

    def step(self, action: int) -> StepResult:
        if self._done:
            raise RuntimeError("episode is finished; call reset")
        if not 0 <= action < self.space.size:
            raise ValueError(f"action {action} outside [0, {self.space.size})")
        new_config = self.space.config_at(action)
        raw = training_quotient(self._config, new_config, self._target, self.bounds)
        reward = max(-QUOTIENT_CAP, min(QUOTIENT_CAP, raw)) / QUOTIENT_CAP
        self._config = new_config
        self._steps += 1
        self._done = self._steps >= EPISODE_LENGTH
        return StepResult(next_state=encode_state(self.space, new_config,
                                                  self._target),
                          reward=reward, done=self._done)
