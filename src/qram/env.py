"""Single-task training environment for the configuration-proposal agent.

An episode looks at one randomly drawn target.  The observation is one row
of the network's input block (:func:`encode_state`): the situational
columns of the target's block row (the type one-hot, normalised range and
speed), then the current configuration (normalised grid indices).  An
action is the grid index of the next configuration; the reward is the
utility-to-resource difference quotient between old and new
configuration, clipped and scaled to [-1, 1].

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
the trainer (``agent.DISCOUNT``): without both, an agent could still farm
reward by cycling around triangles in resource-utility space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classic import base_configuration
from .core import ConfigSpace, ResourceBounds, expanded_grids
from .kernels import config_costs
from .perf import Target, draw_target
from .problem import SITUATIONAL_WIDTH, block_utility, target_block
from .rng import PortableRng

#: Episode length in environment steps.
EPISODE_LENGTH = 3
#: Symmetric cap on the raw quotient; rewards are quotient/QUOTIENT_CAP.
QUOTIENT_CAP = 50.0
#: Below this resource difference the quotient is treated as degenerate.
EPS_RESOURCE = 1e-9
#: Below this utility difference a degenerate quotient counts as zero.
EPS_UTILITY = 1e-12

#: Width of an observation row's configuration half: three grid indices.
CONFIG_WIDTH = 3

#: Bounds used for training and single-task evaluation: full timeline, 5 kW.
DEFAULT_ENV_BOUNDS = ResourceBounds(bounds=(1.0, 5.0), compound_weights=(1.0, 1.0))


@dataclass(frozen=True)
class StepResult:
    next_state: np.ndarray
    reward: float
    done: bool


@lru_cache(maxsize=64)
def config_features(space: ConfigSpace) -> np.ndarray:
    """The configuration columns of an observation, one read-only row per
    grid configuration in index order: the dwell, duration and power grid
    indices, each divided by its axis length - 1 (0 on a one-point axis).
    The rows follow ``expanded_grids``, the grid's one enumeration."""
    table = np.column_stack([
        np.searchsorted(grid, values) / max(len(grid) - 1, 1)
        for grid, values in zip((space.dwell_grid, space.tx_duration_grid,
                                 space.tx_power_grid), expanded_grids(space))])
    table.setflags(write=False)
    return table


def encode_state(space: ConfigSpace, indices: list[int],
                 rows: np.ndarray) -> np.ndarray:
    """The network's input block: one float64 row of SITUATIONAL_WIDTH +
    CONFIG_WIDTH per (grid index, target block row) pair, in order: the
    block row's situational columns, then the :func:`config_features` row
    of the grid index, the current configuration's.  An index that
    ``ConfigSpace.is_index`` rejects raises IndexError, naming the first
    such index, and a different number of indices and rows raises
    ValueError."""
    for index in indices:
        if not space.is_index(index):
            raise IndexError(f"configuration index {index} out of range "
                             f"[0, {space.size})")
    block = np.empty((len(rows), SITUATIONAL_WIDTH + CONFIG_WIDTH))
    config_features(space).take(indices, axis=0, out=block[:, SITUATIONAL_WIDTH:])
    block[:, :SITUATIONAL_WIDTH] = rows[:, :SITUATIONAL_WIDTH]
    return block


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


class TrackingEnv:
    """Seeded episode stream; one instance is single-threaded.

    ``reset`` builds the episode target's block row, which its observations
    read, and evaluates it on the whole grid once, with one
    ``problem.block_utility`` call; a step reads the utility change from that
    row and the compound change from the grid's ``config_costs`` column.
    """

    def __init__(self, space: ConfigSpace, bounds: ResourceBounds = DEFAULT_ENV_BOUNDS,
                 seed: int = 0):
        # config_costs raises if a compound is not finite.
        self._comp = config_costs(space, bounds)[0].tolist()
        self.space = space
        self.bounds = bounds
        self._rng = PortableRng(seed)
        self._serial = 0
        self._target: Target | None = None
        self._utility: list[float] = []
        self._index = 0
        self._steps = 0
        self._done = True

    @property
    def target(self) -> Target:
        if self._target is None:
            raise RuntimeError("reset the environment first")
        return self._target

    def reset(self) -> np.ndarray:
        self._target = draw_target(self._rng, self._serial)
        self._serial += 1
        self._row = target_block([self._target])
        self._index = base_configuration(self.space, self._row, self.bounds)[0]
        self._utility = block_utility(self.space, self._row)[0].tolist()
        self._steps = 0
        self._done = False
        return encode_state(self.space, [self._index], self._row)[0]

    def step(self, action: int) -> StepResult:
        """Move to grid index ``action``.  The reward is the utility change
        per unit of compound resource *moved*: the quotient of the utility
        and the magnitude of the compound change, so downgrades can never
        outscore upgrades (see the module docstring)."""
        if self._done:
            raise RuntimeError("episode is finished; call reset")
        if not self.space.is_index(action):
            raise ValueError(f"action {action} outside [0, {self.space.size})")
        du = self._utility[action] - self._utility[self._index]
        dr = self._comp[action] - self._comp[self._index]
        raw = quotient(du, abs(dr))
        reward = max(-QUOTIENT_CAP, min(QUOTIENT_CAP, raw)) / QUOTIENT_CAP
        self._index = action
        self._steps += 1
        self._done = self._steps >= EPISODE_LENGTH
        return StepResult(next_state=encode_state(self.space, [action],
                                                  self._row)[0],
                          reward=reward, done=self._done)
