"""Core Q-RAM value objects: task configurations, resources and allocations.

A radar task runs in one *configuration* (dwell length, transmit duration,
transmit power) drawn from a discrete grid.  Each configuration consumes a
2-vector of resources (radar time occupancy and average radiated power)
that must jointly stay below global bounds.  A weighted, bound-normalised sum
scalarises the vector into the *compound resource* used to rank upgrades.

All types here are immutable value objects and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

#: Number of resource components: [time occupancy, average power in kW].
N_RESOURCES = 2


@dataclass(frozen=True, order=True)
class Configuration:
    """One operating point of a task.  Durations in ms, power in kW.

    Ordering is lexicographic over (dwell, transmit duration, power), which
    doubles as the deterministic tie-break everywhere in the solvers.
    """

    dwell_length: float
    transmit_duration: float
    transmit_power: float

    def __post_init__(self):
        d, t, p = self.dwell_length, self.transmit_duration, self.transmit_power
        if not (math.isfinite(d) and math.isfinite(t) and math.isfinite(p)
                and d > 0 and t > 0 and p > 0):
            raise ValueError(f"configuration fields must be finite and positive: {self}")
        if self.transmit_duration >= self.dwell_length:
            raise ValueError(
                f"transmit duration {self.transmit_duration} must be shorter than "
                f"dwell {self.dwell_length}"
            )


def _strictly_increasing(grid: tuple) -> bool:
    return all(b > a for a, b in zip(grid, grid[1:]))


@dataclass(frozen=True)
class ConfigSpace:
    """Discrete configuration grid; the cross product of three axes.

    Configurations are indexed row-major over dwell x duration x power, so
    index order coincides with the lexicographic order of the tuples.
    """

    dwell_grid: tuple[float, ...]
    tx_duration_grid: tuple[float, ...]
    tx_power_grid: tuple[float, ...]

    def __post_init__(self):
        for name, grid in (("dwell_grid", self.dwell_grid),
                           ("tx_duration_grid", self.tx_duration_grid),
                           ("tx_power_grid", self.tx_power_grid)):
            if len(grid) == 0:
                raise ValueError(f"{name} must be non-empty")
            if not _strictly_increasing(grid):
                raise ValueError(f"{name} must be strictly increasing: {grid}")
        if max(self.tx_duration_grid) >= min(self.dwell_grid):
            raise ValueError("every transmit duration must fit inside every dwell")

    @property
    def size(self) -> int:
        return len(self.dwell_grid) * len(self.tx_duration_grid) * len(self.tx_power_grid)

    def config_at(self, index: int) -> Configuration:
        n_tx = len(self.tx_duration_grid)
        n_pw = len(self.tx_power_grid)
        if not 0 <= index < self.size:
            raise IndexError(f"configuration index {index} out of range [0, {self.size})")
        i_dwell, rem = divmod(index, n_tx * n_pw)
        i_tx, i_pw = divmod(rem, n_pw)
        return Configuration(self.dwell_grid[i_dwell],
                             self.tx_duration_grid[i_tx],
                             self.tx_power_grid[i_pw])

    def index_of(self, config: Configuration) -> int:
        try:
            i_dwell = self.dwell_grid.index(config.dwell_length)
            i_tx = self.tx_duration_grid.index(config.transmit_duration)
            i_pw = self.tx_power_grid.index(config.transmit_power)
        except ValueError:
            raise ValueError(f"{config} is not on the grid of {self}") from None
        return (i_dwell * len(self.tx_duration_grid) + i_tx) * len(self.tx_power_grid) + i_pw

    def __contains__(self, config: Configuration) -> bool:
        return (config.dwell_length in self.dwell_grid
                and config.transmit_duration in self.tx_duration_grid
                and config.transmit_power in self.tx_power_grid)

    def __iter__(self) -> Iterator[Configuration]:
        for d, t, p in itertools.product(self.dwell_grid, self.tx_duration_grid,
                                         self.tx_power_grid):
            yield Configuration(d, t, p)

    def grid_indices(self, config: Configuration) -> tuple[int, int, int]:
        return (self.dwell_grid.index(config.dwell_length),
                self.tx_duration_grid.index(config.transmit_duration),
                self.tx_power_grid.index(config.transmit_power))

    def to_dict(self) -> dict:
        return {"dwell_grid": list(self.dwell_grid),
                "tx_duration_grid": list(self.tx_duration_grid),
                "tx_power_grid": list(self.tx_power_grid)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigSpace":
        return cls(tuple(float(x) for x in d["dwell_grid"]),
                   tuple(float(x) for x in d["tx_duration_grid"]),
                   tuple(float(x) for x in d["tx_power_grid"]))


#: Operating grid of the reference tracking scenario: 6 x 5 x 3 = 90 points.
DEFAULT_CONFIG_SPACE = ConfigSpace(
    dwell_grid=(100.0, 300.0, 500.0, 700.0, 900.0, 1100.0),
    tx_duration_grid=(2.0, 4.0, 6.0, 8.0, 10.0),
    tx_power_grid=(1.0, 2.0, 4.0),
)


@lru_cache(maxsize=64)
def expanded_grids(space: ConfigSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major expansion of a grid into three parallel float64 arrays."""
    dwell, tx, pw = np.meshgrid(np.asarray(space.dwell_grid, dtype=np.float64),
                                np.asarray(space.tx_duration_grid, dtype=np.float64),
                                np.asarray(space.tx_power_grid, dtype=np.float64),
                                indexing="ij")
    out = (np.ascontiguousarray(dwell.ravel()),
           np.ascontiguousarray(tx.ravel()),
           np.ascontiguousarray(pw.ravel()))
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class ResourceBounds:
    """Global resource caps plus the weights defining the compound resource."""

    bounds: tuple[float, ...]
    compound_weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.bounds) != N_RESOURCES or len(self.compound_weights) != N_RESOURCES:
            raise ValueError(f"expected {N_RESOURCES} resource components")
        if not all(math.isfinite(x) for x in (*self.bounds, *self.compound_weights)):
            raise ValueError(f"resource bounds and weights must be finite: {self}")
        if any(b <= 0 for b in self.bounds):
            raise ValueError(f"resource bounds must be positive: {self.bounds}")
        if any(w < 0 for w in self.compound_weights) or not any(self.compound_weights):
            raise ValueError(
                f"compound weights must be non-negative and not all zero: "
                f"{self.compound_weights}")

    def to_dict(self) -> dict:
        return {"bounds": list(self.bounds),
                "compound_weights": list(self.compound_weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceBounds":
        return cls(tuple(float(x) for x in d["bounds"]),
                   tuple(float(x) for x in d["compound_weights"]))


@dataclass(frozen=True)
class Task:
    """A radar task: what to do (tracking) against which target, on which grid."""

    id: int
    target_ref: int
    config_space: ConfigSpace
    task_type: str = "tracking"

    def __post_init__(self):
        if self.task_type != "tracking":
            raise ValueError(f"unsupported task type {self.task_type!r}")

    def to_dict(self) -> dict:
        return {"id": self.id, "task_type": self.task_type,
                "target_ref": self.target_ref,
                "config_space": self.config_space.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "Task":
        return cls(id=int(d["id"]), target_ref=int(d["target_ref"]),
                   config_space=ConfigSpace.from_dict(d["config_space"]),
                   task_type=d.get("task_type", "tracking"))


@dataclass(frozen=True)
class Allocation:
    """Chosen configuration per task id; a missing entry drops the task."""

    assignment: Mapping[int, Configuration] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.assignment)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self.assignment

    def get(self, task_id: int) -> Configuration | None:
        return self.assignment.get(task_id)


def resource_of(config: Configuration) -> np.ndarray:
    """Resource vector [time occupancy, average power in kW] of a configuration.

    Occupancy is the duty fraction transmit/dwell; average power is the peak
    power scaled by the same duty fraction.
    """
    occupancy = config.transmit_duration / config.dwell_length
    avg_power = config.transmit_power * config.transmit_duration / config.dwell_length
    return np.array([occupancy, avg_power], dtype=np.float64)


def compound_resource(rv: np.ndarray, bounds: ResourceBounds) -> float:
    """Bound-normalised weighted sum collapsing a resource vector to a scalar."""
    if len(rv) != len(bounds.bounds):
        raise ValueError(f"resource vector length {len(rv)} != bounds length "
                         f"{len(bounds.bounds)}")
    w1, w2 = bounds.compound_weights
    r1, r2 = bounds.bounds
    return w1 * (float(rv[0]) / r1) + w2 * (float(rv[1]) / r2)


def allocation_usage(alloc: Allocation) -> np.ndarray:
    """Componentwise resource total of an allocation (task-id order)."""
    usage = np.zeros(N_RESOURCES, dtype=np.float64)
    for tid in sorted(alloc.assignment):
        usage += resource_of(alloc.assignment[tid])
    return usage
