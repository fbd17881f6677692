"""Core Q-RAM value objects: task configurations, resources and allocations.

A radar task runs in one *configuration* (dwell length, transmit duration,
transmit power) drawn from a discrete grid.  Each configuration consumes a
2-vector of resources (radar time occupancy and average radiated power)
that must jointly stay below global bounds.  A weighted, bound-normalised sum
scalarises the vector into the *compound resource* used to rank upgrades.

There is no task type: a task is a target of the scenario, and an
:class:`Allocation` is keyed by target id.

All types here are immutable value objects and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Mapping

import numpy as np

#: Number of resource components: [time occupancy, average power in kW].
N_RESOURCES = 2


@dataclass(frozen=True, order=True)
class Configuration:
    """One operating point of a task.  Durations in ms, power in kW.

    Ordering is lexicographic over (dwell, transmit duration, power): the
    order of grid indices, by which the solvers break ties.
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


def _json_int(d: dict, key: str) -> int:
    """``d[key]`` if it is a JSON integer (not a float or a boolean)."""
    value = d[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _json_number(d: dict, key: str) -> float:
    """``d[key]`` as a float if it is a JSON number (not a boolean)."""
    value = d[key]
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{key} is out of range: {value!r}") from None


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
    #: Number of configurations, the product of the three axis lengths.
    size: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "size", len(self.dwell_grid)
                           * len(self.tx_duration_grid) * len(self.tx_power_grid))

    def is_index(self, index) -> bool:
        """Whether ``index`` is a grid index: an ``int`` (so not a bool) or a
        numpy integer, in [0, size).  Every index that enters the package
        from a caller or a proposer passes this check."""
        return ((type(index) is int or isinstance(index, np.integer))
                and 0 <= index < self.size)

    def config_at(self, index: int) -> Configuration:
        if not self.is_index(index):
            raise IndexError(f"configuration index {index} out of range [0, {self.size})")
        return grid_configurations(self)[index]

    def index_of(self, config: Configuration) -> int:
        """The grid index of ``config``, the inverse of :meth:`config_at`;
        ValueError if it is not on the grid."""
        try:
            return self._index[(config.dwell_length, config.transmit_duration,
                                config.transmit_power)]
        except KeyError:
            raise ValueError(f"{config} is not on the grid") from None

    @cached_property
    def _index(self) -> dict[tuple[float, float, float], int]:
        """Each configuration's fields, as a tuple, to its grid index."""
        return {(c.dwell_length, c.transmit_duration, c.transmit_power): i
                for i, c in enumerate(grid_configurations(self))}

    def __iter__(self) -> Iterator[Configuration]:
        return iter(grid_configurations(self))

    def to_dict(self) -> dict:
        return {"dwell_grid": list(self.dwell_grid),
                "tx_duration_grid": list(self.tx_duration_grid),
                "tx_power_grid": list(self.tx_power_grid)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigSpace":
        """Inverse of :meth:`to_dict`; every grid value must be a JSON number."""
        def grid(name: str) -> tuple[float, ...]:
            values = d[name]
            if type(values) is not list:
                raise ValueError(f"{name} must be a list, got {values!r}")
            return tuple(_json_number({name: x}, name) for x in values)
        return cls(grid("dwell_grid"), grid("tx_duration_grid"),
                   grid("tx_power_grid"))


#: Operating grid of the reference tracking scenario: 6 x 5 x 3 = 90 points.
DEFAULT_CONFIG_SPACE = ConfigSpace(
    dwell_grid=(100.0, 300.0, 500.0, 700.0, 900.0, 1100.0),
    tx_duration_grid=(2.0, 4.0, 6.0, 8.0, 10.0),
    tx_power_grid=(1.0, 2.0, 4.0),
)


@lru_cache(maxsize=64)
def grid_configurations(space: ConfigSpace) -> tuple[Configuration, ...]:
    """Every configuration of a grid in index order, built once per grid.

    This is the one place that fixes the index order: row-major over
    dwell x duration x power.
    """
    return tuple(Configuration(d, t, p) for d, t, p in itertools.product(
        space.dwell_grid, space.tx_duration_grid, space.tx_power_grid))


@lru_cache(maxsize=64)
def expanded_grids(space: ConfigSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (dwell, duration, power) columns of ``grid_configurations`` as
    three read-only float64 arrays."""
    table = config_columns(grid_configurations(space)).copy()
    table.setflags(write=False)
    return tuple(table)


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
        if not math.isfinite(sum(self.compound_weights)):
            raise ValueError(f"the compound budget, the sum of the compound "
                             f"weights, must be finite: {self.compound_weights}")

    def to_dict(self) -> dict:
        return {"bounds": list(self.bounds),
                "compound_weights": list(self.compound_weights)}


@dataclass(frozen=True)
class Allocation:
    """Chosen configuration per task id; a missing entry drops the task."""

    assignment: Mapping[int, Configuration] = field(default_factory=dict)


def config_columns(configs) -> np.ndarray:
    """The (dwell, duration, power) columns of configurations, (3, n) float64."""
    return np.array([(c.dwell_length, c.transmit_duration, c.transmit_power)
                     for c in configs], dtype=np.float64).reshape(-1, 3).T


def costs(dwell, tx, pw):
    """Occupancy and average power (kW) of configuration columns, element-wise:
    the duty fraction transmit/dwell, and the peak power scaled by that duty.
    This is the package's one cost formula."""
    return tx / dwell, pw * tx / dwell


def compound_resource(rv, bounds: ResourceBounds):
    """Bound-normalised weighted sum of one resource vector (a float) or of a
    pair of (occupancy, power) columns (a column)."""
    if len(rv) != len(bounds.bounds):
        raise ValueError(f"resource vector length {len(rv)} != bounds length "
                         f"{len(bounds.bounds)}")
    (w1, w2), (r1, r2) = bounds.compound_weights, bounds.bounds
    compound = w1 * (rv[0] / r1) + w2 * (rv[1] / r2)
    return compound if np.ndim(compound) else float(compound)


def _sequential_prefix(mat: np.ndarray) -> np.ndarray:
    """Running column sums added row by row, in row order: row i holds the
    sum of rows 0..i.  This is the one sum of resource rows, behind the
    reported usage, ``is_feasible`` and the ledger; each add takes the
    running sum left to right (a fold, never pairwise), so a sum resumed
    from row i - 1 of it with the same rows after gives the same floats."""
    return np.add.accumulate(mat, axis=0)  # np.cumsum, less call overhead


def _sequential_sum(mat: np.ndarray) -> np.ndarray:
    """Column sums of ``_sequential_prefix``: its last row."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[1])
    return _sequential_prefix(mat)[-1]


def usage_of(columns: np.ndarray) -> np.ndarray:
    """Resource total of configuration columns, added in column order."""
    return _sequential_sum(np.column_stack(costs(*columns)))


def allocation_usage(alloc: Allocation) -> np.ndarray:
    """Resource total of an allocation in task-id order, the benchmark's sum:
    the usage of ``problem.evaluate_allocation`` only when ids ascend in
    instance order."""
    return usage_of(config_columns(map(alloc.assignment.get,
                                       sorted(alloc.assignment))))
