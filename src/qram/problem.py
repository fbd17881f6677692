"""Problem instances: tasks, bounds and one configuration grid.

The instance is the object every solver consumes.  A task is an id and a
row of the instance's target block (:func:`target_block`), and every task
picks from the instance's one grid, whose (tasks x grid)
:func:`utility_table` the classic solver and both exact oracles read.  It
is built in memory from a scenario's columns (:func:`build_tracking_instance`),
with no :class:`~qram.perf.Target` object; on disk a problem is its
scenario file plus the bounds given on the command line.

:func:`block_utility` is the one reader of the utility model's inputs: it
pairs block rows with grid indices in one ``kernels.utility`` call, for
the solvers, the environment and :func:`evaluate_allocation`, which finds
each assigned configuration's grid index once and reads the grid's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import kernels
from .core import (Allocation, ConfigSpace, ResourceBounds, expanded_grids,
                   usage_of)
from .perf import TYPE_ORDER, TYPE_UTILITY_WEIGHT, Scenario, Target

#: Width of the situational columns that open a target block row.
SITUATIONAL_WIDTH = len(TYPE_ORDER) + 2


@dataclass(frozen=True)
class ProblemInstance:
    """Tasks as ids and the rows of a read-only :func:`target_block`
    layout, one row per id, under bounds on one grid."""

    ids: tuple[int, ...]
    block: np.ndarray = field(repr=False, compare=False)
    bounds: ResourceBounds
    space: ConfigSpace
    #: Each task id's position in ``ids``.
    position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = dict(zip(self.ids, range(len(self.ids))))
        if len(position) != len(self.ids):
            raise ValueError("task ids must be unique")
        if self.block.shape != (len(self.ids), SITUATIONAL_WIDTH + 3):
            raise ValueError(f"target block of shape {self.block.shape} for "
                             f"{len(self.ids)} tasks")
        # SNR is monotone in P*tx, so a finite, positive SNR at the grid's
        # first and last configuration (lowest and highest P*tx) holds on
        # the whole grid, and with it a finite, positive tracking error.
        # A range^4 that underflows to 0 gives an infinite SNR.
        _, tx, pw = expanded_grids(self.space)
        range_km = self.block[:, SITUATIONAL_WIDTH]
        with np.errstate(divide="ignore", over="ignore"):
            low = kernels.snr(tx[0], pw[0], range_km)
            high = kernels.snr(tx[-1], pw[-1], range_km)
        bad = np.flatnonzero(~((0.0 < low) & (low <= high) & (high < np.inf)))
        if len(bad):
            raise ValueError(f"target {self.ids[bad[0]]} at "
                             f"{float(range_km[bad[0]])} km is outside the "
                             f"range the radar model can evaluate")
        kernels.config_costs(self.space, self.bounds)  # raises if a compound is not finite
        object.__setattr__(self, "position", position)

    @cached_property
    def tasks(self) -> tuple[Target, ...]:
        """One :class:`Target` per row, read back from the block on first
        use, for a caller that asks; no solver reads it."""
        types = [TYPE_ORDER[k] for k in self.block[:, :len(TYPE_ORDER)]
                 .argmax(axis=1).tolist()]
        range_km, speed_mps = self.block[:, SITUATIONAL_WIDTH:
                                         SITUATIONAL_WIDTH + 2].T.tolist()
        return tuple(map(Target, self.ids, types, range_km, speed_mps))


def build_tracking_instance(scenario: Scenario, bounds: ResourceBounds,
                            space: ConfigSpace) -> ProblemInstance:
    """One tracking task per target: the scenario's targets are the tasks,
    whose block is built from the scenario's columns."""
    return ProblemInstance(scenario.ids, scenario_block(scenario), bounds,
                           space)


def target_block(targets) -> np.ndarray:
    """A read-only float64 block, one row per target: the observation's
    situational columns (type one-hot in TYPE_ORDER, range / 150 km, speed /
    1000 m/s), then the target arguments of ``kernels.utility`` (range in
    km, speed in m/s, type weight), so ``rows.T[SITUATIONAL_WIDTH:]``."""
    helicopter, fighter, missile = TYPE_ORDER
    rows = ((t.ttype is helicopter, t.ttype is fighter, t.ttype is missile,
             t.range_km / 150.0, t.speed_mps / 1000.0,
             t.range_km, t.speed_mps, TYPE_UTILITY_WEIGHT[t.ttype])
            for t in targets)
    block = np.fromiter(chain.from_iterable(rows), dtype=np.float64).reshape(
        -1, SITUATIONAL_WIDTH + 3)
    block.setflags(write=False)
    return block


#: Each type's utility weight, indexed by its position in TYPE_ORDER.
_TYPE_WEIGHTS = np.array([TYPE_UTILITY_WEIGHT[t] for t in TYPE_ORDER])


def scenario_block(scenario: Scenario) -> np.ndarray:
    """``target_block(scenario.targets)``, bit for bit, built a column at a
    time from the scenario's columns, with no ``Target``."""
    n = len(scenario.ids)
    code = np.fromiter(map(TYPE_ORDER.index, scenario.types), np.intp, n)
    range_km = np.array(scenario.range_km, dtype=np.float64)
    speed_mps = np.array(scenario.speed_mps, dtype=np.float64)
    block = np.empty((n, SITUATIONAL_WIDTH + 3))
    block[:, :len(TYPE_ORDER)] = code[:, None] == np.arange(len(TYPE_ORDER))
    block[:, SITUATIONAL_WIDTH - 2] = range_km / 150.0
    block[:, SITUATIONAL_WIDTH - 1] = speed_mps / 1000.0
    block[:, SITUATIONAL_WIDTH] = range_km
    block[:, SITUATIONAL_WIDTH + 1] = speed_mps
    block[:, SITUATIONAL_WIDTH + 2] = _TYPE_WEIGHTS[code]
    block.setflags(write=False)
    return block


def block_utility(space: ConfigSpace, rows: np.ndarray,
                  indices: np.ndarray | None = None) -> np.ndarray:
    """Utility of target block rows on grid indices, from one
    ``kernels.utility`` call.  ``indices`` is None for every row on the
    whole grid, a (rows x grid) array; a (1, k) array for every row on the
    same k indices, a (rows x k) array; or one index per row, one utility
    per row.  This is the one place that knows which block columns the
    kernel reads."""
    dwell, tx, pw = expanded_grids(space)
    target = rows.T[SITUATIONAL_WIDTH:]
    if indices is not None:
        dwell, tx, pw = dwell[indices], tx[indices], pw[indices]
    if indices is None or dwell.ndim == 2:  # a row of utilities per block row
        target = target[:, :, None]
    return kernels.utility(dwell, tx, pw, *target)


def utility_table(instance: ProblemInstance, ids=None) -> np.ndarray:
    """Utility of every task, or of the tasks ``ids`` in that order, on
    every grid index: a (tasks x grid) array, by default in instance order,
    each task's row bit for bit its ``config_metrics`` utility, from one
    kernel call.  Counts rows x grid size evaluations."""
    rows = (instance.block if ids is None
            else instance.block[[instance.position[tid] for tid in ids]])
    kernels.counters["config_evals"] += len(rows) * instance.space.size
    return block_utility(instance.space, rows)


def default_bounds(n_targets: int) -> ResourceBounds:
    """Default benchmark bounds: occupancy budget grows with the scenario but
    is capped at 1.0 (one radar timeline); 5 kW average power; unit weights.

    Chosen so that mid-size scenarios are resource constrained rather than
    trivially saturated.
    """
    return ResourceBounds(bounds=(min(0.03 * n_targets, 1.0), 5.0),
                          compound_weights=(1.0, 1.0))


def evaluate_allocation(alloc: Allocation, instance: ProblemInstance
                        ) -> tuple[dict[int, float], np.ndarray]:
    """Utility of every assigned task, keyed by task id in instance order,
    and the summed resource vector of the assigned tasks, added in instance
    order.  Each configuration's grid index is found once: an unknown task
    id raises KeyError, and a configuration off the grid ValueError."""
    position, index_of = instance.position, instance.space.index_of
    picks = [-1] * len(instance.ids)
    for tid, config in alloc.assignment.items():
        if tid not in position:
            raise KeyError(f"no task with id {tid}")
        try:
            picks[position[tid]] = index_of(config)
        except ValueError:
            raise ValueError(f"task {tid}: {config} is not on its grid") from None
    picks = np.array(picks, dtype=np.intp)
    positions = np.flatnonzero(picks >= 0)
    indices = picks[positions]
    utilities = block_utility(instance.space, instance.block[positions], indices)
    usage = usage_of([column[indices] for column in expanded_grids(instance.space)])
    return (dict(zip([instance.ids[pos] for pos in positions.tolist()],
                     utilities.tolist())), usage)


def system_utility(alloc: Allocation, instance: ProblemInstance,
                   utilities: dict[int, float] | None = None) -> float:
    """Sum of per-task utilities over assigned tasks, in task order.

    ``utilities``, when given, is ``evaluate_allocation(alloc, instance)[0]``
    already computed by the caller; it is summed instead of evaluated again.
    """
    if utilities is None:
        utilities = evaluate_allocation(alloc, instance)[0]
    total = 0.0
    for utility in utilities.values():
        total += utility  # not sum(): it compensates on Python >= 3.12
    return total


def is_feasible(alloc: Allocation, instance: ProblemInstance) -> bool:
    """True iff the summed resource vector stays within bounds (inclusive)."""
    return bool(np.all(evaluate_allocation(alloc, instance)[1]
                       <= np.asarray(instance.bounds.bounds)))
