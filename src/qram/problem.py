"""Problem instances: tasks, bounds and one configuration grid.

The instance is the object every solver consumes.  A task is the
:class:`~qram.perf.Target` it tracks, and every task picks from the
instance's one grid, whose (tasks x grid) :func:`utility_table` the classic
solver and both exact oracles read.  Solvers read targets as rows of the
instance's :func:`target_block`.  It is built in memory from a scenario
(:func:`build_tracking_instance`); on disk a problem is its scenario file
plus the bounds given on the command line.

An evaluation builds its configurations' (dwell, tx, pw) columns once, for
``kernels.utility`` and for ``core.usage_of`` (the ledger's row sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import kernels
from .core import (Allocation, ConfigSpace, ResourceBounds, config_columns,
                   expanded_grids, usage_of)
from .perf import TYPE_ORDER, TYPE_UTILITY_WEIGHT, Scenario, Target

#: Width of the situational columns that open a target block row.
SITUATIONAL_WIDTH = len(TYPE_ORDER) + 2


@dataclass(frozen=True)
class ProblemInstance:
    tasks: tuple[Target, ...]
    bounds: ResourceBounds
    space: ConfigSpace
    #: Each task id's position in ``tasks``, and ``target_block(tasks)``.
    position: dict = field(init=False, repr=False, compare=False)
    block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = {t.id: pos for pos, t in enumerate(self.tasks)}
        if len(position) != len(self.tasks):
            raise ValueError("task ids must be unique")
        # SNR is monotone in P*tx, so a finite, positive SNR at the grid's
        # first and last configuration (lowest and highest P*tx) holds on
        # the whole grid, and with it a finite, positive tracking error.
        # A range^4 that underflows to 0 gives an infinite SNR.
        object.__setattr__(self, "block", target_block(self.tasks))
        _, tx, pw = expanded_grids(self.space)
        range_km = self.block[:, SITUATIONAL_WIDTH]
        with np.errstate(divide="ignore", over="ignore"):
            low = kernels.snr(tx[0], pw[0], range_km)
            high = kernels.snr(tx[-1], pw[-1], range_km)
        bad = np.flatnonzero(~((0.0 < low) & (low <= high) & (high < np.inf)))
        if len(bad):
            target = self.tasks[bad[0]]
            raise ValueError(f"target {target.id} at {target.range_km} km is "
                             f"outside the range the radar model can evaluate")
        kernels.config_costs(self.space, self.bounds)  # raises if a compound is not finite
        object.__setattr__(self, "position", position)

    def task_by_id(self, task_id: int) -> Target:
        try:
            return self.tasks[self.position[task_id]]
        except KeyError:
            raise KeyError(f"no task with id {task_id}") from None


def build_tracking_instance(scenario: Scenario, bounds: ResourceBounds,
                            space: ConfigSpace) -> ProblemInstance:
    """One tracking task per target: the scenario's targets are the tasks."""
    return ProblemInstance(tasks=tuple(scenario.targets), bounds=bounds,
                           space=space)


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


def utility_table(instance: ProblemInstance) -> np.ndarray:
    """Utility of every task on every grid index: a (tasks x grid) array in
    instance order, row i bit for bit the ``config_metrics`` utility of
    task i, from one kernel call.  Counts tasks x grid size evaluations."""
    dwell, tx, pw = expanded_grids(instance.space)
    kernels.counters["config_evals"] += len(instance.tasks) * len(dwell)
    return kernels.utility(dwell, tx, pw,
                           *instance.block.T[SITUATIONAL_WIDTH:, :, None])


def default_bounds(n_targets: int) -> ResourceBounds:
    """Default benchmark bounds: occupancy budget grows with the scenario but
    is capped at 1.0 (one radar timeline); 5 kW average power; unit weights.

    Chosen so that mid-size scenarios are resource constrained rather than
    trivially saturated.
    """
    return ResourceBounds(bounds=(min(0.03 * n_targets, 1.0), 5.0),
                          compound_weights=(1.0, 1.0))


def _check_assignment(alloc: Allocation, instance: ProblemInstance) -> None:
    for tid, config in alloc.assignment.items():
        instance.task_by_id(tid)  # raises KeyError on unknown ids
        if config not in instance.space:
            raise ValueError(f"task {tid}: {config} is not on its grid")


def _assigned(alloc: Allocation, instance: ProblemInstance):
    """Positions of the assigned tasks, in instance order, and the
    (dwell, tx, pw) columns of their configurations."""
    _check_assignment(alloc, instance)
    positions = [pos for pos, t in enumerate(instance.tasks)
                 if t.id in alloc.assignment]
    return positions, config_columns(alloc.assignment[instance.tasks[pos].id]
                                     for pos in positions)


def _utilities(assigned, instance: ProblemInstance) -> dict[int, float]:
    """Utility of every assigned task from one kernel call."""
    positions, columns = assigned
    utilities = kernels.utility(*columns,
                                *instance.block[positions].T[SITUATIONAL_WIDTH:])
    return dict(zip([instance.tasks[pos].id for pos in positions],
                    utilities.tolist()))


def task_utilities(alloc: Allocation, instance: ProblemInstance) -> dict[int, float]:
    """Utility of every assigned task, keyed by task id in instance order."""
    return _utilities(_assigned(alloc, instance), instance)


def resource_usage(alloc: Allocation, instance: ProblemInstance) -> np.ndarray:
    """Summed resource vector of the assigned tasks, added in instance order."""
    return usage_of(_assigned(alloc, instance)[1])


def evaluate_allocation(alloc: Allocation, instance: ProblemInstance
                        ) -> tuple[dict[int, float], np.ndarray]:
    """``task_utilities`` and ``resource_usage`` from one check of ``alloc``."""
    assigned = _assigned(alloc, instance)
    return _utilities(assigned, instance), usage_of(assigned[1])


def system_utility(alloc: Allocation, instance: ProblemInstance,
                   utilities: dict[int, float] | None = None) -> float:
    """Sum of per-task utilities over assigned tasks, in task order.

    ``utilities``, when given, is ``task_utilities(alloc, instance)`` already
    computed by the caller; it is summed instead of evaluated again.
    """
    if utilities is None:
        utilities = task_utilities(alloc, instance)
    total = 0.0
    for utility in utilities.values():
        total += utility  # not sum(): it compensates on Python >= 3.12
    return total


def is_feasible(alloc: Allocation, instance: ProblemInstance) -> bool:
    """True iff the summed resource vector stays within bounds (inclusive)."""
    return bool(np.all(resource_usage(alloc, instance)
                       <= np.asarray(instance.bounds.bounds)))
