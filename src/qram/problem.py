"""Problem instances: tasks, bounds and one configuration grid.

The instance is the object every solver consumes: each task carries the
target it tracks, and every task picks from the instance's one grid.  It
is built in memory, one tracking task per target
(:func:`build_tracking_instance`); on disk a problem is its scenario file
plus the bounds given on the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Allocation, ConfigSpace, ResourceBounds, Task,
                   grid_configurations, resource_of)
from .kernels import config_costs
from .perf import Scenario, snr, task_utility


@dataclass(frozen=True)
class ProblemInstance:
    tasks: tuple[Task, ...]
    bounds: ResourceBounds
    space: ConfigSpace
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {t.id: t for t in self.tasks}
        if len(by_id) != len(self.tasks):
            raise ValueError("task ids must be unique")
        # SNR is monotone in P*tx, so a finite, positive SNR at the grid's
        # first and last configuration (lowest and highest P*tx) holds on
        # the whole grid, and with it a finite, positive tracking error.
        configs = grid_configurations(self.space)
        for task in self.tasks:
            target = task.target
            try:
                low, high = snr(configs[0], target), snr(configs[-1], target)
            except ZeroDivisionError:  # range^4 underflows to 0
                low = high = math.inf
            if not 0.0 < low <= high < math.inf:
                raise ValueError(f"target {target.id} at {target.range_km} km is "
                                 f"outside the range the radar model can evaluate")
        config_costs(self.space, self.bounds)  # raises if a compound is not finite
        object.__setattr__(self, "_by_id", by_id)

    def task_by_id(self, task_id: int) -> Task:
        try:
            return self._by_id[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id}") from None


def build_tracking_instance(scenario: Scenario, bounds: ResourceBounds,
                            space: ConfigSpace) -> ProblemInstance:
    """One tracking task per target, task id equal to target id."""
    tasks = tuple(Task(id=t.id, target=t) for t in scenario.targets)
    return ProblemInstance(tasks=tasks, bounds=bounds, space=space)


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
    """(task, config) of every assigned task, in instance order."""
    _check_assignment(alloc, instance)
    return [(t, alloc.assignment[t.id]) for t in instance.tasks
            if t.id in alloc.assignment]


def _utilities(assigned) -> dict[int, float]:
    return {task.id: task_utility(config, task.target)
            for task, config in assigned}


def _usage(assigned, instance: ProblemInstance) -> np.ndarray:
    usage = np.zeros(len(instance.bounds.bounds), dtype=np.float64)
    for _, config in assigned:
        usage += resource_of(config)
    return usage


def task_utilities(alloc: Allocation, instance: ProblemInstance) -> dict[int, float]:
    """Utility of every assigned task, keyed by task id in instance order."""
    return _utilities(_assigned(alloc, instance))


def resource_usage(alloc: Allocation, instance: ProblemInstance) -> np.ndarray:
    """Summed resource vector of the assigned tasks, added in instance order."""
    return _usage(_assigned(alloc, instance), instance)


def evaluate_allocation(alloc: Allocation, instance: ProblemInstance
                        ) -> tuple[dict[int, float], np.ndarray]:
    """``task_utilities`` and ``resource_usage`` from one check of ``alloc``."""
    assigned = _assigned(alloc, instance)
    return _utilities(assigned), _usage(assigned, instance)


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
