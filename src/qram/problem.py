"""Problem instances: tasks plus bounds plus the scenario they track.

The instance is the object every solver consumes.  It serialises to a
versioned JSON document (``"format": 1``) whose field names mirror the type
fields, so instances round-trip between the CLI tools and the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Allocation, ConfigSpace, ResourceBounds, Task,
                   compound_resource, grid_configurations, resource_of)
from .perf import Scenario, Target, task_utility


@dataclass(frozen=True)
class ProblemInstance:
    tasks: tuple[Task, ...]
    bounds: ResourceBounds
    scenario: Scenario
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {t.id: t for t in self.tasks}
        if len(by_id) != len(self.tasks):
            raise ValueError("task ids must be unique")
        for task in self.tasks:
            self.scenario.target_by_id(task.target_ref)  # raises if missing
        for space in {task.config_space for task in self.tasks}:
            for config in grid_configurations(space):
                if not math.isfinite(compound_resource(resource_of(config),
                                                       self.bounds)):
                    raise ValueError(f"the compound resource of {config} is "
                                     f"not finite under {self.bounds}")
        object.__setattr__(self, "_by_id", by_id)

    def task_by_id(self, task_id: int) -> Task:
        try:
            return self._by_id[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id}") from None

    def target_for(self, task: Task) -> Target:
        return self.scenario.target_by_id(task.target_ref)

    def to_dict(self) -> dict:
        return {"format": 1,
                "tasks": [t.to_dict() for t in self.tasks],
                "bounds": self.bounds.to_dict(),
                "scenario": self.scenario.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemInstance":
        if d.get("format") != 1:
            raise ValueError(f"unsupported instance format {d.get('format')!r}")
        return cls(tasks=tuple(Task.from_dict(t) for t in d["tasks"]),
                   bounds=ResourceBounds.from_dict(d["bounds"]),
                   scenario=Scenario.from_dict(d["scenario"]))


def build_tracking_instance(scenario: Scenario, bounds: ResourceBounds,
                            space: ConfigSpace) -> ProblemInstance:
    """One tracking task per target, task id equal to target id."""
    tasks = tuple(Task(id=t.id, target_ref=t.id, config_space=space)
                  for t in scenario.targets)
    return ProblemInstance(tasks=tasks, bounds=bounds, scenario=scenario)


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
        task = instance.task_by_id(tid)  # raises KeyError on unknown ids
        if config not in task.config_space:
            raise ValueError(f"task {tid}: {config} is not on its grid")


def _assigned(alloc: Allocation, instance: ProblemInstance):
    """(task, config) of every assigned task, in instance order."""
    _check_assignment(alloc, instance)
    return [(t, alloc.assignment[t.id]) for t in instance.tasks
            if t.id in alloc.assignment]


def _utilities(assigned, instance: ProblemInstance) -> dict[int, float]:
    return {task.id: task_utility(config, instance.target_for(task))
            for task, config in assigned}


def _usage(assigned, instance: ProblemInstance) -> np.ndarray:
    usage = np.zeros(len(instance.bounds.bounds), dtype=np.float64)
    for _, config in assigned:
        usage += resource_of(config)
    return usage


def task_utilities(alloc: Allocation, instance: ProblemInstance) -> dict[int, float]:
    """Utility of every assigned task, keyed by task id in instance order."""
    return _utilities(_assigned(alloc, instance), instance)


def resource_usage(alloc: Allocation, instance: ProblemInstance) -> np.ndarray:
    """Summed resource vector of the assigned tasks, added in instance order."""
    return _usage(_assigned(alloc, instance), instance)


def evaluate_allocation(alloc: Allocation, instance: ProblemInstance
                        ) -> tuple[dict[int, float], np.ndarray]:
    """``task_utilities`` and ``resource_usage`` from one check of ``alloc``."""
    assigned = _assigned(alloc, instance)
    return _utilities(assigned, instance), _usage(assigned, instance)


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
