"""Classical Q-RAM solver: per-task efficient frontiers plus greedy upgrades.

Every configuration of a task is embedded into resource-utility space; the
concave majorant of that point cloud (the increasing part of the upper convex
hull) is the task's *job list*.  A global pass then starts all tasks at their
cheapest job and repeatedly applies the upgrade with the best marginal
utility-to-resource ratio that still fits the resource bounds.

That pass is :func:`upgrade_loop`, the one greedy loop in the package: it
owns the resource ledger, the drop rule, the ratio order and the first-fit
acceptance.  An allocator only supplies each task's next step.  Here the
step walks the job list; :mod:`qram.allocator` asks a proposer instead.

The greedy pass is a heuristic: restricting choices to hull points can lose
the true optimum, and refining a grid can even lower the greedy result (see
the regression instance in :mod:`qram.remark1`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import (Allocation, Configuration, ConfigSpace, ResourceBounds,
                   Task, expanded_grids, resource_of)
from .perf import Target
from .problem import ProblemInstance


@dataclass(frozen=True)
class JobPoint:
    """One configuration embedded into (compound resource, utility) space."""

    config: Configuration
    resource: float
    utility: float

    def __post_init__(self):
        if self.resource < 0:
            raise ValueError(f"resource must be non-negative: {self.resource}")


def _cross(a: JobPoint, b: JobPoint, c: JobPoint) -> float:
    """Twice the signed area of (a, b, c); negative = clockwise = concave."""
    return ((b.resource - a.resource) * (c.utility - a.utility)
            - (c.resource - a.resource) * (b.utility - a.utility))


@dataclass(frozen=True)
class JobList:
    """A task's frontier: strictly better jobs at strictly decreasing rates."""

    task_id: int
    points: tuple[JobPoint, ...]

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise ValueError("a job list needs at least one point")
        for a, b in zip(pts, pts[1:]):
            if not (b.resource > a.resource and b.utility > a.utility):
                raise ValueError("job list must strictly increase in resource "
                                 "and utility")
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            if _cross(a, b, c) >= 0:
                raise ValueError("marginal ratios along a job list must be "
                                 "strictly decreasing")

    def ratios(self) -> list[float]:
        return [(b.utility - a.utility) / (b.resource - a.resource)
                for a, b in zip(self.points, self.points[1:])]


def embed_task(task: Task, target: Target, bounds: ResourceBounds) -> list[JobPoint]:
    """Evaluate every configuration of the task: one JobPoint per grid cell."""
    space = task.config_space
    dwell, tx, pw = expanded_grids(space)
    util, comp, _, _ = kernels.config_metrics(dwell, tx, pw, target, bounds)
    return [JobPoint(config=space.config_at(i), resource=float(comp[i]),
                     utility=float(util[i]))
            for i in range(space.size)]


def upper_frontier(points: list[JobPoint], task_id: int = -1) -> JobList:
    """Concave majorant of a point cloud in resource-utility space.

    Keeps the best point per resource level (ties to the lexicographically
    smallest configuration), runs a monotone-chain upper hull over them, and
    cuts the hull back to its strictly-increasing-utility prefix.
    """
    if not points:
        raise ValueError("cannot build a frontier from zero points")
    ordered = sorted(points, key=lambda p: (p.resource, -p.utility, p.config))
    best_per_r = []
    for p in ordered:
        if best_per_r and best_per_r[-1].resource == p.resource:
            continue
        best_per_r.append(p)
    hull: list[JobPoint] = []
    for p in best_per_r:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    frontier = [hull[0]]
    for p in hull[1:]:
        if p.utility > frontier[-1].utility:
            frontier.append(p)
        else:
            break  # hull slopes only decrease; utility cannot rise again
    return JobList(task_id=task_id, points=tuple(frontier))


def job_list_for(task: Task, target: Target, bounds: ResourceBounds) -> JobList:
    return upper_frontier(embed_task(task, target, bounds), task_id=task.id)


def base_configuration(space: ConfigSpace, target: Target,
                       bounds: ResourceBounds) -> Configuration:
    """Cheapest configuration by compound resource (ties: higher utility,
    then lexicographic).  This is the first point of the task's job list."""
    dwell, tx, pw = expanded_grids(space)
    util, comp, _, _ = kernels.config_metrics(dwell, tx, pw, target, bounds)
    order = np.lexsort((np.arange(space.size), -util, comp))
    return space.config_at(int(order[0]))


@dataclass(frozen=True)
class UpgradeStep:
    task_id: int
    config: Configuration
    ratio: float


@dataclass(frozen=True)
class AllocationTrace:
    """What the global pass did: dropped task ids and the upgrade order."""

    dropped: tuple[int, ...]
    upgrades: tuple[UpgradeStep, ...]


class UsageLedger:
    """Per-task resource rows summed exactly like the feasibility check.

    Feasibility must be judged with the same arithmetic the public check
    uses (a sequential sum over tasks in instance order), otherwise float
    drift from incremental updates can leave a "feasible" result that the
    recheck rejects by one ulp.  cumsum reproduces that sequential order.
    """

    def __init__(self, instance: ProblemInstance):
        self._row = {t.id: i for i, t in enumerate(instance.tasks)}
        self._mat = np.zeros((len(instance.tasks), len(instance.bounds.bounds)))
        self._limits = np.asarray(instance.bounds.bounds, dtype=np.float64)

    def set_row(self, task_id: int, vec) -> None:
        self._mat[self._row[task_id]] = vec

    def clear_row(self, task_id: int) -> None:
        self._mat[self._row[task_id]] = 0.0

    def usage(self) -> np.ndarray:
        if self._mat.shape[0] == 0:
            return np.zeros(self._mat.shape[1])
        return np.cumsum(self._mat, axis=0)[-1]

    def feasible(self) -> bool:
        return bool(np.all(self.usage() <= self._limits))

    def fits(self, task_id: int, vec) -> bool:
        """Would replacing the task's row keep the total within limits?"""
        row = self._row[task_id]
        saved = self._mat[row].copy()
        self._mat[row] = vec
        ok = self.feasible()
        self._mat[row] = saved
        return ok


def _drop_until_feasible(ledger: UsageLedger, active: list[int]) -> list[int]:
    """Drop tasks from the highest id down until the base load fits."""
    dropped = []
    while active and not ledger.feasible():
        tid = max(active)
        active.remove(tid)
        dropped.append(tid)
        ledger.clear_row(tid)
    return sorted(dropped)


#: advance(task_id, current_config) -> (next config, ratio), or None to retire
Advance = Callable[[int, Configuration], tuple[Configuration, float] | None]


def upgrade_loop(instance: ProblemInstance, start: dict[int, Configuration],
                 advance: Advance) -> tuple[Allocation, AllocationTrace]:
    """The greedy upgrade loop shared by every allocator.

    Starts each task at ``start[tid]`` (dropping the highest ids if even
    those do not fit), then keeps one candidate upgrade per task, asked of
    ``advance``, and repeatedly applies the first candidate that fits, in
    order of decreasing ratio with ties to the lower task id.  ``advance``
    is called once per task at the start and again for a task only after
    its candidate was accepted; returning None retires the task.
    Feasibility is checked against the full resource vector even though
    ratios rank by a scalar.
    """
    ledger = UsageLedger(instance)
    active = sorted(start)
    for tid in active:
        ledger.set_row(tid, resource_of(start[tid]))
    dropped = _drop_until_feasible(ledger, active)
    current = {tid: start[tid] for tid in active}

    candidates: dict[int, tuple[Configuration, np.ndarray, float]] = {}

    def refresh(tid: int) -> None:
        step = advance(tid, current[tid])
        if step is None:
            candidates.pop(tid, None)
        else:
            config, ratio = step
            candidates[tid] = (config, resource_of(config), ratio)

    for tid in active:
        refresh(tid)

    upgrades: list[UpgradeStep] = []
    while candidates:
        order = sorted(candidates, key=lambda tid: (-candidates[tid][2], tid))
        for tid in order:
            config, vec, ratio = candidates[tid]
            if ledger.fits(tid, vec):
                ledger.set_row(tid, vec)
                current[tid] = config
                upgrades.append(UpgradeStep(task_id=tid, config=config,
                                            ratio=ratio))
                refresh(tid)
                break
        else:
            break  # no feasible upgrade anywhere

    return (Allocation(assignment=current),
            AllocationTrace(dropped=tuple(dropped), upgrades=tuple(upgrades)))


def greedy_allocate(job_lists: list[JobList],
                    instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Greedy marginal-ratio allocation over precomputed job lists.

    Runs :func:`upgrade_loop` from each task's first frontier point, one
    frontier step at a time, ranked by the step's utility-to-resource ratio.
    """
    by_id = {jl.task_id: jl for jl in job_lists}
    if sorted(by_id) != sorted(t.id for t in instance.tasks):
        raise ValueError("need exactly one job list per task")
    steps = {tid: zip(jl.points, jl.points[1:]) for tid, jl in by_id.items()}

    def advance(tid: int, config: Configuration):
        # The loop only calls again after accepting the previous step, so
        # the next pair of frontier points always starts at ``config``.
        step = next(steps[tid], None)
        if step is None:
            return None  # end of the frontier
        a, b = step
        return b.config, (b.utility - a.utility) / (b.resource - a.resource)

    return upgrade_loop(instance, {tid: jl.points[0].config
                                   for tid, jl in by_id.items()}, advance)


def solve_classic(instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Embed, build frontiers, run the greedy pass."""
    job_lists = [job_list_for(task, instance.target_for(task), instance.bounds)
                 for task in instance.tasks]
    return greedy_allocate(job_lists, instance)
