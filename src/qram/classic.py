"""Classical Q-RAM solver: per-task efficient frontiers plus greedy upgrades.

Every configuration of a task is embedded into resource-utility space; the
concave majorant of that point cloud (the increasing part of the upper convex
hull) is the task's *job list*.  A global pass then starts all tasks at their
cheapest job and repeatedly applies the upgrade with the best marginal
utility-to-resource ratio that still fits the resource bounds.

That pass is :func:`upgrade_loop`, the one greedy loop in the package: it
owns the resource ledger, the drop rule, the ratio order and the first-fit
acceptance.  An allocator only supplies each task's start configuration
and an iterator of its upgrade steps.  Here the steps walk the job list;
:mod:`qram.allocator` draws them from a proposer instead.

The greedy pass is a heuristic: restricting choices to hull points can lose
the true optimum, and refining a grid can even lower the greedy result (see
the regression instance in :mod:`qram.remark1`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (Allocation, Configuration, ConfigSpace, ResourceBounds,
                   Task, expanded_grids, grid_configurations, resource_of)
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
        """Utility-to-resource slope of each step along the frontier."""
        return [(b.utility - a.utility) / (b.resource - a.resource)
                for a, b in zip(self.points, self.points[1:])]


def embed_task(task: Task, target: Target, bounds: ResourceBounds) -> list[JobPoint]:
    """Evaluate every configuration of the task: one JobPoint per grid cell."""
    space = task.config_space
    dwell, tx, pw = expanded_grids(space)
    util, comp, _, _ = kernels.config_metrics(dwell, tx, pw, target, bounds)
    return [JobPoint(config=config, resource=r, utility=u)
            for config, r, u in zip(grid_configurations(space), comp.tolist(),
                                    util.tolist())]


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


def _sequential_sum(mat: np.ndarray) -> np.ndarray:
    """Column sums added row by row, in row order (what cumsum does)."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[1])
    return np.cumsum(mat, axis=0)[-1]


class UsageLedger:
    """Per-task resource rows summed exactly like the feasibility check.

    Feasibility must be judged with the same arithmetic the public check
    uses (a sequential sum over tasks in instance order), otherwise float
    drift from incremental updates can leave a "feasible" result that the
    recheck rejects by one ulp.  cumsum reproduces that sequential order.

    Invariant: between writes the ledger holds that sequential sum, the
    usage :func:`qram.problem.is_feasible` computes.  A write only marks it
    stale; it is re-summed once, before the next check, so the initial fill
    costs one sum, not one per row.

    :meth:`fits` answers in O(1) from the held usage ``s``: per resource,
    the candidate total ``s - old + new`` is within
    ``band = (2T + 8) * 2**-52 * (s + old + new)`` (T rows) of the sum a
    full re-sum with the row replaced would give.  So a total above its
    limit by more than ``band`` cannot fit, and totals below every limit
    by more than ``band`` fit; only a total inside the band falls back to
    the full re-sum.  The bound holds because every entry is >= 0 (a
    resource vector of a valid configuration is): a sequential
    sum of T non-negative terms errs by at most (T - 1) * 2**-53 times its
    exact total, which bounds the error of the held usage and of the
    re-summed candidate, and ``s - old + new`` adds two roundings of at
    most 2**-53 each.  Together that is about T * 2**-52 * (s + old + new);
    the rest of ``band`` covers rounding ``band`` itself.  Every answer is
    therefore the one the full re-sum gives, bit for bit.
    """

    def __init__(self, instance: ProblemInstance):
        self._row = {t.id: i for i, t in enumerate(instance.tasks)}
        self._mat = np.zeros((len(instance.tasks), len(instance.bounds.bounds)))
        self._limits = tuple(float(b) for b in instance.bounds.bounds)
        self._band = (2 * len(instance.tasks) + 8) * 2.0**-52
        self._usage: tuple[float, ...] | None = None  # None after a write

    def set_row(self, task_id: int, vec) -> None:
        self._mat[self._row[task_id]] = vec
        self._usage = None

    def clear_row(self, task_id: int) -> None:
        self._mat[self._row[task_id]] = 0.0
        self._usage = None

    def usage(self) -> tuple[float, ...]:
        """The sequential sum of all rows, re-summed only after a write."""
        if self._usage is None:
            self._usage = tuple(_sequential_sum(self._mat).tolist())
        return self._usage

    def feasible(self) -> bool:
        return all(s <= lim for s, lim in zip(self.usage(), self._limits))

    def _fits_with(self, rows: list[int], values) -> bool:
        """Would the rows fit with ``rows`` set to ``values``?  Re-sums a
        copy; the ledger itself is left as it is."""
        mat = self._mat.copy()
        mat[rows] = values
        return bool(np.all(_sequential_sum(mat) <= self._limits))

    def feasible_without(self, task_ids) -> bool:
        """Would the rows fit with these tasks' rows cleared?"""
        return self._fits_with([self._row[tid] for tid in task_ids], 0.0)

    def fits(self, task_id: int, vec) -> bool:
        """Would replacing the task's row keep the total within limits?"""
        row = self._row[task_id]
        new = np.asarray(vec, dtype=np.float64)
        decided = True
        for s, old, n, lim in zip(self.usage(), self._mat[row].tolist(),
                                  new.tolist(), self._limits):
            total = s - old + n
            band = self._band * (s + old + n)
            if total - band > lim:
                return False
            if not total + band < lim:
                decided = False
        return decided or self._fits_with([row], new)


def _drop_until_feasible(ledger: UsageLedger, active: list[int]) -> list[int]:
    """Drop tasks from the highest id down until the base load fits.

    Returns the dropped ids, sorted, after removing them from ``active``
    and clearing their rows: the fewest highest ids whose removal makes the
    ledger feasible, or all of them.  Rows are >= 0 and rounding is
    monotone, so the sequential usage after clearing the top k ids never
    grows with k; the smallest such k is found by bisection, with
    O(log T) re-sums instead of one per drop.
    """
    if ledger.feasible():
        return []
    by_id = sorted(active)
    lo, hi = 0, len(by_id)  # infeasible after lo drops; hi drops suffice
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ledger.feasible_without(by_id[len(by_id) - mid:]):
            hi = mid
        else:
            lo = mid
    dropped = by_id[len(by_id) - hi:]
    for tid in dropped:
        ledger.clear_row(tid)
    gone = set(dropped)
    active[:] = [tid for tid in active if tid not in gone]
    return dropped


def upgrade_loop(instance: ProblemInstance, start: dict[int, Configuration],
                 steps: dict[int, Iterator[tuple[Configuration, float]]]
                 ) -> tuple[Allocation, AllocationTrace]:
    """The greedy upgrade loop shared by every allocator.

    Starts each task at ``start[tid]`` (dropping the highest ids if even
    those do not fit), then keeps one candidate upgrade per task, drawn
    from ``steps[tid]``, an iterator of ``(config, ratio)``, and
    repeatedly applies the first candidate that fits, in order of
    decreasing ratio with ties to the lower task id.  Each kept task's
    iterator is drawn once at the start and again only after its candidate
    was accepted, so a lazy iterator sees every accepted upgrade before it
    yields the next; an exhausted iterator retires the task.  Feasibility
    is checked against the full resource vector even though ratios rank
    by a scalar.
    """
    ledger = UsageLedger(instance)
    active = sorted(start)
    for tid in active:
        ledger.set_row(tid, resource_of(start[tid]))
    dropped = _drop_until_feasible(ledger, active)
    current = {tid: start[tid] for tid in active}

    candidates: dict[int, tuple[Configuration, np.ndarray, float]] = {}
    order: list[tuple[float, int]] = []  # (-ratio, tid), kept sorted

    def refresh(tid: int) -> None:
        if tid in candidates:
            del order[bisect_left(order, (-candidates.pop(tid)[2], tid))]
        step = next(steps[tid], None)
        if step is not None:
            config, ratio = step
            candidates[tid] = (config, resource_of(config), ratio)
            insort(order, (-ratio, tid))

    for tid in active:
        refresh(tid)

    upgrades: list[UpgradeStep] = []
    while candidates:
        for _, tid in order:
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
    return upgrade_loop(
        instance, {tid: jl.points[0].config for tid, jl in by_id.items()},
        {tid: zip([p.config for p in jl.points[1:]], jl.ratios())
         for tid, jl in by_id.items()})

def solve_classic(instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Embed, build frontiers, run the greedy pass."""
    job_lists = [job_list_for(task, instance.target_for(task), instance.bounds)
                 for task in instance.tasks]
    return greedy_allocate(job_lists, instance)
