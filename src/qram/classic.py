"""Classical Q-RAM solver: per-task efficient frontiers plus greedy upgrades.

Every configuration of a task is embedded into resource-utility space; the
concave majorant of that point cloud (the increasing part of the upper convex
hull) is the task's *job list*.  A global pass then starts all tasks at their
cheapest job and repeatedly applies the upgrade with the best marginal
utility-to-resource ratio that still fits the resource bounds.

That pass is :func:`upgrade_loop`, the one greedy loop in the package: it
owns the resource ledger, the drop rule, the ratio order and the first-fit
acceptance.  An allocator only supplies each task's start configuration
and, for the tasks kept after the drop, an iterator of their upgrade steps.
Here the steps walk the job list; :mod:`qram.allocator` walks proposal
chains that it computes in batched waves.

Job lists are built two ways, point for point equal.  :func:`job_list_for`
builds one task's list from a point per configuration (:func:`embed_task`,
then :func:`upper_frontier`); it is the per-task cost the paper compares
against.  A solve builds the lists of a whole instance in two array stages:
:func:`qram.problem.utility_table` evaluates every (task, configuration)
pair in one kernel call, and :func:`instance_job_lists` sweeps the grid's
compound levels once for all tasks, which share the grid, and fills each
task's frontier columns straight from the sweep's rows, with no point object.

Inside the solvers a choice is a grid index, whose order is the
lexicographic order of configurations.  ``Configuration`` objects appear
only in the returned ``Allocation``, read from the cached grid tuple.

The greedy pass is a heuristic: restricting choices to hull points can lose
the true optimum, and refining a grid can even lower the greedy result (see
the regression instance in :mod:`qram.remark1`).
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import kernels
from .core import (Allocation, ConfigSpace, ResourceBounds, expanded_grids,
                   grid_configurations)
from .perf import Target
from .problem import SITUATIONAL_WIDTH, ProblemInstance, utility_table


class JobPoint(NamedTuple):
    """A grid index embedded into (compound resource, utility) space."""

    index: int
    resource: float
    utility: float


def _cross(a: JobPoint, b: JobPoint, c: JobPoint) -> float:
    """Twice the signed area of (a, b, c); negative = clockwise = concave."""
    return ((b.resource - a.resource) * (c.utility - a.utility)
            - (c.resource - a.resource) * (b.utility - a.utility))


class JobList(NamedTuple):
    """A task's frontier as three equal-length columns in frontier order:
    strictly better jobs at strictly decreasing rates.

    Both builders guarantee that shape by construction: the same ``_cross``
    decides every hull pop.
    """

    task_id: int
    index: tuple[int, ...]
    resource: tuple[float, ...]
    utility: tuple[float, ...]

    @property
    def points(self) -> tuple[JobPoint, ...]:
        """The jobs as JobPoints, for readers that walk point by point."""
        return tuple(map(JobPoint, self.index, self.resource, self.utility))

    def ratios(self) -> list[float]:
        """Utility-to-resource slope of each step along the frontier."""
        r, u = self.resource, self.utility
        return [(u1 - u0) / (r1 - r0)
                for r0, r1, u0, u1 in zip(r, r[1:], u, u[1:])]


def embed_task(target: Target, space: ConfigSpace,
               bounds: ResourceBounds) -> list[JobPoint]:
    """Evaluate every configuration of ``space`` against the task's target:
    one JobPoint per grid cell."""
    util, comp, _, _ = kernels.config_metrics(space, target, bounds)
    return list(map(JobPoint, range(space.size), comp.tolist(), util.tolist()))


def upper_frontier(points: list[JobPoint], task_id: int = -1) -> JobList:
    """Concave majorant of a point cloud in resource-utility space.

    Keeps the best point per resource level (ties to the lowest index, the
    lexicographically smallest configuration), runs a monotone-chain upper
    hull over them, and cuts the hull back to its strictly-increasing-utility prefix.
    The cheapest point opens the frontier, so its resource must be >= 0.
    """
    if not points:
        raise ValueError("cannot build a frontier from zero points")
    ordered = sorted(points, key=lambda p: (p.resource, -p.utility, p.index))
    if ordered[0].resource < 0:
        raise ValueError(f"resource must be non-negative: {ordered[0].resource}")
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
    return JobList(task_id, *zip(*frontier))


def job_list_for(target: Target, space: ConfigSpace,
                 bounds: ResourceBounds) -> JobList:
    return upper_frontier(embed_task(target, space, bounds), task_id=target.id)


@lru_cache(maxsize=64)
def _compound_levels(space: ConfigSpace, bounds: ResourceBounds):
    """The grid's compound order and its distinct levels, once per (grid,
    bounds): ``order`` sorts the ``config_costs`` compound column stably,
    so a level lists its grid indices in ascending order, and ``starts``
    holds the position in ``order`` where each level begins."""
    comp = kernels.config_costs(space, bounds)[0]
    order = np.argsort(comp, kind="stable")
    ranked = comp[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    for column in (order, starts):
        column.setflags(write=False)
    return order, starts


def instance_job_lists(instance: ProblemInstance,
                       table: np.ndarray) -> list[JobList]:
    """Every task's job list from its row of ``utility_table``, in
    instance order, point for point equal to :func:`job_list_for`.

    The tasks share the grid, so they share its compound levels.  Each
    level keeps its best utility, ties to the lowest grid index, as
    :func:`upper_frontier`'s sort does.  One monotone-chain sweep over the
    levels then pops, for all tasks at once, every hull top whose
    ``_cross`` with the new level is >= 0, computed from the same operands
    in the same order, so every float matches the per-task path.  The
    strictly-increasing-utility prefix of each hull fills the columns.
    """
    comp = kernels.config_costs(instance.space, instance.bounds)[0]
    order, starts = _compound_levels(instance.space, instance.bounds)
    ranked = table[:, order]
    best = np.maximum.reduceat(ranked, starts, axis=1)  # (tasks, levels)
    widths = np.diff(starts, append=len(order))
    tied = np.where(ranked == np.repeat(best, widths, axis=1), order, len(order))
    index = np.minimum.reduceat(tied, starts, axis=1)  # grid index per level
    level = comp[order[starts]]

    # A level stack per task.  The first two levels go on unexamined; a pop
    # leaves at least one level and a push follows, so from then on every
    # stack holds two or more when a level arrives.
    n_tasks, n_levels = best.shape
    hull = np.zeros((n_tasks, n_levels), dtype=np.intp)
    hull[:, :2] = np.arange(min(2, n_levels))
    height = np.full(n_tasks, min(2, n_levels))
    every = np.arange(n_tasks)
    for c in range(2, n_levels):
        live = every
        while len(live):
            top = height[live]
            a, b = hull[live, top - 2], hull[live, top - 1]
            ra, ua, ub = level[a], best[live, a], best[live, b]
            cross = ((level[b] - ra) * (best[live, c] - ua)
                     - (level[c] - ra) * (ub - ua))
            pop = cross >= 0
            live, top = live[pop], top[pop] - 1
            height[live] = top
            live = live[top >= 2]
        hull[every, height] = c
        height += 1

    # Hull slopes only decrease, so utility stops rising for good once it
    # fails to rise: the frontier is the rising prefix.
    hull_u = np.take_along_axis(best, hull, axis=1)
    rises = ((hull_u[:, 1:] > hull_u[:, :-1])
             & (np.arange(1, n_levels) < height[:, None]))
    length = 1 + np.cumprod(rises, axis=1).sum(axis=1)
    picks = np.take_along_axis(index, hull[:, :int(length.max(initial=1))], axis=1)
    rows = zip(instance.tasks, length.tolist(), picks.tolist(),
               comp[picks].tolist(),
               np.take_along_axis(table, picks, axis=1).tolist())
    return [JobList(target.id, tuple(i[:k]), tuple(r[:k]), tuple(u[:k]))
            for target, k, i, r, u in rows]


def base_configuration(space: ConfigSpace, rows: np.ndarray,
                       bounds: ResourceBounds) -> list[int]:
    """Grid index of each target block row's cheapest configuration by
    compound resource (ties: higher utility, then lower index), in order.
    This is the first point of the task's job list.  The least-compound set
    is cached per (grid, bounds), in index order.  A set of one needs no
    utility; otherwise one ``kernels.utility`` call evaluates it for every
    row, and ``argmax`` keeps the first of equal utilities."""
    cheapest = kernels.config_costs(space, bounds)[3]
    if len(cheapest) == 1:
        return [int(cheapest[0])] * len(rows)
    dwell, tx, pw = (column[cheapest] for column in expanded_grids(space))
    util = kernels.utility(dwell, tx, pw, *rows.T[SITUATIONAL_WIDTH:, :, None])
    return cheapest[util.argmax(axis=1)].tolist()


@dataclass(frozen=True)
class UpgradeStep:
    task_id: int
    index: int  # the grid index the task moved to
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
    Every entry is >= 0, as a resource vector of a valid configuration is.

    The ledger holds a usage ``s`` and a drift ``d`` per resource.  A
    re-sum sets ``s`` to the sequential sum ``S`` of the T rows and ``d``
    to 0.  A write of a row from ``old`` to ``new`` is O(1):
    ``s <- (s - old) + new`` and ``d += u * (T * old + 2 * (|s| + old +
    new))``, with ``u = 2**-53`` and ``s`` read before the write.

    Invariant: ``|s - E| <= g * E + d``, where ``E`` is the exact sum of
    the rows and ``g = (T - 1) * u / (1 - (T - 1) * u)`` bounds the
    relative error of a sequential sum of T non-negative terms (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 4); for T below
    10**8, ``g <= T * u``.  A re-sum makes the invariant hold with
    ``d = 0``.  A write moves ``E`` by ``new - old`` and ``s`` by that plus
    two roundings, each at most ``u`` times a value <= ``|s| + old + new``.
    The error ``g * E`` carried from the last re-sum may exceed ``g`` times
    the new exact sum, but by at most ``g * old``.  The increment of ``d``
    covers both terms.

    :meth:`fits` asks whether the totals ``t = s - old + new`` are within
    their limits.  The sequential sum ``S'`` that a full re-sum with the
    row replaced would give is within
    ``band = (2T + 8) * 2**-52 * (s + old + new) + 2 * d`` of ``t``.  This
    bound adds the invariant, ``|S' - E'| <= g * E'`` for the new exact
    sum ``E' <= E + new``, and the two roundings of ``t``.  The invariant
    gives ``s >= -d`` and ``E <= (s + d) / (1 - g)``, so the terms are
    about ``T * 2**-52 * (s + old + new)`` plus ``(1 + 2g) * d``.  The rest
    of ``band`` covers rounding in ``band`` and ``d``.  So a total above
    its limit by more than ``band`` cannot fit, and totals below every
    limit by more than ``band`` fit.  Such a verdict is that of the full
    re-sum, bit for bit, and costs O(1).

    A total inside its band while ``d > 0`` makes the ledger re-sum once
    and decide again with ``d = 0``.  A total still inside its band sums a
    copy with the row replaced.  Every answer is therefore the one the full
    re-sum gives.
    """

    def __init__(self, instance: ProblemInstance):
        self._row = instance.position
        self._mat = np.zeros((len(instance.tasks), len(instance.bounds.bounds)))
        self._limits = tuple(float(b) for b in instance.bounds.bounds)
        self._tasks = len(instance.tasks)
        self._band = (2 * self._tasks + 8) * 2.0**-52
        self._usage = [0.0] * len(self._limits)  # the sum of zero rows
        self._drift = [0.0] * len(self._limits)
        self._exact = True  # no write since the last re-sum: d == 0

    def _resum(self) -> None:
        self._usage = _sequential_sum(self._mat).tolist()
        self._drift = [0.0] * len(self._usage)
        self._exact = True

    def _write(self, row: int, vec) -> None:
        old = self._mat[row].tolist()
        self._mat[row] = vec
        s, d = self._usage, self._drift
        for k, (o, n) in enumerate(zip(old, self._mat[row].tolist())):
            held = s[k]
            s[k] = held - o + n
            d[k] += 2.0**-53 * (self._tasks * o + 2.0 * (abs(held) + o + n))
        self._exact = False

    def set_row(self, task_id: int, vec) -> None:
        self._write(self._row[task_id], vec)

    def clear_row(self, task_id: int) -> None:
        self._write(self._row[task_id], 0.0)

    def set_rows(self, task_ids, values) -> None:
        """Write these tasks' rows as one block, then re-sum once."""
        self._mat[[self._row[tid] for tid in task_ids]] = values
        self._resum()

    def usage(self) -> tuple[float, ...]:
        """The sequential sum of all rows, re-summed if a write drifted it."""
        if not self._exact:
            self._resum()
        return tuple(self._usage)

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

    def _decide(self, olds, news) -> bool | None:
        """The band's verdict on the totals ``s - old + new``, or None when
        one of them lies inside its band."""
        decided = True
        for s, d, old, n, lim in zip(self._usage, self._drift, olds, news,
                                     self._limits):
            total = s - old + n
            band = self._band * (s + old + n) + 2.0 * d
            if total - band > lim:
                return False
            if not total + band < lim:
                decided = False
        return True if decided else None

    def fits(self, task_id: int, vec) -> bool:
        """Would replacing the task's row keep the total within limits?"""
        row = self._row[task_id]
        new = np.asarray(vec, dtype=np.float64)
        olds, news = self._mat[row].tolist(), new.tolist()
        verdict = self._decide(olds, news)
        if verdict is None and not self._exact:
            self._resum()
            verdict = self._decide(olds, news)
        return self._fits_with([row], new) if verdict is None else verdict


def _drop_until_feasible(ledger: UsageLedger, active: list[int]) -> list[int]:
    """Drop tasks from the highest id down until the base load fits.

    Returns the dropped ids, sorted, after removing them from ``active``
    and clearing their rows as one block: the fewest highest ids whose
    removal makes the ledger feasible, or all of them.  Rows are >= 0 and
    rounding is monotone, so the sequential usage after clearing the top k
    ids never grows with k; the smallest such k is found by bisection,
    with O(log T) re-sums instead of one per drop.
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
    ledger.set_rows(dropped, 0.0)
    gone = set(dropped)
    active[:] = [tid for tid in active if tid not in gone]
    return dropped


#: steps(kept ids) -> {task id: iterator of (grid index, ratio) upgrade steps}
Steps = Callable[[list[int]], dict[int, Iterator[tuple[int, float]]]]


def upgrade_loop(instance: ProblemInstance, start: dict[int, int],
                 steps: Steps) -> tuple[Allocation, AllocationTrace]:
    """The greedy upgrade loop shared by every allocator.

    Starts each task at the grid index ``start[tid]`` and drops the highest
    ids if even those do not fit.  Then, and only then, it calls ``steps``
    once with the kept ids in ascending order; it returns one iterator of
    ``(index, ratio)`` per kept id, so an allocator prepares steps for
    kept tasks only.  The loop keeps one candidate upgrade per task and
    repeatedly applies the first candidate that fits, in order of
    decreasing ratio with ties to the lower task id.  Each kept task's
    iterator is drawn once at the start, in id order, and again only after
    its candidate was accepted; an exhausted iterator retires the task,
    and an exception an iterator raises ends the loop.  Feasibility is
    checked against the full resource vector, read from the grid's
    ``config_costs`` columns, even though ratios rank by a scalar.

    A refused candidate is parked: it leaves the ratio order and is not
    asked about again until an accepted upgrade lowers some resource entry
    of its own task's row.  Then every parked candidate goes back into the
    order at once.  This is exact.  :meth:`UsageLedger.fits` gives, bit for
    bit, the answer of a full sequential re-sum with the candidate's row
    replaced (see the :class:`UsageLedger` docstring).  Rows are
    non-negative and a sequential IEEE sum is monotone in each term, so
    while no row entry decreases, a re-sum that exceeded a limit still
    exceeds it.  First fit therefore picks what a rescan of every
    candidate from the top would pick, and the allocation and trace are
    the same; each refusal is asked once per lowering upgrade, not once
    per accepted upgrade.
    """
    # The (occupancy, power) row of each grid index, bit for bit resource_of.
    rows = np.column_stack(kernels.config_costs(instance.space,
                                                instance.bounds)[1:3])
    ledger = UsageLedger(instance)
    active = sorted(start)
    ledger.set_rows(active, rows[[start[tid] for tid in active]])
    dropped = _drop_until_feasible(ledger, active)
    current = {tid: start[tid] for tid in active}
    task_steps = steps(active)

    candidates: dict[int, tuple[int, np.ndarray, float]] = {}
    order: list[tuple[float, int]] = []  # (-ratio, tid), kept sorted
    parked: list[tuple[float, int]] = []  # refused, off ``order``

    def refresh(tid: int) -> None:
        step = next(task_steps[tid], None)
        if step is not None:
            index, ratio = step
            candidates[tid] = (index, rows[index], ratio)
            insort(order, (-ratio, tid))

    for tid in active:
        refresh(tid)

    upgrades: list[UpgradeStep] = []
    while True:
        for i, (_, tid) in enumerate(order):
            index, vec, ratio = candidates[tid]
            if ledger.fits(tid, vec):
                break
        else:
            break  # no feasible upgrade anywhere
        parked += order[:i]
        del order[:i + 1]
        # With nothing parked there is nothing to free: skip the compare.
        if parked and (vec < rows[current[tid]]).any():
            order += parked
            order.sort()
            parked.clear()
        ledger.set_row(tid, vec)
        current[tid] = index
        upgrades.append(UpgradeStep(task_id=tid, index=index, ratio=ratio))
        refresh(tid)

    configs = grid_configurations(instance.space)
    return (Allocation(assignment={tid: configs[j]
                                   for tid, j in current.items()}),
            AllocationTrace(dropped=tuple(dropped), upgrades=tuple(upgrades)))


def greedy_allocate(job_lists: list[JobList],
                    instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Greedy marginal-ratio allocation over precomputed job lists.

    Runs :func:`upgrade_loop` from each task's first frontier point, one
    frontier step at a time, ranked by the step's utility-to-resource ratio.
    """
    if (sorted(jl.task_id for jl in job_lists)
            != sorted(t.id for t in instance.tasks)):
        raise ValueError("need exactly one job list per task")
    by_id = {jl.task_id: jl for jl in job_lists}
    return upgrade_loop(
        instance, {tid: jl.index[0] for tid, jl in by_id.items()},
        lambda kept: {tid: zip(by_id[tid].index[1:], by_id[tid].ratios())
                      for tid in kept})

def solve_classic(instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Utility table, one frontier sweep for all tasks, the greedy pass."""
    return greedy_allocate(instance_job_lists(instance, utility_table(instance)),
                           instance)
