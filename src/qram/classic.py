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
against.  The batched build works on a utility table of several tasks in
two array stages: :func:`qram.problem.utility_table` evaluates every (task,
configuration) pair in one kernel call, and :func:`frontier_sweep` sweeps
the grid's compound levels once for all tasks, which share the grid, into
a :class:`Frontiers` of arrays, with no point object.
:func:`instance_job_lists` slices those arrays into every task's
``JobList``.  A classic solve (:func:`solve_classic`) builds neither for
the tasks it drops: every task starts at its :func:`base_configuration`,
the first point of its job list, and only after the drop are the kept
tasks' table and sweep built, whose arrays give the upgrade steps
directly (:meth:`Frontiers.steps`).

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
from operator import lt
from typing import NamedTuple

import numpy as np

from . import kernels
from .core import (Allocation, ConfigSpace, ResourceBounds,
                   _sequential_prefix, grid_configurations)
from .perf import Target
from .problem import ProblemInstance, block_utility, utility_table


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


class Frontiers(NamedTuple):
    """The job lists of several tasks as the arrays of one frontier sweep,
    a row per task: row i's first ``length[i]`` columns are its frontier's
    grid index, compound resource and utility; the columns past it pad the
    row and mean nothing."""

    length: np.ndarray
    index: np.ndarray
    resource: np.ndarray
    utility: np.ndarray

    def steps(self) -> list[Iterator[tuple[int, float]]]:
        """Each row's upgrade steps, ``(index, ratio)`` from its second job
        on.  The ratios come from one array division with the operands of
        :meth:`JobList.ratios`, so every float is the same."""
        r, u = self.resource, self.utility
        with np.errstate(divide="ignore", invalid="ignore"):  # the padding
            ratios = ((u[:, 1:] - u[:, :-1]) / (r[:, 1:] - r[:, :-1])).tolist()
        return [zip(i[1:k], q[:k - 1]) for k, i, q in
                zip(self.length.tolist(), self.index.tolist(), ratios)]


def frontier_sweep(instance: ProblemInstance, table: np.ndarray) -> Frontiers:
    """The frontier of each row of a utility table on the instance's grid,
    its rows in any task order, point for point equal to
    :func:`job_list_for` of that row's task.

    The tasks share the grid, so they share its compound levels.  Each
    level keeps its best utility, ties to the lowest grid index, as
    :func:`upper_frontier`'s sort does.  One monotone-chain sweep over the
    levels then pops, for all tasks at once, every hull top whose
    ``_cross`` with the new level is >= 0, computed from the same operands
    in the same order, so every float matches the per-task path.  The
    strictly-increasing-utility prefix of each hull is its frontier.
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
    return Frontiers(length, picks, comp[picks],
                     np.take_along_axis(table, picks, axis=1))


def instance_job_lists(instance: ProblemInstance,
                       table: np.ndarray) -> list[JobList]:
    """Every task's job list from its row of ``utility_table``, in
    instance order, point for point equal to :func:`job_list_for`: the
    rows of :func:`frontier_sweep`, each sliced to its length."""
    rows = zip(instance.ids, *(column.tolist()
                               for column in frontier_sweep(instance, table)))
    return [JobList(tid, tuple(i[:k]), tuple(r[:k]), tuple(u[:k]))
            for tid, k, i, r, u in rows]


def base_configuration(space: ConfigSpace, rows: np.ndarray,
                       bounds: ResourceBounds) -> list[int]:
    """Grid index of each target block row's cheapest configuration by
    compound resource (ties: higher utility, then lower index), in order.
    This is the first point of the task's job list.  The least-compound set
    is cached per (grid, bounds), in index order.  A set of one needs no
    utility; otherwise one ``block_utility`` call evaluates it for every
    row, and ``argmax`` keeps the first of equal utilities."""
    cheapest = kernels.config_costs(space, bounds)[3]
    if len(cheapest) == 1:
        return [int(cheapest[0])] * len(rows)
    util = block_utility(space, rows, cheapest[None])
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


class UsageLedger:
    """Per-task resource rows summed exactly like the feasibility check.

    Feasibility must be judged with the same arithmetic the public check
    uses, otherwise float drift from incremental updates can leave a
    "feasible" result that the recheck rejects by one ulp.  So a re-sum runs
    ``core._sequential_prefix`` over the rows in instance order, as
    ``is_feasible`` does, and keeps its running sums.  Every entry is >= 0,
    as a resource vector of a valid configuration is.

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
    and decide again with ``d = 0``.  For a total still inside its band,
    the ledger folds that one resource's column from the checked row to the
    end, starting from the running sum before the row that its last re-sum
    kept (``core._sequential_prefix``).  With no write since that re-sum,
    these are the adds of a full re-sum with the row replaced, in the same
    order, on the same floats, over only the rows from the checked one on.
    Every answer is therefore the one the full re-sum gives.

    A row is a resource vector: a list or tuple of floats, a numpy row, or
    a scalar for every entry (``0.0`` clears a row).  :meth:`fits` and
    :meth:`set_row` work on Python floats: the ledger holds each row as a
    list, so a check reads the old row from the list and a write replaces
    it, and a caller that passes lists, as :func:`upgrade_loop` does, pays
    no numpy call per check or write.  The numpy matrix serves only the
    re-sums and the tail folds.  A row written since the last re-sum
    reaches it at the next re-sum, which is due before any fold: a fold
    runs only when no write came after the last re-sum.
    """

    def __init__(self, instance: ProblemInstance):
        self._row = instance.position
        self._tasks = len(instance.position)
        self._limits = tuple(float(b) for b in instance.bounds.bounds)
        self._mat = np.zeros((self._tasks, len(self._limits)))
        self._rows = self._mat.tolist()  # the rows as lists of floats
        self._stale: set[int] = set()  # rows not yet written to ``_mat``
        self._prefix = np.zeros_like(self._mat)  # running sums of the last re-sum
        self._band = (2 * self._tasks + 8) * 2.0**-52
        self._usage = [0.0] * len(self._limits)  # the sum of zero rows
        self._drift = [0.0] * len(self._limits)
        self._exact = True  # no write since the last re-sum: d == 0

    def _floats(self, vec) -> list[float] | tuple[float, ...]:
        """A row as Python floats: a list or tuple as given, anything else
        through numpy."""
        if isinstance(vec, (list, tuple)):
            return vec
        return np.broadcast_to(np.asarray(vec, dtype=np.float64),
                               (len(self._limits),)).tolist()

    def _flush(self) -> None:
        """Write the rows set since the last re-sum into the matrix."""
        if self._stale:
            stale = list(self._stale)
            self._mat[stale] = [self._rows[row] for row in stale]
            self._stale.clear()

    def _resum(self) -> None:
        self._flush()
        self._prefix = _sequential_prefix(self._mat)
        self._usage = (self._prefix[-1].tolist() if self._tasks
                       else [0.0] * len(self._limits))
        self._drift = [0.0] * len(self._usage)
        self._exact = True

    def set_row(self, task_id: int, vec) -> None:
        row = self._row[task_id]
        new = list(self._floats(vec))  # a copy: the caller may reuse its list
        old, self._rows[row] = self._rows[row], new
        self._stale.add(row)
        s, d = self._usage, self._drift
        for k, (o, n) in enumerate(zip(old, new)):
            held = s[k]
            s[k] = held - o + n
            d[k] += 2.0**-53 * (self._tasks * o + 2.0 * (abs(held) + o + n))
        self._exact = False

    def set_rows(self, task_ids, values) -> None:
        """Write these tasks' rows as one block, then re-sum once."""
        self._flush()
        self._mat[[self._row[tid] for tid in task_ids]] = values
        self._rows = self._mat.tolist()
        self._resum()

    def usage(self) -> tuple[float, ...]:
        """The sequential sum of all rows, re-summed if a write drifted it."""
        if not self._exact:
            self._resum()
        return tuple(self._usage)

    def feasible(self) -> bool:
        return all(s <= lim for s, lim in zip(self.usage(), self._limits))

    def feasible_without(self, task_ids) -> bool:
        """Would the rows fit with these tasks' rows cleared?  The ledger
        itself is left as it is.  From the first cleared row on, a copy of
        the rows folds from the last re-sum's running sum before it: the
        adds of a re-sum of the whole matrix with the rows cleared, in the
        same order, on the same floats."""
        if not self._exact:
            self._resum()
        rows = sorted(self._row[tid] for tid in task_ids)
        if not rows:
            return self.feasible()
        first = rows[0]
        tail = self._mat[first:].copy()
        tail[[row - first for row in rows]] = 0.0
        if first:
            tail[0] += self._prefix[first - 1]
        return bool(np.all(_sequential_prefix(tail)[-1] <= self._limits))

    def _in_band(self, olds, news) -> tuple[int, ...] | None:
        """The resources whose total ``s - old + new`` lies inside its band,
        or None when one total is above its limit by more than its band.
        Every resource left out fits."""
        undecided, k = (), 0
        for s, d, old, n, lim in zip(self._usage, self._drift, olds, news,
                                     self._limits):
            total = s - old + n
            band = self._band * (s + old + n) + 2.0 * d
            if total - band > lim:
                return None
            if not total + band < lim:
                undecided += (k,)
            k += 1
        return undecided

    def _folded(self, row: int, k: int, value: float) -> float:
        """Resource k's sequential sum with the row set to ``value``, folded
        from the last re-sum's running sum before the row."""
        tail = self._mat[row:, k].copy()
        tail[0] = value if row == 0 else self._prefix[row - 1, k] + value
        return _sequential_prefix(tail)[-1]

    def fits(self, task_id: int, vec) -> bool:
        """Would replacing the task's row keep the total within limits?"""
        row = self._row[task_id]
        olds = self._rows[row]
        news = self._floats(vec)
        undecided = self._in_band(olds, news)
        if undecided and not self._exact:
            self._resum()
            undecided = self._in_band(olds, news)
        if not undecided:
            return undecided is not None
        return all(self._folded(row, k, news[k]) <= self._limits[k]
                   for k in undecided)


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
    # The (occupancy, power) row of each grid index, from core.costs; the
    # loop and the ledger compare and add its Python floats one by one.
    costs = np.column_stack(kernels.config_costs(instance.space,
                                                 instance.bounds)[1:3])
    rows = costs.tolist()
    ledger = UsageLedger(instance)
    active = sorted(start)
    ledger.set_rows(active, costs[[start[tid] for tid in active]])
    dropped = _drop_until_feasible(ledger, active)
    current = {tid: start[tid] for tid in active}
    task_steps = steps(active)

    candidates: dict[int, tuple[int, list[float], float]] = {}
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
        if parked and any(map(lt, vec, rows[current[tid]])):
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


def greedy_allocate(frontiers: list[JobList] | Callable[[list[int]], Frontiers],
                    instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Greedy marginal-ratio allocation along the tasks' job lists.

    Runs :func:`upgrade_loop` from each task's first frontier point, one
    frontier step at a time, ranked by the step's utility-to-resource ratio.
    ``frontiers`` is one :class:`JobList` per task, or a function that
    builds the :class:`Frontiers` of the kept ids, a row per id in the
    order given.  A function is called once, after the drop, so no dropped
    task's frontier is built; every task starts at its
    :func:`base_configuration`, the first point of its job list.
    """
    if callable(frontiers):
        starts = base_configuration(instance.space, instance.block,
                                    instance.bounds)
        return upgrade_loop(
            instance, dict(zip(instance.ids, starts)),
            lambda kept: dict(zip(kept, frontiers(kept).steps())))
    if sorted(jl.task_id for jl in frontiers) != sorted(instance.ids):
        raise ValueError("need exactly one job list per task")
    by_id = {jl.task_id: jl for jl in frontiers}
    return upgrade_loop(
        instance, {tid: jl.index[0] for tid, jl in by_id.items()},
        lambda kept: {tid: zip(by_id[tid].index[1:], by_id[tid].ratios())
                      for tid in kept})


def solve_classic(instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """The greedy pass from every task's base configuration; the utility
    table and the frontier sweep cover only the tasks kept after the drop."""
    return greedy_allocate(
        lambda kept: frontier_sweep(instance, utility_table(instance, kept)),
        instance)
