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

A classic solve (:func:`solve_classic`) starts every task at its
:func:`base_configuration`, the first point of its job list, and builds
job lists only for the tasks kept after the drop, in two array stages:
:func:`qram.problem.utility_table` evaluates every (task, configuration)
pair in one kernel call, and :func:`frontier_sweep` sweeps the grid's
compound levels once for all tasks, which share the grid, into a
:class:`Frontiers` of arrays whose rows give the upgrade steps directly
(:meth:`Frontiers.steps`), with no point object.  :func:`job_list_for`
builds one task's list, point for point equal, from a point per
configuration (:func:`embed_task`, then :func:`upper_frontier`); it is
the per-task cost the paper compares against.

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
from .core import (N_RESOURCES, Allocation, ConfigSpace, ResourceBounds,
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

    :func:`upper_frontier` and each row of :func:`frontier_sweep` guarantee
    that shape by construction: the same ``_cross`` decides every hull pop.
    """

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


def upper_frontier(points: list[JobPoint]) -> JobList:
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
    return JobList(*zip(*frontier))


def job_list_for(target: Target, space: ConfigSpace,
                 bounds: ResourceBounds) -> JobList:
    return upper_frontier(embed_task(target, space, bounds))


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
    levels (Andrew, IPL 1979) then pops, for all tasks at once, every hull
    top whose ``_cross`` with the new level is >= 0, computed from the same
    operands in the same order, so every float matches the per-task path.
    When a level arrives, every hull's top is the level before it, so the
    first test is one array expression over all tasks with the entry under
    the top, which each task keeps as a dense (resource, utility) pair.
    Only the tasks whose top popped read further down their stacks, in a
    loop over those tasks alone.  The strictly-increasing-utility prefix of
    each hull is its frontier.
    """
    comp = kernels.config_costs(instance.space, instance.bounds)[0]
    order, starts = _compound_levels(instance.space, instance.bounds)
    ranked = table[:, order]
    best = np.maximum.reduceat(ranked, starts, axis=1)  # (tasks, levels)
    widths = np.diff(starts, append=len(order))
    tied = np.where(ranked == np.repeat(best, widths, axis=1), order, len(order))
    index = np.minimum.reduceat(tied, starts, axis=1)  # grid index per level
    level = comp[order[starts]]

    # A level stack per task, as flat arrays of level ids and utilities,
    # row i's stack from ``i * n_levels``.  The first two levels go on
    # unexamined; a pop leaves at least one level and a push follows, so
    # from then on every stack holds two or more when a level arrives, and
    # its top is the level before.  The entry under the top is kept dense
    # as (ra, ua).
    n_tasks, n_levels = best.shape
    hull = np.zeros((n_tasks, n_levels), dtype=np.intp)
    hull[:, :2] = np.arange(min(2, n_levels))
    hull_u = np.zeros((n_tasks, n_levels))
    hull_u[:, :2] = best[:, :2]
    stack, stack_u = hull.reshape(-1), hull_u.reshape(-1)
    base = np.arange(0, n_tasks * n_levels, n_levels)
    top = base + min(1, n_levels - 1)  # each stack's top, a flat position
    by_level = best.T.copy()  # one contiguous row of utilities per level
    ra, ua = np.full(n_tasks, level[0]), by_level[0].copy()
    levels = level.tolist()
    for c in range(2, n_levels):
        rb, rc = levels[c - 1], levels[c]
        ub, uc = by_level[c - 1], by_level[c]
        cross = (rb - ra) * (uc - ua) - (rc - ra) * (ub - ua)
        popped = (cross >= 0).nonzero()[0]
        if len(popped):
            # Each popped row's top is now its (ra, ua) entry, at ``at``.
            tr, tu, at = ra[popped], ua[popped], top[popped] - 1
            live = (at > base[popped]).nonzero()[0]
            while len(live):
                below = at[live] - 1
                ids = stack[below]
                rs, us = level[ids], stack_u[below]
                pop = ((tr[live] - rs) * (uc[popped[live]] - us)
                       - (rc - rs) * (tu[live] - us)) >= 0
                live = live[pop]
                tr[live], tu[live], at[live] = rs[pop], us[pop], below[pop]
                live = live[ids[pop] != 0]  # level 0 is every stack's base
            top[popped] = at
        ra.fill(rb)
        np.copyto(ua, ub)
        if len(popped):
            ra[popped], ua[popped] = tr, tu
        top += 1
        stack[top], stack_u[top] = c, uc
    height = top - base + 1

    # Hull slopes only decrease, so utility stops rising for good once it
    # fails to rise: the frontier is the rising prefix.
    rises = ((hull_u[:, 1:] > hull_u[:, :-1])
             & (np.arange(1, n_levels) < height[:, None]))
    length = 1 + np.cumprod(rises, axis=1).sum(axis=1)
    picks = np.take_along_axis(index, hull[:, :int(length.max(initial=1))], axis=1)
    return Frontiers(length, picks, comp[picks],
                     np.take_along_axis(table, picks, axis=1))


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


class UpgradeStep(NamedTuple):
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

    A row is a pair of floats, one per resource (``(0.0, 0.0)`` clears a
    row).  The ledger holds every row, and its usage and drift, as such a
    pair, so :meth:`fits` and :meth:`set_row` work on unpacked scalars.
    :meth:`set_row` keeps its own ``(n0, n1)`` tuple of the row it is
    given, so a caller may reuse a list or a numpy row.  The numpy matrix
    serves only the re-sums and the tail folds.  A row written since the
    last re-sum reaches it at the next re-sum, which is due before any
    fold: a fold runs only when no write came after the last re-sum.
    """

    def __init__(self, instance: ProblemInstance):
        self._row = instance.position
        self._tasks = len(instance.position)
        self._limits = tuple(float(b) for b in instance.bounds.bounds)
        self._mat = np.zeros((self._tasks, N_RESOURCES))
        self._rows = [(0.0, 0.0)] * self._tasks  # the rows as float pairs
        self._stale: set[int] = set()  # rows not yet written to ``_mat``
        self._prefix = np.zeros_like(self._mat)  # running sums of the last re-sum
        self._band = (2 * self._tasks + 8) * 2.0**-52
        self._usage = self._drift = (0.0, 0.0)  # the sum of zero rows
        self._exact = True  # no write since the last re-sum: d == 0

    def _flush(self) -> None:
        """Write the rows set since the last re-sum into the matrix."""
        if self._stale:
            stale = list(self._stale)
            self._mat[stale] = [self._rows[row] for row in stale]
            self._stale.clear()

    def _resum(self) -> None:
        self._flush()
        self._prefix = _sequential_prefix(self._mat)
        self._usage = (tuple(self._prefix[-1].tolist()) if self._tasks
                       else (0.0, 0.0))
        self._drift = (0.0, 0.0)
        self._exact = True

    def set_row(self, task_id: int, vec) -> None:
        row = self._row[task_id]
        (o0, o1), (n0, n1) = self._rows[row], vec
        self._rows[row] = (n0, n1)
        self._stale.add(row)
        (s0, s1), (d0, d1), t = self._usage, self._drift, self._tasks
        self._usage = (s0 - o0 + n0, s1 - o1 + n1)
        self._drift = (d0 + 2.0**-53 * (t * o0 + 2.0 * (abs(s0) + o0 + n0)),
                       d1 + 2.0**-53 * (t * o1 + 2.0 * (abs(s1) + o1 + n1)))
        self._exact = False

    def set_rows(self, task_ids, pairs) -> None:
        """Write these tasks' rows as one block, then rebuild the matrix
        from every row and re-sum once."""
        for tid, (n0, n1) in zip(task_ids, pairs):
            self._rows[self._row[tid]] = (n0, n1)
        self._mat = np.array(self._rows).reshape(-1, N_RESOURCES)
        self._stale.clear()
        self._resum()

    def usage(self) -> tuple[float, float]:
        """The sequential sum of all rows, re-summed if a write drifted it."""
        if not self._exact:
            self._resum()
        return self._usage

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

    def _in_band(self, old, new) -> tuple[int, ...] | None:
        """The resources whose total ``s - old + new`` lies inside its band,
        or None when one total is above its limit by more than its band.
        Every resource left out fits."""
        (s0, s1), (d0, d1), (l0, l1) = self._usage, self._drift, self._limits
        (o0, o1), (n0, n1), band = old, new, self._band
        t0, b0 = s0 - o0 + n0, band * (s0 + o0 + n0) + 2.0 * d0
        t1, b1 = s1 - o1 + n1, band * (s1 + o1 + n1) + 2.0 * d1
        if t0 - b0 > l0 or t1 - b1 > l1:
            return None
        return (() if t0 + b0 < l0 else (0,)) + (() if t1 + b1 < l1 else (1,))

    def _folded(self, row: int, k: int, value: float) -> float:
        """Resource k's sequential sum with the row set to ``value``, folded
        from the last re-sum's running sum before the row."""
        tail = self._mat[row:, k].copy()
        tail[0] = value if row == 0 else self._prefix[row - 1, k] + value
        return _sequential_prefix(tail)[-1]

    def fits(self, task_id: int, vec) -> bool:
        """Would replacing the task's row keep the total within limits?"""
        row = self._row[task_id]
        old = self._rows[row]
        undecided = self._in_band(old, vec)
        if undecided and not self._exact:
            self._resum()
            undecided = self._in_band(old, vec)
        if not undecided:
            return undecided is not None
        return all(self._folded(row, k, vec[k]) <= self._limits[k]
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
    ledger.set_rows(dropped, [(0.0, 0.0)] * len(dropped))
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
    occ, power = kernels.config_costs(instance.space, instance.bounds)[1:3]
    rows = list(zip(occ.tolist(), power.tolist()))
    ledger = UsageLedger(instance)
    active = sorted(start)
    ledger.set_rows(active, [rows[start[tid]] for tid in active])
    dropped = _drop_until_feasible(ledger, active)
    current = {tid: start[tid] for tid in active}
    task_steps = steps(active)

    candidates: dict[int, tuple[int, tuple[float, float], float]] = {}
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
        upgrades.append(UpgradeStep(tid, index, ratio))
        refresh(tid)

    configs = grid_configurations(instance.space)
    return (Allocation(assignment={tid: configs[j]
                                   for tid, j in current.items()}),
            AllocationTrace(dropped=tuple(dropped), upgrades=tuple(upgrades)))


def greedy_allocate(frontiers: Callable[[list[int]], Frontiers],
                    instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """Greedy marginal-ratio allocation along the tasks' job lists.

    Runs :func:`upgrade_loop` from each task's :func:`base_configuration`,
    the first point of its job list, one frontier step at a time, ranked by
    the step's utility-to-resource ratio.  ``frontiers`` builds the
    :class:`Frontiers` of the kept ids, a row per id in the order given; it
    is called once, after the drop, so no dropped task's frontier is built.
    """
    starts = base_configuration(instance.space, instance.block, instance.bounds)
    return upgrade_loop(
        instance, dict(zip(instance.ids, starts)),
        lambda kept: dict(zip(kept, frontiers(kept).steps())))


def solve_classic(instance: ProblemInstance) -> tuple[Allocation, AllocationTrace]:
    """The greedy pass from every task's base configuration; the utility
    table and the frontier sweep cover only the tasks kept after the drop."""
    return greedy_allocate(
        lambda kept: frontier_sweep(instance, utility_table(instance, kept)),
        instance)
