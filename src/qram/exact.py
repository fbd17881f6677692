"""Exact oracles: exhaustive search and a quantised knapsack program.

The exhaustive search enumerates every combination of configurations (each
task may also be dropped) and is the ground truth the heuristics are measured
against.  The knapsack program is a faster cross-check for instances whose
feasibility is governed by a single scalar resource; with one resource the
global problem is exactly a multiple-choice knapsack.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .core import (Allocation, Configuration, expanded_grids,
                   grid_configurations)
from .problem import ProblemInstance

#: Refuse exhaustive enumeration above this many combined configuration states.
ENUMERATION_CAP = 10**8

#: Refuse knapsack programs whose value table, (tasks + 1) x (budget cells +
#: 1) float64 entries, exceeds this many cells (160 MB).
DP_TABLE_CAP = 2 * 10**7

#: Default knapsack quantisation: this many cells across the compound budget.
DP_DEFAULT_CELLS = 2000


class CapacityError(RuntimeError):
    """Instance too large to solve exactly; carries the offending product."""

    def __init__(self, product: int, cap: int,
                 what: str = "combined configuration states"):
        super().__init__(f"{product} {what} exceed the cap of {cap}")
        self.product = product
        self.cap = cap


class MultiResourceError(ValueError):
    """The knapsack oracle needs a single effective resource dimension."""


def _metric_rows(instance: ProblemInstance, per_task_configs=None):
    """Per-task padded metric arrays (utility, compound, occupancy, power).

    Row i follows the task's grid order, or the given restricted config list.
    """
    bounds = instance.bounds
    rows = []
    for task in instance.tasks:
        target = instance.target_for(task)
        if per_task_configs is not None and task.id in per_task_configs:
            configs = list(per_task_configs[task.id])
            for c in configs:
                if c not in task.config_space:
                    raise ValueError(f"restricted config {c} not on task "
                                     f"{task.id}'s grid")
            dwell = np.array([c.dwell_length for c in configs])
            tx = np.array([c.transmit_duration for c in configs])
            pw = np.array([c.transmit_power for c in configs])
        else:
            configs = grid_configurations(task.config_space)
            dwell, tx, pw = expanded_grids(task.config_space)
        util, comp, occ, avg_pw = kernels.config_metrics(dwell, tx, pw, target, bounds)
        rows.append((task.id, configs, util, comp, occ, avg_pw))
    return rows


def _pad(arrays, fill=0.0):
    width = max(len(a) for a in arrays)
    out = np.full((len(arrays), width), fill, dtype=np.float64)
    for i, a in enumerate(arrays):
        out[i, :len(a)] = a
    return out


def optimal_allocation(instance: ProblemInstance, per_task_configs=None,
                       cap: int = ENUMERATION_CAP) -> tuple[Allocation, float]:
    """Exhaustive utility-maximal feasible allocation.

    ``per_task_configs`` optionally restricts tasks to configuration subsets.
    Ties go to the lexicographically smallest assignment vector (task 0 digit
    first; dropping sorts after every configuration).  Raises
    :class:`CapacityError` when the combined state count exceeds ``cap``.
    """
    rows = _metric_rows(instance, per_task_configs)
    product = 1
    for _, configs, *_ in rows:
        product *= len(configs)
    if product > cap:
        raise CapacityError(product, cap)

    util = _pad([r[2] for r in rows])
    occ = _pad([r[4] for r in rows])
    pw = _pad([r[5] for r in rows])
    ncfg = np.array([len(r[1]) for r in rows], dtype=np.int64)
    best_u, best_code, strides = kernels.scan_best_feasible(
        util, occ, pw, ncfg, instance.bounds.bounds[0], instance.bounds.bounds[1])

    assignment: dict[int, Configuration] = {}
    rem = best_code
    for i, (tid, configs, *_rest) in enumerate(rows):
        digit = rem // int(strides[i])
        rem -= digit * int(strides[i])
        if digit < len(configs):
            assignment[tid] = configs[digit]
    return Allocation(assignment=assignment), best_u


def optimal_allocation_dp(instance: ProblemInstance,
                          resource_grid_step: float | None = None,
                          compound_only: bool = False) -> tuple[Allocation, float]:
    """Knapsack oracle over the quantised compound resource.

    Exact for instances whose compound weights single out one component (the
    other bound is the caller's responsibility); with several active weights
    it optimises the compound relaxation and must be requested explicitly via
    ``compound_only``.  Costs are rounded up to the grid, so the result never
    overshoots the compound budget; the reported optimum can only grow as the
    step shrinks.  The returned utility is the table's optimum, which equals
    ``system_utility`` of the returned allocation.  Raises
    :class:`CapacityError` before allocating when the value table would
    exceed ``DP_TABLE_CAP`` cells.
    """
    bounds = instance.bounds
    active_weights = sum(1 for w in bounds.compound_weights if w != 0.0)
    if active_weights > 1 and not compound_only:
        raise MultiResourceError(
            "instance has several active resource components; pass "
            "compound_only=True to optimise the compound relaxation")
    budget_value = sum(bounds.compound_weights)  # compound of the bounds
    if resource_grid_step is None:
        resource_grid_step = budget_value / DP_DEFAULT_CELLS
    if resource_grid_step <= 0:
        raise ValueError("resource grid step must be positive")

    budget = np.floor(budget_value / resource_grid_step + 1e-9)
    cells = (len(instance.tasks) + 1) * (budget + 1)
    if cells > DP_TABLE_CAP:
        raise CapacityError(int(cells) if np.isfinite(cells) else cells,
                            DP_TABLE_CAP, "knapsack table cells")
    budget = int(budget)

    rows = _metric_rows(instance)
    util = _pad([r[2] for r in rows])
    cost = np.ceil(_pad([r[3] for r in rows]) / resource_grid_step
                   - 1e-9).astype(np.int64)
    ncfg = np.array([len(r[1]) for r in rows], dtype=np.int64)

    dp, picks = kernels.fill_knapsack_table(util, cost, ncfg, budget)
    assignment = {tid: configs[c] for (tid, configs, *_), c in zip(rows, picks)
                  if c < len(configs)}
    return Allocation(assignment=assignment), float(dp[budget])
