"""Exact oracles: exhaustive search and a quantised knapsack program.

The exhaustive search is the ground truth the heuristics are measured
against: the first best feasible combination of configurations (each task
may also be dropped), in code order.  It judges only the states whose
utility bound can still reach the best found, and its picks are bit for bit
those of judging every combination.

The knapsack program always solves the compound relaxation: it keeps the
summed compound resource within the compound of the bounds,
``sum(compound_weights)``, and does not check the individual bounds.  With
one nonzero compound weight that is the problem for that resource alone, a
multiple-choice knapsack; with several, every allocation within both bounds
is also within the compound budget.

Both oracles read the instance's one utility table
(:func:`~qram.problem.utility_table`, shared with the classic solver) and
pass it to their kernel beside the grid's cost columns, one copy for every
task.  Both decode their per-task picks into an allocation the same way.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .core import Allocation, grid_configurations
from .problem import ProblemInstance, utility_table

#: Refuse exhaustive search above this many combined configuration states
#: offered, skipped ones included.
ENUMERATION_CAP = 10**8

#: Refuse knapsack programs whose value table, (tasks + 1) x (budget cells +
#: 1) float64 entries, exceeds this many cells (160 MB).
DP_TABLE_CAP = 2 * 10**7

#: Default knapsack quantisation: this many cells across the compound budget.
DP_DEFAULT_CELLS = 2000


class CapacityError(RuntimeError):
    """Instance too large to solve exactly; carries the offending product.

    ``shown`` is how the message writes the product, for one too long to
    print in full (``91^2300``)."""

    def __init__(self, product: int, cap: int,
                 what: str = "combined configuration states",
                 shown: str | None = None):
        super().__init__(f"{shown or product} {what} exceed the cap of {cap}")
        self.product = product
        self.cap = cap


def _allocation(instance: ProblemInstance, configs, picks) -> Allocation:
    """Task i gets ``configs[picks[i]]``; a pick past the grid drops it."""
    return Allocation(assignment={
        target.id: configs[pick]
        for target, pick in zip(instance.tasks, picks) if pick < len(configs)})


def optimal_allocation(instance: ProblemInstance) -> tuple[Allocation, float]:
    """Exhaustive utility-maximal feasible allocation.

    Ties go to the lexicographically smallest assignment vector (task 0 digit
    first; dropping sorts after every configuration).  The scan skips the
    states its utility bound rules out, with the same result as judging them
    all.  Raises :class:`CapacityError` when the states offered to the scan,
    (grid size + 1) per task with dropping included, exceed
    ``ENUMERATION_CAP``; the cap counts them whether or not the bound later
    skips them.
    """
    configs = grid_configurations(instance.space)
    base, tasks = len(configs) + 1, len(instance.tasks)
    states = base ** tasks
    if states > ENUMERATION_CAP:
        raise CapacityError(states, ENUMERATION_CAP, shown=f"{base}^{tasks}")
    _, occ, pw, _ = kernels.config_costs(instance.space, instance.bounds)
    best_u, picks = kernels.scan_best_feasible(
        utility_table(instance), occ, pw, [len(configs)] * len(instance.tasks),
        *instance.bounds.bounds)
    return _allocation(instance, configs, picks), best_u


def optimal_allocation_dp(instance: ProblemInstance,
                          resource_grid_step: float | None = None
                          ) -> tuple[Allocation, float]:
    """Knapsack oracle over the quantised compound resource.

    Maximises utility with the summed compound resource within
    ``sum(compound_weights)``, the compound of the bounds; the individual
    bounds are not checked.  With one nonzero compound weight the result is
    the optimum for that resource alone.  Costs are rounded up to the grid,
    so the result never overshoots the compound budget; the reported optimum
    can only grow as the step shrinks.  The returned utility is the table's
    optimum, which equals ``system_utility`` of the returned allocation.
    Raises :class:`CapacityError` before allocating when the value table
    would exceed ``DP_TABLE_CAP`` cells.
    """
    budget_value = sum(instance.bounds.compound_weights)  # compound of the bounds
    if resource_grid_step is None:
        resource_grid_step = budget_value / DP_DEFAULT_CELLS
    if not (math.isfinite(resource_grid_step) and resource_grid_step > 0):
        raise ValueError(f"resource grid step must be positive and finite, "
                         f"got {resource_grid_step!r}")

    budget = np.floor(budget_value / resource_grid_step + 1e-9)
    cells = (len(instance.tasks) + 1) * (budget + 1)
    if cells > DP_TABLE_CAP:
        raise CapacityError(int(cells) if np.isfinite(cells) else cells,
                            DP_TABLE_CAP, "knapsack table cells")
    budget = int(budget)

    configs = grid_configurations(instance.space)
    comp, _, _, _ = kernels.config_costs(instance.space, instance.bounds)
    # Every cost above the budget prunes its configuration alike, so costs
    # are clipped to budget + 1: a huge compound / step (even one that
    # overflows to inf) must not wrap around in the int64 cast.  A positive
    # compound costs at least one cell, or a step far above it would round
    # it down to a free configuration and dp would overshoot its budget.
    with np.errstate(over="ignore"):
        cost = np.ceil(np.minimum(comp / resource_grid_step, budget + 1) - 1e-9)
    cost = np.maximum(cost, comp > 0).astype(np.int64)
    dp, picks = kernels.fill_knapsack_table(
        utility_table(instance), cost, [len(configs)] * len(instance.tasks), budget)
    return _allocation(instance, configs, picks), float(dp[budget])
