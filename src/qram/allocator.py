"""Agent-driven global allocation: greedy upgrades without job lists.

The greedy pass only ever needs "the next desirable configuration from the
current one", which is exactly what the trained network proposes, as a grid
index.  Every task starts at its cheapest configuration, and the shared
:func:`qram.classic.upgrade_loop` applies the feasible upgrade with the best
utility-to-resource quotient.

A proposer sees each task as the :class:`~qram.perf.Target` it tracks,
with its current grid index.  A task's proposal chain, start -> p(start) ->
p(p(start)) -> ..., never depends on what the loop accepts for other
tasks.  So once the loop knows which tasks it keeps, their chains grow in
waves: one wave asks the proposer once about every chain still live, from
the last grid index of each.  Every task of an instance runs on its one
grid, so the network runs one batched forward pass per wave
(:func:`next_config`).  The loop walks the chains like job lists, and a
wave runs only when a draw reaches past the steps computed so far; a
trained network needs about three.

For a proposer that depends on (task, configuration) alone, the loop gets
exactly the steps of a proposer asked once per draw.  A row's network
logits can differ in the last bits between a stacked and a single-row
forward pass, so for the network only a logit tie within a few ulps could
make the two paths differ.

Unlike a job list, proposals come from an arbitrary function, so the chains
protect the loop: a stationary or non-improving proposal ends a chain, and a
chain asks the proposer at most grid size + 1 times, which bounds the loop
even under adversarial proposers.  A proposal may also be an exception (the
network's answer to non-finite logits): it ends the chain and is raised
only if the loop draws that step, as does an IndexError for a proposal that
is not a grid index in [0, grid size).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from .agent import AgentParams, WeightFormatError, forward
from .classic import (AllocationTrace, base_configuration, job_list_for,
                      upgrade_loop)
from .core import Allocation, ConfigSpace, ResourceBounds, expanded_grids
from .env import SITUATIONAL_WIDTH, config_features, encode_state, quotient
from .kernels import config_costs, utility
from .perf import Target
from .problem import ProblemInstance, target_columns

#: The grid index of the next configuration, or the exception to raise if
#: the loop draws that step.
Proposal = int | Exception

#: propose(targets, currents) -> one proposal per task, in order.
#: ``currents`` are the tasks' indices on the instance's grid.
Proposer = Callable[[list[Target], list[int]], list[Proposal]]


def next_config(params: AgentParams, space: ConfigSpace, targets: list[Target],
                currents: list[int],
                rows: dict[int, tuple[Target, np.ndarray]] | None = None
                ) -> list[Proposal]:
    """Greedy network proposals for one wave of tasks on the grid ``space``.

    One batched forward pass over the tasks' observation rows.  ``rows``
    keeps each task's row across waves, by task id: ``encode_state`` runs
    once per task, and a later wave rewrites only the configuration columns
    from ``config_features``.  A proposal is the winning logit's index, or
    a WeightFormatError if that logit is not finite.
    """
    if not targets:
        return []
    if params.n_actions != space.size:
        raise ValueError(f"network has {params.n_actions} actions but the grid "
                         f"has {space.size} configurations")
    rows = {} if rows is None else rows
    for target, current in zip(targets, currents):
        cached = rows.get(target.id)
        if cached is None or cached[0] is not target:
            rows[target.id] = (target, encode_state(space, current, target))
    x = np.stack([rows[target.id][1] for target in targets])
    x[:, SITUATIONAL_WIDTH:] = config_features(space)[currents]
    logits, _ = forward(params, x)
    actions = logits.argmax(axis=1)
    # argmax returns the first NaN, and an overflow to +inf wins it, so a
    # finite winner means a usable proposal.
    finite = np.isfinite(logits[np.arange(len(targets)), actions])
    return [action if ok else WeightFormatError(
                f"network logits are not finite (task {target.id}); "
                f"the weights overflow")
            for target, action, ok in zip(targets, actions.tolist(),
                                          finite.tolist())]


def network_proposer(params: AgentParams, space: ConfigSpace) -> Proposer:
    """The network as a wave proposer on the grid ``space``; encodes each
    task's row once."""
    rows: dict[int, tuple[Target, np.ndarray]] = {}

    def propose(targets: list[Target], currents: list[int]):
        return next_config(params, space, targets, currents, rows)
    return propose


def frontier_proposer(instance: ProblemInstance) -> Proposer:
    """Perfect proposer: the next job-list point (itself when exhausted).

    Driving the allocation loop with this oracle reproduces the classical
    greedy result exactly; it pins down the loop's semantics in tests.
    """
    lists = {target.id: job_list_for(target, instance.space, instance.bounds)
             for target in instance.tasks}

    def next_point(target: Target, current: int) -> int:
        points = lists[target.id].points
        for i, p in enumerate(points):
            if p.index == current:
                return points[i + 1].index if i + 1 < len(points) else current
        raise ValueError(f"task {target.id}: {current} is not on its frontier")

    def propose(targets: list[Target], currents: list[int]):
        return [next_point(target, current)
                for target, current in zip(targets, currents)]
    return propose


class _ChainGroup:
    """The proposal chains of the kept tasks, grown in waves on the grid
    ``space``.

    A chain holds ``(index, ratio)`` steps and may end in an exception
    proposal or an IndexError.  One wave asks the proposer once, over every
    live chain, from the chain's last index, then appends one step to each
    chain or retires it.  The utility change comes from one vectorised ``utility``
    call and the compound change from the cached cost column; the scalar
    ``quotient`` then rates each row, exactly as a step asked alone would.
    A wave runs only once a draw reaches past the steps computed so far, so
    no wave runs that no draw needs.
    """

    def __init__(self, propose: Proposer, targets: list[Target],
                 starts: list[int], space: ConfigSpace, bounds: ResourceBounds):
        self._propose, self._targets, self._size = propose, targets, space.size
        self._comp = config_costs(space, bounds)[0]
        self._grids = expanded_grids(space)
        self._columns = target_columns(targets)
        self._waves_left = space.size + 1  # cycle guard
        self._chains: list[list] = [[] for _ in targets]
        self._alive = [True] * len(targets)
        self._live = list(range(len(targets)))  # positions of the live chains
        self._cur = np.array(starts, dtype=np.int64)
        self._u_cur = self._utility(self._cur, self._live)

    def _utility(self, configs: np.ndarray, rows: list[int]) -> np.ndarray:
        dwell, tx, pw = self._grids
        return utility(dwell[configs], tx[configs], pw[configs],
                       *self._columns[:, rows])

    def _grow(self) -> None:
        live, chains, cur_list = self._live, self._chains, self._cur.tolist()
        targets, size = [self._targets[i] for i in live], self._size
        proposals = [p if isinstance(p, Exception) or (
                         isinstance(p, (int, np.integer)) and 0 <= p < size)
                     else IndexError(f"task {target.id}: proposal {p!r} is not "
                                     f"a configuration index in [0, {size})")
                     for target, p in zip(targets,
                                          self._propose(targets, cur_list))]
        new = np.array([j if isinstance(p, Exception) else p
                        for p, j in zip(proposals, cur_list)], dtype=np.int64)
        u_new = self._utility(new, live)
        keep = []
        for k, (i, proposal, j_new, j_cur, du, dr) in enumerate(zip(
                live, proposals, new.tolist(), cur_list,
                (u_new - self._u_cur).tolist(),
                (self._comp[new] - self._comp[self._cur]).tolist())):
            if isinstance(proposal, Exception):
                chains[i].append(proposal)
            else:
                ratio = quotient(du, dr)
                if j_new != j_cur and ratio > 0.0:
                    chains[i].append((j_new, ratio))
                    keep.append(k)
                    continue
            self._alive[i] = False  # failed, stationary or non-improving
        self._waves_left -= 1
        if not self._waves_left:  # the guard ends every chain here
            for k in keep:
                self._alive[live[k]] = False
            keep = []
        self._live = [live[k] for k in keep]
        self._cur, self._u_cur = new[keep], u_new[keep]

    def drawn(self, pos: int) -> Iterator[tuple[int, float]]:
        """The steps of chain ``pos``, running waves as the draws need them;
        a stored exception is raised when its step is drawn."""
        chain = self._chains[pos]
        k = 0
        while True:
            if k == len(chain) and self._alive[pos]:
                self._grow()  # appends to this chain or retires it
            if k == len(chain):
                return
            step = chain[k]
            if isinstance(step, Exception):
                raise step
            yield step
            k += 1


def allocate_with_proposals(propose: Proposer, instance: ProblemInstance
                            ) -> tuple[Allocation, AllocationTrace]:
    """Greedy upgrade loop over proposal chains; never returns an infeasible
    result.  The proposer is asked only about kept tasks, once per wave."""
    space, bounds = instance.space, instance.bounds
    start = {target.id: base_configuration(space, target, bounds)
             for target in instance.tasks}

    def steps(kept: list[int]) -> dict[int, Iterator]:
        group = _ChainGroup(propose, [instance.task_by_id(tid) for tid in kept],
                            [start[tid] for tid in kept], space, bounds)
        return {tid: group.drawn(pos) for pos, tid in enumerate(kept)}

    # Weights that overflow would warn on every forward pass; next_config
    # turns their non-finite logits into a WeightFormatError instead.
    with np.errstate(over="ignore", invalid="ignore"):
        return upgrade_loop(instance, start, steps)


def allocate_with_agent(params: AgentParams, instance: ProblemInstance
                        ) -> tuple[Allocation, AllocationTrace]:
    return allocate_with_proposals(network_proposer(params, instance.space),
                                   instance)
