"""Agent-driven global allocation: greedy upgrades without job lists.

The greedy pass only ever needs "the next desirable configuration from the
current one", which is exactly what the trained network proposes, as a grid
index.  Every task starts at its cheapest configuration, and the shared
:func:`qram.classic.upgrade_loop` applies the feasible upgrade with the best
utility-to-resource quotient.

A proposer sees each task as its position in ``instance.ids``, with its
current grid index.  A task's proposal chain, start -> p(start) ->
p(p(start)) -> ..., never depends on what the loop accepts for other
tasks.  So once the loop knows which tasks it keeps, their chains grow in
waves: one wave asks the proposer once about every chain still live, from
the last grid index of each.  Every task of an instance runs on its one
grid, so the network encodes each wave as one input block and runs one
batched forward pass over it (:func:`next_config`).  The loop walks the
chains like job lists, and a wave runs only when a draw reaches past the
steps computed so far; a trained network needs about three.

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
from functools import partial

import numpy as np

from .agent import AgentParams, WeightFormatError, forward
from .classic import AllocationTrace, base_configuration, upgrade_loop
from .core import Allocation
from .env import encode_state, quotient
from .kernels import config_costs
from .problem import ProblemInstance, block_utility

#: The grid index of the next configuration, or the exception to raise if
#: the loop draws that step.
Proposal = int | Exception

#: propose(positions, currents) -> one proposal per task, in order.
#: ``positions`` index ``instance.ids``; ``currents`` are grid indices.
Proposer = Callable[[list[int], list[int]], list[Proposal]]


def next_config(params: AgentParams, instance: ProblemInstance,
                positions: list[int], currents: list[int]) -> list[Proposal]:
    """Greedy network proposals for one wave of tasks of ``instance``.

    One ``encode_state`` call builds the wave's input block from the tasks'
    ``instance.block`` rows and one batched forward pass reads it.  A
    proposal is the winning logit's index, or a WeightFormatError if that
    logit is not finite.
    """
    if params.n_actions != instance.space.size:
        raise ValueError(f"network has {params.n_actions} actions but the grid "
                         f"has {instance.space.size} configurations")
    logits, _ = forward(params, encode_state(instance.space, currents,
                                             instance.block[positions]))
    actions = logits.argmax(axis=1)
    # argmax returns the first NaN, and an overflow to +inf wins it, so a
    # finite winner means a usable proposal.
    finite = np.isfinite(logits[np.arange(len(positions)), actions])
    return [action if ok else WeightFormatError(
                f"network logits are not finite (task {instance.ids[pos]}); "
                f"the weights overflow")
            for pos, action, ok in zip(positions, actions.tolist(),
                                       finite.tolist())]


def network_proposer(params: AgentParams, instance: ProblemInstance) -> Proposer:
    """The network as a wave proposer for the tasks of ``instance``."""
    return partial(next_config, params, instance)


class _ChainGroup:
    """The proposal chains of the kept tasks, known by position in
    ``instance.ids``, grown in waves on the instance's grid.

    A chain holds ``(index, ratio)`` steps and may end in an exception
    proposal or an IndexError.  One wave asks the proposer once, over every
    live chain, from the chain's last index, then appends one step to each
    chain or retires it.  The utility change comes from one ``block_utility``
    call and the compound change from the cached cost column; the scalar
    ``quotient`` then rates each row, exactly as a step asked alone would.
    A wave runs only once a draw reaches past the steps computed so far, so
    no wave runs that no draw needs.
    """

    def __init__(self, propose: Proposer, instance: ProblemInstance,
                 starts: list[int], positions: list[int]):
        self._propose, self._instance = propose, instance
        self._comp = config_costs(instance.space, instance.bounds)[0]
        self._waves_left = instance.space.size + 1  # cycle guard
        self._chains: list[list] = [[] for _ in instance.ids]
        self._alive = [True] * len(instance.ids)
        self._live = list(positions)  # positions of the live chains
        self._cur = np.array(starts, dtype=np.int64)[self._live]
        self._u_cur = block_utility(instance.space, instance.block[self._live],
                                    self._cur)

    def _grow(self) -> None:
        live, chains, cur_list = self._live, self._chains, self._cur.tolist()
        ids, space = self._instance.ids, self._instance.space
        proposals = [p if isinstance(p, Exception) or space.is_index(p)
                     else IndexError(f"task {ids[i]}: proposal {p!r} is "
                                     f"not a configuration index in "
                                     f"[0, {space.size})")
                     for i, p in zip(live, self._propose(live, cur_list))]
        new = np.array([j if isinstance(p, Exception) else p
                        for p, j in zip(proposals, cur_list)], dtype=np.int64)
        u_new = block_utility(space, self._instance.block[live], new)
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
    starts = base_configuration(instance.space, instance.block, instance.bounds)

    def steps(kept: list[int]) -> dict[int, Iterator]:
        positions = [instance.position[tid] for tid in kept]
        group = _ChainGroup(propose, instance, starts, positions)
        return {tid: group.drawn(pos) for tid, pos in zip(kept, positions)}

    # Weights that overflow would warn on every forward pass; next_config
    # turns their non-finite logits into a WeightFormatError instead.
    with np.errstate(over="ignore", invalid="ignore"):
        return upgrade_loop(instance, dict(zip(instance.position, starts)), steps)


def allocate_with_agent(params: AgentParams, instance: ProblemInstance
                        ) -> tuple[Allocation, AllocationTrace]:
    return allocate_with_proposals(network_proposer(params, instance), instance)
