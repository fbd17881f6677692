"""Agent-driven global allocation: greedy upgrades without job lists.

The greedy pass only ever needs "the next desirable configuration from the
current one", which is exactly what the trained network proposes.  So the
allocation runs the shared :func:`qram.classic.upgrade_loop` with one lazy
step iterator per task: every task starts at its cheapest configuration,
the iterator asks the proposer for the next configuration from the current
one, and the loop applies the feasible upgrade with the best
utility-to-resource quotient, drawing a task's next step only after its
last one was accepted.  So the proposer is called in exactly the order the
loop needs, one call per draw.

Unlike a job list, proposals come from an arbitrary function, so the
iterator protects the loop: a stationary or non-improving proposal ends it,
and it asks the proposer at most grid size + 1 times, which bounds the loop
even under adversarial proposers.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .agent import AgentParams, WeightFormatError, forward, greedy_action
from .classic import (AllocationTrace, base_configuration, job_list_for,
                      upgrade_loop)
from .core import Allocation, Configuration, Task
from .env import encode_state, raw_quotient
from .perf import Target
from .problem import ProblemInstance

#: propose(task, target, current_config) -> next configuration
Proposer = Callable[[Task, Target, Configuration], Configuration]


def next_config(params: AgentParams, task: Task, target: Target,
                current: Configuration) -> Configuration:
    """Greedy network proposal for the task's next configuration."""
    space = task.config_space
    if params.n_actions != space.size:
        raise ValueError(f"network has {params.n_actions} actions but the grid "
                         f"has {space.size} configurations")
    logits, _ = forward(params, encode_state(space, current, target))
    action = greedy_action(logits)
    # argmax returns the first NaN, and an overflow to +inf wins it, so a
    # finite winner means a usable proposal.
    if not math.isfinite(logits[action]):
        raise WeightFormatError(
            f"network logits are not finite (task {task.id}); the weights overflow")
    return space.config_at(action)


def network_proposer(params: AgentParams) -> Proposer:
    def propose(task: Task, target: Target, current: Configuration) -> Configuration:
        return next_config(params, task, target, current)
    return propose


def frontier_proposer(instance: ProblemInstance) -> Proposer:
    """Perfect proposer: the next job-list point (itself when exhausted).

    Driving the allocation loop with this oracle reproduces the classical
    greedy result exactly; it pins down the loop's semantics in tests.
    """
    lists = {task.id: job_list_for(task, instance.target_for(task), instance.bounds)
             for task in instance.tasks}

    def propose(task: Task, target: Target, current: Configuration) -> Configuration:
        points = lists[task.id].points
        for i, p in enumerate(points):
            if p.config == current:
                return points[i + 1].config if i + 1 < len(points) else current
        raise ValueError(f"task {task.id}: {current} is not on its frontier")
    return propose


def allocate_with_proposals(propose: Proposer, instance: ProblemInstance
                            ) -> tuple[Allocation, AllocationTrace]:
    """Greedy upgrade loop over proposals; never returns an infeasible result."""
    bounds = instance.bounds

    def steps(task: Task, target: Target, current: Configuration):
        for _ in range(task.config_space.size + 1):  # cycle guard
            proposal = propose(task, target, current)
            quotient = raw_quotient(current, proposal, target, bounds)
            if proposal == current or quotient <= 0.0:
                return  # stationary or non-improving: retire
            yield proposal, quotient
            current = proposal  # resumed only once the upgrade was accepted

    start, task_steps = {}, {}
    for task in instance.tasks:
        target = instance.target_for(task)
        start[task.id] = base_configuration(task.config_space, target, bounds)
        task_steps[task.id] = steps(task, target, start[task.id])
    # Weights that overflow would warn on every forward pass; next_config
    # turns their non-finite logits into a WeightFormatError instead.
    with np.errstate(over="ignore", invalid="ignore"):
        return upgrade_loop(instance, start, task_steps)


def allocate_with_agent(params: AgentParams, instance: ProblemInstance
                        ) -> tuple[Allocation, AllocationTrace]:
    return allocate_with_proposals(network_proposer(params), instance)
