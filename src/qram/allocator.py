"""Agent-driven global allocation: greedy upgrades without job lists.

The greedy pass only ever needs "the next desirable configuration from the
current one", which is exactly what the trained network proposes.  So the
allocation runs the shared :func:`qram.classic.upgrade_loop` with a proposer
step: every task starts at its cheapest configuration, the proposer names
its next configuration, and the loop applies the feasible upgrade with the
best (optionally priority-weighted) utility-to-resource quotient,
re-querying a task after each accepted upgrade.

Unlike a job list, proposals come from an arbitrary function, so the step
protects the loop: a stationary or non-improving proposal retires the task,
and a per-task upgrade budget of the grid size bounds the loop even under
adversarial proposers.
"""

from __future__ import annotations

from typing import Callable

from .agent import AgentParams, forward, greedy_action
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
    return space.config_at(greedy_action(logits))


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


def allocate_with_proposals(propose: Proposer, instance: ProblemInstance,
                            priority_weights: dict[int, float] | None = None
                            ) -> tuple[Allocation, AllocationTrace]:
    """Greedy upgrade loop over proposals; never returns an infeasible result."""
    weights = priority_weights or {}
    start = {t.id: base_configuration(t.config_space, instance.target_for(t),
                                      instance.bounds)
             for t in instance.tasks}
    accepted = dict.fromkeys(start, -1)  # the first call follows no upgrade

    def advance(tid: int, current: Configuration):
        task = instance.task_by_id(tid)
        accepted[tid] += 1
        if accepted[tid] > task.config_space.size:
            return None  # cycle guard for bad proposers
        target = instance.target_for(task)
        proposal = propose(task, target, current)
        quotient = raw_quotient(current, proposal, target, instance.bounds)
        if proposal == current or quotient <= 0.0:
            return None  # stationary or non-improving: retire
        return proposal, weights.get(tid, 1.0) * quotient

    return upgrade_loop(instance, start, advance)


def allocate_with_agent(params: AgentParams, instance: ProblemInstance,
                        priority_weights: dict[int, float] | None = None
                        ) -> tuple[Allocation, AllocationTrace]:
    return allocate_with_proposals(network_proposer(params), instance,
                                   priority_weights)
