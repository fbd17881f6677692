"""Quality-of-service radar resource management.

Two solvers for one problem, picking one configuration per radar task to
maximise summed utility under global resource bounds: the classical
job-list/greedy method and a trained actor-critic agent proposing upgrades,
plus exact oracles and a benchmarking CLI (``qram``).
"""

from .core import (Allocation, Configuration, ConfigSpace, DEFAULT_CONFIG_SPACE,
                   ResourceBounds, compound_resource, resource_of)
from .perf import (QualityValue, Scenario, Target, TargetType, generate_scenario,
                   quality, snr, task_utility, utility_from_quality)
from .problem import (ProblemInstance, build_tracking_instance, default_bounds,
                      is_feasible, system_utility)
from .classic import (JobList, JobPoint, embed_task, greedy_allocate,
                      job_list_for, solve_classic, upper_frontier)
from .exact import CapacityError, optimal_allocation, optimal_allocation_dp
from .env import TrackingEnv, encode_state, raw_quotient
from .agent import (AgentParams, a2c_update, forward, greedy_action,
                    init_params, load, sample_action, save, train)
from .allocator import allocate_with_agent, allocate_with_proposals, next_config

__version__ = "0.1.0"

__all__ = [
    "Allocation", "Configuration", "ConfigSpace", "DEFAULT_CONFIG_SPACE",
    "ResourceBounds", "compound_resource", "resource_of",
    "QualityValue", "Scenario", "Target", "TargetType", "generate_scenario",
    "quality", "snr", "task_utility", "utility_from_quality",
    "ProblemInstance", "build_tracking_instance", "default_bounds",
    "is_feasible", "system_utility",
    "JobList", "JobPoint", "embed_task", "greedy_allocate", "job_list_for",
    "solve_classic", "upper_frontier",
    "CapacityError", "optimal_allocation", "optimal_allocation_dp",
    "TrackingEnv", "encode_state", "raw_quotient",
    "AgentParams", "a2c_update", "forward", "greedy_action",
    "init_params", "load", "sample_action", "save", "train",
    "allocate_with_agent", "allocate_with_proposals", "next_config",
    "__version__",
]
