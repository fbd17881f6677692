"""Quality-of-service radar resource management.

Two solvers for one problem, picking one configuration per radar task to
maximise summed utility under global resource bounds: the classical
job-list/greedy method and a trained actor-critic agent proposing upgrades,
plus exact oracles and a benchmarking CLI (``qram``).
"""

import os

# One BLAS thread unless the user chose; numpy reads these on first import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .core import (Allocation, Configuration, ConfigSpace, DEFAULT_CONFIG_SPACE,
                   ResourceBounds, compound_resource)
from .perf import Scenario, Target, TargetType, generate_scenario
from .problem import (ProblemInstance, build_tracking_instance, default_bounds,
                      is_feasible, system_utility)
from .classic import (JobList, JobPoint, embed_task, greedy_allocate,
                      job_list_for, solve_classic, upper_frontier)
from .exact import CapacityError, optimal_allocation, optimal_allocation_dp
from .env import TrackingEnv, encode_state
from .agent import (AgentParams, a2c_update, forward, init_params, load,
                    sample_action, save, train)
from .allocator import allocate_with_agent, allocate_with_proposals, next_config

__version__ = "0.1.0"

__all__ = [
    "Allocation", "Configuration", "ConfigSpace", "DEFAULT_CONFIG_SPACE",
    "ResourceBounds", "compound_resource",
    "Scenario", "Target", "TargetType", "generate_scenario",
    "ProblemInstance", "build_tracking_instance", "default_bounds",
    "is_feasible", "system_utility",
    "JobList", "JobPoint", "embed_task", "greedy_allocate", "job_list_for",
    "solve_classic", "upper_frontier",
    "CapacityError", "optimal_allocation", "optimal_allocation_dp",
    "TrackingEnv", "encode_state",
    "AgentParams", "a2c_update", "forward",
    "init_params", "load", "sample_action", "save", "train",
    "allocate_with_agent", "allocate_with_proposals", "next_config",
    "__version__",
]
