"""Command-line harness: scenario generation, solving, training, benchmarks.

Every subcommand that takes a seed (or master seed) writes bit-reproducible
JSON/CSV output; wall-clock fields are the only exception.  Exit codes:
0 success, 2 usage error, 3 enumeration-capacity error, 4 training error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import remark1
from .agent import TrainingError, WeightFormatError
from .allocator import allocate_with_agent, allocate_with_proposals, network_proposer
# perfbench/tracing.py wraps embed_task and upper_frontier here, by name.
from .classic import (embed_task, frontier_sweep, greedy_allocate,
                      job_list_for, solve_classic, upper_frontier)
from .core import (Configuration, ConfigSpace, DEFAULT_CONFIG_SPACE,
                   ResourceBounds, grid_configurations)
from .env import (CONFIG_WIDTH, DEFAULT_ENV_BOUNDS, SITUATIONAL_WIDTH,
                  TrackingEnv, encode_state)
from .exact import CapacityError, optimal_allocation, optimal_allocation_dp
from .perf import Scenario, generate_scenario
from .problem import (ProblemInstance, build_tracking_instance, default_bounds,
                      evaluate_allocation, system_utility, utility_table)
from .rng import PortableRng

#: Default sweep of configurations-per-task for the by-configs benchmark.
DEFAULT_CONFIG_SWEEP = (90, 180, 450, 900, 1800, 4500)


# --------------------------------------------------------------------------
# argument helpers
# --------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' (inclusive)."""
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 20..150, got {text!r}")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}")
    return lo, hi


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return a, b


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_positive_int(x) for x in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")


class UsageError(ValueError):
    """Input from the command line or a scenario file that the model rejects;
    ``main`` reports it on one ``error:`` line and exits 2."""


def _checked(what: str, make, **fields):
    """Build a model object from command-line values; a rejection is a usage error."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise UsageError(f"invalid {what}: {exc}") from None


def _bounds_from_args(args, default: ResourceBounds) -> ResourceBounds:
    """``default`` with the ``--bounds``/``--compound-weights`` overrides."""
    return _checked(
        "--bounds/--compound-weights", ResourceBounds,
        bounds=default.bounds if args.bounds is None else args.bounds,
        compound_weights=(default.compound_weights if args.compound_weights is None
                          else args.compound_weights))


def _instance(scenario: Scenario, bounds: ResourceBounds,
              space: ConfigSpace) -> ProblemInstance:
    """``build_tracking_instance``; bounds under which the compound resource
    of a grid configuration is not finite, and a target at a range where the
    radar model's SNR is zero or not finite, are usage errors."""
    return _checked("scenario or --bounds/--compound-weights",
                    build_tracking_instance,
                    scenario=scenario, bounds=bounds, space=space)


def _load_scenario(path: str) -> Scenario:
    try:
        scenario = Scenario.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:  # RecursionError: JSON nested too deep
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise UsageError(f"{path}: not a valid scenario ({detail})") from None
    if not scenario.ids:
        raise UsageError(f"{path}: the scenario has no targets")
    return scenario


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n",
                          encoding="utf-8")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _config_dict(config: Configuration) -> dict:
    return {"dwell_length": config.dwell_length,
            "transmit_duration": config.transmit_duration,
            "transmit_power": config.transmit_power}


def _bench_seed(master_seed: int, targets: int, run: int) -> int:
    return master_seed * 1_000_000 + targets * 1_000 + run


def _refined_space(configs_per_task: int) -> ConfigSpace:
    """Refined grid with the requested cardinality: the dwell axis gets
    6 * (c / 90) evenly spaced values over the base interval."""
    if configs_per_task % 90 != 0 or configs_per_task < 90:
        raise UsageError(
            f"configuration counts must be positive multiples of 90, "
            f"got {configs_per_task}")
    n_dwell = 6 * (configs_per_task // 90)
    dwell = tuple(np.linspace(100.0, 1100.0, n_dwell))
    return ConfigSpace(dwell_grid=dwell,
                       tx_duration_grid=DEFAULT_CONFIG_SPACE.tx_duration_grid,
                       tx_power_grid=DEFAULT_CONFIG_SPACE.tx_power_grid)


def _load_agent(args, space: ConfigSpace):
    if not args.weights:
        raise WeightFormatError("this mode needs --weights")
    params, saved_space = agent_mod.load(args.weights)
    if saved_space is not None and saved_space != space:
        raise WeightFormatError(
            "weight file was trained for a different configuration grid")
    if params.n_actions != space.size:
        raise WeightFormatError(
            f"weight file has {params.n_actions} actions, grid has {space.size}")
    if (params.situational_in, params.config_in) != (SITUATIONAL_WIDTH, CONFIG_WIDTH):
        raise WeightFormatError(
            f"weight file has network inputs {params.situational_in}+"
            f"{params.config_in}, the state has {SITUATIONAL_WIDTH}+{CONFIG_WIDTH}")
    return params


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_gen(args) -> int:
    scenario = generate_scenario(args.targets, args.seed)
    _write_json(args.out, scenario.to_dict())
    print(f"wrote {args.targets} targets (seed {args.seed}) to {args.out}")
    return 0


def _timed_classic(instance: ProblemInstance):
    """``solve_classic`` stage by stage: embed_s times the kept tasks'
    utility table, hull_s their frontier sweep, and optimize_s the rest of
    the greedy pass (start configurations, drop and upgrades)."""
    stages = {}

    def frontiers(kept):
        t0 = time.perf_counter()
        table = utility_table(instance, kept)
        t1 = time.perf_counter()
        swept = frontier_sweep(instance, table)
        stages.update(embed_s=t1 - t0, hull_s=time.perf_counter() - t1)
        return swept

    t0 = time.perf_counter()
    alloc, trace = greedy_allocate(frontiers, instance)
    total = time.perf_counter() - t0
    timings = {**stages,
               "optimize_s": total - stages["embed_s"] - stages["hull_s"]}
    return alloc, trace, timings


def _timed_agent(params, instance: ProblemInstance):
    query_time = [0.0]
    inner = network_proposer(params, instance)

    def timed_propose(positions, currents):
        q0 = time.perf_counter()
        proposals = inner(positions, currents)
        query_time[0] += time.perf_counter() - q0
        return proposals

    t0 = time.perf_counter()
    alloc, trace = allocate_with_proposals(timed_propose, instance)
    total = time.perf_counter() - t0
    timings = {"agent_query_s": query_time[0],
               "optimize_s": total - query_time[0]}
    return alloc, trace, timings


def cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    bounds = _bounds_from_args(args, default_bounds(len(scenario.ids)))
    space = DEFAULT_CONFIG_SPACE
    instance = _instance(scenario, bounds, space)

    trace = None
    extra = {}
    if args.method == "classic":
        alloc, trace, timings = _timed_classic(instance)
    elif args.method == "agent":
        params = _load_agent(args, space)
        alloc, trace, timings = _timed_agent(params, instance)
    elif args.method == "brute":
        t0 = time.perf_counter()
        alloc, _ = optimal_allocation(instance)
        timings = {"optimize_s": time.perf_counter() - t0}
    else:  # dp
        t0 = time.perf_counter()
        alloc, _ = optimal_allocation_dp(instance, args.dp_step)
        timings = {"optimize_s": time.perf_counter() - t0}
        extra["resource_model"] = "compound_relaxation"

    utilities, usage = evaluate_allocation(alloc, instance)
    # One dict per grid configuration, shared by the assignment and trace.
    configs = grid_configurations(space)
    as_dicts = [_config_dict(c) for c in configs]
    by_config = dict(zip(configs, as_dicts))
    doc = {
        "format": 1,
        "method": args.method,
        "scenario": {"seed": scenario.seed, "n_targets": len(scenario.ids)},
        "bounds": bounds.to_dict(),
        "system_utility": system_utility(alloc, instance, utilities),
        "per_task_utility": {str(tid): u for tid, u in utilities.items()},
        "assignment": {str(tid): by_config[c]
                       for tid, c in sorted(alloc.assignment.items())},
        "resource_usage": list(usage),
        "dropped": sorted(set(instance.ids) - set(alloc.assignment)),
        "trace": [{"task_id": u.task_id, "ratio": u.ratio,
                   "config": as_dicts[u.index]}
                  for u in (trace.upgrades if trace else [])],
        "timings": timings,
        **extra,
    }
    _write_json(args.out, doc)
    print(f"{args.method}: system utility {doc['system_utility']:.6f} "
          f"({len(alloc.assignment)}/{len(instance.ids)} tasks) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    bounds = _bounds_from_args(args, DEFAULT_ENV_BOUNDS)
    env = _checked("--bounds/--compound-weights", TrackingEnv,
                   space=DEFAULT_CONFIG_SPACE, bounds=bounds, seed=args.seed)
    t0 = time.perf_counter()
    params, curve = agent_mod.train(env, args.steps, seed=args.seed)
    elapsed = time.perf_counter() - t0
    agent_mod.save(params, args.out, config_space=DEFAULT_CONFIG_SPACE)
    if args.curve:
        _write_csv(args.curve, ["step", "episode", "mean_reward", "loss"],
                   [[c.step, c.episode, repr(c.mean_reward), repr(c.loss)]
                    for c in curve])
    steps = curve[-1].step if curve else 0
    print(f"trained {steps} steps ({len(curve)} episodes) in {elapsed:.1f}s "
          f"-> {args.out}")
    return 0


def cmd_bench_utility(args) -> int:
    lo, hi = args.targets
    space = DEFAULT_CONFIG_SPACE
    params = _load_agent(args, space)
    rows = []
    for n in range(lo, hi + 1, args.step):
        bounds = _bounds_from_args(args, default_bounds(n))
        classic_vals, agent_vals, ratios = [], [], []
        for run in range(args.runs):
            scenario = generate_scenario(n, _bench_seed(args.master_seed, n, run))
            instance = _instance(scenario, bounds, space)
            classic_alloc, _ = solve_classic(instance)
            agent_alloc, _ = allocate_with_agent(params, instance)
            cu = system_utility(classic_alloc, instance)
            au = system_utility(agent_alloc, instance)
            if cu == 0.0:
                raise UsageError(
                    f"at {n} targets classic allocates nothing under these "
                    f"bounds, so the agent/classic ratio is undefined")
            classic_vals.append(cu)
            agent_vals.append(au)
            ratios.append(au / cu)
        rows.append([n, repr(float(np.mean(classic_vals))),
                     repr(float(np.mean(agent_vals))),
                     repr(float(np.mean(ratios))),
                     repr(float(np.std(ratios)))])
        print(f"targets {n}: ratio {np.mean(ratios):.4f} +- {np.std(ratios):.4f}")
    _write_csv(args.out, ["targets", "classic_mean_utility", "agent_mean_utility",
                          "ratio", "ratio_std"], rows)
    return 0


#: Iterations of the pure-Python loop that gauges the machine's speed.
_PROBE_ITERATIONS = 20_000
#: Each timing sample loops one call for at least this long (s).
_MIN_SAMPLE_S = 20e-3


def _probe_s() -> float:
    """Time a fixed pure-Python loop: a gauge of the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def _median_times(fns, runs: int) -> list[float]:
    """Median of ``runs`` samples of the per-call time of each of ``fns``.

    Each sample loops one call for at least ``_MIN_SAMPLE_S`` so timer
    resolution does not matter.  Samples are taken round-robin over ``fns``
    so slow and fast spells of a shared machine hit every function alike,
    and each sample is divided by the speed probe timed around it, which
    cancels most of what is left; results are rescaled to the median probe.
    """
    repeats = []
    for fn in fns:
        fn()  # warm-up (caches)
        t0 = time.perf_counter()
        fn()
        single = max(time.perf_counter() - t0, 1e-9)
        repeats.append(max(1, int(math.ceil(_MIN_SAMPLE_S / single))))
    samples = [[] for _ in fns]
    probes = []
    before = _probe_s()
    for _ in range(runs):
        for fn, n, out in zip(fns, repeats, samples):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            elapsed = (time.perf_counter() - t0) / n
            after = _probe_s()
            probes.append(before + after)
            out.append(elapsed / probes[-1])
            before = after
    typical = float(np.median(probes))
    return [float(np.median(x)) * typical for x in samples]


def cmd_bench_runtime(args) -> int:
    """Wall-clock scaling, written as CSV.

    ``by-targets`` times a classic and an agent solve per scenario size.
    ``by-configs`` times, per refined grid, one task's ``job_list_for``
    (``joblist_s``) and one ``agent.forward`` of that task's state
    (``forward_s``).  The network keeps its 90 actions on every grid, so
    ``forward_s`` times one 90-action forward pass: it cannot name a
    configuration of a larger grid and is not a solver above 90
    configurations.
    """
    space = DEFAULT_CONFIG_SPACE
    if args.mode == "by-targets":
        params = _load_agent(args, space)
        rows = []
        for n in range(args.targets[0], args.targets[1] + 1, args.step):
            bounds = _bounds_from_args(args, default_bounds(n))
            scenario = generate_scenario(n, _bench_seed(args.master_seed, n, 0))
            instance = _instance(scenario, bounds, space)
            classic_s, agent_s = _median_times(
                [lambda: _timed_classic(instance),
                 lambda: allocate_with_agent(params, instance)],
                args.runs)
            rows.append([n, repr(classic_s), repr(agent_s)])
            print(f"targets {n}: classic {classic_s*1e3:.2f} ms, "
                  f"agent {agent_s*1e3:.2f} ms")
        _write_csv(args.out, ["targets", "classic_solve_s", "agent_solve_s"], rows)
        return 0

    # by-configs: per-task job-list build vs a single forward pass.  The
    # network keeps its fixed architecture; the scale-free state encoding
    # works on any grid.
    params = (_load_agent(args, space) if args.weights
              else agent_mod.init_params(PortableRng(0)))
    scenario = generate_scenario(1, args.master_seed)
    bounds = _bounds_from_args(args, default_bounds(20))
    cases = []
    for c in args.configs:
        refined = _refined_space(c)
        state = encode_state(refined, [0],
                             _instance(scenario, bounds, refined).block)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            logits, _ = agent_mod.forward(params, state)
        if not np.all(np.isfinite(logits)):
            raise WeightFormatError(f"network logits are not finite ({c} "
                                    f"configurations); the weights overflow")
        cases += [partial(job_list_for, scenario.targets[0], refined, bounds),
                  partial(agent_mod.forward, params, state)]
    times = _median_times(cases, args.runs)
    rows = []
    for c, job_s, fwd_s in zip(args.configs, times[0::2], times[1::2]):
        rows.append([c, repr(job_s), repr(fwd_s)])
        print(f"configs {c}: job list {job_s*1e3:.3f} ms, forward {fwd_s*1e6:.1f} us")
    _write_csv(args.out, ["configs", "joblist_s", "forward_s"], rows)
    return 0


def cmd_bench_model(args) -> int:
    """Closed-form cost models: t*c*log(c) versus t*c*l*n^2 (natural log)."""
    lo, hi = args.targets
    rows = []
    for t in range(lo, hi + 1, args.step):
        for c in args.configs:
            classic_model = t * c * math.log(c)
            agent_model = t * c * args.layers * args.neurons**2
            rows.append([t, c, repr(classic_model), repr(agent_model)])
    _write_csv(args.out, ["targets", "configs", "classic_model", "agent_model"],
               rows)
    print(f"wrote {len(rows)} model rows to {args.out}")
    return 0


def cmd_demo_remark1(args) -> int:
    rows = remark1.demo_rows()
    _write_csv(args.out, ["configs_per_task", "greedy_utility", "optimal_utility"],
               [[r["configs_per_task"], repr(r["greedy_utility"]),
                 repr(r["optimal_utility"])] for r in rows])
    i, j = remark1.NON_MONOTONE_PAIR
    print(f"greedy: {rows[i]['greedy_utility']:.6f} -> {rows[j]['greedy_utility']:.6f} "
          f"(drops when the grid grows {rows[i]['configs_per_task']} -> "
          f"{rows[j]['configs_per_task']} configs); optimum "
          f"{rows[i]['optimal_utility']:.6f} -> {rows[j]['optimal_utility']:.6f}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qram",
        description="Radar resource management: job-list/greedy solver, exact "
                    "oracles, and an actor-critic allocation agent.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups shared by several commands.
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--bounds", type=_parse_pair, metavar="R1,R2",
                        help="resource bounds override")
    bounds.add_argument("--compound-weights", type=_parse_pair, metavar="W1,W2",
                        help="compound weight override")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--targets", type=_parse_range, default=(20, 150),
                       metavar="A..B")
    sweep.add_argument("--step", type=_positive_int, default=10)
    configs = argparse.ArgumentParser(add_help=False)
    configs.add_argument("--configs", type=_parse_int_list,
                         default=DEFAULT_CONFIG_SWEEP, metavar="C1,C2,...")

    p = sub.add_parser("gen", help="generate a random scenario")
    p.add_argument("--targets", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[bounds],
                       help="allocate resources for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", choices=["classic", "agent", "brute", "dp"],
                   default="classic")
    p.add_argument("--weights", help="weight file (agent method)")
    p.add_argument("--dp-step", type=_positive_float, default=None,
                   help="resource quantisation step (dp method)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", parents=[bounds],
                       help="train the allocation agent")
    p.add_argument("--steps", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--curve", help="learning-curve CSV path")
    p.set_defaults(func=cmd_train)

    bench = sub.add_parser("bench", help="benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser("utility", parents=[sweep, bounds],
                             help="agent vs classic utility sweep")
    p.add_argument("--runs", type=_positive_int, default=20)
    p.add_argument("--weights", required=True)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_utility)

    p = bench_sub.add_parser("runtime", parents=[sweep, configs, bounds],
                             help="wall-clock scaling")
    p.add_argument("--mode", choices=["by-targets", "by-configs"], required=True)
    p.add_argument("--runs", type=_positive_int, default=20)
    p.add_argument("--weights")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_runtime)

    p = bench_sub.add_parser("model", parents=[sweep, configs],
                             help="closed-form complexity table")
    p.add_argument("--layers", type=_positive_int, default=4)
    p.add_argument("--neurons", type=_positive_int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_model)

    demo = sub.add_parser("demo", help="stored demonstration instances")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)
    p = demo_sub.add_parser(
        "remark1", help="greedy gets worse as the configuration set grows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo_remark1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4
    except (WeightFormatError, UsageError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
