"""The four workloads: the CLI calls each one makes, and how each is checked.

A workload is a *round*, a fixed list of ``qram`` CLI calls, which the
benchmark repeats in a closed loop.  Every call belongs to one of three
tiers (small, medium, large) whose median wall times are the benchmark's
latency metrics.  Set-up writes every file the program reads: scenarios
drawn from the workload seed and a checked copy of the frozen agent weights.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qram import agent
from qram.core import DEFAULT_CONFIG_SPACE
from qram.perf import generate_scenario
from qram.problem import build_tracking_instance, default_bounds

import checks

TIERS = ("small", "medium", "large")

#: Frozen weights: ``qram train --steps 30000 --seed 1`` on the seed code.
WEIGHTS = Path(__file__).resolve().parent / "weights" / "agent-seed1-30k.json"
WEIGHTS_SHA256 = "ebaea7f3cfda5dbf05c9bea2f5fbc9765047a6ca8a7b5221d32fc81d882e5b08"


class SetupError(RuntimeError):
    """The benchmark's own inputs are missing or corrupt."""


@dataclass(frozen=True)
class Spec:
    """Input sizes of every workload."""

    solve_targets: tuple[int, int, int] = (150, 500, 1000)
    #: Scenarios per size; the cheap small size gets more, for more samples.
    solve_scenarios: tuple[int, int, int] = (6, 3, 3)
    train_steps: tuple[int, int, int] = (300, 600, 1200)
    train_seeds_per_length: int = 4
    dp_targets: tuple[int, int] = (150, 500)
    dp_scenarios_per_size: int = 2


FULL = Spec()


@dataclass(frozen=True)
class Op:
    """One CLI call: its tier, its arguments, the files it writes and the
    check of those files (failure messages plus a quality value)."""

    tier: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[], tuple[list[str], float]]


def _scenario_seed(seed: int, n_targets: int, index: int) -> int:
    return seed * 1_000_000 + n_targets * 100 + index


def _write_scenario(work: Path, seed: int, n_targets: int, index: int):
    scenario = generate_scenario(n_targets, _scenario_seed(seed, n_targets, index))
    path = work / f"scenario-{n_targets}-{index}.json"
    path.write_text(json.dumps(scenario.to_dict(), indent=1, sort_keys=True),
                    encoding="utf-8")
    instance = build_tracking_instance(scenario, default_bounds(n_targets),
                                       DEFAULT_CONFIG_SPACE)
    return path, instance


def _solve_op(tier, scenario, instance, out, extra=()) -> Op:
    def check():
        return checks.check_solve(json.loads(out.read_text(encoding="utf-8")),
                                  instance)
    return Op(tier, ("solve", "--scenario", str(scenario), *extra,
                     "--out", str(out)), (out,), check)


def frozen_weights(work: Path) -> Path:
    """Copy the frozen weights into the work directory after checking them."""
    data = WEIGHTS.read_bytes() if WEIGHTS.exists() else b""
    if hashlib.sha256(data).hexdigest() != WEIGHTS_SHA256:
        raise SetupError(f"{WEIGHTS} is missing or does not match its sha256")
    copy = work / WEIGHTS.name
    copy.write_bytes(data)
    agent.load(copy)
    return copy


def build_round(workload: str, seed: int, work: Path, spec: Spec = FULL) -> list[Op]:
    """Write the workload's inputs into ``work`` and return its round."""
    ops: list[Op] = []

    def out(stem: str, suffix: str) -> Path:
        return work / f"{stem}-{len(ops)}{suffix}"

    if workload in ("solve-classic", "solve-agent"):
        extra = ("--method", "classic")
        if workload == "solve-agent":
            extra = ("--method", "agent", "--weights", str(frozen_weights(work)))
        for index in range(max(spec.solve_scenarios)):
            for tier, n, count in zip(TIERS, spec.solve_targets, spec.solve_scenarios):
                if index >= count:
                    continue
                scenario, instance = _write_scenario(work, seed, n, index)
                ops.append(_solve_op(tier, scenario, instance,
                                     out("result", ".json"), extra))
    elif workload == "train":
        for _ in range(spec.train_seeds_per_length):
            for tier, steps in zip(TIERS, spec.train_steps):
                weights, curve = out("weights", ".json"), out("curve", ".csv")
                train_seed = seed * 1000 + len(ops)
                ops.append(Op(tier, ("train", "--steps", str(steps),
                                     "--seed", str(train_seed),
                                     "--out", str(weights), "--curve", str(curve)),
                              (weights, curve),
                              lambda c=curve, w=weights, s=steps:
                                  checks.check_train(c, w, s)))
    elif workload == "oracle":
        for index in range(spec.dp_scenarios_per_size):
            for tier, n in zip(TIERS, spec.dp_targets):
                scenario, instance = _write_scenario(work, seed, n, index)
                ops.append(_solve_op(tier, scenario, instance, out("result", ".json"),
                                     ("--method", "dp")))
        table = out("remark1", ".csv")
        ops.append(Op(TIERS[2], ("demo", "remark1", "--out", str(table)), (table,),
                      lambda: checks.check_remark1(table)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def fresh_workdir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
