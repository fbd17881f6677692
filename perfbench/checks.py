"""Correctness checks on the files the CLI writes, and their digests.

Every check returns a list of failure messages (empty when the output is
correct) together with the output's quality value, so one bad result is
counted as one failed operation and never escapes as an exception.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from qram import agent
from qram.core import (Allocation, Configuration, allocation_usage,
                       compound_resource)
from qram.env import EPISODE_LENGTH
from qram.problem import ProblemInstance, is_feasible, system_utility


def read_allocation(doc: dict) -> Allocation:
    """The assignment of a ``solve`` result document."""
    return Allocation(assignment={int(tid): Configuration(**config)
                                  for tid, config in doc["assignment"].items()})


def check_solve(doc: dict, instance: ProblemInstance) -> tuple[list[str], float]:
    """A ``solve`` result: a feasible assignment whose reported utility is
    the recomputed one.  The dp method optimises the compound relaxation, so
    its assignment is held to the compound budget instead of both bounds."""
    try:
        alloc = read_allocation(doc)
        failures = []
        if doc["method"] == "dp":
            compound = compound_resource(allocation_usage(alloc), instance.bounds)
            budget = sum(instance.bounds.compound_weights)
            if not compound <= budget:
                failures.append(f"compound resource {compound!r} exceeds the "
                                f"compound budget {budget!r}")
        elif not is_feasible(alloc, instance):
            failures.append("assignment exceeds the resource bounds")
        recomputed = system_utility(alloc, instance)
        if doc["system_utility"] != recomputed:
            failures.append(f"reported utility {doc['system_utility']!r} != "
                            f"recomputed {recomputed!r}")
        return failures, recomputed
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed solve result: {exc!r}"], math.nan


def check_remark1(path: Path) -> tuple[list[str], float]:
    """Greedy never beats the optimum, and the optimum never falls as the
    nested grids grow.  Quality is the optimum on the largest grid."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(float(r["greedy_utility"]), float(r["optimal_utility"]))
                    for r in csv.DictReader(fh)]
    except (KeyError, ValueError) as exc:
        return [f"malformed remark1 table: {exc!r}"], math.nan
    if not rows:
        return ["remark1 table is empty"], math.nan
    failures = []
    for i, (greedy, optimum) in enumerate(rows):
        if not (math.isfinite(greedy) and math.isfinite(optimum)):
            failures.append(f"row {i}: non-finite utility")
        elif greedy > optimum:
            failures.append(f"row {i}: greedy {greedy!r} > optimum {optimum!r}")
    for i in range(1, len(rows)):
        if rows[i][1] < rows[i - 1][1]:
            failures.append(f"row {i}: optimum fell on a larger grid")
    return failures, rows[-1][1]


def check_train(curve: Path, weights: Path, steps: int) -> tuple[list[str], float]:
    """A finite learning curve of the right length and a weight file that
    ``agent.load`` accepts.  Quality is the curve's mean episode reward."""
    failures = []
    try:
        with open(curve, newline="", encoding="utf-8") as fh:
            rows = [(float(r["mean_reward"]), float(r["loss"]))
                    for r in csv.DictReader(fh)]
    except (KeyError, ValueError) as exc:
        return [f"malformed learning curve: {exc!r}"], math.nan
    if len(rows) != steps // EPISODE_LENGTH:
        failures.append(f"curve has {len(rows)} episodes, expected "
                        f"{steps // EPISODE_LENGTH}")
    if not all(math.isfinite(v) for row in rows for v in row):
        failures.append("non-finite value in the learning curve")
    try:
        params, _ = agent.load(weights)
        if not all(np.isfinite(a).all() for _, a in params.named_arrays()):
            failures.append("non-finite weight")
    except agent.WeightFormatError as exc:
        failures.append(f"weight file rejected: {exc}")
    rewards = [r for r, _ in rows]
    return failures, (sum(rewards) / len(rewards) if rewards else math.nan)


def digest_file(path: Path) -> bytes:
    """sha256 of an output; solve results are hashed without ``timings``,
    the only field that differs between identical runs."""
    data = path.read_bytes()
    if path.suffix == ".json" and path.name.startswith("result"):
        doc = json.loads(data)
        doc.pop("timings", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).digest()
