"""Spans around the public functions of each qram module, and the per-layer
metrics derived from them.

A traced call into the program runs inside ``Tracer.installed(op)``, which
replaces every name in ``PATCHES`` with a recording wrapper for the length of
that one call and restores the originals afterwards; untraced calls therefore
run the unmodified program.  A name is wrapped where its caller looks it up:
``embed_task`` is wrapped both in ``qram.cli`` (the CLI's solve path) and in
``qram.classic`` (``job_list_for``, used by the remark1 demo).

Each span is ``(name, start, end, parent, op)``: its parent is the span that
was open when it started and ``op`` is the id of the CLI call it belongs to.
Spans stay in memory and are written once, by ``write_spans``, at exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict


def _count_trace(prefix):
    def count(counts, args, result):
        trace = result[1]
        counts[f"{prefix}.upgrades"] += len(trace.upgrades)
        counts[f"{prefix}.dropped"] += len(trace.dropped)
    return count


def _count_frontier(counts, args, result):
    counts["classic.frontier_points"] += len(result.points)


def _count_states(counts, args, result):
    # scan_best_feasible(util, occ, pw, ncfg, r1, r2): one state per
    # assignment vector, each task picking a configuration or being dropped.
    states = 1
    for n in args[3]:
        states *= int(n) + 1
    counts["kernels.scan_best_feasible.states"] += states


def _count_cells(counts, args, result):
    # fill_knapsack_table(util, cost, ncfg, budget): every task evaluates one
    # candidate row per configuration plus the drop row over the whole budget.
    budget = int(args[3])
    counts["kernels.fill_knapsack_table.cells"] += sum(
        (int(n) + 1) * (budget + 1) for n in args[2])


#: (module, attribute path, span name, counter hook).  The attribute path may
#: name a class method ("UsageLedger.fits").
PATCHES = [
    ("qram.cli", "cmd_solve", "cli.solve", None),
    ("qram.cli", "cmd_train", "cli.train", None),
    ("qram.cli", "cmd_demo_remark1", "cli.demo_remark1", None),
    ("qram.cli", "build_tracking_instance", "problem.build_tracking_instance", None),
    ("qram.remark1", "build_tracking_instance", "problem.build_tracking_instance", None),
    ("qram.cli", "system_utility", "problem.system_utility", None),
    ("qram.remark1", "system_utility", "problem.system_utility", None),
    ("qram.cli", "embed_task", "classic.embed_task", None),
    ("qram.classic", "embed_task", "classic.embed_task", None),
    ("qram.cli", "upper_frontier", "classic.upper_frontier", _count_frontier),
    ("qram.classic", "upper_frontier", "classic.upper_frontier", _count_frontier),
    ("qram.cli", "greedy_allocate", "classic.greedy_allocate", _count_trace("classic")),
    ("qram.classic", "greedy_allocate", "classic.greedy_allocate", _count_trace("classic")),
    ("qram.remark1", "solve_classic", "classic.solve_classic", None),
    ("qram.allocator", "base_configuration", "classic.base_configuration", None),
    ("qram.env", "base_configuration", "classic.base_configuration", None),
    ("qram.classic", "UsageLedger.fits", "classic.ledger.fits", None),
    ("qram.classic", "UsageLedger.feasible", "classic.ledger.feasible", None),
    ("qram.kernels", "config_metrics", "kernels.config_metrics", None),
    ("qram.kernels", "scan_best_feasible", "kernels.scan_best_feasible", _count_states),
    ("qram.kernels", "fill_knapsack_table", "kernels.fill_knapsack_table", _count_cells),
    ("qram.cli", "optimal_allocation", "exact.optimal_allocation", None),
    ("qram.remark1", "optimal_allocation", "exact.optimal_allocation", None),
    ("qram.cli", "optimal_allocation_dp", "exact.optimal_allocation_dp", None),
    ("qram.cli", "allocate_with_proposals", "allocator.allocate_with_proposals",
     _count_trace("allocator")),
    ("qram.allocator", "next_config", "allocator.next_config", None),
    ("qram.allocator", "forward", "agent.forward", None),
    ("qram.agent", "forward", "agent.forward", None),
    ("qram.agent", "train", "agent.train", None),
    ("qram.agent", "sample_action", "agent.sample_action", None),
    ("qram.agent", "a2c_update", "agent.a2c_update", None),
    ("qram.allocator", "encode_state", "env.encode_state", None),
    ("qram.env", "encode_state", "env.encode_state", None),
    ("qram.env", "TrackingEnv.step", "env.step", None),
    ("qram.env", "TrackingEnv.reset", "env.reset", None),
]


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Records spans and counters for calls made inside ``installed``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrap every name in ``PATCHES`` for the duration of one CLI call."""
        saved = []
        try:
            for module_name, path, name, count in PATCHES:
                owner, attr = _owner(module_name, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            self._op = op
            yield
        finally:
            self._op = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def write_spans(spans, path) -> None:
    """One JSON object per line: id, name, start, end, parent, op."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for sid, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f'{{"id": {sid}, "name": "{name}", "start": {start!r}, '
                     f'"end": {end!r}, "parent": {json.dumps(parent)}, '
                     f'"op": {json.dumps(op)}}}\n')


#: Spans whose ledger calls are attributed to one allocator or the other.
_ALLOCATORS = {"classic.greedy_allocate": "classic",
               "allocator.allocate_with_proposals": "allocator"}

#: (name, unit, better) of every per-layer metric, in report order.  Times
#: and counts are per round: one pass over the workload's list of CLI calls.
LAYER_METRICS = [
    ("classic.embed_task.self_ms", "ms", "lower"),
    ("classic.embed_task.calls", "count", "lower"),
    ("kernels.config_metrics.busy_ms", "ms", "lower"),
    ("kernels.config_evals", "count", "lower"),
    ("classic.upper_frontier.busy_ms", "ms", "lower"),
    ("classic.frontier_points", "count", "lower"),
    ("classic.greedy_allocate.self_ms", "ms", "lower"),
    ("classic.ledger.fits.calls", "count", "lower"),
    ("classic.ledger.fits.busy_ms", "ms", "lower"),
    ("classic.upgrades", "count", "higher"),
    ("classic.fits_accept_ratio", "ratio", "higher"),
    ("classic.ledger.feasible.calls", "count", "lower"),
    ("classic.dropped", "count", "lower"),
    ("allocator.dropped", "count", "lower"),
    ("allocator.allocate_with_proposals.self_ms", "ms", "lower"),
    ("allocator.proposals", "count", "lower"),
    ("allocator.upgrades", "count", "higher"),
    ("allocator.fits_accept_ratio", "ratio", "higher"),
    ("classic.base_configuration.busy_ms", "ms", "lower"),
    ("agent.forward.calls", "count", "lower"),
    ("agent.forward.busy_ms", "ms", "lower"),
    ("agent.forward.us_p50", "us", "lower"),
    ("env.encode_state.busy_ms", "ms", "lower"),
    ("agent.a2c_update.calls", "count", "lower"),
    ("agent.a2c_update.busy_ms", "ms", "lower"),
    ("agent.sample_action.busy_ms", "ms", "lower"),
    ("env.step.busy_ms", "ms", "lower"),
    ("env.reset.busy_ms", "ms", "lower"),
    ("kernels.scan_best_feasible.busy_ms", "ms", "lower"),
    ("kernels.scan_best_feasible.states", "count", "lower"),
    ("exact.optimal_allocation.self_ms", "ms", "lower"),
    ("kernels.fill_knapsack_table.busy_ms", "ms", "lower"),
    ("kernels.fill_knapsack_table.cells", "count", "lower"),
    ("exact.optimal_allocation_dp.self_ms", "ms", "lower"),
    ("cli.solve.self_ms", "ms", "lower"),
    ("problem.system_utility.busy_ms", "ms", "lower"),
    ("problem.build_tracking_instance.busy_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def span_stats(spans):
    """Per span name: calls, busy seconds, self seconds and durations, plus
    ledger calls attributed to the allocator that made them."""
    child_time = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    ledger = Counter()
    for sid, (name, start, end, parent, _op) in enumerate(spans):
        d = end - start
        calls[name] += 1
        busy[name] += d
        self_s[name] += d - child_time[sid]
        durations[name].append(d)
        if name == "classic.ledger.fits":
            owner = parent
            while owner is not None and spans[owner][0] not in _ALLOCATORS:
                owner = spans[owner][3]
            if owner is not None:
                ledger[f"{_ALLOCATORS[spans[owner][0]]}.fits"] += 1
        elif name == "classic.ledger.feasible" and (
                parent is None or spans[parent][0] != "classic.ledger.fits"):
            ledger["feasible_outside_fits"] += 1
    return calls, busy, self_s, durations, ledger


def layer_metrics(tracer: Tracer, rounds: int, config_evals: int, scale: float,
                  traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, per round, from one run's spans and counters.
    Times are multiplied by ``scale``, the run's machine-speed factor."""
    calls, busy, self_s, durations, ledger = span_stats(tracer.spans)
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "kernels.config_evals": config_evals,
        "classic.fits_accept_ratio": ratio(counts["classic.upgrades"],
                                           ledger["classic.fits"]),
        "allocator.fits_accept_ratio": ratio(counts["allocator.upgrades"],
                                             ledger["allocator.fits"]),
        "classic.ledger.feasible.calls": ledger["feasible_outside_fits"],
        "allocator.proposals": calls["allocator.next_config"],
        "agent.forward.us_p50": (statistics.median(durations["agent.forward"])
                                 * 1e6 * scale if durations["agent.forward"] else 0.0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    out = {}
    for name, unit, _better in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".self_ms"):
            value = self_s[name[:-len(".self_ms")]] * 1e3 * scale
        elif name.endswith(".busy_ms"):
            value = busy[name[:-len(".busy_ms")]] * 1e3 * scale
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        else:
            value = counts[name]
        if unit in ("ms", "count"):
            value = value / rounds
        out[name] = {"value": value, "unit": unit}
    return out
