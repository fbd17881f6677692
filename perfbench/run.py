#!/usr/bin/env python3
"""Benchmark of the ``qram`` CLI: one workload, one closed-loop caller.

    python3 perfbench/run.py --workload solve-classic --seed 1 --seconds 27 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
called in-process through ``qram.cli.main``; each call starts only when the
previous one has returned and its output has been checked.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run in which every call is made once untraced and once traced.  Everything
the run writes goes to ``perfbench/work/<workload>-seed<seed>/``, including
``detail-trace<t>.json`` (every sample, the output digest and the
environment) and, for a traced run, ``spans.jsonl.gz``.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One caller and no worker threads: BLAS runs single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"

WORKLOADS = ("solve-classic", "solve-agent", "train", "oracle")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("call_ms.small.p50", "ms"),
    ("call_ms.medium.p50", "ms"),
    ("call_ms.large.p50", "ms"),
    ("quality", "score"),
    ("peak_rss_mb", "MB"),
]

#: Set-up (inputs, weights, warm-up call) is repeated this often per run.
SETUP_REPEATS = 5

#: One probe iteration takes this long on the reference machine.
REFERENCE_ITERATION_S = 1e-7

#: Probe time after a measured interval, as a share of that interval.
PROBE_SHARE = 0.1
MIN_PROBE_ITERATIONS = 50_000

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 90, 75, 50)


class SpeedProbe:
    """Converts wall times to the speed of a reference machine.

    The benchmark runs on a shared machine whose speed drifts by a third or
    more, for a few milliseconds up to tens of seconds at a time, while other
    tenants are busy; a fixed pure-Python loop slows down with it.  Every
    measured interval is followed by a run of that loop lasting a tenth of
    the interval, and is scaled by the reference iteration time over the
    mean iteration time of the loop runs just before and just after it.
    """

    def __init__(self):
        self._last = self._probe(MIN_PROBE_ITERATIONS)
        self.factors: list[float] = []

    @staticmethod
    def _probe(iterations: int) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        return (time.perf_counter() - start) / iterations

    def scale(self, elapsed: float) -> float:
        """``elapsed`` wall seconds converted to reference seconds."""
        after = self._probe(max(MIN_PROBE_ITERATIONS,
                                int(PROBE_SHARE * elapsed / self._last)))
        factor = REFERENCE_ITERATION_S / ((self._last + after) / 2)
        self._last = after
        self.factors.append(factor)
        return elapsed * factor


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def timed_call(fn, argv) -> tuple[float, object, str]:
    """Call the CLI; return wall seconds, exit code (or the exception raised)
    and what it wrote to standard error."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fn(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        code = exc
    elapsed = time.perf_counter() - start
    return elapsed, 0 if code is None else code, err.getvalue()


class Checker:
    """Checks every call's outputs and counts failures against attempts.

    The first successful call of each operation in a run is checked in full;
    every later call of it must reproduce the same output digest, which holds
    because every seeded command is bit-reproducible.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first: list[bytes | None] = [None] * len(ops)
        self.quality: list[float | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, k: int, code, stderr: str) -> None:
        self.attempted += 1
        failures = self._failures(k, code, stderr)
        if failures:
            self.failed += 1
            self.messages.extend(f"{' '.join(self.ops[k].argv[:2])} #{k}: {m}"
                                 for m in failures)

    def _failures(self, k: int, code, stderr: str) -> list[str]:
        from checks import digest_file

        op = self.ops[k]
        if code != 0:
            return [f"exit {code!r}: {stderr.strip()[-300:]}"]
        try:
            digest = hashlib.sha256(b"".join(digest_file(p) for p in op.outputs)).digest()
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.first[k] is not None:
            return [] if digest == self.first[k] else ["output differs from the first call"]
        try:
            failures, quality = op.check()
        except Exception as exc:  # a check that crashes is a failed operation
            failures, quality = [f"check raised {exc!r}"], math.nan
        if not failures:
            self.first[k] = digest
            self.quality[k] = quality
        return failures

    def digest(self) -> str | None:
        if any(d is None for d in self.first):
            return None
        return hashlib.sha256(b"".join(self.first)).hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def set_up(workload: str, seed: int, work: Path, spec):
    """Write the inputs and make one untimed warm-up call; return the round."""
    import qram.cli
    import workloads

    ops = workloads.build_round(workload, seed, workloads.fresh_workdir(work / "in"),
                               spec)
    timed_call(qram.cli.main, ops[0].argv)
    return ops


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, spec=None, import_s: float = 0.0,
                 speed: SpeedProbe | None = None) -> dict:
    """Run one workload, writing into ``work``; return the result object
    plus its detail.  ``import_s`` is the scaled time qram took to import."""
    import qram.cli
    import qram.kernels
    import workloads
    from tracing import Tracer, layer_metrics, write_spans

    spec = spec or workloads.FULL
    speed = speed or SpeedProbe()
    work = workloads.fresh_workdir(work)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = set_up(workload, seed, work, spec)
        setups.append(speed.scale(time.perf_counter() - start))

    checker = Checker(ops)
    deadline = time.perf_counter() + seconds
    detail = {"environment": environment(workload, seed), "import_s": import_s,
              "setup_s_samples": setups}
    if not trace:
        # The first round always completes; after it, the deadline is
        # checked before every call.
        samples = {tier: [] for tier in workloads.TIERS}
        raw = {tier: [] for tier in workloads.TIERS}
        calls = 0
        while calls < len(ops) or time.perf_counter() < deadline:
            k = calls % len(ops)
            elapsed, code, err = timed_call(qram.cli.main, ops[k].argv)
            raw[ops[k].tier].append(elapsed)
            samples[ops[k].tier].append(speed.scale(elapsed))
            checker.record(k, code, err)
            calls += 1
        quality = [q for q in checker.quality if q is not None]
        values = {
            "setup_s": import_s + statistics.median(setups),
            **{f"call_ms.{tier}.p50": statistics.median(v) * 1e3
               for tier, v in samples.items()},
            "quality": sum(quality) / len(quality) if quality else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        detail.update(
            rounds=calls / len(ops),
            samples_ms={tier: [s * 1e3 for s in v] for tier, v in samples.items()},
            raw_samples_ms={tier: [s * 1e3 for s in v] for tier, v in raw.items()},
            tails_ms={tier: tail_percentile([s * 1e3 for s in v])
                      for tier, v in samples.items()})
    else:
        # Whole rounds only, so that counts per round are exact; another
        # round starts only if it is expected to end before the deadline.
        tracer = Tracer()
        root = tracer.wrap("cli.main", qram.cli.main)
        untraced_s = traced_s = traced_scaled_s = round_s = 0.0
        config_evals = rounds = 0
        while rounds == 0 or time.perf_counter() + round_s < deadline:
            round_start = time.perf_counter()
            # Each call runs untraced and then traced, back to back, so that
            # both see the same machine when the overhead is measured.
            for k, op in enumerate(ops):
                elapsed, code, err = timed_call(qram.cli.main, op.argv)
                untraced_s += elapsed
                checker.record(k, code, err)
                before = qram.kernels.counters["config_evals"]
                with tracer.installed(rounds * len(ops) + k):
                    elapsed, code, err = timed_call(root, op.argv)
                config_evals += qram.kernels.counters["config_evals"] - before
                traced_s += elapsed
                traced_scaled_s += speed.scale(elapsed)
                checker.record(k, code, err)
            round_s = time.perf_counter() - round_start
            rounds += 1
        metrics = layer_metrics(tracer, rounds, config_evals,
                                traced_scaled_s / traced_s, traced_s, untraced_s)
        write_spans(tracer.spans, work / "spans.jsonl.gz")
        detail.update(rounds=rounds, spans=len(tracer.spans),
                      untraced_s=untraced_s, traced_s=traced_s)

    detail.update(speed_factors=speed.factors, digest=checker.digest(),
                  failures=checker.messages[:50])
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    (work / f"detail-trace{int(trace)}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1), encoding="utf-8")
    shutil.rmtree(work / "in")  # inputs and outputs; their digest is kept
    return {**result, "detail": detail}


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, sample counts and
    tails, the error rate and the output digest."""
    detail = result["detail"]
    lines = []
    for name, m in result["metrics"].items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if name.startswith("call_ms."):
            tier = name.split(".")[1]
            tail = detail["tails_ms"][tier]
            line += (f"  (n={len(detail['samples_ms'][tier])}, "
                     + (f"p{tail[0]}={tail[1]:.6g} ms)" if tail else "no tail)"))
        lines.append(line)
    lines.append(f"error_rate = {result['failed']}/{result['attempted']} failed/attempted")
    factors = detail["speed_factors"]
    lines.append(f"speed_factor = {statistics.median(factors):.4f} median "
                 f"(reference / measured speed, n={len(factors)})")
    lines.append(f"digest = sha256:{detail['digest']}")
    lines.extend(f"failure: {m}" for m in detail["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qram" / "__init__.py").is_file():
        print(f"error: no qram sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (loaded before timing the import of qram)

    speed = SpeedProbe()
    start = time.perf_counter()
    import qram.cli  # noqa: F401
    import_s = speed.scale(time.perf_counter() - start)

    import workloads
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace),
                              WORK_DIR / f"{args.workload}-seed{args.seed}",
                              import_s=import_s, speed=speed)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report(result):
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
