#!/usr/bin/env python3
"""Run every workload, untraced and traced, and record the results.

    python3 perfbench/baseline.py [--seed 1] [--out perfbench/baseline]

Run from the repository root.  Each workload runs as its own process, one
after another, for the ``run_seconds`` given in BENCHMARK.json.  The script
prints every metric by name and unit and writes ``<out>/<workload>.json``
with both runs' results and detail, stamped with the git commit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "baseline")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args.out.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    status = 0
    for workload in (w["name"] for w in contract["workloads"]):
        record = {"git_sha": sha, "command": contract["command"],
                  "run_seconds": contract["run_seconds"]}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            print(f"== {workload} --trace {trace} (exit {done.returncode})")
            print(done.stdout, end="")
            if done.returncode != 0:
                print(done.stderr, end="", file=sys.stderr)
                status = 1
                continue
            detail = BENCH_DIR / "work" / f"{workload}-seed{args.seed}" / f"detail-trace{trace}.json"
            record[f"trace{trace}"] = json.loads(detail.read_text(encoding="utf-8"))
        (args.out / f"{workload}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                   encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
