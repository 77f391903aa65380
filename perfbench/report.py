"""Run every workload untraced and traced, and print one table.

Usage, from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload it prints every end-to-end metric by name and unit,
``failed_ratio`` (failed operations over attempted ones, untraced and
traced runs together), the tracing overhead (traced ``wall_s`` minus
untraced ``wall_s``) and every per-module metric of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"report: {workload} --trace {trace} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    for w in spec["workloads"]:
        name = w["name"]
        plain = bench(name, args.seed, args.seconds, 0)
        traced = bench(name, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s)")
        for key, m in plain["metrics"].items():
            print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
        for key, m in traced["metrics"].items():
            print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    main()
