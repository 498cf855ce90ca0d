"""Run one workload with several seeds and report each metric's spread.

    python3 bench/spread.py --workload large --seeds 1-10

Runs the benchmark's end-to-end measurement (``--trace 0``) for
``run_seconds`` once per seed, one run at a time, and prints for every
metric the median of its values and the distance between their first and
third quartile as a share of that median, beside the metric's bound from
BENCHMARK.json. A metric is steady when its spread stays well below its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import timing  # noqa: E402


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    for seed in seed_list(args.seeds):
        argv = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']},"
              f" {result['failed']} of {result['attempted']} failed; "
              + ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = timing.quartile_spread(vals) if len(vals) > 1 and timing.median(vals) else 0.0
        print(f"{name:32s} median {timing.median(vals):12.6g}  spread {spread:7.4f}"
              f"  bound {bounds[name]}")


if __name__ == "__main__":
    main()
