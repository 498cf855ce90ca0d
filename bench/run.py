"""Benchmark of cclab: one workload per run, in a fresh process.

    python3 bench/run.py --workload {examples,ensemble,large} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``cclab`` from ``src/`` there
and writes only under ``.bench_work/`` there, which it removes at the end.

``--trace 0`` measures the end-to-end metrics with the program unmodified.
Set-up (a fresh process importing cclab and generating the inputs from the
seed) runs several times in child processes, one after another, and the
median is reported. Then the workload runs a fixed number of whole rounds of
operations, checking every output. The number depends only on ``--seconds``
and the workload, never on how fast the host is, so every run takes its
statistics over the same mix of operations; it is set so that the rounds
last about ``--seconds`` seconds on the machine the bounds were set on.

``--trace 1`` reports the per-layer metrics instead. It traces one in-process
set-up, then alternates untraced and traced rounds of the same inputs, half
as many pairs as untraced runs have rounds; see ``tracer.py`` for how time is
attributed.

The last line of standard output is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the operations run (set-ups, commands, ensemble calls and the reference
checks) and ``failed`` those with a failed check, so their ratio is the
error rate. The lines before it name every metric with its unit and the
machine the run was measured on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layers  # noqa: E402  (bench/ is on sys.path as the script's directory)
import machine  # noqa: E402
import timing  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, Op, load_expected  # noqa: E402

# Set-ups per untraced run; the large inputs take seconds to generate.
SETUP_RUNS = {"examples": 15, "ensemble": 15, "large": 5}
# Rounds per minute of ``--seconds``: a round takes about 1.5 s on examples,
# 1.9 s on ensemble and 15 s on large on a 2-vCPU Intel Xeon VM.
ROUNDS_PER_MINUTE = {"examples": 40, "ensemble": 32, "large": 4}
SETUP_TIMEOUT_S = 170


def use_checkout_package() -> None:
    """Import cclab from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cclab", "__init__.py")):
        sys.exit(f"error: no cclab package under {SRC}")
    sys.path.insert(0, SRC)
    import cclab

    if not os.path.abspath(cclab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: cclab imported from {cclab.__file__}, not {SRC}")


def single_threaded() -> None:
    """Give BLAS and the ensemble's pool one thread each, so no workload
    runs more threads than CPUs; must happen before numpy is imported.

    On a 2-vCPU VM shared with other tenants, threaded BLAS made the large
    workload spread twice as wide and ``power_limit`` about 9x slower, and
    the default two GIL-bound ensemble workers ran slower and spread wider
    than one (20-29 against 28-31 instances/s in four interleaved pairs).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CC_LAB_THREADS"):
        os.environ[var] = "1"


def ensemble_pool() -> int:
    """Threads ``run_ensemble`` starts when called without ``workers``."""
    from cclab import verifier

    count = getattr(verifier, "_worker_count", None)
    return count(None) if count else 1


def tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def setup_child(workload: str, seed: int, inputs: str) -> None:
    start = time.perf_counter()
    use_checkout_package()
    import cclab.cli  # noqa: F401  (the import the workload pays for)

    WORKLOADS[workload].setup(inputs, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run_setups(workload: str, seed: int, work: str) -> tuple[list, list]:
    """Set up in fresh child processes, one at a time; every set-up of one
    seed must produce the same inputs."""
    times, ops, first = [], [], None
    for i in range(SETUP_RUNS[workload]):
        inputs = os.path.join(work, f"inputs-{i}")
        os.makedirs(inputs)
        op = Op(f"set-up {i + 1}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-child",
                "--workload", workload, "--seed", str(seed), "--inputs", inputs]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            op.problems.append(f"set-up exceeded {SETUP_TIMEOUT_S} s")
            ops.append(op)
            continue
        if proc.returncode != 0:
            op.problems.append(f"set-up exit code {proc.returncode}: {proc.stderr[-500:]}")
        else:
            op.seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            times.append(op.seconds)
            digest = tree_digest(inputs)
            first = first or digest
            if digest != first:
                op.problems.append("inputs differ from the first set-up of this seed")
        ops.append(op)
    if not times:
        sys.exit("error: no set-up succeeded: " + "; ".join(ops[0].problems))
    return times, ops


def run_round(wl, ctx: Context, index: int) -> tuple[float, list]:
    start = time.perf_counter()
    ops = wl.round(ctx, index)
    return time.perf_counter() - start, ops


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_PER_MINUTE[workload] * seconds / 60))


def end_to_end(wl, ctx: Context, seconds: float, work: str):
    setup_times, ops = run_setups(wl.name, ctx.seed, work)
    wl.warm_up(ctx)
    walls, latencies, instances = [], [], 0
    for index in range(round_count(wl.name, seconds)):
        wall, round_ops = run_round(wl, ctx, index)
        walls.append(wall)
        latencies += [op.seconds * 1e3 for op in round_ops]
        instances += sum(op.instances for op in round_ops)
        ops += round_ops
    ops += wl.verify(ctx)
    metrics = {
        "setup_s": (timing.median(setup_times), "s"),
        "wall_s": (timing.median(walls), "s"),
        "op_p50_ms": (timing.percentile(latencies, 50), "ms"),
        "instances_per_s": (instances / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # The p90 is printed but kept out of the result: only examples has ten
    # samples beyond it, and there it is the low tail of `learn B`, whose
    # latency swings by a quarter between runs on a shared host (ten-run
    # spreads of 0.17 and 0.23, against 0.08 for wall_s).
    notes = [
        f"rounds {len(walls)}, operations timed {len(latencies)}, set-ups {len(setup_times)}",
        f"op_p90_ms {timing.percentile(latencies, 90):.6g} ms (not in the result;"
        f" {timing.beyond(latencies, 90)} operations lie beyond it)",
    ]
    return metrics, ops, notes


def traced(wl, ctx: Context, seconds: float):
    layer_modules, bindings = layers.modules()

    def new_tracer():
        return Tracer(layers.GROUPS, layers.COUNTED, layers.SKIPPED, layers.HOOKS)

    setup_tracer = new_tracer()
    with setup_tracer.active(layer_modules, bindings):
        wl.setup(ctx.inputs, ctx.seed)
    wl.warm_up(ctx)
    round_tracer = new_tracer()
    untraced_walls, ops, traced_ops = [], [], []
    for index in range(max(1, round_count(wl.name, seconds) // 2)):
        wall, round_ops = run_round(wl, ctx, index)
        untraced_walls.append(wall)
        ops += round_ops
        with round_tracer.active(layer_modules, bindings):
            _, round_ops = run_round(wl, ctx, index)
        ops += round_ops
        traced_ops += round_ops
    ops += wl.verify(ctx)
    observed = {
        key: sum(getattr(op, key) for op in traced_ops)
        for key in ("passes", "verdicts", "exceptions", "bytes_written")
    }
    values = layers.layer_metrics(
        setup_tracer, round_tracer, len(untraced_walls), observed,
        sum(untraced_walls) / len(untraced_walls),
    )
    metrics = {name: (values[name], unit) for name, (unit, _) in layers.METRICS.items()}
    notes = [f"traced rounds {len(untraced_walls)} (each after an untraced round)"]
    return metrics, ops, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    single_threaded()
    if args.setup_child:
        setup_child(args.workload, args.seed, args.inputs)
        return 0
    use_checkout_package()
    record = machine.record(ROOT, ensemble_pool())
    wl = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(os.path.join(work, "outputs"))
    try:
        ctx = Context(
            inputs=os.path.join(work, "inputs-0"),
            outputs=os.path.join(work, "outputs"),
            seed=args.seed,
            expected=load_expected(),
        )
        if args.trace:
            os.makedirs(ctx.inputs)
            metrics, ops, notes = traced(wl, ctx, args.seconds)
        else:
            metrics, ops, notes = end_to_end(wl, ctx, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.failed]
    for op in failed[:5]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    for line in notes:
        print(line)
    print(f"error_rate {len(failed) / len(ops):.6g} ratio ({len(failed)} of {len(ops)} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"machine": record}))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
