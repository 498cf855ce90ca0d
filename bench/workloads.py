"""The benchmark's workloads: inputs made in set-up from the seed, one round
of operations, and the checks on each operation's outputs.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A failed check marks its operation as
failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Op:
    """One operation and what its outputs showed."""

    name: str
    seconds: float = 0.0
    instances: int = 1
    problems: list = field(default_factory=list)
    bytes_written: int = 0
    verdicts: int = 0
    passes: int = 0
    exceptions: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Context:
    """Where a run's inputs and outputs live, and what it has seen so far."""

    inputs: str
    outputs: str
    seed: int
    expected: dict
    first_digests: dict = field(default_factory=dict)

    def out(self, name: str) -> str:
        return os.path.join(self.outputs, name)

    def same_as_first(self, op: Op, key: str, path: str) -> None:
        """Require the artifact to be byte-identical to its first copy in
        this run."""
        if not os.path.exists(path):
            op.problems.append(f"{key} missing")
            return
        digest = sha256_file(path)
        if self.first_digests.setdefault(key, digest) != digest:
            op.problems.append(f"{key} differs from its first copy in this run")


def _tree_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def cli_op(
    ctx: Context,
    name: str,
    argv: list,
    outdir: Optional[str] = None,
    verdict: Optional[str] = None,
) -> Op:
    """Run one ``cclab`` command in-process, time it and check it exited 0
    and, when ``verdict`` is given, that metrics.json reconciles to it."""
    from cclab import cli

    op = Op(name)
    if outdir is not None:
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [*argv, "--out", outdir]
    sink = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        op.problems.append(traceback.format_exc(limit=-3).strip())
    op.seconds = time.perf_counter() - start
    if code != 0:
        op.problems.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
    if outdir is not None and os.path.isdir(outdir):
        op.bytes_written = _tree_bytes(outdir)
    if verdict is not None:
        op.verdicts = 1
        try:
            with open(os.path.join(outdir, "metrics.json"), encoding="utf-8") as fh:
                status = json.load(fh)["reconcile"]["status"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            status = f"unreadable metrics.json ({exc!r})"
        op.passes = int(status == "PASS")
        if status != verdict:
            op.problems.append(f"verdict {status}, expected {verdict}")
    return op


def derived_seeds(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


class Examples:
    """Bundled examples A (fixed coupling) and B (switching coupling)."""

    name = "examples"
    COMMANDS = ("check", "simulate", "report", "learn")
    ARTIFACT = {"simulate": "trajectory.csv", "learn": "beliefs.csv"}

    def setup(self, inputs: str, seed: int) -> None:
        from cclab.config import emit_config, example_config

        for which in "AB":
            emit_config(example_config(which), os.path.join(inputs, f"{which}.json"))

    def warm_up(self, ctx: Context) -> None:
        warm_up_cli(ctx)

    def _op(self, ctx, which, command, seed_args):
        outdir = None if command == "check" else ctx.out(f"{which}-{command}")
        argv = [command, "--config", os.path.join(ctx.inputs, f"{which}.json"), *seed_args]
        verdict = "PASS" if command in ("simulate", "report") else None
        return cli_op(ctx, f"{command} {which}", argv, outdir, verdict)

    def round(self, ctx: Context, index: int) -> list:
        (cli_seed,) = derived_seeds(ctx.seed, 1)
        ops = []
        for which in "AB":
            for command in self.COMMANDS:
                op = self._op(ctx, which, command, ["--seed", str(cli_seed)])
                artifact = self.ARTIFACT.get(command)
                if artifact:
                    path = os.path.join(ctx.out(f"{which}-{command}"), artifact)
                    ctx.same_as_first(op, f"{which}/{artifact}", path)
                ops.append(op)
        return ops

    def verify(self, ctx: Context) -> list:
        """Artifacts at the configs' own seed against the digests recorded
        from the seed commit."""
        reference = ctx.expected["examples"]["reference_sha256"]
        ops = []
        for which in "AB":
            for command, artifact in self.ARTIFACT.items():
                op = self._op(ctx, which, command, [])
                key = f"{which}/{artifact}"
                path = os.path.join(ctx.out(f"{which}-{command}"), artifact)
                if not os.path.exists(path) or sha256_file(path) != reference[key]:
                    op.problems.append(f"{key} at the default seed differs from the recorded digest")
                ops.append(op)
        return ops


class Ensemble:
    """``run_ensemble`` for claim 2 (fixed) and claim 4 (switching) at their
    default horizons; each round takes one entry of the recorded pool."""

    name = "ensemble"

    def setup(self, inputs: str, seed: int) -> None:
        pool = load_expected()["ensemble"]["pool"]
        order = random.Random(seed).sample(range(len(pool)), len(pool))
        with open(os.path.join(inputs, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(order, fh)

    def warm_up(self, ctx: Context) -> None:
        from cclab import verifier

        for claim in (2, 4):
            verifier.run_ensemble(claim, count=2, seed=1)

    def round(self, ctx: Context, index: int) -> list:
        from cclab import verifier

        with open(os.path.join(ctx.inputs, "plan.json"), encoding="utf-8") as fh:
            order = json.load(fh)
        spec = ctx.expected["ensemble"]
        entry = spec["pool"][order[index % len(order)]]
        ops = []
        for claim in ("2", "4"):
            count = spec["count"][claim]
            op = Op(f"claim {claim} ensemble", instances=count)
            ops.append(op)
            start = time.perf_counter()
            try:
                summary = verifier.run_ensemble(int(claim), count=count, seed=entry["seed"])
            except Exception:
                summary = None
                op.problems.append(traceback.format_exc(limit=-3).strip())
            op.seconds = time.perf_counter() - start
            if summary is None:
                continue
            op.verdicts = summary.total
            op.passes = summary.counts.get("PASS", 0)
            op.exceptions = len(summary.exceptions)
            if summary.total != count or summary.counts != entry["counts"][claim]:
                op.problems.append(
                    f"seed {entry['seed']}: counts {summary.counts} of {summary.total},"
                    f" expected {entry['counts'][claim]} of {count}"
                )
            if summary.exceptions:
                op.problems.append(f"exceptions {list(summary.exceptions)[:3]}")
        return ops

    def verify(self, ctx: Context) -> list:
        return []


class Large:
    """Two generated instances of 300 agents: dense fixed and sparse
    switching."""

    name = "large"
    INSTANCES = {
        "dense": dict(sizes=(100, 100, 100), m=1, density=0.3, entry_floor=0.001),
        "sparse": dict(
            sizes=(100, 100, 100), m=3, density=0.05, entry_floor=0.001, horizon=1000
        ),
    }
    COMMANDS = ("check", "simulate", "report")

    def setup(self, inputs: str, seed: int) -> None:
        from cclab.config import emit_config, generated_config

        seeds = derived_seeds(seed, len(self.INSTANCES))
        for (name, spec), inst_seed in zip(self.INSTANCES.items(), seeds):
            doc = generated_config(seed=inst_seed, **spec)
            emit_config(doc, os.path.join(inputs, f"{name}.json"))

    def warm_up(self, ctx: Context) -> None:
        warm_up_cli(ctx)

    def round(self, ctx: Context, index: int) -> list:
        expected = ctx.expected["large"]
        ops = []
        for name in self.INSTANCES:
            config = os.path.join(ctx.inputs, f"{name}.json")
            for command in self.COMMANDS:
                outdir = None if command == "check" else ctx.out(f"{name}-{command}")
                verdict = None if command == "check" else expected[name]["verdict"]
                op = cli_op(ctx, f"{command} {name}", [command, "--config", config], outdir, verdict)
                if command == "simulate":
                    path = os.path.join(outdir, "trajectory.csv")
                    ctx.same_as_first(op, f"{name}/trajectory.csv", path)
                ops.append(op)
        return ops

    def verify(self, ctx: Context) -> list:
        return []


def warm_up_cli(ctx: Context) -> None:
    """One untimed pass of each command on example A, so lazy set-up inside
    the libraries is done before timing starts."""
    from cclab.config import emit_config, example_config

    config = ctx.out("warm-up.json")
    emit_config(example_config("A"), config)
    for command in Examples.COMMANDS:
        outdir = None if command == "check" else ctx.out(f"warm-up-{command}")
        cli_op(ctx, command, [command, "--config", config], outdir)


WORKLOADS = {w.name: w for w in (Examples(), Ensemble(), Large())}
