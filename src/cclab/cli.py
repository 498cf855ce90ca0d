"""Command-line entry point.

Subcommands:

* ``check``     run the hypothesis checks of one claim against a config
* ``simulate``  run the dynamics and emit trajectory CSV + metrics JSON,
                or reconcile a seeded random ensemble (``--ensemble``)
* ``gen``       emit a scenario config (bundled example or seeded random)
* ``learn``     run the social-learning dynamics, emit belief/zeta CSVs
* ``report``    render the condition table plus a run summary

Exit codes: 0 success, 1 malformed input or an unwritable output path,
2 hypothesis failure (``check``) or a FAIL verdict (``simulate``,
``report``, ensembles), 3 divergence or metrics past float64's range,
4 belief-validity violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .config import (
    ConfigError,
    Scenario,
    build_scenario,
    emit_config,
    example_config,
    generated_config,
    load_config,
    run_fields,
)
from .dynamics import (
    BoundReport,
    DivergenceError,
    Trajectory,
    boundedness_report,
)
from .generate import InfeasibleError
from .learning import BeliefRangeError, learn_simulate
from .reports import (
    _json_text,
    metrics_document,
    render_condition_table,
    render_ensemble,
    write_belief_csv,
    write_json,
    write_trajectory_csv,
    write_zeta_csv,
)
from .verifier import (
    ClaimError,
    HypothesisReport,
    Outcome,
    ReconcileResult,
    check_claim,
    run,
    run_ensemble,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_DIVERGENCE = 3
EXIT_VALIDITY = 4


class _OutOfRange(ArithmeticError):
    """A config run whose states stayed finite but whose metrics left
    float64's range: a sum, a gap or the bound overflowed."""


def _load(args: argparse.Namespace) -> Scenario:
    doc = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "horizon", None) is not None:
        doc["horizon"] = args.horizon
    scenario = build_scenario(doc)
    if getattr(args, "theorem", None):
        # The claim picks what is checked, not what is run, so it stays out
        # of the config digest.
        scenario = replace(scenario, theorem=args.theorem)
    return scenario


def _outdir(args: argparse.Namespace) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_check(args: argparse.Namespace) -> int:
    scenario = _load(args)
    report, ok = check_claim(
        scenario.system,
        scenario.theorem,
        window=scenario.window,
        horizon=scenario.horizon,
        thresholds=scenario.thresholds,
    )
    if args.out:
        write_json(
            args.out,
            {
                "label": scenario.label,
                "config_sha256": scenario.digest,
                "seed": scenario.seed,
                "theorem": scenario.theorem,
                "overall": ok,
                "report": report.to_dict(),
            },
        )
    print(f"config: {scenario.label}  claim: {scenario.theorem}")
    print(render_condition_table(report))
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def _run_ensemble(args: argparse.Namespace) -> int:
    theorem = args.theorem
    seed = args.seed
    horizon = args.horizon
    if args.config:
        fields = run_fields(load_config(args.config))
        theorem = theorem or fields.get("theorem")
        seed = seed if seed is not None else fields.get("seed")
        horizon = horizon if horizon is not None else fields.get("horizon")
    if args.ensemble < 1:
        raise ConfigError(f"--ensemble needs at least 1 instance, got {args.ensemble}")
    if horizon is not None and horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    if theorem is None:
        raise ConfigError("--theorem required for ensemble runs")
    if seed is None:
        raise ConfigError("--seed required for ensemble runs")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    summary = run_ensemble(theorem, count=args.ensemble, seed=seed, horizon=horizon)
    if args.out:
        write_json(
            args.out,
            {
                "theorem": theorem,
                "seed": seed,
                "instances": summary.total,
                "counts": summary.counts,
                "errors": list(summary.exceptions),
            },
        )
    print(render_ensemble(summary))
    bad = summary.counts.get("FAIL", 0) > 0 or summary.exceptions
    return EXIT_HYPOTHESIS if bad else EXIT_OK


@dataclass(frozen=True)
class _Run:
    """One config run, checked, simulated and reconciled, and its output
    directory. ``metrics`` is the JSON text of ``metrics.json``. ``outcome``
    is the run's record, or the :class:`DivergenceError` that ended it, with
    the finite prefix; ``metrics`` then holds the divergence record.
    """

    scenario: Scenario
    report: HypothesisReport
    ok: bool
    outdir: str
    outcome: Union[Outcome, DivergenceError]
    metrics: str
    bound: Optional[BoundReport] = None

    @property
    def verdict(self) -> Optional[ReconcileResult]:
        return None if isinstance(self.outcome, DivergenceError) else self.outcome.verdict

    @property
    def exit_code(self) -> int:
        if self.verdict is None:
            return EXIT_DIVERGENCE
        return EXIT_HYPOTHESIS if self.verdict.status == "FAIL" else EXIT_OK


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_config(args: argparse.Namespace) -> _Run:
    """check -> output directory -> run -> bound for ``--config``.

    A divergence prints its one error line here; the caller still writes
    the record it gets back. Metrics that leave float64's range raise
    :class:`_OutOfRange` before anything is printed or written. numpy's
    warnings are silenced: that check catches every number they warn of.
    """
    scenario = _load(args)
    sys_ = scenario.system
    report, ok = check_claim(
        sys_,
        scenario.theorem,
        window=scenario.window,
        horizon=scenario.horizon,
        thresholds=scenario.thresholds,
    )
    period = sys_.signal.period if sys_.signal is not None else None
    if period is not None and scenario.horizon + 1 < 4 * period:
        raise ConfigError(
            f"horizon {scenario.horizon} too short for signal period {period}:"
            f" need at least {4 * period - 1} steps"
        )
    outdir = _outdir(args)
    (out,) = run([sys_], scenario.x0[None], [report], scenario.horizon, scenario.thresholds)
    if isinstance(out, DivergenceError):
        print(f"error: {out}", file=sys.stderr)
        metrics = {
            "label": scenario.label,
            "config_sha256": scenario.digest,
            "seed": scenario.seed,
            "diverged_at": out.t,
            "note": str(out),
        }
        return _Run(scenario, report, ok, outdir, out, _json_text(metrics))
    if isinstance(out, Exception):
        raise out
    bound = boundedness_report(
        sys_, scenario.x0, scenario.horizon, out.peak, report.quotient, report.inputs
    )
    metrics = metrics_document(scenario.digest, scenario.seed, scenario.label, out, bound, report)
    try:
        text = _json_text(metrics)
    except ValueError:
        raise _OutOfRange(
            "the run left float64's range: its metrics hold a NaN or an infinity"
        ) from None
    return _Run(scenario, report, ok, outdir, out, text, bound)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.ensemble is not None:
        return _run_ensemble(args)
    if not args.config:
        raise ConfigError("--config required (or use --ensemble)")
    done = _run_config(args)
    out = done.outcome
    traj = Trajectory(out.partial) if isinstance(out, DivergenceError) else out.traj
    if traj.horizon >= 1:
        write_trajectory_csv(os.path.join(done.outdir, "trajectory.csv"), traj)
    write_json(os.path.join(done.outdir, "metrics.json"), done.metrics)
    if done.verdict is not None:
        print(
            f"{done.scenario.label}: verdict {done.verdict.status}"
            f" (predicted {done.verdict.predicted});"
            f" final intra diameter {done.verdict.final_diameter:.3e}"
        )
    return done.exit_code


def cmd_gen(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.switching < 1:
        raise ConfigError(f"--switching needs at least 1 matrix, got {args.switching}")
    if args.paper_example:
        doc = example_config(args.paper_example)
        if args.seed is not None:
            doc["seed"] = args.seed
    else:
        if not args.sizes:
            raise ConfigError("--sizes required unless --paper-example is given")
        if args.seed is None:
            raise ConfigError("--seed required for random generation")
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
        try:
            doc = generated_config(
                sizes,
                seed=args.seed,
                m=args.switching,
                window=args.window,
                entry_floor=args.entry_floor,
                density=args.density,
                mode=args.mode,
                horizon=args.horizon,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    text = emit_config(doc, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_learn(args: argparse.Namespace) -> int:
    scenario = _load(args)
    if scenario.learning is None:
        raise ConfigError("config has no learning section")
    setup = scenario.learning
    outdir = _outdir(args)
    run = learn_simulate(
        scenario.system, setup.flags, setup.profile0, scenario.horizon, slack=setup.slack
    )
    p, q = setup.zeta_clusters
    zeta = run.zeta_series(p, q, setup.zeta_state)
    write_belief_csv(os.path.join(outdir, "beliefs.csv"), run)
    write_zeta_csv(os.path.join(outdir, "zeta.csv"), zeta)
    write_json(
        os.path.join(outdir, "validity.json"),
        {
            "label": scenario.label,
            "config_sha256": scenario.digest,
            "seed": scenario.seed,
            "strength": setup.flags.strength,
            "zeta_clusters": [p + 1, q + 1],
            "zeta_state": run.labels[setup.zeta_state],
            "final_zeta": float(zeta[-1]),
            "belief_sum_drift": run.sum_drift(),
            "validity": run.validity.to_dict(),
        },
    )
    print(
        f"{scenario.label}: final zeta {zeta[-1]:.6g}, belief sums within"
        f" {run.sum_drift():.3e} of 1, range "
        + ("clean" if run.validity.ok else f"{run.validity.count} excursions")
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    done = _run_config(args)
    verdict, bound = done.verdict, done.bound
    print(f"config: {done.scenario.label}  claim: {done.scenario.theorem}")
    print(render_condition_table(done.report))
    print(f"overall: {'pass' if done.ok else 'FAIL'}")
    if verdict is not None:
        print(f"verdict: {verdict.status}")
        print(
            f"final intra diameter: {verdict.final_diameter:.6e}"
            f" (threshold {verdict.sync_threshold:.3e})"
        )
        if verdict.min_separation is not None:
            print(
                f"smallest cluster separation: {verdict.min_separation:.6e}"
                f" (threshold {verdict.separation_threshold:.1e})"
            )
        if bound.applicable and bound.bound is not None:
            print(f"peak norm {bound.max_norm:.6g} within bound {bound.bound:.6g}")
        else:
            print(f"peak norm {bound.max_norm:.6g} ({bound.note})")
    if args.out:
        write_json(os.path.join(done.outdir, "metrics.json"), done.metrics)
    return done.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclab",
        description="Cluster-consensus simulation and condition checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_help: str):
        p.add_argument("--config", help="scenario config (JSON)")
        p.add_argument("--out", help=out_help)
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--horizon", type=int, help="override the horizon")
        p.add_argument(
            "--theorem",
            type=int,
            choices=(1, 2, 3, 4),
            help="claim to check: 1 fixed sync, 2 fixed consensus,"
            " 3 switching sync, 4 switching consensus",
        )

    p = sub.add_parser("check", help="verify one claim's hypotheses")
    common(p, "write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run the dynamics, emit CSV/JSON")
    common(p, "output directory (ensemble: JSON file)")
    p.add_argument(
        "--ensemble",
        type=int,
        metavar="N",
        help="reconcile N seeded random instances instead of one config run",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="emit a scenario config")
    p.add_argument("--paper-example", choices=("A", "B"), dest="paper_example")
    p.add_argument("--sizes", help="comma-separated cluster sizes, e.g. 3,3,3")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--switching", type=int, default=1, metavar="M", help="schedule length"
    )
    p.add_argument("--window", type=int, help="union window (default M)")
    p.add_argument("--entry-floor", type=float, default=0.05, dest="entry_floor")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--mode", choices=("random", "equal"), default="random")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out", help="config file to write (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("learn", help="run the social-learning dynamics")
    common(p, "output directory")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("report", help="condition table plus run summary")
    common(p, "output directory for metrics.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ClaimError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DivergenceError, _OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except BeliefRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
