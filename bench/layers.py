"""The layers the traced run measures and the per-layer metrics it reports.

A layer is one module of the ``cclab`` package. The per-layer metrics are
built from the tracer's spans and counters plus what the workload observed
in the program's outputs (verdicts, ensemble exceptions, artifact sizes).
"""

from __future__ import annotations

import importlib

LAYERS = (
    "cli",
    "config",
    "generate",
    "graph",
    "stochastic",
    "signals",
    "dynamics",
    "verifier",
    "learning",
    "reports",
)

# Called once per simulation step or trajectory row, so timing them would
# cost more than the calls: eval_u is counted, the rest are left unwrapped.
COUNTED = ("signals.eval_u",)
SKIPPED = (
    "signals.PeriodicInput.value",
    "signals.SequenceInput.value",
    "dynamics.System.coupling_at",
    "stochastic.MatrixSchedule.at",
    "stochastic.state_diameter",
)

# Inclusive time per group; nested members of one group count once.
GROUPS = {
    "dynamics.simulate": "simulate",
    "dynamics.Trajectory.diameter_series": "diameter_series",
    "dynamics.detect_periodic_limit": "limit",
    "dynamics.boundedness_report": "bound",
    "verifier.check_theorem_static_sync": "check",
    "verifier.check_theorem_static_consensus": "check",
    "verifier.check_switching": "check",
    "verifier.assess_system": "check",
    "verifier.reconcile": "reconcile",
    "learning.learn_simulate": "learn_simulate",
    "reports.write_trajectory_csv": "write",
    "reports.write_belief_csv": "write",
    "reports.write_zeta_csv": "write",
    "reports.write_json": "write",
}


def _power_limit(tracer, result):
    tracer.add("power_limit_steps", result.steps)


def _periodic_limit(tracer, result):
    tracer.add("limits", 1)
    tracer.add("limits_found", result is not None)


def _simulate(tracer, result):
    tracer.add("agent_steps", result.n * result.horizon)


def _learn_simulate(tracer, result):
    tracer.add("belief_steps", result.n * result.m * result.horizon)


HOOKS = {
    "stochastic.power_limit": _power_limit,
    "dynamics.detect_periodic_limit": _periodic_limit,
    "dynamics.simulate": _simulate,
    "learning.learn_simulate": _learn_simulate,
}

# name -> (unit, better); the order is the order of the printed report.
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "config.calls": ("count", "lower"),
    "generate.calls": ("count", "lower"),
    "graph.reachable_set_calls": ("count", "lower"),
    "graph.successors_calls": ("count", "lower"),
    "stochastic.power_limit_steps": ("count", "lower"),
    "signals.eval_u_calls": ("count", "lower"),
    "dynamics.simulate_s": ("s", "lower"),
    "dynamics.agent_steps_per_s": ("1/s", "higher"),
    "dynamics.diameter_series_s": ("s", "lower"),
    "dynamics.limit_s": ("s", "lower"),
    "dynamics.limit_found_ratio": ("ratio", "higher"),
    "dynamics.bound_s": ("s", "lower"),
    "verifier.check_s": ("s", "lower"),
    "verifier.reconcile_s": ("s", "lower"),
    "verifier.pass_ratio": ("ratio", "higher"),
    "verifier.exceptions": ("count", "lower"),
    "learning.learn_simulate_s": ("s", "lower"),
    "learning.belief_steps_per_s": ("1/s", "higher"),
    "reports.bytes_written": ("B", "lower"),
    "reports.mb_per_s": ("MB/s", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def modules():
    """``(layers, bindings)`` for :meth:`Tracer.active`: each layer's module,
    and every module whose names are rewired (the layers and the package)."""
    layers = {name: importlib.import_module(f"cclab.{name}") for name in LAYERS}
    return layers, [importlib.import_module("cclab"), *layers.values()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup, rounds, runs, observed, untraced_round_s):
    """Per-layer metrics for one traced set-up plus one mean traced round.

    ``setup`` and ``rounds`` are tracers; every time and count is the
    set-up's total plus the rounds' total divided by the number of traced
    rounds ``runs``. ``observed`` holds what the
    workload read from the outputs of the traced rounds; ``untraced_round_s``
    is the mean wall time of the untraced rounds run alongside them.
    """
    parts = [(setup, 1.0), (rounds, 1.0 / runs)]

    def total(get):
        return sum(get(t) * w for t, w in parts)

    def group(name):
        return total(lambda t: t.group_s.get(name, 0.0))

    def calls(name):
        return total(lambda t: t.calls.get(name, 0))

    def counter(name):
        return total(lambda t: t.counters.get(name, 0))

    out = {f"{layer}.self_s": total(lambda t: t.self_s.get(layer, 0.0)) for layer in LAYERS}
    out.update({
        "config.calls": total(lambda t: t.layer_calls("config")),
        "generate.calls": total(lambda t: t.layer_calls("generate")),
        "graph.reachable_set_calls": calls("graph.reachable_set"),
        "graph.successors_calls": calls("graph.DirectedGraph.successors"),
        "stochastic.power_limit_steps": counter("power_limit_steps"),
        "signals.eval_u_calls": calls("signals.eval_u"),
        "dynamics.simulate_s": group("simulate"),
        "dynamics.agent_steps_per_s": _ratio(counter("agent_steps"), group("simulate")),
        "dynamics.diameter_series_s": group("diameter_series"),
        "dynamics.limit_s": group("limit"),
        "dynamics.limit_found_ratio": _ratio(counter("limits_found"), counter("limits")),
        "dynamics.bound_s": group("bound"),
        "verifier.check_s": group("check"),
        "verifier.reconcile_s": group("reconcile"),
        "verifier.pass_ratio": _ratio(observed["passes"], observed["verdicts"]),
        "verifier.exceptions": observed["exceptions"] / runs
        + total(lambda t: t.exceptions.get("verifier", 0)),
        "learning.learn_simulate_s": group("learn_simulate"),
        "learning.belief_steps_per_s": _ratio(counter("belief_steps"), group("learn_simulate")),
        "reports.bytes_written": observed["bytes_written"] / runs,
        "reports.mb_per_s": _ratio(observed["bytes_written"] / runs / 1e6, group("write")),
        "trace.wall_s": total(lambda t: t.wall_s),
        "trace.overhead_s": rounds.wall_s / runs - untraced_round_s,
        "trace.unattributed_s": total(lambda t: t.unattributed_s),
    })
    return out
