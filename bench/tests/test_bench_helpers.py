"""Tests of the benchmark's percentile and self-time helpers."""

import os
import statistics
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import timing  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_percentile_interpolates_between_closest_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert timing.percentile(values, 0) == 1.0
    assert timing.percentile(values, 50) == 3.0
    assert timing.percentile(values, 100) == 5.0
    assert timing.percentile([1.0, 2.0], 50) == 1.5
    assert timing.percentile(list(range(11)), 90) == pytest.approx(9.0)
    assert timing.median([7.0]) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        timing.percentile([], 50)
    with pytest.raises(ValueError):
        timing.percentile([1.0], 101)


def test_beyond_counts_samples_above_the_percentile():
    values = [float(v) for v in range(100)]
    assert timing.beyond(values, 90) == 10
    assert timing.beyond(values, 50) == 50


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert timing.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer(groups={"dynamics.simulate": "simulate"}, clock=clock)
    t.start(thread=1)
    clock.now = 1.0
    outer = t.enter("cli", "cli.main", thread=1)
    clock.now = 3.0
    inner = t.enter("dynamics", "dynamics.simulate", thread=1)
    clock.now = 7.0
    leaf = t.enter("stochastic", "stochastic.validate", thread=1)
    clock.now = 8.0
    t.exit(leaf, thread=1)
    clock.now = 9.0
    t.exit(inner, thread=1)
    clock.now = 10.0
    t.exit(outer, thread=1)
    clock.now = 12.0
    t.stop()
    assert t.self_s["cli"] == pytest.approx(3.0)
    assert t.self_s["dynamics"] == pytest.approx(5.0)
    assert t.self_s["stochastic"] == pytest.approx(1.0)
    assert t.group_s["simulate"] == pytest.approx(6.0)
    assert t.unattributed_s == pytest.approx(3.0)
    assert t.wall_s == pytest.approx(12.0)
    assert sum(t.self_s.values()) + t.unattributed_s == pytest.approx(t.wall_s)
    assert t.calls["dynamics.simulate"] == 1 and t.layer_calls("cli") == 1


def test_nested_members_of_one_group_count_once():
    clock = FakeClock()
    groups = {"verifier.assess_system": "check", "verifier.check_switching": "check"}
    t = Tracer(groups=groups, clock=clock)
    t.start(thread=1)
    outer = t.enter("verifier", "verifier.assess_system", thread=1)
    clock.now = 1.0
    inner = t.enter("verifier", "verifier.check_switching", thread=1)
    clock.now = 3.0
    t.exit(inner, thread=1)
    clock.now = 4.0
    t.exit(outer, thread=1)
    t.stop()
    assert t.group_s["check"] == pytest.approx(4.0)


def test_parallel_spans_share_wall_time_and_parent_waits():
    # Thread 1 drives; threads 2 and 3 run work it handed out.
    clock = FakeClock()
    t = Tracer(groups={"verifier.run_ensemble": "ensemble"}, clock=clock)
    t.start(thread=1)
    parent = t.enter("verifier", "verifier.run_ensemble", thread=1)
    clock.now = 1.0
    a = t.enter("dynamics", "dynamics.simulate", thread=2)
    clock.now = 2.0
    b = t.enter("generate", "generate.gen_switching_schedule", thread=3)
    clock.now = 4.0
    t.exit(a, thread=2)
    clock.now = 5.0
    t.exit(b, thread=3)
    clock.now = 6.0
    t.exit(parent, thread=1)
    t.stop()
    # 0-1 and 5-6: parent alone; 1-2: a alone; 2-4: a and b share; 4-5: b.
    assert t.self_s["verifier"] == pytest.approx(2.0)
    assert t.self_s["dynamics"] == pytest.approx(2.0)
    assert t.self_s["generate"] == pytest.approx(2.0)
    assert t.group_s["ensemble"] == pytest.approx(6.0)
    assert sum(t.self_s.values()) + t.unattributed_s == pytest.approx(t.wall_s)


def test_active_wraps_every_binding_and_restores_them():
    layer = types.ModuleType("pkg.layer")

    def work(x):
        return x + 1

    class Graph:
        def successors(self):
            return [1]

    work.__module__ = Graph.__module__ = "pkg.layer"
    layer.work, layer.Graph = work, Graph
    user = types.ModuleType("pkg.user")
    user.work = work  # as ``from .layer import work`` binds it
    original_successors = Graph.successors
    seen = []
    t = Tracer(hooks={"layer.work": lambda tracer, result: seen.append(result)})
    with t.active({"layer": layer}, [layer, user]):
        assert user.work(1) == 2 and layer.work(2) == 3
        assert Graph().successors() == [1]
    assert user.work is work and layer.work is work
    assert vars(Graph)["successors"] is original_successors
    assert t.calls["layer.work"] == 2
    assert t.calls["layer.Graph.successors"] == 1
    assert seen == [2, 3]
    assert user.work(5) == 6 and t.calls["layer.work"] == 2


def test_exceptions_close_the_span_and_are_counted():
    layer = types.ModuleType("pkg.layer")

    def boom():
        raise ValueError("bad")

    boom.__module__ = "pkg.layer"
    layer.boom = boom
    t = Tracer()
    with t.active({"layer": layer}, [layer]):
        with pytest.raises(ValueError):
            layer.boom()
    assert t.exceptions["layer"] == 1
    assert sum(t.self_s.values()) + t.unattributed_s == pytest.approx(t.wall_s)
