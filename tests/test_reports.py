"""The writers against references: the CSVs against per-value
``format(v, ".17g")``, the JSON text against ``json.dumps``."""

import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclab import reports
from cclab.dynamics import Trajectory
from cclab.learning import LearningRun

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
           -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0]
values = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)
)


def _fmt(v):
    return format(float(v), ".17g")


def reference_trajectory(states):
    lines = ["t," + ",".join(f"x_{i + 1}" for i in range(states.shape[1]))]
    lines += [f"{t}," + ",".join(_fmt(v) for v in row) for t, row in enumerate(states)]
    return "\n".join(lines) + "\n"


def reference_zeta(zeta):
    return "t,zeta\n" + "".join(f"{t},{_fmt(z)}\n" for t, z in enumerate(zeta))


def reference_beliefs(beliefs):
    lines = ["t,agent,state,belief"]
    for t, profile in enumerate(beliefs):
        for i, row in enumerate(profile):
            lines += [f"{t},{i + 1},theta_{s + 1},{_fmt(v)}" for s, v in enumerate(row)]
    return "\n".join(lines) + "\n"


def written(write, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(path, obj)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def trajectories(draw):
    """A transient followed by a periodic tail: the writer's memo sees
    periods below, at and above its bound."""
    n = draw(st.integers(1, 4))
    row = st.lists(values, min_size=n, max_size=n)
    transient = draw(st.lists(row, max_size=4))
    cycle = draw(st.lists(row, min_size=1, max_size=reports._ROW_MEMO + 3))
    repeats = draw(st.integers(0, 3))
    rows = transient + cycle * repeats
    return np.array(rows or cycle[:1], dtype=float)


@st.composite
def long_rows(draw, width):
    """More than one block of rows of ``width`` values: a transient, then a
    cycle that starts just before a block boundary, so it straddles it.
    Values come from a small pool, so they repeat across rows and within
    a row."""
    pool = draw(st.lists(values, min_size=1, max_size=6))
    row = st.lists(st.sampled_from(pool), min_size=width, max_size=width)
    period = draw(st.integers(1, reports._ROW_MEMO + 3))
    start = reports._BLOCK - draw(st.integers(1, period))
    transient = draw(st.lists(row, min_size=1, max_size=3))
    transient = (transient * start)[:start]
    cycle = draw(st.lists(row, min_size=period, max_size=period))
    length = start + draw(st.integers(period + 1, reports._BLOCK + 2 * period))
    return np.array((transient + cycle * length)[:length], dtype=float)


@settings(max_examples=150, deadline=None)
@given(st.one_of(trajectories(), st.integers(1, 4).flatmap(long_rows)))
@example(np.array([[1.5, -2.0]]))  # a single row
@example(np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]] * 3))
@example(np.arange(3.0 * (reports._ROW_MEMO + 1)).reshape(-1, 1) % (reports._ROW_MEMO + 1))
@example(np.arange(3.0 * reports._ROW_MEMO).reshape(-1, 1) % reports._ROW_MEMO)
def test_trajectory_csv_matches_per_value_formatting(states):
    expected = reference_trajectory(states).encode()
    assert written(reports.write_trajectory_csv, Trajectory(states)) == expected


@st.composite
def belief_runs(draw):
    """Belief histories with a transient and then a settled or periodic
    tail, as :func:`trajectories` draws them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    profile = st.lists(values, min_size=n * m, max_size=n * m)
    transient = draw(st.lists(profile, max_size=4))
    cycle = draw(st.lists(profile, min_size=1, max_size=reports._ROW_MEMO + 3))
    repeats = draw(st.integers(0, 3))
    rows = transient + cycle * repeats
    return np.array(rows or cycle[:1], dtype=float).reshape(-1, n, m)


@st.composite
def long_belief_runs(draw):
    """Belief histories longer than one block, as :func:`long_rows` draws
    them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(long_rows(n * m)).reshape(-1, n, m)


@settings(max_examples=150, deadline=None)
@given(st.one_of(belief_runs(), long_belief_runs()))
@example(np.array([[[0.0, -0.0]], [[5e-324, -1e308]]]))
@example(np.array([[[0.25, 0.75]]] * 5))  # settled from t = 0
@example(np.arange(51.0).reshape(-1, 1, 1) % (reports._ROW_MEMO + 1))
def test_belief_csv_matches_per_value_formatting(beliefs):
    run = LearningRun(beliefs=beliefs, clustering=None, validity=None)
    assert written(reports.write_belief_csv, run) == reference_beliefs(beliefs).encode()


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(values, max_size=40), long_rows(1).map(np.ravel)))
@example([])
@example([0.0, -0.0, 0.0, -0.0])
def test_zeta_csv_matches_per_value_formatting(zeta):
    expected = reference_zeta(zeta).encode()
    assert written(reports.write_zeta_csv, zeta) == expected
    assert written(reports.write_zeta_csv, np.ravel(zeta)) == expected


def test_a_trajectory_csv_holds_one_block_of_text_at_a_time(tmp_path):
    """Four blocks of distinct rows at n = 300. A block's value texts are
    Python strings, each several times the size of its text, and sit
    beside the block's sort arrays; a writer that formatted the whole
    history at once would peak near 25 times one block's text."""
    states = np.random.default_rng(0).standard_normal((4 * reports._BLOCK, 300))
    traj = Trajectory(states)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        reports.write_trajectory_csv(str(path), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == reference_trajectory(states).encode()
    block_text = path.stat().st_size / 4
    assert peak < 10 * block_text


FINITE = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 2.5e-17]
floats = st.one_of(st.sampled_from(FINITE), st.floats(allow_nan=False, allow_infinity=False))
keys = st.text(max_size=6)  # non-ASCII included; json escapes it
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats, st.text(max_size=8)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(keys, inner, max_size=4)
    ),
    max_leaves=20,
)
float_lists = st.one_of(
    st.just([]),
    st.lists(floats, min_size=1, max_size=1),
    st.lists(st.sampled_from(FINITE), max_size=30),
    st.lists(floats, max_size=30),
)
mixed_lists = st.lists(st.one_of(floats, st.integers(-3, 3), st.booleans()), max_size=8)
documents = st.dictionaries(
    keys, st.one_of(float_lists, mixed_lists, json_values), max_size=6
)


def reference_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(documents)
@example({})
@example({"series": []})
@example({"series": [-0.0]})
@example({"series": [5e-324, 1e308, -0.0, 0.0, 5e-324], "é": {"ü": [1.0]}, "z": "ß"})
@example({"mixed": [1, 1.0, True, 0.0, False]})
@example({"a": [[0.5, 0.5]], "b": {"c": [0.25]}, "d": 1.5, "e": None})
def test_json_text_matches_json_dumps(doc):
    assert reports._json_text(doc) == reference_json(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda bad: {"series": [0.5, bad, 0.25]},  # the float-list fast path
        lambda bad: {"series": [bad]},
        lambda bad: {"max_norm": bad},
        lambda bad: {"limit": {"cycles": [[0.0, bad]]}},
        lambda bad: {"mixed": [1, bad]},
    ],
    ids=["series", "lone", "scalar", "nested", "mixed"],
)
def test_json_text_refuses_non_finite_floats(place, bad):
    with pytest.raises(ValueError):
        reports._json_text(place(bad))
