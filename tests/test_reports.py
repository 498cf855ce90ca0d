"""The CSV writers against a per-value ``format(v, ".17g")`` reference."""

import os
import tempfile

import numpy as np
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


def reference_beliefs(beliefs, labels):
    lines = ["t,agent,state,belief"]
    for t, profile in enumerate(beliefs):
        for i, row in enumerate(profile):
            lines += [f"{t},{i + 1},{label},{_fmt(v)}" for label, v in zip(labels, row)]
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


@settings(max_examples=150, deadline=None)
@given(trajectories())
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
    labels = draw(
        st.lists(st.text(alphabet="%ds(x)_0θ,", min_size=1, max_size=4), min_size=m, max_size=m)
    )
    return np.array(rows or cycle[:1], dtype=float).reshape(-1, n, m), tuple(labels)


@settings(max_examples=150, deadline=None)
@given(belief_runs())
@example((np.array([[[0.0, -0.0]], [[5e-324, -1e308]]]), ("%d", "100%")))
@example((np.array([[[0.25, 0.75]]] * 5), ("%%", "%s")))  # settled from t = 0
@example((np.arange(51.0).reshape(-1, 1, 1) % (reports._ROW_MEMO + 1), ("%",)))
def test_belief_csv_matches_per_value_formatting(drawn):
    beliefs, labels = drawn
    run = LearningRun(beliefs=beliefs, clustering=None, flags=None, validity=None, labels=labels)
    assert written(reports.write_belief_csv, run) == reference_beliefs(beliefs, labels).encode()
