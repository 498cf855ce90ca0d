"""Periodic zero-sum signals and per-cluster offset gains."""

import numpy as np
import pytest

from cclab.graph import Clustering
from cclab.signals import (
    ClusterOffsets,
    PeriodicInput,
    SequenceInput,
    eval_u,
    partial_sum_bound,
)


def test_phase_zero_balances_the_free_values():
    sig = PeriodicInput(period=2, free_values=(-1.0,))
    assert sig.value(0) == 1.0
    assert sig.value(1) == -1.0
    assert sig.value(7) == -1.0
    sig3 = PeriodicInput(period=3, free_values=(0.25, 0.5))
    assert sig3.value(0) == -0.75
    assert sum(sig3.value(t) for t in range(3)) == 0.0


def test_full_period_sums_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(25):
        T = int(rng.integers(1, 8))
        sig = PeriodicInput(T, tuple(rng.uniform(-2, 2, size=T - 1)))
        total = sum(sig.value(t) for t in range(T))
        assert abs(total) < 1e-12
        for t in range(3 * T):
            assert sig.value(t) == sig.value(t + T)


def test_periodic_input_validation():
    with pytest.raises(ValueError):
        PeriodicInput(period=0)
    with pytest.raises(ValueError):
        PeriodicInput(period=3, free_values=(1.0,))
    assert PeriodicInput(period=1).value(5) == 0.0


def test_sequence_input_bounds():
    sig = SequenceInput((0.5, -0.5, 1.0))
    assert sig.value(2) == 1.0
    with pytest.raises(IndexError):
        sig.value(3)
    with pytest.raises(ValueError):
        eval_u(sig, -1)


def test_partial_sum_bound_matches_manual_scan():
    sig = SequenceInput((1.0, 1.0, -0.5, 2.0, -4.0))
    max_u, max_partial = partial_sum_bound(sig, 4)
    assert max_u == 4.0
    # partials: 1, 2, 1.5, 3.5, -0.5
    assert max_partial == 3.5
    with pytest.raises(ValueError):
        partial_sum_bound(sig, -1)


def test_zero_sum_signal_has_bounded_partials():
    sig = PeriodicInput(4, (0.7, -0.3, 1.1))
    _, one_period = partial_sum_bound(sig, 3)
    _, many_periods = partial_sum_bound(sig, 399)
    assert many_periods == pytest.approx(one_period, abs=1e-12)


def test_cluster_offsets_take_one_gain_per_cluster():
    """Gains may repeat: distinctness is the ``distinct-inputs`` hypothesis
    of cluster consensus, not a rule of the input."""
    clus = Clustering.from_sizes((2, 2))
    with pytest.raises(ValueError):
        ClusterOffsets(clus, (0.5,))
    assert ClusterOffsets(clus, (0.5, 0.5)).vector().tolist() == [0.5] * 4
    offs = ClusterOffsets(clus, (1.0, -0.25))
    assert offs.vector().tolist() == [1.0, 1.0, -0.25, -0.25]
    assert offs.reduced().tolist() == [1.0, -0.25]


def test_input_vector_is_cluster_constant():
    clus = Clustering(5, ((0, 2), (1, 3, 4)))
    offs = ClusterOffsets(clus, (2.0, -1.0))
    sig = PeriodicInput(2, (-1.0,))
    for t in range(4):
        vec = offs.vector() * eval_u(sig, t)
        for members in clus.clusters:
            vals = vec[list(members)]
            assert float(vals.max() - vals.min()) == 0.0
    assert (offs.vector() * eval_u(sig, 0)).tolist() == [2.0, -1.0, 2.0, -1.0, -1.0]
