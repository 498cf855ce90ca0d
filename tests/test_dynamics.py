"""Simulation engine: exact recursions, invariance, periodic limits, Z limits."""

import numpy as np
import pytest

from cclab.dynamics import (
    DivergenceError,
    System,
    Trajectory,
    boundedness_report,
    detect_periodic_limit,
    limit_window_start,
    quotient_simulate,
    separation_metric,
    simulate,
    z_limits,
)
from cclab.generate import (
    example_alphas,
    example_clustering,
    example_matrix_static,
    example_quotient,
    example_schedule_switching,
    example_signal,
    random_common_influence,
)
from cclab.config import build_scenario, example_config
from cclab.graph import Clustering
from cclab.signals import ClusterOffsets, PeriodicInput, SequenceInput
from cclab.stochastic import quotient_matrix, state_diameter, validate


def example_system_static():
    clus = example_clustering()
    return System(
        coupling=example_matrix_static(),
        clustering=clus,
        offsets=ClusterOffsets(clus, example_alphas()),
        signal=example_signal(),
    )


X0 = np.array([0.9, -0.4, 1.6, 0.2, -1.1, 0.8, 1.3, -0.7, 0.1])


def test_simulate_matches_hand_rolled_recursion():
    sys = example_system_static()
    traj = simulate(sys, X0, 40)
    x = X0.copy()
    a = sys.coupling
    sigma = sys.offsets.vector()
    for t in range(40):
        x = a @ x + sigma * sys.signal.value(t)
        assert np.array_equal(traj.states[t + 1], x)
    assert traj.horizon == 40
    assert traj.n == 9


def test_step_agrees_with_simulate():
    sys = example_system_static()
    traj = simulate(sys, X0, 3)
    a = sys.coupling
    sigma = sys.offsets.vector()
    assert np.array_equal(a @ X0 + sigma * sys.signal.value(0), traj.states[1])
    assert np.array_equal(a @ traj.states[1] + sigma * sys.signal.value(1), traj.states[2])


def test_simulate_validates_inputs():
    sys = example_system_static()
    with pytest.raises(ValueError):
        simulate(sys, X0, 0)
    with pytest.raises(ValueError):
        simulate(sys, X0[:5], 10)


def test_divergence_carries_partial_trajectory():
    clus = Clustering.from_sizes((1, 1))
    sys = System(
        coupling=np.eye(2),
        clustering=clus,
        offsets=ClusterOffsets(clus, (1.0, -1.0)),
        signal=SequenceInput((0.0, 0.0, np.inf, 0.0)),
    )
    with pytest.raises(DivergenceError) as info:
        simulate(sys, np.array([1.0, 2.0]), 4)
    assert info.value.t == 3  # x(3) = x(2) + sigma * u(2) is the first non-finite state
    assert info.value.partial.shape == (3, 2)
    assert np.array_equal(info.value.partial[0], [1.0, 2.0])


def test_undriven_system_ignores_missing_signal():
    clus = Clustering.from_sizes((2,))
    sys = System(coupling=np.full((2, 2), 0.5), clustering=clus)
    assert not sys.driven()
    traj = simulate(sys, np.array([0.0, 1.0]), 5)
    assert traj.states[-1] == pytest.approx([0.5, 0.5])


def test_switching_system_uses_the_schedule():
    clus = example_clustering()
    sched = example_schedule_switching()
    sys = System(coupling=sched, clustering=clus)
    assert sys.is_switching
    traj = simulate(sys, X0, 7)
    x = X0.copy()
    for t in range(7):
        x = sched.at(t) @ x
        assert np.array_equal(traj.states[t + 1], x)


def test_consensus_subspace_is_invariant():
    """Cluster-constant initial data stays cluster-constant under common influence."""
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, 4))
        labels = rng.integers(0, k, size=n)
        labels[rng.permutation(n)[:k]] = np.arange(k)
        clus = Clustering(
            n, tuple(tuple(int(v) for v in np.nonzero(labels == p)[0]) for p in range(k))
        )
        a = random_common_influence(rng, clus)
        gaps = np.cumsum(rng.uniform(0.3, 1.0, size=k))
        offs = ClusterOffsets(clus, tuple(gaps))
        sig = PeriodicInput(3, (0.6, -0.2))
        sys = System(coupling=a, clustering=clus, offsets=offs, signal=sig)
        y0 = rng.uniform(-1, 1, size=k)
        x0 = y0[clus.labels()]
        traj = simulate(sys, x0, 300)
        assert traj.diameter_series(clus).max() <= 1e-10


def test_full_and_quotient_simulations_agree_on_cluster_means():
    sys = example_system_static()
    clus = sys.clustering
    b = quotient_matrix(sys.coupling, clus)
    y0 = np.array([X0[list(members)].mean() for members in clus.clusters])
    x0 = y0[clus.labels()]
    traj = simulate(sys, x0, 2000)
    qtraj = quotient_simulate(b, sys.offsets, sys.signal, y0, 2000)
    means = np.stack(
        [traj.states[:, list(members)].mean(axis=1) for members in clus.clusters],
        axis=1,
    )
    assert np.abs(means - qtraj.states).max() <= 1e-8


def test_quotient_simulate_validates_shapes():
    clus = example_clustering()
    offs = ClusterOffsets(clus, example_alphas())
    b = example_quotient()
    with pytest.raises(ValueError):
        quotient_simulate(b, offs, None, np.zeros(2), 10)
    with pytest.raises(ValueError):
        quotient_simulate(b, offs, None, np.zeros(3), 0)


def test_periodic_limit_matches_closed_form():
    """The odd-phase samples obey x -> A^2 x + (I - A) sigma, whose limit is
    A_inf x(1) plus a convergent geometric matrix series; the even phase is
    one update behind.  Solved as a series, not by time-stepping."""
    from cclab.stochastic import power_limit

    sys = example_system_static()
    clus = sys.clustering
    traj = simulate(sys, X0, 2000)
    limit = detect_periodic_limit(traj, clus, period=2)
    assert limit is not None
    assert limit.residual < 1e-8
    a = sys.coupling
    sigma = sys.offsets.vector()
    a_inf = power_limit(a).limit
    x1 = a @ X0 + sigma  # u(0) = +1
    series = np.zeros_like(sigma)
    term = (np.eye(9) - a) @ sigma
    a2 = a @ a
    for _ in range(300):
        series += term
        term = a2 @ term
    x_odd = a_inf @ x1 + series
    x_even = a @ x_odd - sigma  # u at odd times is -1
    for p, members in enumerate(clus.clusters):
        assert np.abs(x_odd[list(members)] - limit.cycles[p, 1]).max() < 1e-8
        assert np.abs(x_even[list(members)] - limit.cycles[p, 0]).max() < 1e-8


def test_periodic_limit_rejects_unsettled_tails():
    sys = example_system_static()
    traj = simulate(sys, X0, 12)
    assert detect_periodic_limit(traj, sys.clustering, period=2, tol=1e-10) is None
    with pytest.raises(ValueError):
        detect_periodic_limit(traj, sys.clustering, period=5)
    with pytest.raises(ValueError):
        detect_periodic_limit(traj, sys.clustering, period=0)


def test_periodic_limit_from_the_tail_alone():
    sys = example_system_static()
    traj = simulate(sys, X0, 2000)
    start = limit_window_start(2001, 2)
    full = detect_periodic_limit(traj, sys.clustering, period=2)
    tail = detect_periodic_limit(
        Trajectory(traj.states[start:]), sys.clustering, period=2, first=start
    )
    assert np.array_equal(tail.cycles, full.cycles)
    assert tail.residual == full.residual
    with pytest.raises(ValueError):
        detect_periodic_limit(
            Trajectory(traj.states[start + 1 :]), sys.clustering, period=2, first=start + 1
        )


def test_separation_metric_peak_gaps():
    from cclab.dynamics import PeriodicLimit

    cycles = np.array([[0.0, 1.0], [2.0, 1.5], [0.5, 0.5]])
    sep = separation_metric(PeriodicLimit(period=2, cycles=cycles, residual=0.0))
    assert sep[0, 1] == pytest.approx(2.0)
    assert sep[1, 2] == pytest.approx(1.5)
    assert sep[0, 2] == pytest.approx(0.5)
    assert np.array_equal(sep, sep.T)
    assert np.all(np.diag(sep) == 0.0)


def test_example_cluster_cycles_separate_the_trailing_pair():
    sys = example_system_static()
    traj = simulate(sys, X0, 2000)
    limit = detect_periodic_limit(traj, sys.clustering, period=2)
    sep = separation_metric(limit)
    assert sep[1, 2] == pytest.approx(1.0, abs=1e-8)


def test_z_limits_on_the_example_quotient():
    b = example_quotient()
    z1, z2 = z_limits(b, example_signal())
    # B is idempotent, so the sampled powers are already at their limit
    assert np.abs(z1 - b).max() < 1e-12
    assert np.abs(z2 - np.eye(3)).max() < 1e-10


def test_z2_eigenvalues_follow_the_convolution_formula():
    b = validate(np.array([[0.8, 0.2], [0.3, 0.7]]))
    sig = PeriodicInput(2, (-1.0,))
    _, z2 = z_limits(b, sig)
    nus = np.sort(np.linalg.eigvals(b).real)
    expected = []
    for nu in nus:
        if abs(nu - 1.0) < 1e-12:
            expected.append(sig.value(0))
        else:
            num = sum(sig.value(k) * nu**k for k in range(sig.period))
            expected.append(num / (1.0 - nu**sig.period))
    got = np.sort(np.linalg.eigvals(z2).real)
    assert np.abs(got - np.sort(expected)).max() < 1e-8


def test_z_limits_requires_positive_diagonal():
    with pytest.raises(ValueError):
        z_limits(np.array([[0.0, 1.0], [1.0, 0.0]]), example_signal())


def test_boundedness_report_static_driven():
    sys = example_system_static()
    traj = simulate(sys, X0, 2000)
    report = boundedness_report(sys, traj)
    assert report.applicable
    assert report.bound is not None
    assert traj.max_norm() <= report.bound
    assert report.max_norm == traj.max_norm()


def test_boundedness_report_undriven_and_switching():
    clus = example_clustering()
    undriven = System(coupling=example_matrix_static(), clustering=clus)
    traj = simulate(undriven, X0, 50)
    rep = boundedness_report(undriven, traj)
    assert rep.applicable
    assert rep.bound == pytest.approx(np.abs(X0).max())
    assert rep.max_norm <= rep.bound + 1e-12
    switching = System(coupling=example_schedule_switching(), clustering=clus)
    straj = simulate(switching, X0, 50)
    srep = boundedness_report(switching, straj)
    assert not srep.applicable
    assert srep.bound is None


def test_trajectory_accessors():
    t = Trajectory(np.zeros((5, 3)))
    assert t.horizon == 4
    assert t.n == 3
    assert t.max_norm() == 0.0
    clus = Clustering.from_sizes((2, 1))
    assert t.diameter_series(clus).shape == (5,)
    with pytest.raises(ValueError):
        Trajectory(np.zeros(5))


def test_intra_cluster_diameter_contracts_to_the_float_floor():
    """The geometric contraction bottoms out at ulp scale long before t=2000."""
    sys = example_system_static()
    traj = simulate(sys, X0, 2000)
    diam = traj.diameter_series(sys.clustering)
    assert diam[-1] < 1e-12
    assert diam[200:].max() < 1e-12
    assert state_diameter(traj.states[-1], sys.clustering) == diam[-1]


@pytest.mark.parametrize("which", ["A", "B"])
def test_diameter_series_equals_per_row_state_diameter(which):
    scenario = build_scenario(example_config(which))
    clus = scenario.system.clustering
    traj = simulate(scenario.system, scenario.x0, scenario.horizon)
    expected = np.array([state_diameter(x, clus) for x in traj.states])
    assert np.array_equal(traj.diameter_series(clus), expected)


def test_diameter_series_on_a_non_contiguous_clustering():
    clus = Clustering(7, ((0, 3, 5), (1,), (2, 4, 6)))
    traj = Trajectory(np.random.default_rng(3).normal(size=(40, 7)))
    expected = np.array([state_diameter(x, clus) for x in traj.states])
    assert np.array_equal(traj.diameter_series(clus), expected)
