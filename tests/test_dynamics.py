"""Simulation engine: exact recursions, invariance, periodic limits, Z limits."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclab import dynamics
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
    simulate_batch,
    z_limits,
)
from cclab.generate import (
    example_alphas,
    example_clustering,
    example_matrix_static,
    example_quotient,
    example_schedule_switching,
    example_signal,
)
from cclab.config import build_scenario, example_config
from cclab.graph import Clustering
from cclab.signals import ClusterOffsets, PeriodicInput, SequenceInput
from cclab.stochastic import MatrixSchedule, power_limit, schedule_quotient, validate
from cclab.verifier import check_claim, ensemble_instance, run

from random_instances import random_clustering, random_common_influence


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
    (a,) = sys.coupling.matrices
    sigma = sys.offsets.vector()
    for t in range(40):
        x = a @ x + sigma * sys.signal.value(t)
        assert np.array_equal(traj.states[t + 1], x)
    assert traj.horizon == 40
    assert traj.n == 9


def test_step_agrees_with_simulate():
    sys = example_system_static()
    traj = simulate(sys, X0, 3)
    (a,) = sys.coupling.matrices
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
        x = sched.matrices[t % 3] @ x
        assert np.array_equal(traj.states[t + 1], x)


def test_a_batch_on_one_schedule_reads_its_arrays_as_given(monkeypatch):
    """Systems that carry one schedule object step on that schedule's own
    matrices, with no stacked copy, and each row equals its batch of one
    bit for bit."""
    clus = example_clustering()
    sched = example_schedule_switching()
    gains = [(1.0, 0.5, -0.5), (1.0, 1.0, -0.5), (0.0, 0.0, 0.0), (-2.0, 0.25, 3.0)]
    systems = [
        System(sched, clus, ClusterOffsets(clus, g), example_signal()) for g in gains
    ]
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, size=(len(systems), clus.n))
    seen = []
    advance = dynamics._advance

    def spy(couplings, *args):
        seen.append(couplings)
        return advance(couplings, *args)

    monkeypatch.setattr(dynamics, "_advance", spy)
    rows = simulate_batch(systems, x0, 60)
    assert len(seen) == 1 and seen[0] is sched.matrices
    for b, sys in enumerate(systems):
        assert np.array_equal(rows[:, b], simulate_batch([sys], x0[b : b + 1], 60)[:, 0])


def _stepped(couplings, drive, x0, horizon):
    """Every state of ``x(t+1) = couplings[t % m] @ x(t) + drive[t % P]`` up
    to the horizon, stepped one by one with the kernel's product shapes and
    no repeat check; shape (horizon + 1, B, n)."""
    states = np.empty((horizon + 1,) + x0.shape + (1,))
    states[0] = x0[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            np.matmul(couplings[t % len(couplings)], states[t], out=states[t + 1])
            if drive is not None:
                states[t + 1] += drive[t % len(drive)]
    return states[..., 0]


def _first_repeat(states, period):
    """The first step ``s`` whose state equals the state ``period`` steps
    before it bit for bit, or None."""
    for s in range(period, len(states)):
        if states[s].tobytes() == states[s - period].tobytes():
            return s
    return None


SPECIAL_VALUES = (-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan)
PROBE = 300


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    matrices=st.integers(1, 3),
    phases=st.sampled_from([None, 1, 2, 3, 4, "horizon"]),
    stacked=st.booleans(),
    specials=st.lists(st.sampled_from(SPECIAL_VALUES), max_size=3),
    long=st.booleans(),
    pick=st.integers(0, 2**16),
    pick_first=st.integers(0, 2**16),
)
def test_the_repeat_stop_keeps_every_row_bit_for_bit(
    seed, matrices, phases, stacked, specials, long, pick, pick_first
):
    """The kernel's rows equal a loop that steps to the horizon, bit for
    bit, for fixed and switching, shared and stacked, driven and undriven
    batches. Horizons and first kept steps fall on and next to a check step
    and the first repeat, or the horizon is long enough to copy many rows. The initial states hold signed zeros, subnormals,
    infinities and NaN."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 4))
    # Common influence and cluster-wise gains, as the claims have them, make
    # most runs repeat within the probe; one cluster allows any coupling.
    clus = random_clustering(rng, n_max=6, n_min=1)
    n = clus.n

    def coupling():
        if stacked:
            return np.stack([random_common_influence(rng, clus) for _ in range(b)])
        return random_common_influence(rng, clus)

    couplings = [coupling() for _ in range(matrices)]
    gains = rng.uniform(-1.0, 1.0, size=(b, clus.k))[:, clus.labels()]

    def drive_of(length):
        u = rng.uniform(-1.0, 1.0, size=length)
        return (gains * (u - u.mean())[:, None, None])[..., None]

    x0 = rng.uniform(-1.0, 1.0, size=(b, n))
    for value in specials:
        x0[int(rng.integers(b)), int(rng.integers(n))] = value
    check = dynamics._REPEAT_CHECK
    marks = {1, 2, check - 1, check, check + 1, 2 * check + 1, PROBE}
    if phases == "horizon":
        # No period shorter than the horizon: the drive has one term per step.
        horizon = sorted(marks)[pick % len(marks)]
        drive = drive_of(horizon)
    else:
        drive = None if phases is None else drive_of(phases)
        period = math.lcm(matrices, phases or 1)
        marks |= {period - 1, period, period + 1}
        repeat = _first_repeat(_stepped(couplings, drive, x0, PROBE), period)
        if repeat is not None:
            detect = -(-repeat // check) * check
            marks |= {repeat - 1, repeat, repeat + 1, detect - 1, detect, detect + 1}
        horizons = sorted(h for h in marks if 1 <= h <= PROBE)
        horizon = PROBE if long else horizons[pick % len(horizons)]
    firsts = sorted({0, horizon // 2, horizon} | {f for f in marks if f <= horizon})
    first = firsts[pick_first % len(firsts)]
    rows = dynamics._advance(couplings, drive, x0, horizon, first)
    want = _stepped(couplings, drive, x0, horizon)[first:]
    assert rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()


def _count_steps(monkeypatch) -> list:
    """Patch the kernel so that each matrix product it runs appends to the
    returned list."""
    steps = []
    advance = dynamics._advance

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                steps.append(1)
            inputs = tuple(i.view(np.ndarray) if isinstance(i, Counted) else i for i in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    def counted(couplings, *args):
        return advance([c.view(Counted) for c in couplings], *args)

    monkeypatch.setattr(dynamics, "_advance", counted)
    return steps


def test_the_kernel_stops_once_the_state_repeats(monkeypatch):
    """Example A repeats from step 60 of 2000, so its config run stops at
    the next check and copies the cycle; a claim-2 ensemble instance that
    never repeats steps to its horizon. Both keep the stepped loop's rows."""
    steps = _count_steps(monkeypatch)
    scenario = build_scenario(example_config("A"))
    sys = scenario.system
    report, _ = check_claim(sys, 2, horizon=2000)
    (out,) = run([sys], scenario.x0[None], [report], 2000)
    assert len(steps) <= 100
    want = _stepped(sys.coupling.matrices, dynamics._drive(
        sys.offsets.vector()[None], [sys.signal], 2000), scenario.x0[None], 2000)
    assert out.traj.states.tobytes() == want[:, 0].tobytes()

    # The second instance of the claim-2 ensemble at seed 1.
    inst_seed = int(np.random.default_rng(1).integers(2**62, size=2)[1])
    inst = ensemble_instance(2, inst_seed, 2000)
    first = limit_window_start(2001, inst.system.signal.period)
    steps.clear()
    (out,) = run([inst.system], inst.x0[None], [inst.report], 2000, first=first)
    assert len(steps) == 2000
    assert out.verdict.status == "PASS"


def test_a_divergence_step_holds_across_the_repeat_stop(monkeypatch):
    """One agent overflows to +inf at step 3 and one to -inf; the agent
    averaging them turns NaN, and the run then repeats bit for bit, NaN
    included, so the kernel stops. ``run`` reports the stepped loop's first
    non-finite step, keeping every row or only the tail."""
    clus = Clustering.from_sizes((1, 1, 1))
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    sig = PeriodicInput(4, (0.5, 1.0, -3.5))  # u = 2, 0.5, 1, -3.5
    sys = System(a, clus, ClusterOffsets(clus, (1e307, -1e307, 0.0)), sig)
    x0 = np.array([1.45e308, -1.45e308, 0.0])
    want = _stepped((a,), dynamics._drive(sys.offsets.vector()[None], [sig], 200), x0[None], 200)
    t = int((~np.isfinite(want[:, 0])).any(axis=1).argmax())
    assert t == 3 and np.isnan(want[-1, 0, 2])
    report, _ = check_claim(sys, 1, horizon=200)
    steps = _count_steps(monkeypatch)
    for first in (0, limit_window_start(201, 4)):
        steps.clear()
        (out,) = run([sys], x0[None], [report], 200, first=first)
        assert len(steps) <= 2 * dynamics._REPEAT_CHECK
        assert isinstance(out, DivergenceError) and out.t == t
        assert out.partial.tobytes() == want[:t, 0].tobytes()


@pytest.mark.parametrize("first", [0, 50_000])
def test_an_aperiodic_drive_holds_no_ring(first):
    """Example B under a signal with no period runs unchecked and holds what
    the kernel held before the repeat stop, within 10%: the kept rows and
    one drive term per step (14.4 MB at 10^5 steps and ``first = 0``). A
    ring of lcm(3, horizon) + 1 states would add 21.6 MB."""
    scenario = build_scenario(example_config("B"))
    horizon = 100_000
    values = np.random.default_rng(0).uniform(-1.0, 1.0, size=horizon)
    sys = replace(scenario.system, signal=SequenceInput(tuple(values)))
    tracemalloc.start()
    try:
        simulate_batch([sys], scenario.x0[None], horizon, first)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2 * (horizon + 1) * scenario.x0.nbytes


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
    b = schedule_quotient(sys.coupling.matrices, clus).quotient
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
    (a,) = sys.coupling.matrices
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
    assert srep.applicable
    assert srep.bound == pytest.approx(np.abs(X0).max())
    assert srep.max_norm <= srep.bound + 1e-12


def _lift(rng, b, clus):
    """A coupling with quotient ``b``: each block mass is split over its
    source cluster by a Dirichlet draw."""
    a = np.zeros((clus.n, clus.n))
    for p, targets in enumerate(clus.clusters):
        for q, sources in enumerate(clus.clusters):
            for i in targets:
                a[i, list(sources)] = b[p, q] * rng.dirichlet(np.ones(len(sources)))
    return a


def _nudge(rng, a, clus, eps):
    """Move ``eps`` of one row's mass from its own cluster's block to
    another cluster's, making a block-sum spread of at most ``eps``."""
    a = a.copy()
    i = int(rng.integers(clus.n))
    p = clus.index_of(i)
    q = (p + 1 + int(rng.integers(clus.k - 1))) % clus.k
    own = list(clus.clusters[p])
    a[i, own[int(np.argmax(a[i, own]))]] -= eps
    a[i, clus.clusters[q][0]] += eps
    return a


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["fixed", "switching", "spread", "no-common-influence", "varying-quotient"]),
)
@example(seed=102, kind="spread")  # peak above the bound without the widening
@example(seed=298, kind="spread")
def test_bound_holds_exactly_where_it_applies(seed, kind):
    """On the quotient, with common influence the bound is at least the
    observed peak (also with a block-sum spread just inside the tolerance);
    without it, or with a varying quotient, it does not apply."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 5, size=int(rng.integers(2, 4)))
    clus = Clustering.from_sizes(tuple(int(c) for c in sizes))
    k = clus.k
    b = 0.5 * np.eye(k) + 0.5 * rng.dirichlet(np.ones(k), size=k)
    tol = 1e-9
    if kind == "fixed":
        coupling = _lift(rng, b, clus)
    elif kind == "switching":
        coupling = MatrixSchedule(tuple(_lift(rng, b, clus) for _ in range(3)))
    elif kind == "spread":
        # A loose tolerance lets the accepted spread matter: without the
        # widening, the bound falls below the peak on some draws at 0.1.
        tol = float(rng.choice([1e-3, 1e-1]))
        steps = int(rng.integers(1, 4))
        coupling = MatrixSchedule(
            tuple(_nudge(rng, _lift(rng, b, clus), clus, 0.9 * tol) for _ in range(steps))
        )
    elif kind == "no-common-influence":
        coupling = 0.5 * np.eye(clus.n) + 0.5 * rng.dirichlet(np.ones(clus.n), size=clus.n)
    else:
        b2 = 0.5 * np.eye(k) + 0.5 * rng.dirichlet(np.ones(k), size=k)
        coupling = MatrixSchedule((_lift(rng, b, clus), _lift(rng, b2, clus)))
    T = int(rng.integers(2, 5))
    sys = System(
        coupling=coupling,
        clustering=clus,
        offsets=ClusterOffsets(clus, tuple(rng.uniform(-2.0, 2.0, k))),
        signal=PeriodicInput(T, tuple(rng.uniform(-1.0, 1.0, T - 1))),
    )
    traj = simulate(sys, rng.uniform(-1.0, 1.0, clus.n), 300)
    report = boundedness_report(sys, traj, tol=tol)
    if kind in ("no-common-influence", "varying-quotient"):
        assert not report.applicable
        assert report.bound is None
        why = "common influence" if kind == "no-common-influence" else "quotient varies"
        assert why in report.note
        return
    assert report.applicable, report.note
    assert traj.max_norm() <= report.bound
    b_inf = power_limit(b).limit
    brute = sum(
        float(np.abs(np.linalg.matrix_power(b, j) - b_inf).sum(axis=1).max()) for j in range(201)
    )
    # Relative slack for round-off in B_inf only; the sums share their terms.
    assert brute <= dynamics._power_error_sum(b, b_inf) * (1 + 1e-12)


def test_bound_needs_a_quotient_power_limit_not_a_coupling_one():
    """A zero diagonal in the coupling is fine when the quotient has none
    (here B = I); a quotient that cycles makes the bound inapplicable."""
    clus = Clustering.from_sizes((2, 2))
    offsets = ClusterOffsets(clus, (1.0, -1.0))
    swap_within = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], float)
    swap_across = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], float)
    x0 = np.array([0.5, -0.25, 0.125, 1.0])
    for a, applicable in ((swap_within, True), (swap_across, False)):
        sys = System(coupling=a, clustering=clus, offsets=offsets, signal=PeriodicInput(2, (-1.0,)))
        traj = simulate(sys, x0, 40)
        report = boundedness_report(sys, traj)
        assert report.applicable is applicable, report.note
        if applicable:
            assert traj.max_norm() <= report.bound
        else:
            assert "quotient powers" in report.note


def test_bound_reads_an_aperiodic_signal_only_where_the_run_used_it():
    """x(horizon) uses u(0..horizon-1): a sequence of exactly that length
    is enough."""
    sys = example_system_static()
    horizon = 30
    values = tuple(0.5 if t % 2 else -0.5 for t in range(horizon))
    sys = System(sys.coupling, sys.clustering, sys.offsets, SequenceInput(values))
    traj = simulate(sys, X0, horizon)
    report = boundedness_report(sys, traj)
    assert report.applicable
    assert traj.max_norm() <= report.bound


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
    assert row_diameter(traj.states[-1], sys.clustering) == diam[-1]


def row_diameter(x, clus):
    """Largest same-cluster gap of one state, cluster by cluster."""
    return max(float(x[list(c)].max() - x[list(c)].min()) for c in clus.clusters)


@pytest.mark.parametrize("which", ["A", "B"])
def test_diameter_series_equals_per_row_state_diameter(which):
    scenario = build_scenario(example_config(which))
    clus = scenario.system.clustering
    traj = simulate(scenario.system, scenario.x0, scenario.horizon)
    expected = np.array([row_diameter(x, clus) for x in traj.states])
    assert np.array_equal(traj.diameter_series(clus), expected)


def test_diameter_series_on_a_non_contiguous_clustering():
    clus = Clustering(7, ((0, 3, 5), (1,), (2, 4, 6)))
    traj = Trajectory(np.random.default_rng(3).normal(size=(40, 7)))
    expected = np.array([row_diameter(x, clus) for x in traj.states])
    assert np.array_equal(traj.diameter_series(clus), expected)
