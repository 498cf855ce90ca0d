"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion verdict
lines, or add ``-s`` to see the printed detail (counts, timings, margins).
"""

import time

import numpy as np

from cclab.cli import main
from cclab.config import build_scenario, emit_config, example_config
from cclab.dynamics import (
    System,
    boundedness_report,
    detect_periodic_limit,
    separation_metric,
    simulate,
    z_limits,
)
from cclab.generate import example_graphs_switching
from cclab.graph import Clustering, cluster_spanning_tree_roots
from cclab.learning import CulturalFlags, learn_simulate
from cclab.signals import PeriodicInput
from cclab.stochastic import (
    ergodicity_coefficient,
    hajnal_diameter,
    schedule_quotient,
)
from cclab.verifier import check_switching, run_ensemble

from random_instances import (
    random_clustered_tree_matrix,
    random_clustering,
    random_common_influence,
    random_stochastic,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def distinct_alphas(rng, k):
    return tuple(float(v) for v in rng.uniform(-1, 1) + np.cumsum(rng.uniform(0.3, 1.0, k)))


def closed_form_gap(scenario, traj, limit) -> float:
    """Gap between the observed cycle at phase 1 and the paper's closed form
    ``y(nT + 1) -> Z1 y(0) + Z2 alpha``: the undriven run's final cluster
    means (``Z1`` acting on ``x(0)``) plus ``Z2 @ alpha`` from the quotient."""
    sys = scenario.system
    clus = sys.clustering
    undriven = simulate(System(sys.coupling, clus), scenario.x0, traj.horizon)
    b = schedule_quotient(sys.coupling.matrices, clus).quotient
    _, z2 = z_limits(b, sys.signal)
    predicted = clus.means(undriven.states[-1]) + z2 @ np.array(sys.alphas)
    return float(np.abs(limit.cycles[:, 1] - predicted).max())


def test_criterion_01_hajnal_inequality_ensemble():
    rng = np.random.default_rng(10001)
    start = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        clus = random_clustering(rng, n_max=10, k_max=4)
        a = random_common_influence(rng, clus, sparse=bool(rng.integers(2)))
        b = random_stochastic(rng, clus.n)
        lhs = hajnal_diameter(a @ b, clus)
        rhs = (1.0 - ergodicity_coefficient(a, clus)) * hajnal_diameter(b, clus)
        if lhs > rhs + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        violations == 0 and elapsed < 30.0,
        f"10^4 pairs, {violations} inequality violations, {elapsed:.1f}s",
    )


def test_criterion_02_products_become_cluster_scrambling():
    rng = np.random.default_rng(10002)
    start = time.perf_counter()
    violations = 0
    for _ in range(1_000):
        clus = random_clustering(rng, n_max=10, k_max=4)
        acc = random_clustered_tree_matrix(rng, clus)
        for _ in range(clus.n - 2):
            acc = random_clustered_tree_matrix(rng, clus) @ acc
        if ergodicity_coefficient(acc, clus) <= 0.0:
            violations += 1
    elapsed = time.perf_counter() - start
    verdict(
        2,
        violations == 0 and elapsed < 30.0,
        f"10^3 schedules of n-1 factors, {violations} non-scrambling products,"
        f" {elapsed:.1f}s",
    )


def test_criterion_03_consensus_subspace_invariance():
    rng = np.random.default_rng(10003)
    worst = 0.0
    for _ in range(100):
        clus = random_clustering(rng, n_max=10, k_max=4)
        a = random_common_influence(rng, clus)
        T = int(rng.integers(2, 5))
        sys = System(
            coupling=a,
            clustering=clus,
            alphas=distinct_alphas(rng, clus.k),
            signal=PeriodicInput(T, tuple(rng.uniform(-1, 1, T - 1))),
        )
        y0 = rng.uniform(-1, 1, clus.k)
        traj = simulate(sys, y0[clus.labels()], 1_000)
        worst = max(worst, float(traj.diameter_series(clus).max()))
    verdict(3, worst <= 1e-10, f"100 systems, worst intra diameter {worst:.3e}")


def test_criterion_04_static_example_checks_syncs_and_stays_bounded(tmp_path):
    path = tmp_path / "a.json"
    emit_config(example_config("A"), str(path))
    check_sync = main(["check", "--config", str(path), "--theorem", "1"])
    check_consensus = main(["check", "--config", str(path)])
    scenario = build_scenario(example_config("A"))
    traj = simulate(scenario.system, scenario.x0, 2000)
    diam = traj.diameter_series(scenario.system.clustering)
    peak = float(np.abs(traj.states).max())
    report = check_switching(scenario.system, horizon=traj.horizon)
    bound = boundedness_report(
        scenario.system, scenario.x0, traj.horizon, peak, report.quotient, report.inputs
    )
    ok = (
        check_sync == 0
        and check_consensus == 0
        and diam[-1] < 1e-8
        and diam[1500:].max() < 1e-8
        and bound.applicable
        and peak <= bound.bound
    )
    verdict(
        4,
        ok,
        f"checks (claims 1, 2) exit ({check_sync}, {check_consensus}), final"
        f" intra diameter {diam[-1]:.2e}, peak norm {peak:.3f}"
        f" <= bound {bound.bound:.2f}",
    )


def test_criterion_05_static_example_periodic_limit_and_z2_spectrum():
    scenario = build_scenario(example_config("A"))
    clus = scenario.system.clustering
    traj = simulate(scenario.system, scenario.x0, 2000)
    limit = detect_periodic_limit(traj, clus, period=2)
    sep = separation_metric(limit)[1, 2] if limit is not None else 0.0
    b = schedule_quotient(scenario.system.coupling.matrices, clus).quotient
    sig = scenario.system.signal
    _, z2 = z_limits(b, sig)
    nus = np.linalg.eigvals(b)
    expected = []
    for nu in nus:
        if abs(nu - 1.0) < 1e-9:
            expected.append(complex(sig.value(0)))
        else:
            num = sum(sig.value(k) * nu**k for k in range(sig.period))
            expected.append(num / (1.0 - nu**sig.period))
    got = np.linalg.eigvals(z2)

    def order(vals):
        return sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))

    spec_err = max(abs(g - e) for g, e in zip(order(list(got)), order(expected)))
    gap = closed_form_gap(scenario, traj, limit) if limit is not None else np.inf
    ok = (
        limit is not None
        and limit.residual < 1e-8
        and sep > 1e-3
        and spec_err < 1e-6
        and gap <= 1e-12
    )
    verdict(
        5,
        ok,
        f"T=2 residual {limit.residual:.2e}, separation(C2, C3) {sep:.3f},"
        f" Z2 spectrum error {spec_err:.2e}, closed-form cycle gap {gap:.2e}",
    )


def test_criterion_06_switching_example_needs_the_union(tmp_path):
    scenario = build_scenario(example_config("B"))
    clus = scenario.system.clustering
    graphs = example_graphs_switching()
    each_fails = all(
        cluster_spanning_tree_roots(g, clus) is None for g in graphs
    )
    windows_pass = all(
        cluster_spanning_tree_roots(
            np.logical_or.reduce([graphs[(s + i) % 3] for i in range(3)]), clus
        )
        is not None
        for s in range(3)
    )
    traj = simulate(scenario.system, scenario.x0, 5000)
    diam = traj.diameter_series(clus)
    limit = detect_periodic_limit(traj, clus, period=2)
    sep = separation_metric(limit)[1, 2] if limit is not None else 0.0
    gap = closed_form_gap(scenario, traj, limit) if limit is not None else np.inf
    ok = each_fails and windows_pass and diam[-1] < 1e-8 and sep > 1e-3 and gap <= 1e-12
    verdict(
        6,
        ok,
        f"graphs individually rootless: {each_fails}, L=3 unions rooted:"
        f" {windows_pass}, final intra diameter {diam[-1]:.2e},"
        f" separation(C2, C3) {sep:.3f}, closed-form cycle gap {gap:.2e}",
    )


def test_criterion_07_full_and_quotient_runs_agree():
    rng = np.random.default_rng(10007)
    worst = 0.0
    for _ in range(50):
        clus = random_clustering(rng, n_max=10, k_max=4)
        a = random_common_influence(rng, clus)
        b = schedule_quotient((a,), clus).quotient
        T = int(rng.integers(2, 5))
        sig = PeriodicInput(T, tuple(rng.uniform(-1, 1, T - 1)))
        alphas = distinct_alphas(rng, clus.k)
        sys = System(coupling=a, clustering=clus, alphas=alphas, signal=sig)
        y0 = rng.uniform(-1, 1, clus.k)
        traj = simulate(sys, y0[clus.labels()], 10_000)
        # The reduced recursion is the quotient system on singleton clusters.
        singles = Clustering.from_sizes((1,) * clus.k)
        quotient = System(b, singles, alphas, sig)
        qtraj = simulate(quotient, y0, 10_000)
        gap = float(np.abs(traj.states - qtraj.states[:, clus.labels()]).max())
        worst = max(worst, gap)
    verdict(7, worst <= 1e-7, f"50 instances over 10^4 steps, worst gap {worst:.3e}")


def test_criterion_08_learning_inputs_separate_the_clusters():
    scenario = build_scenario(example_config("A"))
    setup = scenario.learning
    sys_ = scenario.system
    driven = learn_simulate(
        sys_, setup.flags, setup.profile0, scenario.horizon, slack=setup.slack
    )
    p, q = setup.zeta_clusters
    tail = float(driven.zeta_series(p, q, setup.zeta_state)[-20:].max())
    drift = driven.sum_drift()
    control_flags = CulturalFlags(setup.flags.table, strength=0.0)
    control = learn_simulate(
        sys_, control_flags, setup.profile0, scenario.horizon, slack=setup.slack
    )
    control_tail = float(control.zeta_series(p, q, setup.zeta_state)[-20:].max())
    ok = tail > 1e-3 and drift <= 1e-12 and control_tail < 1e-6
    verdict(
        8,
        ok,
        f"c=0.01 zeta tail {tail:.4f}, belief-sum drift {drift:.1e},"
        f" c=0 zeta tail {control_tail:.1e}",
    )


def test_criterion_09_generic_consensus_over_random_instances():
    summary = run_ensemble(theorem=2, count=500, seed=10009)
    fails = summary.counts.get("FAIL", 0)
    degenerate = summary.counts.get("DEGENERATE", 0)
    ok = (
        summary.total == 500
        and not summary.exceptions
        and fails == 0
        and degenerate <= 5
    )
    verdict(
        9,
        ok,
        f"500 instances: counts {summary.counts},"
        f" degenerate rate {degenerate / summary.total:.2%},"
        f" {len(summary.exceptions)} errors",
    )


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path):
    path = tmp_path / "a.json"
    emit_config(example_config("A"), str(path))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["simulate", "--config", str(path), "--out", str(d1)])
    code2 = main(["simulate", "--config", str(path), "--out", str(d2)])
    same_traj = (d1 / "trajectory.csv").read_bytes() == (d2 / "trajectory.csv").read_bytes()
    same_metrics = (d1 / "metrics.json").read_bytes() == (d2 / "metrics.json").read_bytes()
    l1, l2 = tmp_path / "l1", tmp_path / "l2"
    main(["learn", "--config", str(path), "--out", str(l1)])
    main(["learn", "--config", str(path), "--out", str(l2)])
    same_beliefs = (l1 / "beliefs.csv").read_bytes() == (l2 / "beliefs.csv").read_bytes()
    same_zeta = (l1 / "zeta.csv").read_bytes() == (l2 / "zeta.csv").read_bytes()
    ok = code1 == code2 == 0 and same_traj and same_metrics and same_beliefs and same_zeta
    verdict(
        10,
        ok,
        f"trajectory identical: {same_traj}, metrics identical: {same_metrics},"
        f" beliefs identical: {same_beliefs}, zeta identical: {same_zeta}",
    )
