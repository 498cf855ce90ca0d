"""Hypothesis checkers, prediction/observation reconciliation, ensembles."""

import collections
import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from random_instances import random_driven_systems

from cclab.dynamics import (
    DivergenceError,
    PeriodicLimit,
    System,
    Trajectory,
    boundedness_report,
    detect_periodic_limit,
    limit_window_start,
    simulate,
    simulate_batch,
)
from cclab import generate, verifier
from cclab.config import build_scenario, example_config
from cclab.generate import EXAMPLE_WINDOW
from cclab.graph import Clustering, cluster_spanning_tree_roots
from cclab.signals import ClusterOffsets, PeriodicInput, SequenceInput
from cclab.stochastic import MatrixSchedule
from cclab.verifier import (
    PERIOD_SUM_NOTE,
    ClaimError,
    HypothesisReport,
    Thresholds,
    check_claim,
    check_switching,
    ensemble_instance,
    reconcile,
    run,
    run_ensemble,
)

STATIC, SWITCHING = (build_scenario(example_config(which)).system for which in "AB")


def test_sync_threshold_scales_with_initial_norm():
    th = Thresholds()
    assert th.sync_threshold(np.zeros(3)) == pytest.approx(1e-8)
    assert th.sync_threshold(np.array([0.0, -4.0])) == pytest.approx(5e-8)


CONDITIONS = [
    "input-bounded",
    "property-a-uniform-links",
    "entry-floor-b1",
    "diagonal-floor-b2",
    "common-influence-b3",
    "static-quotient-b3star",
    "window-union-spanning-trees",
    "periodic-zero-sum-input",
    "distinct-inputs",
]


def test_static_sync_hypotheses_pass_on_the_example():
    report, ok = check_claim(STATIC, 1)
    assert [c.name for c in report.conditions] == CONDITIONS
    assert all(c.passed for c in report.conditions)
    assert report.claim == "static-sync"
    assert report.predicted == "intra-sync"
    assert ok and report.sync_ok
    assert cluster_spanning_tree_roots(STATIC.coupling.matrices[0] > 0, STATIC.clustering) == [2, 6, 6]


def test_static_consensus_hypotheses_pass_on_the_example():
    report, ok = check_claim(STATIC, 2)
    assert [c.name for c in report.conditions] == CONDITIONS
    assert all(c.passed for c in report.conditions)
    assert report.claim == "static-consensus"
    assert report.predicted == "cluster-consensus"
    assert ok and report.consensus_ok
    assert PERIOD_SUM_NOTE in report.notes


def test_missing_trees_are_called_out():
    clus = Clustering.from_sizes((2,))
    sys = System(coupling=np.eye(2), clustering=clus)
    report = check_claim(sys, 1)[0]
    assert not report.condition("window-union-spanning-trees").passed
    assert report.condition("common-influence-b3").passed
    assert report.predicted == "no-guarantee"


def test_broken_common_influence_is_called_out():
    clus = Clustering.from_sizes((2, 2))
    a = np.array(
        [
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    report = check_claim(System(coupling=a, clustering=clus), 1)[0]
    assert not report.condition("common-influence-b3").passed


def test_zero_diagonal_is_called_out():
    clus = Clustering.from_sizes((2,))
    a = np.array([[0.0, 1.0], [0.0, 1.0]])
    report = check_claim(System(coupling=a, clustering=clus), 1)[0]
    assert not report.condition("diagonal-floor-b2").passed
    assert report.condition("window-union-spanning-trees").passed


def test_missing_self_links_and_partial_cross_links_are_called_out():
    clus = Clustering.from_sizes((2, 2))
    a = np.array(
        [
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    report = check_claim(System(coupling=a, clustering=clus), 2)[0]
    assert not report.condition("diagonal-floor-b2").passed
    assert "(1-based) [3]" in report.condition("diagonal-floor-b2").detail
    assert not report.condition("property-a-uniform-links").passed


def test_undriven_system_fails_the_zero_sum_input_condition():
    clus = Clustering.from_sizes((3,))
    report = check_claim(System(coupling=np.full((3, 3), 1.0 / 3.0), clustering=clus), 2)[0]
    assert not report.condition("periodic-zero-sum-input").passed
    assert report.predicted == "no-guarantee"


def test_distinct_inputs_gate_consensus_only():
    """Equal gains leave the synchronization hypotheses alone; the row names
    the equal pairs and the smallest gap, passes for one cluster and fails
    for an undriven system."""

    def row(sys):
        report = check_switching(sys)
        return report.condition("distinct-inputs"), report

    clus = STATIC.clustering
    equal = dataclasses.replace(STATIC, offsets=ClusterOffsets(clus, (1.0, 1.0, -0.5)))
    check, report = row(equal)
    assert not check.passed
    assert check.detail == "smallest gain gap 0; equal gains at cluster pairs (1, 2)"
    assert [c.name for c in report.conditions if not c.passed] == ["distinct-inputs"]
    assert report.sync_ok and not report.consensus_ok
    assert report.predicted == "intra-sync"
    assert check_claim(equal, 1)[1] and not check_claim(equal, 2)[1]

    check, report = row(STATIC)
    assert check.passed and check.detail == "smallest gain gap 0.5"
    assert report.consensus_ok

    # Equal infinite gains are equal, and comparing them raises no warning.
    inf = dataclasses.replace(STATIC, offsets=ClusterOffsets(clus, (np.inf, -1.0, np.inf)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check, _ = row(inf)
    assert check.detail == "smallest gain gap 0; equal gains at cluster pairs (1, 3)"

    one = Clustering.from_sizes((3,))
    single = System(
        coupling=np.full((3, 3), 1.0 / 3.0),
        clustering=one,
        offsets=ClusterOffsets(one, (2.0,)),
        signal=PeriodicInput(2, (-1.0,)),
    )
    check, report = row(single)
    assert check.passed and check.detail == "single cluster: no pair to separate"
    assert report.consensus_ok

    check, report = row(dataclasses.replace(STATIC, offsets=None))
    assert not check.passed and check.detail == "system is undriven; no separating input"
    assert report.sync_ok and not report.consensus_ok


def test_aperiodic_signal_is_not_accepted_as_zero_sum():
    clus = Clustering.from_sizes((1, 1))
    sys = System(
        coupling=np.eye(2),
        clustering=clus,
        offsets=ClusterOffsets(clus, (1.0, -1.0)),
        signal=SequenceInput(tuple(np.zeros(1200))),
    )
    report = check_claim(sys, 2)[0]
    assert not report.condition("periodic-zero-sum-input").passed
    sync = check_claim(sys, 1)[0]
    assert sync.condition("input-bounded").passed  # bounded, just not periodic


def test_a_growing_signal_breaks_every_claim():
    clus = Clustering.from_sizes((1, 1))
    sys = System(
        coupling=np.eye(2),
        clustering=clus,
        offsets=ClusterOffsets(clus, (1.0, -1.0)),
        signal=SequenceInput(tuple(np.ones(1200))),
    )
    for theorem in (1, 2, 3, 4):
        report, ok = check_claim(sys, theorem, horizon=1000)
        assert not report.condition("input-bounded").passed
        assert not ok and not report.sync_ok
        assert report.predicted == "no-guarantee"


def test_a_signal_of_exactly_the_run_length_is_bounded_and_bounds_the_run():
    """A run of ``horizon`` steps reads u(0..horizon-1): a sequence of
    exactly that length passes ``input-bounded``, and the a-priori bound
    applies, both from one report."""
    horizon = 30
    x0 = build_scenario(example_config("A")).x0
    values = tuple(0.5 if t % 2 else -0.5 for t in range(horizon))
    sys = dataclasses.replace(STATIC, signal=SequenceInput(values))
    report, ok = check_claim(sys, 1, horizon=horizon)
    check = report.condition("input-bounded")
    assert ok and check.passed
    assert check.detail == "empirical over 0..29: |u| <= 0.5, |partial sums| <= 0.5"
    assert (report.inputs.max_u, report.inputs.max_partial) == (0.5, 0.5)
    (out,) = run([sys], x0[None], [report], horizon)
    assert out.verdict.status == "PASS"
    bound = boundedness_report(sys, x0, horizon, out.peak, report.quotient, report.inputs)
    assert bound.applicable and out.peak <= bound.bound
    with pytest.raises(IndexError):
        simulate(sys, x0, horizon + 1)
    assert check_claim(sys, 1, horizon=horizon + 1)[0].condition("input-bounded") == (
        verifier.ConditionCheck("input-bounded", False, "signal undefined across horizon 31")
    )


@pytest.mark.parametrize(
    "signal",
    [
        SequenceInput(tuple(np.inf if t == 5 else 0.0 for t in range(30))),
        PeriodicInput(3, (1e308, 1e308)),  # u(0) = -(1e308 + 1e308) overflows
    ],
    ids=["sequence", "periodic"],
)
def test_a_non_finite_input_is_not_bounded(signal):
    sys = dataclasses.replace(STATIC, signal=signal)
    report, ok = check_claim(sys, 1, horizon=30)
    check = report.condition("input-bounded")
    assert not ok and not check.passed
    assert check.detail.endswith("|partial sums| <= inf; not finite")
    assert report.predicted == "no-guarantee"
    bound = boundedness_report(sys, np.zeros(sys.n), 30, 0.0, report.quotient, report.inputs)
    assert not bound.applicable and bound.bound is None
    assert bound.note.startswith("input-bounded fails (")


def test_the_report_carries_the_quotient_and_input_bound_outside_its_document():
    report = check_switching(STATIC)
    assert report.quotient.static and report.quotient.deviation == 0.0
    assert report.inputs.bounded
    assert check_switching(dataclasses.replace(STATIC, offsets=None)).inputs is None
    bare = dataclasses.replace(report, quotient=None, inputs=None)
    assert bare == report and bare.to_dict() == report.to_dict()
    claim = check_claim(STATIC, 1)[0]
    assert claim.quotient is not None and claim.inputs == report.inputs


def _edge_system(a, sizes):
    clus = Clustering.from_sizes(sizes)
    return System(
        coupling=np.array(a),
        clustering=clus,
        offsets=ClusterOffsets(clus, (1.0, -1.0)),
        signal=PeriodicInput(2, (-1.0,)),
    )


@pytest.mark.parametrize("theorem", [1, 2, 3, 4])
def test_a_diagonal_entry_at_most_the_zero_threshold_breaks_every_claim(theorem):
    """1e-13 is positive and is the smallest entry, so it meets the floor;
    but it is no self-link in the support graph the other checks read."""
    sys = _edge_system([[1e-13, 0.5 - 1e-13, 0.5], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]], (2, 1))
    report, ok = check_claim(sys, theorem, window=1)
    failed = [c.name for c in report.conditions if not c.passed]
    assert failed == ["diagonal-floor-b2"]
    assert "(1-based) [1]" in report.condition("diagonal-floor-b2").detail
    assert not ok and report.predicted == "no-guarantee"


@pytest.mark.parametrize("theorem", [1, 2, 3, 4])
def test_a_partial_cover_within_the_common_influence_tolerance_breaks_every_claim(theorem):
    """Vertex 1 hears cluster 2 with weight 2e-10 and vertex 2 does not:
    the block sums agree within 1e-9, but the cover is partial."""
    sys = _edge_system([[0.5, 0.5 - 2e-10, 2e-10], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], (2, 1))
    report, ok = check_claim(sys, theorem, window=1)
    failed = [c.name for c in report.conditions if not c.passed]
    assert failed == ["property-a-uniform-links"]
    assert report.condition("property-a-uniform-links").detail == (
        "graph 1: cluster pair (1, 2) partially covered"
    )
    assert not ok and report.predicted == "no-guarantee"


def test_switching_hypotheses_pass_on_the_example():
    report = check_switching(SWITCHING, window=3)
    assert [c.name for c in report.conditions] == CONDITIONS
    assert all(c.passed for c in report.conditions)
    assert report.predicted == "cluster-consensus"
    assert report.sync_ok and report.consensus_ok


def test_switching_window_matters():
    """No single graph has the trees, so a length-1 window must fail."""
    report = check_switching(SWITCHING, window=1)
    assert not report.condition("window-union-spanning-trees").passed
    assert report.predicted == "no-guarantee"
    assert check_switching(SWITCHING, window=3).consensus_ok


def _root_searches(monkeypatch):
    """Arguments of every ``cluster_spanning_tree_roots`` call the
    checker makes from here on."""
    calls = []
    search = verifier.cluster_spanning_tree_roots

    def counted(s, clustering):
        calls.append(s)
        return search(s, clustering)

    monkeypatch.setattr(verifier, "cluster_spanning_tree_roots", counted)
    return calls


@pytest.mark.parametrize("window", [3, 5])
def test_windows_holding_every_graph_share_one_root_search(monkeypatch, window):
    calls = _root_searches(monkeypatch)
    report = check_switching(SWITCHING, window=window)
    assert report.condition("window-union-spanning-trees").passed
    assert len(calls) == 1


@pytest.mark.parametrize(
    "window, searches, detail",
    [
        (1, 4, "windows starting at [0, 1, 2] lack cluster spanning trees"),
        (2, 4, "windows starting at [0, 1] lack cluster spanning trees"),
        (4, 1, "every union over 4 consecutive steps has cluster spanning trees"),
    ],
)
def test_short_windows_are_each_searched_and_named(monkeypatch, window, searches, detail):
    """Example B's three rootless graphs, then the static example's rooted
    one: a window shorter than the schedule has its own union."""
    mixed = MatrixSchedule(SWITCHING.coupling.matrices + STATIC.coupling.matrices)
    calls = _root_searches(monkeypatch)
    report = check_switching(dataclasses.replace(SWITCHING, coupling=mixed), window=window)
    assert report.condition("window-union-spanning-trees").detail == detail
    assert len(calls) == searches


def test_switching_check_accepts_fixed_matrices():
    report = check_switching(STATIC)
    assert report.condition("window-union-spanning-trees").passed
    assert report.condition("property-a-uniform-links").passed
    assert report.consensus_ok


def test_switching_floor_override_flags_violations():
    strict = MatrixSchedule(SWITCHING.coupling.matrices, floor=0.3)
    report = check_switching(dataclasses.replace(SWITCHING, coupling=strict), window=3)
    assert not report.condition("entry-floor-b1").passed


def test_quotient_drift_breaks_b3star_only():
    """Two matrices with common influence but different quotients keep the
    sync conditions alive while ruling out the consensus claim."""
    clus = Clustering.from_sizes((2, 2))

    def coupled(w):
        a = np.zeros((4, 4))
        a[0] = a[1] = [0.5 * (1 - w), 0.5 * (1 - w), 0.5 * w, 0.5 * w]
        a[2] = a[3] = [0.5 * w, 0.5 * w, 0.5 * (1 - w), 0.5 * (1 - w)]
        return a

    sched = MatrixSchedule((coupled(0.2), coupled(0.4)), floor=0.1)
    sys = System(
        coupling=sched,
        clustering=clus,
        offsets=ClusterOffsets(clus, (1.0, -1.0)),
        signal=PeriodicInput(2, (-1.0,)),
    )
    report = check_switching(sys, window=2)
    assert report.condition("common-influence-b3").passed
    assert not report.condition("static-quotient-b3star").passed
    assert report.sync_ok
    assert not report.consensus_ok
    assert report.predicted == "intra-sync"


X0 = np.array([0.9, -0.4, 1.6, 0.2, -1.1, 0.8, 1.3, -0.7, 0.1])


def test_reconcile_pass_on_the_static_example():
    from cclab.dynamics import detect_periodic_limit

    report = check_claim(STATIC, 2)[0]
    traj = simulate(STATIC, X0, 2000)
    limit = detect_periodic_limit(traj, STATIC.clustering, period=2)
    result = reconcile(report, STATIC, X0, traj.diameter_series(STATIC.clustering)[-1], limit)
    assert result.status == "PASS"
    assert result.min_separation > 1e-3
    assert result.final_diameter < result.sync_threshold


def test_reconcile_degenerate_without_a_limit():
    report = check_claim(STATIC, 2)[0]
    traj = simulate(STATIC, X0, 2000)
    result = reconcile(report, STATIC, X0, traj.diameter_series(STATIC.clustering)[-1], limit=None)
    assert result.status == "DEGENERATE"


def test_reconcile_degenerate_on_tiny_separation():
    report = check_claim(STATIC, 2)[0]
    traj = simulate(STATIC, X0, 2000)
    cycles = np.full((3, 2), 0.5)
    cycles[1] += 1e-9  # below the separation threshold
    limit = PeriodicLimit(period=2, cycles=cycles, residual=0.0)
    result = reconcile(report, STATIC, X0, traj.diameter_series(STATIC.clustering)[-1], limit)
    assert result.status == "DEGENERATE"


def test_reconcile_fail_when_predicted_sync_is_missing():
    clus = Clustering.from_sizes((2,))
    sys = System(coupling=np.eye(2), clustering=clus)
    report = HypothesisReport(
        claim="static-sync", conditions=(), predicted="intra-sync", sync_ok=True
    )
    traj = simulate(sys, np.array([1.0, -1.0]), 50)  # identity keeps the gap
    result = reconcile(report, sys, traj.states[0], traj.diameter_series(clus)[-1])
    assert result.status == "FAIL"


def test_reconcile_vacuous_without_guarantees():
    clus = Clustering.from_sizes((2,))
    sys = System(coupling=np.eye(2), clustering=clus)
    report = check_claim(sys, 1)[0]
    traj = simulate(sys, np.array([1.0, -1.0]), 50)
    result = reconcile(report, sys, traj.states[0], traj.diameter_series(clus)[-1])
    assert result.status == "PASS-VACUOUS"
    assert "no synchronization" in result.notes[0]


def test_reconcile_single_cluster_consensus_is_vacuously_separated():
    clus = Clustering.from_sizes((2,))
    a = np.full((2, 2), 0.5)
    report = HypothesisReport(
        claim="static-consensus",
        conditions=(),
        predicted="cluster-consensus",
        consensus_ok=True,
    )
    sys = System(coupling=a, clustering=clus)
    traj = simulate(sys, np.array([1.0, 0.0]), 200)
    result = reconcile(report, sys, traj.states[0], traj.diameter_series(clus)[-1])
    assert result.status == "PASS"
    assert "single cluster" in result.notes[0]


def _reconcile_case(predicted, sizes, last, cycles=None):
    """``reconcile`` on a run from ``x(0) = (-1, 0, 1, ...)`` to ``last``,
    with a period-2 limit of ``cycles`` if given."""
    clus = Clustering.from_sizes(sizes)
    sys = System(coupling=np.eye(clus.n), clustering=clus)
    first = np.arange(clus.n, dtype=float) - 1.0
    traj = Trajectory(np.stack([first, np.asarray(last, dtype=float)]))
    limit = None if cycles is None else PeriodicLimit(2, np.asarray(cycles, dtype=float), 0.0)
    report = HypothesisReport(claim="c", conditions=(), predicted=predicted)
    return reconcile(report, sys, first, traj.diameter_series(clus)[-1], limit).to_dict()


_SEPARATED = [[0.5, 0.25], [0.2, 0.75]]
_TINY = [[0.5, 0.25], [0.5 + 1e-9, 0.25]]
_TWO = {"sync_threshold": 2e-08, "separation_threshold": 1e-06}
_FOUR = {"sync_threshold": 3.0000000000000004e-08, "separation_threshold": 1e-06}


@pytest.mark.parametrize(
    "case, expected",
    [
        (
            ("no-guarantee", (2,), [0.5, 0.5]),
            {"status": "PASS-VACUOUS", "predicted": "no-guarantee",
             "final_intra_diameter": 0.0, "min_separation": None, **_TWO,
             "notes": ["hypotheses unmet; observed synchronization"]},
        ),
        (
            ("no-guarantee", (2,), [1.0, -1.0]),
            {"status": "PASS-VACUOUS", "predicted": "no-guarantee",
             "final_intra_diameter": 2.0, "min_separation": None, **_TWO,
             "notes": ["hypotheses unmet; observed no synchronization"]},
        ),
        (
            ("cluster-consensus", (2, 2), [0.5, 0.5, 1.0, 0.0], _SEPARATED),
            {"status": "FAIL", "predicted": "cluster-consensus",
             "final_intra_diameter": 1.0, "min_separation": 0.5, **_FOUR,
             "notes": ["final intra-cluster diameter 1.000e+00 >= 3.000e-08"]},
        ),
        (
            ("intra-sync", (2, 2), [0.5, 0.5, 0.2, 0.2]),
            {"status": "PASS", "predicted": "intra-sync",
             "final_intra_diameter": 0.0, "min_separation": None, **_FOUR, "notes": []},
        ),
        (
            ("cluster-consensus", (2,), [0.5, 0.5]),
            {"status": "PASS", "predicted": "cluster-consensus",
             "final_intra_diameter": 0.0, "min_separation": None, **_TWO,
             "notes": ["single cluster: separation vacuous"]},
        ),
        (
            ("cluster-consensus", (2, 2), [0.5, 0.5, 0.2, 0.2]),
            {"status": "DEGENERATE", "predicted": "cluster-consensus",
             "final_intra_diameter": 0.0, "min_separation": None, **_FOUR,
             "notes": ["no periodic limit detected at the horizon; separation unverified"]},
        ),
        (
            ("cluster-consensus", (2, 2), [0.5, 0.5, 0.2, 0.2], _SEPARATED),
            {"status": "PASS", "predicted": "cluster-consensus",
             "final_intra_diameter": 0.0, "min_separation": 0.5, **_FOUR, "notes": []},
        ),
        (
            ("cluster-consensus", (2, 2), [0.5, 0.5, 0.2, 0.2], _TINY),
            {"status": "DEGENERATE", "predicted": "cluster-consensus",
             "final_intra_diameter": 0.0, "min_separation": 9.999999717180685e-10, **_FOUR,
             "notes": ["smallest cluster-pair separation 1.000e-09 <= 1.0e-06"]},
        ),
    ],
    ids=[
        "vacuous-synced",
        "vacuous-unsynced",
        "fail",
        "pass-intra-sync",
        "pass-single-cluster",
        "degenerate-no-limit",
        "pass-separated",
        "degenerate-tiny-separation",
    ],
)
def test_each_reconcile_branch_writes_its_document(case, expected):
    """Every status with its notes, as ``to_dict`` writes it."""
    assert _reconcile_case(*case) == expected


def test_reconcile_to_dict_round_trip():
    report = check_claim(STATIC, 2)[0]
    traj = simulate(STATIC, X0, 2000)
    final = traj.diameter_series(STATIC.clustering)[-1]
    doc = reconcile(report, STATIC, X0, final, limit=None).to_dict()
    assert doc["status"] == "DEGENERATE"
    assert doc["predicted"] == "cluster-consensus"
    assert isinstance(doc["final_intra_diameter"], float)


def test_report_to_dict_structure():
    report = check_claim(STATIC, 1)[0]
    doc = report.to_dict()
    assert doc["claim"] == "static-sync"
    assert doc["sync_hypotheses_ok"] is True
    assert {c["name"] for c in doc["conditions"]} >= {"common-influence-b3"}
    with pytest.raises(KeyError):
        report.condition("no-such-condition")


@pytest.mark.parametrize(
    "system, theorem, claim, predicted",
    [
        (STATIC, 1, "static-sync", "intra-sync"),
        (STATIC, 2, "static-consensus", "cluster-consensus"),
        (SWITCHING, 3, "switching", "intra-sync"),
        (SWITCHING, 4, "switching", "cluster-consensus"),
    ],
)
def test_check_claim_dispatches_each_claim(system, theorem, claim, predicted):
    report, ok = check_claim(system, theorem, window=EXAMPLE_WINDOW)
    assert ok is True
    assert report.claim == claim
    assert report.predicted == predicted


def test_check_claim_rejects_static_claims_on_switching_systems():
    for theorem in (1, 2):
        with pytest.raises(ClaimError, match="fixed couplings only"):
            check_claim(SWITCHING, theorem)
    with pytest.raises(ValueError):
        check_claim(STATIC, 5)


def _sync_horizon(sys: System):
    """Steps in which every intra-cluster difference shrinks by 1e-13, read
    off the spectral radius of the coupling on the vectors that sum to zero
    over each cluster; 2000 when that radius is 1, None past 20000 steps.

    Under common influence the cluster indicator vectors span an invariant
    subspace, so the couplings act on its orthogonal complement by
    themselves."""
    n, k = sys.n, sys.clustering.k
    indicators = np.zeros((n, k))
    indicators[np.arange(n), sys.clustering.labels()] = 1.0
    basis = np.linalg.qr(indicators, mode="complete")[0][:, k:]
    mats = sys.coupling.matrices
    phi = np.eye(n - k)
    for a in mats:
        phi = basis.T @ a @ basis @ phi
    rho = float(np.abs(np.linalg.eigvals(phi)).max(initial=0.0)) ** (1.0 / len(mats))
    if rho >= 1.0 - 1e-12:
        return 2000
    steps = int(np.ceil(np.log(1e-13) / np.log(rho))) if rho > 0.0 else 0
    return max(steps, 200) if steps <= 20000 else None


def _reproducer():
    """Claim 2's hypotheses without common influence: block sums 0.5 and 0.9
    in cluster 1. The run never synchronizes (final diameter 0.28)."""
    clus = Clustering.from_sizes((2, 1))
    a = np.array([[0.5, 0.0, 0.5], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]])
    offsets = ClusterOffsets(clus, (1.0, -1.0))
    sys = System(coupling=a, clustering=clus, offsets=offsets, signal=PeriodicInput(2, (-1.0,)))
    return (sys,), np.zeros(3)


def _relabelled(sys, perm):
    """``sys`` with vertex ``perm[i]`` renamed ``i``: the coupling's rows and
    columns and the clusters move together."""
    inv = np.argsort(perm)
    clus = Clustering(sys.n, tuple(tuple(inv[list(c)].tolist()) for c in sys.clustering.clusters))
    mats = tuple(m[np.ix_(perm, perm)] for m in sys.coupling.matrices)
    coupling = MatrixSchedule(mats, floor=sys.coupling.floor)
    offsets = ClusterOffsets(clus, sys.offsets.alphas)
    return System(coupling=coupling, clustering=clus, offsets=offsets, signal=sys.signal)


def _flags(report):
    """What a check decides, without the detail strings that name vertices."""
    return [(c.name, c.passed) for c in report.conditions], report.predicted


def _verdict(report, sys, x0, horizon):
    traj = simulate(sys, x0, horizon)
    limit = None
    if report.predicted == "cluster-consensus":
        limit = detect_periodic_limit(traj, sys.clustering, sys.signal.period)
    return reconcile(report, sys, x0, traj.diameter_series(sys.clustering)[-1], limit)


@settings(max_examples=200, deadline=None)
@given(
    draw=st.integers(0, 2**32 - 1).map(random_driven_systems),
    order=st.integers(0, 2**32 - 1),
)
@example(draw=_reproducer(), order=0)
def test_a_claim_whose_hypotheses_hold_never_ends_fail(draw, order):
    """Random driven systems (n <= 7, K <= 3), fixed and switching: wherever
    a claim's check passes, the run to the draw's own sync horizon must not
    end FAIL. Draws slower than 20000 steps are left out.

    Relabelling the vertices leaves every condition's flag, the prediction
    and the verdict alone, and so does shifting x0 by a constant, which
    shifts the run."""
    systems, x0 = draw
    perm = np.random.default_rng(order).permutation(len(x0))
    for sys in systems:
        horizon = _sync_horizon(sys)
        window = sys.coupling.period
        moved = _relabelled(sys, perm)
        for theorem in (3, 4) if sys.is_switching else (1, 2):
            report, ok = check_claim(sys, theorem, window=window)
            moved_report, moved_ok = check_claim(moved, theorem, window=window)
            assert (_flags(moved_report), moved_ok) == (_flags(report), ok)
            if not ok or horizon is None:
                continue
            verdict = _verdict(report, sys, x0, horizon)
            assert verdict.status != "FAIL", (theorem, report.to_dict(), verdict.to_dict())
            assert _verdict(moved_report, moved, x0[perm], horizon).status == verdict.status
            assert _verdict(report, sys, x0 + 3.0, horizon).status == verdict.status


@pytest.mark.parametrize("theorem", [1, 2, 3, 4])
def test_small_ensembles_pass_each_claim(theorem):
    summary = run_ensemble(theorem, count=10, seed=2024)
    assert summary.total == 10
    assert summary.exceptions == ()
    assert summary.counts.get("PASS", 0) == 10
    assert summary.rate("PASS") == 1.0


def test_run_ensemble_rejects_unknown_claims():
    with pytest.raises(ValueError):
        run_ensemble(5, count=1, seed=0)


def test_ensemble_with_a_short_horizon_reports_in_seed_order():
    """Every instance's signal is periodic, so every instance detects its
    limit, and one shorter than four periods raises. Claims 1 and 2 draw the
    same instances, and so do claims 3 and 4."""
    fixed = (3, 3, 4, 4, 4, 4, 3, 4, 3)
    switching = (3, 4, 4, 3, 4, 4, 4, 3)
    for theorem, counts, periods in [
        (1, {"FAIL": 1}, fixed),
        (2, {"FAIL": 1}, fixed),
        (3, {"FAIL": 2}, switching),
        (4, {"FAIL": 2}, switching),
    ]:
        summary = run_ensemble(theorem, count=10, seed=3, horizon=9)
        assert summary.total == 10
        assert summary.counts == counts
        assert summary.exceptions == tuple(
            f"ValueError('trajectory too short for period {T}: need at least {4 * T} states')"
            for T in periods
        )


def _batches(theorem, seed, count, horizon):
    """Seeded ensemble instances grouped by agent count."""
    seeds = np.random.default_rng(seed).integers(2**62, size=count)
    groups = {}
    for s in seeds:
        inst = ensemble_instance(theorem, int(s), horizon)
        groups.setdefault(inst.system.n, []).append(inst)
    assert max(len(g) for g in groups.values()) >= 2
    return list(groups.values())


def _run(group, horizon, first=0):
    """:func:`run` over ensemble instances."""
    return run(
        [inst.system for inst in group],
        np.stack([inst.x0 for inst in group]),
        [inst.report for inst in group],
        horizon,
        Thresholds(),
        first,
    )


def _first(group, horizon):
    """The first step an ensemble keeps for ``group``."""
    return min(limit_window_start(horizon + 1, inst.system.signal.period) for inst in group)


@pytest.mark.parametrize("seed", [5, 17])
@pytest.mark.parametrize("theorem", [1, 2, 3, 4])
def test_batched_rows_equal_simulate(theorem, seed):
    horizon = 5000 if theorem in (3, 4) else 2000
    first = limit_window_start(horizon + 1, 4)
    for group in _batches(theorem, seed, 12, horizon):
        for inst, out in zip(group, _run(group, horizon, first)):
            ref = simulate(inst.system, inst.x0, horizon).states
            assert np.array_equal(out.traj.states, ref[first:])


def _undriven(inst):
    return dataclasses.replace(inst, system=dataclasses.replace(inst.system, offsets=None))


def _same_outcome(batched, alone):
    """Equal statuses, limit cycles, final states and divergences, bit for bit."""
    if isinstance(alone, DivergenceError):
        assert repr(batched) == repr(alone)
        assert batched.partial.tobytes() == alone.partial.tobytes()
        return
    assert batched.verdict == alone.verdict
    assert (batched.limit is None) == (alone.limit is None)
    if alone.limit is not None:
        assert batched.limit.cycles.tobytes() == alone.limit.cycles.tobytes()
    assert batched.traj.states[-1].tobytes() == alone.traj.states[-1].tobytes()


@pytest.mark.parametrize("seed", [5, 17])
@pytest.mark.parametrize("theorem", [1, 2, 3, 4])
def test_a_batch_gives_each_system_the_outcome_of_its_batch_of_one(theorem, seed):
    """One instance per batch diverges; the rest keep only their limit
    window, where a batch of one keeps every row."""
    horizon = 5000 if theorem in (3, 4) else 2000
    for group in _batches(theorem, seed, 12, horizon):
        first = _first(group, horizon)
        group[-1] = _break_signal(group[-1], horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = _run(group, horizon, first)
        assert isinstance(outcomes[-1], DivergenceError)
        for inst, batched in zip(group, outcomes):
            _same_outcome(batched, _run([inst], horizon)[0])


def test_an_undriven_batch_runs_and_a_mixed_one_is_refused():
    horizon = 300
    group = [_undriven(inst) for inst in max(_batches(2, 5, 12, horizon), key=len)]
    outcomes = _run(group, horizon, _first(group, horizon))
    for inst, batched in zip(group, outcomes):
        alone = _run([inst], horizon)[0]
        _same_outcome(batched, alone)
        assert np.array_equal(alone.traj.states, simulate(inst.system, inst.x0, horizon).states)
    mixed = group[:1] + max(_batches(2, 5, 12, horizon), key=len)[1:]
    with pytest.raises(ValueError, match="all driven or all undriven"):
        simulate_batch([inst.system for inst in mixed], np.stack([i.x0 for i in mixed]), horizon)


def _break_signal(inst, horizon):
    sig = SequenceInput(tuple(np.inf if t == 5 else 0.0 for t in range(horizon)))
    return dataclasses.replace(inst, system=dataclasses.replace(inst.system, signal=sig))


def _break_x0(inst, horizon):
    x0 = inst.x0.copy()
    x0[0] = np.nan
    return dataclasses.replace(inst, x0=x0)


@pytest.mark.parametrize(
    "theorem, breaker, message",
    [
        (1, _break_signal, "DivergenceError('non-finite state at step 6')"),
        (2, _break_x0, "DivergenceError('non-finite state at step 0')"),
    ],
)
def test_non_finite_instance_in_a_batch(theorem, breaker, message):
    horizon = 200
    group = max(_batches(theorem, 8, 30, horizon), key=len)
    assert len(group) >= 3
    first = _first(group, horizon)
    group[1] = breaker(group[1], horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = _run(group, horizon, first)
    assert repr(results[1]) == message
    with pytest.raises(DivergenceError) as info:
        simulate(group[1].system, group[1].x0, horizon)
    assert repr(info.value) == message
    for inst, out in zip(group[:1] + group[2:], results[:1] + results[2:]):
        traj = simulate(inst.system, inst.x0, horizon)
        limit = detect_periodic_limit(traj, inst.system.clustering, inst.system.signal.period)
        final = traj.diameter_series(inst.system.clustering)[-1]
        assert out.verdict == reconcile(inst.report, inst.system, inst.x0, final, limit)


def _sha(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _record(out):
    """A run record's verdict, diameter series, peak and limit cycles, the
    arrays by their SHA-256; a divergence by its message and prefix."""
    if isinstance(out, DivergenceError):
        return ("diverged", repr(out), _sha(out.partial))
    cycles = None if out.limit is None else _sha(out.limit.cycles)
    return (out.verdict.to_dict(), _sha(out.diameters), out.peak, cycles)


def _verdict_doc(status, predicted, final, sync, separation):
    return {
        "status": status,
        "predicted": predicted,
        "final_intra_diameter": final,
        "sync_threshold": sync,
        "min_separation": separation,
        "separation_threshold": 1e-06,
        "notes": [],
    }


def _example_records(which):
    scenario = build_scenario(example_config(which))
    sys, th = scenario.system, scenario.thresholds
    report, _ = check_claim(
        sys, scenario.theorem, window=scenario.window, horizon=scenario.horizon, thresholds=th
    )
    return run([sys], scenario.x0[None], [report], scenario.horizon, th)


def _diverging_batch_records():
    horizon = 200
    group = max(_batches(1, 8, 30, horizon), key=len)
    first = _first(group, horizon)
    group[1] = _break_signal(group[1], horizon)
    return _run(group, horizon, first)


def _claim_2_batch_records():
    horizon = 2000
    group = max(_batches(2, 5, 12, horizon), key=len)
    return _run(group, horizon, _first(group, horizon))


@pytest.mark.parametrize(
    "runs, expected",
    [
        (
            lambda: _example_records("A"),
            [
                (_verdict_doc("PASS", "cluster-consensus", 0.0, 1.7777758976934537e-08, 1.0),
                 "6038902e29588cd1d6c2a18d645f6e7bd44f6742ef21b8fdb67d91e6b2fd98f2",
                 1.7777758976934535,
                 "7bde8ea1bc8805fb39a9fa1053fcebefdbfbc0bf7abbec6a54d5c1c3d9274729"),
            ],
        ),
        (
            lambda: _example_records("B"),
            [
                (_verdict_doc(
                    "PASS", "cluster-consensus", 4.440892098500626e-16, 1.7777758976934537e-08, 1.0
                 ),
                 "3babb1b5c4213d9ab3a922354010cffe4b988559f60fa278f4dd08168ec6497b",
                 1.7777758976934535,
                 "80a17459b5e94f0c4a0aa527c97a54f30b4ba28001d8ed311f1956c7f12997a5"),
            ],
        ),
        (
            _diverging_batch_records,
            [
                (_verdict_doc(
                    "PASS", "intra-sync", 2.7755575615628914e-17, 1.6474064798651292e-08,
                    0.5870690582622196,
                 ),
                 "56bedf47a96e45b8d69aaa7c3d068351ed0d2bac49485223b46ff922e6562c7e",
                 0.5559543456946352,
                 "a08ef49ab45ead7da6c2ef6e6b9c6b31360ed1e38c11a93ea02d8799d82339e4"),
                ("diverged",
                 "DivergenceError('non-finite state at step 6')",
                 "a23d19e67d12f3593298ef3d64886f870032d141d54398288e3a23fed8642722"),
                (_verdict_doc(
                    "PASS", "intra-sync", 0.0, 1.3921213057643952e-08, 0.47775151142379135
                 ),
                 "9e04b5cbaa8fbbd0b6bf7538661785be8d3cb9194ee1f4c6ef6aaf4af73730d0",
                 3.9247914457525037,
                 "2a9f45061364e507c41168e0a92e5de387d3c7658696721055ce9aa6cf79a911"),
                (_verdict_doc(
                    "PASS", "intra-sync", 1.1102230246251565e-16, 1.899667067765104e-08,
                    0.8850446222563084,
                 ),
                 "a273c659e35e756a99baa2ca12bc5559ddb472fe306d716542ef3e24c89cdb81",
                 1.320993484786618,
                 "d2332cf54758be0951699719c5bc374691b3d8c99e30031a46d12959d0084b6c"),
                (_verdict_doc(
                    "PASS", "intra-sync", 1.3322676295501878e-15, 1.9202900906586138e-08,
                    0.6940278826664841,
                 ),
                 "19982405e510e47044f54176e36ab59b017df27a04e9d8d82c765bb6375525c6",
                 4.304173702234628,
                 "63c8ba942942c9e511e34bb1fca342e3bc6859c60c1750b6151aad9936532d3b"),
                (_verdict_doc(
                    "PASS", "intra-sync", 4.440892098500626e-16, 1.6407024080875788e-08,
                    0.8696096808569826,
                 ),
                 "6595fa68791a887e8c8e6e97233218a3a775a0577d98dc79d27d21cb1c541a0e",
                 3.915378773601553,
                 "03dd4e46850b68bcbdff3001f9711f3711de2b0e36e452ba994fbbcdf0309325"),
            ],
        ),
        (
            _claim_2_batch_records,
            [
                (_verdict_doc(
                    "PASS", "cluster-consensus", 0.0, 1.9634083210324262e-08, 0.2793560009948961
                 ),
                 "4f9e1e02c09d65ec3ed02f1acd87f857959e01b877bbcb9a575037c34d089434",
                 2.640656304240754,
                 "77405684ef2df4db19eacfaa40e95f35d4c4f64552691a1fdd851c3cf658995d"),
                (_verdict_doc(
                    "PASS", "cluster-consensus", 4.440892098500626e-16, 1.8675767294224984e-08,
                    1.5586735752118726,
                 ),
                 "4181497a6e1d351c7673a4481fb1f82827c6a6207f62ff7ab95ca37b09721d95",
                 1.1928122921064013,
                 "3dd6144310b5fe336e9a7df8482363a62dae7162e6dad0fce1f1a1f17b8ec994"),
                (_verdict_doc(
                    "PASS", "cluster-consensus", 0.0, 1.9576937822762247e-08, 0.18959751760544996
                 ),
                 "4f9e1e02c09d65ec3ed02f1acd87f857959e01b877bbcb9a575037c34d089434",
                 1.5119117738741974,
                 "440cd7d0b64b3aca6693fddd4fd13b87c09eb6a014436c0bd55bf6647521dbcd"),
                (_verdict_doc(
                    "PASS", "cluster-consensus", 0.0, 1.9906797888295504e-08, 0.11678824200459337
                 ),
                 "4f9e1e02c09d65ec3ed02f1acd87f857959e01b877bbcb9a575037c34d089434",
                 2.130390689635119,
                 "0b2b795dd0ea54ee566d12e65f2015d60b93c37e009213b291df733741a49759"),
            ],
        ),
    ],
    ids=["example-A", "example-B", "diverging-batch", "claim-2-batch"],
)
def test_the_run_record_is_pinned(runs, expected):
    """Each run's record, as :func:`run` computes it once: examples A and B
    from step 0, and two ensemble batches that keep only their limit
    windows, one of them with a diverging member."""
    assert [_record(out) for out in runs()] == expected


def test_a_run_of_negative_zeros_peaks_at_positive_zero(monkeypatch):
    """The peak is max |x| without an |x| temporary: on states that are all
    -0.0 it is 0.0, as the absolute value gives, so ``metrics.json`` never
    reads -0.0. The matrix-vector kernel writes +0.0, so the all -0.0 rows
    are handed to :func:`run` directly."""
    sys = dataclasses.replace(STATIC, offsets=None)
    x0 = np.full((1, sys.n), -0.0)
    (out,) = run([sys], x0, [check_switching(sys)], 30)
    assert repr(out.peak) == "0.0"
    monkeypatch.setattr(
        verifier,
        "simulate_batch",
        lambda systems, x0, horizon, first=0: np.full((horizon + 1 - first, *x0.shape), -0.0),
    )
    (out,) = run([sys], x0, [check_switching(sys)], 30)
    assert np.signbit(out.traj.states).all()
    assert repr(out.peak) == "0.0"


def _instance_digest(theorem: int, seeds, horizon: int) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        inst = ensemble_instance(theorem, seed, horizon)
        for a in inst.system.coupling.matrices:
            h.update(a.tobytes())
        h.update(inst.x0.tobytes())
        h.update(inst.system.offsets.reduced().tobytes())
        h.update(inst.report.predicted.encode())
        for c in inst.report.conditions:
            h.update(f"{c.name}|{c.passed}|{c.detail}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "theorem, digest",
    [
        (1, "e64203fc4ee6ba730eb924047179ceb7be0bf1b202c69f4de2d022b343830d96"),
        (2, "202b0759392ff68d0dcbc9e692655ff3bd9da92f198c030cf8f5dfa83fbcf8b8"),
        (3, "f7e37153b96c9b94dbcc665e4f87c566db548391a50a82e9397cad57d78df813"),
        (4, "9d1b9cfe51f671679c3071f757d13f2fafe989df18113903dae11bb7c1129fc4"),
    ],
)
def test_ensemble_instance_bytes_are_pinned(theorem, digest):
    """Guards the ensemble builder's draws: every matrix, initial state,
    gain vector and condition detail of 40 seeded instances."""
    horizon = 5000 if theorem in (3, 4) else 2000
    assert _instance_digest(theorem, range(40), horizon) == digest


@pytest.mark.parametrize("theorem", [2, 4])
def test_an_ensemble_instance_builds_its_spec_once(theorem, monkeypatch):
    """One seed-stream spawn, one clustering and one quotient draw per
    instance, however many generators read them."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(generate, "_streams", counted("streams", generate._streams))
    monkeypatch.setattr(generate, "_draw_quotient", counted("quotient", generate._draw_quotient))
    monkeypatch.setattr(Clustering, "__post_init__", counted("clustering", Clustering.__post_init__))
    for seed in range(10):
        calls.clear()
        ensemble_instance(theorem, seed, 100)
        assert calls == {"streams": 1, "quotient": 1, "clustering": 1}
