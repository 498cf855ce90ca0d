"""Hypothesis checkers and outcome reconciliation.

Four sufficient-condition sets make up the claim catalog. One checker,
:func:`check_switching`, evaluates all of their conditions; a fixed coupling
is the one-matrix schedule, and each claim reads the rows it needs:

1. fixed coupling, intra-cluster synchronization: claim 3 for one matrix,
   i.e. bounded signal and partial sums, the common-link property (property
   A), a positive diagonal, inter-cluster common influence and cluster
   spanning trees;
2. fixed coupling, cluster consensus: claim 4 for one matrix, i.e. claim 1's
   conditions driven by a zero-sum periodic signal through pairwise distinct
   cluster gains (one matrix has a static quotient);
3. switching coupling, intra-cluster synchronization: bounded signal and
   partial sums, uniform all-or-nothing cross links (property A), entry and
   diagonal floors, per-step common influence, spanning trees in every
   window union;
4. switching coupling, cluster consensus: as 3 but with one static quotient
   and a zero-sum periodic signal through pairwise distinct cluster gains.

The sets are sufficient, not necessary, so reconciliation distinguishes a
vacuous pass (hypotheses unmet) from a genuine failure (guarantee given,
behavior absent) and from degeneracy (consensus guaranteed generically, but
the separation collapsed for this data).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    PeriodicLimit,
    System,
    Trajectory,
    _checked,
    detect_periodic_limit,
    limit_window_start,
    separation_metric,
    simulate,
    simulate_batch,
)
from .generate import GeneratorSpec, gen_common_influence_matrix, gen_graph_with_cluster_trees, gen_switching_schedule
from .graph import cluster_spanning_tree_roots, common_link_faults
from .signals import ClusterOffsets, InputBound, PeriodicInput, input_bound
from .stochastic import ScheduleQuotient, schedule_quotient

PERIOD_SUM_NOTE = (
    "zero-sum convention: the signal's full period t=0..T-1 sums to zero;"
    " the interior sum over t=1..T-1 is reported alongside for comparison"
)


@dataclass(frozen=True)
class Thresholds:
    sync_scale: float = 1e-8
    separation: float = 1e-6
    periodic: float = 1e-8
    common_influence: float = 1e-9
    zero: float = 1e-12

    def sync_threshold(self, x0: np.ndarray) -> float:
        return self.sync_scale * (1.0 + float(np.abs(x0).max()))


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class HypothesisReport:
    """Per-condition verdicts with the outcome the claim catalog predicts.

    ``predicted`` is one of ``intra-sync``, ``cluster-consensus`` or
    ``no-guarantee``; ``sync_ok``/``consensus_ok`` say whether the
    synchronization and the consensus hypotheses hold. ``quotient`` and
    ``inputs`` (None when undriven) are the checker's, for the a-priori
    bound to read; neither is in the document or in equality.
    """

    claim: str
    conditions: tuple[ConditionCheck, ...]
    predicted: str
    sync_ok: bool = False
    consensus_ok: bool = False
    notes: tuple[str, ...] = ()
    quotient: Optional[ScheduleQuotient] = field(default=None, compare=False)
    inputs: Optional[InputBound] = field(default=None, compare=False)

    def condition(self, name: str) -> ConditionCheck:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "predicted": self.predicted,
            "sync_hypotheses_ok": self.sync_ok,
            "consensus_hypotheses_ok": self.consensus_ok,
            "conditions": [c.to_dict() for c in self.conditions],
            "notes": list(self.notes),
        }


def _input_bounded_check(inputs: Optional[InputBound]) -> ConditionCheck:
    if inputs is None:
        return ConditionCheck("input-bounded", True, "undriven system: the signal term is absent")
    return ConditionCheck("input-bounded", inputs.bounded, inputs.detail)


def _zero_sum_input_check(sys: System) -> ConditionCheck:
    if not sys.driven():
        return ConditionCheck(
            "periodic-zero-sum-input", False, "system is undriven; no separating input"
        )
    sig = sys.signal
    if not isinstance(sig, PeriodicInput):
        return ConditionCheck(
            "periodic-zero-sum-input", False, "signal is not a zero-sum periodic input"
        )
    full = sum(sig.value(t) for t in range(sig.period))
    interior = sum(sig.value(t) for t in range(1, sig.period))
    return ConditionCheck(
        "periodic-zero-sum-input",
        True,
        f"period {sig.period}; full-period sum {full:.3g}, interior sum"
        f" {interior:.3g}",
    )


def _distinct_inputs_check(sys: System) -> ConditionCheck:
    if not sys.driven():
        return ConditionCheck("distinct-inputs", False, "system is undriven; no separating input")
    alpha = sys.offsets.reduced()
    if alpha.size == 1:
        return ConditionCheck("distinct-inputs", True, "single cluster: no pair to separate")
    # Sorted, equal gains and the closest two are neighbours. Equal gains are
    # compared, not subtracted, so equal infinite gains raise no warning.
    order = np.argsort(alpha, kind="stable")
    low, high = alpha[order[:-1]], alpha[order[1:]]
    same = low == high
    gap = np.subtract(high, low, out=np.zeros(same.size), where=~same).min()
    pairs = [f"({p + 1}, {q + 1})" for p, q in zip(order[:-1][same], order[1:][same])]
    equal = "; equal gains at cluster pairs " + ", ".join(pairs[:4]) if pairs else ""
    return ConditionCheck("distinct-inputs", not pairs, f"smallest gain gap {gap:.6g}{equal}")


def check_switching(
    sys: System,
    window: Optional[int] = None,
    horizon: Optional[int] = None,
    thresholds: Thresholds = Thresholds(),
) -> HypothesisReport:
    """Hypotheses of every claim, synchronization and consensus.

    The entry and diagonal floors are the schedule's ``floor``, by default
    its smallest positive entry. ``window`` defaults to the schedule's
    length. ``horizon`` is the length of the run whose inputs the
    ``input-bounded`` row scans (see :func:`~cclab.signals.input_bound`).
    """
    matrices = sys.coupling.matrices
    clus = sys.clustering
    window = len(matrices) if window is None else int(window)
    if window < 1:
        raise ValueError("window must be at least 1")
    supports = [m > thresholds.zero for m in matrices]

    inputs = input_bound(sys.signal, horizon) if sys.driven() else None
    conditions = [_input_bounded_check(inputs)]

    # Property A: per ordered cluster pair, the cross-link branch (absent vs
    # full coverage) must be the same in every graph of the set.
    partial, switches = common_link_faults(supports, clus)
    # faults[p, q, l]: graph l (a switch at l = len(supports)) breaks the
    # pair, so the faults come out pair by pair, each pair's switch last.
    faults = np.concatenate([partial, switches[None]]).transpose(1, 2, 0)
    prop_a_bad = [
        f"graph {l + 1}: cluster pair ({p + 1}, {q + 1}) partially covered"
        if l < len(supports)
        else f"cluster pair ({p + 1}, {q + 1}) switches between link branches"
        for p, q, l in np.argwhere(faults).tolist()
    ]
    conditions.append(
        ConditionCheck(
            "property-a-uniform-links",
            not prop_a_bad,
            "cross-link structure is uniform across the schedule" if not prop_a_bad
            else "; ".join(prop_a_bad[:4]),
        )
    )

    floor = sys.coupling.floor
    min_positive = min(float(m[m > 0].min()) for m in matrices)
    conditions.append(
        ConditionCheck(
            "entry-floor-b1",
            bool(min_positive >= floor - 1e-15),
            f"min positive entry {min_positive:.6g} vs floor {floor:.6g}",
        )
    )
    # A diagonal entry at most the zero threshold is no self-link in the
    # support graph that the cover and tree checks read.
    diag = np.min([np.diag(m) for m in matrices], axis=0)
    low = np.flatnonzero((diag < floor - 1e-15) | (diag <= thresholds.zero))
    detail = f"min diagonal entry {float(diag.min()):.6g} vs floor {floor:.6g}"
    if low.size:
        detail += (
            f"; below the floor or at most {thresholds.zero:.1e} at vertices"
            f" (1-based) {(low + 1).tolist()}"
        )
    conditions.append(ConditionCheck("diagonal-floor-b2", not low.size, detail))

    sq = schedule_quotient(matrices, clus, tol=thresholds.common_influence)
    b3_ok = sq.deviation <= thresholds.common_influence
    conditions.append(
        ConditionCheck(
            "common-influence-b3",
            b3_ok,
            f"worst per-step block-sum spread {sq.deviation:.3e}",
        )
    )
    if b3_ok:
        detail = f"largest quotient deviation across steps {sq.spread:.3e}"
    else:
        detail = "not evaluated: per-step common influence fails"
    conditions.append(ConditionCheck("static-quotient-b3star", sq.static, detail))

    # A window of at least len(supports) steps holds every graph once, so
    # windows are keyed by the graphs they hold and each union searched once.
    rooted: dict[frozenset, bool] = {}
    bad_windows = []
    for t in range(len(supports)):
        held = frozenset((t + i) % len(supports) for i in range(min(window, len(supports))))
        if held not in rooted:
            union = np.logical_or.reduce([supports[i] for i in held])
            rooted[held] = cluster_spanning_tree_roots(union, clus) is not None
        if not rooted[held]:
            bad_windows.append(t)
    conditions.append(
        ConditionCheck(
            "window-union-spanning-trees",
            not bad_windows,
            f"every union over {window} consecutive steps has cluster spanning trees"
            if not bad_windows
            else f"windows starting at {bad_windows} lack cluster spanning trees",
        )
    )

    conditions.append(_zero_sum_input_check(sys))
    conditions.append(_distinct_inputs_check(sys))

    # Synchronization needs every row but the three that separate the
    # clusters; cluster consensus needs every row.
    separating = ("static-quotient-b3star", "periodic-zero-sum-input", "distinct-inputs")
    sync_ok = all(c.passed for c in conditions if c.name not in separating)
    consensus_ok = all(c.passed for c in conditions)
    predicted = (
        "cluster-consensus" if consensus_ok
        else "intra-sync" if sync_ok
        else "no-guarantee"
    )
    return HypothesisReport(
        claim="switching",
        conditions=tuple(conditions),
        predicted=predicted,
        sync_ok=sync_ok,
        consensus_ok=consensus_ok,
        notes=(PERIOD_SUM_NOTE,),
        quotient=sq,
        inputs=inputs,
    )


class ClaimError(ValueError):
    """The claim does not apply to the system."""


# Label and sole predicted outcome of claims 1-3; claim 4 keeps the
# checker's three-way prediction.
_ONE_OUTCOME = {
    1: ("static-sync", "intra-sync"),
    2: ("static-consensus", "cluster-consensus"),
    3: ("switching", "intra-sync"),
}


def check_claim(
    sys: System,
    theorem: int,
    window: Optional[int] = None,
    horizon: Optional[int] = None,
    thresholds: Thresholds = Thresholds(),
) -> tuple[HypothesisReport, bool]:
    """Hypotheses of claim ``theorem`` (1-4, numbered as in the module
    docstring) and whether they hold: ``sync_ok`` for claims 1 and 3,
    ``consensus_ok`` for claims 2 and 4.

    Claims 1-3 predict their one outcome or no guarantee; claim 3 predicts
    intra-cluster synchronization at most, even where the consensus
    hypotheses hold too. Claims 1 and 2 on a schedule of two or more
    matrices raise :class:`ClaimError`.
    """
    if theorem not in (1, 2, 3, 4):
        raise ValueError("claim number must be 1, 2, 3 or 4")
    if theorem in (1, 2) and sys.is_switching:
        raise ClaimError(f"claim {theorem} applies to fixed couplings only")
    report = check_switching(sys, window=window, horizon=horizon, thresholds=thresholds)
    ok = report.sync_ok if theorem in (1, 3) else report.consensus_ok
    if theorem != 4:
        claim, outcome = _ONE_OUTCOME[theorem]
        report = replace(report, claim=claim, predicted=outcome if ok else "no-guarantee")
    return report, ok


@dataclass(frozen=True)
class ReconcileResult:
    """Prediction versus observation.

    PASS: predicted behavior observed.  PASS-VACUOUS: no prediction (the
    hypotheses are sufficient only) regardless of what the run did.
    DEGENERATE: consensus predicted generically, synchronization observed,
    but some cluster pair failed to separate.  FAIL: a guaranteed behavior
    did not show up.
    """

    status: str
    predicted: str
    final_diameter: float
    sync_threshold: float
    min_separation: Optional[float]
    separation_threshold: float
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "predicted": self.predicted,
            "final_intra_diameter": self.final_diameter,
            "sync_threshold": self.sync_threshold,
            "min_separation": self.min_separation,
            "separation_threshold": self.separation_threshold,
            "notes": list(self.notes),
        }


def reconcile(
    report: HypothesisReport,
    sys: System,
    x0: np.ndarray,
    final_diameter: float,
    limit: Optional[PeriodicLimit] = None,
    thresholds: Thresholds = Thresholds(),
) -> ReconcileResult:
    """Status of one run from its initial state ``x0``, the intra-cluster
    diameter ``final_diameter`` of its final state and its periodic limit,
    if any; :func:`run` passes the last of :attr:`Outcome.diameters`."""
    clus = sys.clustering
    sync_thr = thresholds.sync_threshold(x0)
    intra_ok = final_diameter < sync_thr

    min_sep: Optional[float] = None
    if limit is not None and clus.k > 1:
        sep = separation_metric(limit)
        off = sep[~np.eye(clus.k, dtype=bool)]
        min_sep = float(off.min())

    notes: tuple[str, ...] = ()
    if report.predicted == "no-guarantee":
        status = "PASS-VACUOUS"
        observed = "synchronization" if intra_ok else "no synchronization"
        notes = (f"hypotheses unmet; observed {observed}",)
    elif not intra_ok:
        status = "FAIL"
        notes = (f"final intra-cluster diameter {final_diameter:.3e} >= {sync_thr:.3e}",)
    elif report.predicted == "intra-sync":
        status = "PASS"
    # cluster consensus predicted
    elif clus.k == 1:
        status = "PASS"
        notes = ("single cluster: separation vacuous",)
    elif limit is None:
        status = "DEGENERATE"
        notes = ("no periodic limit detected at the horizon; separation unverified",)
    elif min_sep > thresholds.separation:
        status = "PASS"
    else:
        status = "DEGENERATE"
        notes = (
            f"smallest cluster-pair separation {min_sep:.3e} <= {thresholds.separation:.1e}",
        )
    return ReconcileResult(
        status, report.predicted, final_diameter, sync_thr, min_sep, thresholds.separation, notes
    )


@dataclass(frozen=True)
class Outcome:
    """The record of one system's run: its states after ``first..horizon``
    steps, the intra-cluster diameter of each and their peak max-norm, the
    periodic limit read off them, if any, and the verdict. With
    ``first > 0``, ``diameters`` and ``peak`` cover only the kept window."""

    traj: Trajectory
    diameters: np.ndarray
    peak: float
    limit: Optional[PeriodicLimit]
    verdict: ReconcileResult


def run(
    systems: Sequence[System],
    x0: np.ndarray,
    reports: Sequence[HypothesisReport],
    horizon: int,
    thresholds: Thresholds = Thresholds(),
    first: int = 0,
) -> list:
    """simulate -> limit -> reconcile for same-size systems, one batch from
    ``x0`` of shape (B, n), keeping the states after ``first..horizon``
    steps; ``first`` may not pass a periodic signal's
    :func:`limit_window_start`. Returns each system's :class:`Outcome`, made
    here once, or the exception that ended its run: a
    :class:`DivergenceError` holds the finite prefix of the run in ``partial``."""
    rows = simulate_batch(systems, x0, horizon, first)

    def outcome(b: int) -> Outcome:
        sys = systems[b]
        if first == 0:
            traj = _checked(rows[:, b])
        elif np.isfinite(rows[:, b]).all():
            traj = Trajectory(rows[:, b])
        else:
            # In matmul 0*inf and 0*NaN are NaN, so a non-finite state stays so: this
            # replay of the batch's bits raises DivergenceError at the first one.
            simulate(sys, x0[b], horizon)
        # Not np.abs(...).max(): no full-size temporary; + 0.0 turns a
        # peak of -0.0 into 0.0, as the absolute value would.
        peak = float(max(traj.states.max(), -traj.states.min())) + 0.0
        diameters = traj.diameter_series(sys.clustering)
        limit = None
        if isinstance(sys.signal, PeriodicInput):
            limit = detect_periodic_limit(
                traj, sys.clustering, sys.signal.period, tol=thresholds.periodic, first=first
            )
        verdict = reconcile(reports[b], sys, x0[b], float(diameters[-1]), limit, thresholds)
        return Outcome(traj, diameters, peak, limit, verdict)

    return [_safe(outcome, b) for b in range(len(systems))]


# ---------------------------------------------------------------------------
# Seeded ensembles.


@dataclass(frozen=True)
class EnsembleSummary:
    total: int
    counts: dict
    exceptions: tuple[str, ...] = ()

    def rate(self, status: str) -> float:
        return self.counts.get(status, 0) / self.total if self.total else 0.0


def _distinct_alphas(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    gaps = rng.uniform(0.3, 1.0, size=k)
    vals = rng.uniform(-1.0, 1.0) + np.cumsum(gaps)
    return tuple(float(v) for v in vals[rng.permutation(k)])


def _random_sizes(rng: np.random.Generator, min_tree_edges: int = 0) -> tuple[int, ...]:
    while True:
        k = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=k))
        if sum(sizes) <= 12 and sum(s - 1 for s in sizes) >= min_tree_edges:
            return sizes


@dataclass(frozen=True)
class EnsembleInstance:
    """One seeded ensemble instance: the system, its checked hypotheses and
    the initial state."""

    system: System
    report: HypothesisReport
    x0: np.ndarray


def ensemble_instance(
    theorem: int,
    seed: int,
    horizon: int,
) -> EnsembleInstance:
    """Generate and check one random instance built to satisfy the
    hypotheses of the given claim (1-4), everything drawn from ``seed``."""
    switching = theorem in (3, 4)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4)) if switching else 1
    sizes = _random_sizes(rng, min_tree_edges=2 if switching else 0)
    spec = GeneratorSpec(
        cluster_sizes=sizes,
        seed=int(rng.integers(2**62)),
        entry_floor=0.05,
        density=float(rng.uniform(0.4, 0.9)),
    )
    clus = spec.clustering()
    if switching:
        coupling = gen_switching_schedule(spec, m=m, window=m)
    else:
        coupling = gen_common_influence_matrix(
            spec, gen_graph_with_cluster_trees(spec)
        )
    T = int(rng.integers(2, 5))
    free = rng.uniform(0.4, 1.6, size=T - 1) * rng.choice([-1.0, 1.0], size=T - 1)
    sig = PeriodicInput(T, tuple(free))
    offsets = ClusterOffsets(clus, _distinct_alphas(rng, clus.k))
    sys = System(coupling=coupling, clustering=clus, offsets=offsets, signal=sig)
    report, _ = check_claim(sys, theorem, window=m, horizon=horizon)
    x0 = rng.uniform(-1.0, 1.0, size=clus.n)
    return EnsembleInstance(sys, report, x0)


def run_ensemble(
    theorem: int,
    count: int,
    seed: int,
    horizon: Optional[int] = None,
) -> EnsembleSummary:
    """Reconcile ``count`` seeded random instances built to satisfy the
    hypotheses of the given claim (1-4); returns status counts.

    Every instance is built first, each from its own seed; instances with
    the same number of agents then advance as one batch.
    """
    if theorem not in (1, 2, 3, 4):
        raise ValueError("claim number must be 1, 2, 3 or 4")
    span = horizon if horizon is not None else (5000 if theorem in (3, 4) else 2000)
    seeds = np.random.default_rng(seed).integers(2**62, size=count)
    results: list = [None] * count
    batches: dict[int, list[tuple[int, EnsembleInstance]]] = {}
    for i, inst_seed in enumerate(seeds):
        inst = _safe(ensemble_instance, theorem, int(inst_seed), span)
        if isinstance(inst, Exception):
            results[i] = inst
        else:
            batches.setdefault(inst.system.n, []).append((i, inst))
    for batch in batches.values():
        index, systems, reports, x0 = zip(*((i, e.system, e.report, e.x0) for i, e in batch))
        first = min(limit_window_start(span + 1, s.signal.period) for s in systems)
        outcomes = _safe(run, systems, np.stack(x0), reports, span, Thresholds(), first)
        if isinstance(outcomes, Exception):
            outcomes = [outcomes] * len(batch)
        # Keep the status only, so each batch's rows are freed in turn.
        for i, out in zip(index, outcomes):
            results[i] = out if isinstance(out, Exception) else out.verdict.status

    counts: dict[str, int] = {}
    errors: list[str] = []
    for result in results:
        if isinstance(result, Exception):
            errors.append(repr(result))
        else:
            counts[result] = counts.get(result, 0) + 1
    return EnsembleSummary(total=count, counts=counts, exceptions=tuple(errors))


def _safe(fn, *args):
    """``fn(*args)``, or the exception it raised. Running out of memory ends
    the whole run, not one instance, so a ``MemoryError`` propagates."""
    try:
        return fn(*args)
    except MemoryError:
        raise
    except Exception as exc:  # surfaced in the summary, not swallowed
        return exc
