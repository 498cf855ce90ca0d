"""Artifact emission: trajectory/belief/zeta CSVs, metrics JSON, check tables.

Everything numeric is printed with 17 significant digits so artifacts
round-trip losslessly; agents, clusters, and states are rendered 1-based.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence, Union

import numpy as np

from .dynamics import BoundReport, PeriodicLimit, Trajectory, separation_metric
from .learning import LearningRun
from .stochastic import MATRIX_NORM, STATE_NORM
from .verifier import EnsembleSummary, HypothesisReport, ReconcileResult


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# Distinct rows whose text is kept for reuse: a trajectory or belief history
# that settles onto a limit cycle of at most this period is formatted once
# per cycle row.
_ROW_MEMO = 16


def _memo_format(memo: dict[bytes, str], template: str, row: np.ndarray) -> str:
    """``template % row``, reusing the text of the last ``_ROW_MEMO`` distinct
    rows in ``memo``, keyed by their bytes and evicted first in, first out."""
    key = row.tobytes()
    text = memo.get(key)
    if text is None:
        if len(memo) == _ROW_MEMO:
            del memo[next(iter(memo))]
        text = memo[key] = template % tuple(row.ravel().tolist())
    return text


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    n = traj.n
    template = ",".join(["%.17g"] * n) + "\n"
    memo: dict[bytes, str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(n)) + "\n")
        for t, state in enumerate(traj.states):
            fh.write(f"{t},{_memo_format(memo, template, state)}")


def write_belief_csv(path: str, run: LearningRun) -> None:
    # One line per (agent, state), each with the step t and the belief. A
    # step's text keeps a %d per line for t, so '%' in a label is doubled
    # twice to survive both formatting passes.
    lines = run.n * run.m
    template = "".join(
        f"%%d,{i + 1},{label.replace('%', '%%%%')},%.17g\n"
        for i in range(run.n)
        for label in map(str, run.labels)
    )
    memo: dict[bytes, str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,agent,state,belief\n")
        for t, profile in enumerate(run.beliefs):
            fh.write(_memo_format(memo, template, profile) % ((t,) * lines))


def write_zeta_csv(path: str, zeta: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,zeta\n")
        for t, z in enumerate(zeta):
            fh.write(f"{t},{_fmt(z)}\n")


def _json_text(doc: dict) -> str:
    """``doc`` as cclab writes JSON. A NaN or an infinity raises
    ``ValueError``: JSON has no such number, and cclab's own reader
    refuses the tokens Python would write for them."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str, doc: Union[dict, str]) -> None:
    """Write ``doc``, or its :func:`_json_text`, to ``path``. The text is
    made before the file is opened, so a document that cannot be written
    leaves no file."""
    text = doc if isinstance(doc, str) else _json_text(doc)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _limit_doc(limit: Optional[PeriodicLimit]) -> Optional[dict]:
    if limit is None:
        return None
    return {
        "period": limit.period,
        "cycles": [[float(v) for v in row] for row in limit.cycles],
        "residual": limit.residual,
    }


def _bound_doc(bound: Optional[BoundReport]) -> Optional[dict]:
    if bound is None:
        return None
    return {
        "max_norm": bound.max_norm,
        "bound": bound.bound,
        "applicable": bound.applicable,
        "note": bound.note,
    }


def metrics_document(
    digest: str,
    seed: Optional[int],
    label: str,
    traj: Trajectory,
    diameters: np.ndarray,
    report: Optional[HypothesisReport] = None,
    verdict: Optional[ReconcileResult] = None,
    limit: Optional[PeriodicLimit] = None,
    bound: Optional[BoundReport] = None,
) -> dict:
    sep = separation_metric(limit).tolist() if limit is not None else None
    return {
        "label": label,
        "config_sha256": digest,
        "seed": seed,
        "horizon": traj.horizon,
        "norms": {"matrix": MATRIX_NORM, "state": STATE_NORM},
        "max_norm": traj.max_norm(),
        "intra_diameter_series": [float(d) for d in diameters],
        "final_intra_diameter": float(diameters[-1]),
        "separation_matrix": sep,
        "periodic_limit": _limit_doc(limit),
        "bound_report": _bound_doc(bound),
        "hypotheses": report.to_dict() if report is not None else None,
        "reconcile": verdict.to_dict() if verdict is not None else None,
        "notes": [],
    }


def render_condition_table(report: HypothesisReport) -> str:
    name_w = max(len("condition"), max(len(c.name) for c in report.conditions))
    lines = [
        f"claim: {report.claim}    predicted: {report.predicted}",
        f"{'condition'.ljust(name_w)}  verdict  detail",
        f"{'-' * name_w}  -------  {'-' * 40}",
    ]
    for c in report.conditions:
        verdict = "pass" if c.passed else "FAIL"
        lines.append(f"{c.name.ljust(name_w)}  {verdict.ljust(7)}  {c.detail}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_ensemble(summary: EnsembleSummary) -> str:
    lines = [f"instances: {summary.total}"]
    for status in ("PASS", "PASS-VACUOUS", "DEGENERATE", "FAIL"):
        if status in summary.counts:
            lines.append(f"{status}: {summary.counts[status]}")
    for status, cnt in sorted(summary.counts.items()):
        if status not in ("PASS", "PASS-VACUOUS", "DEGENERATE", "FAIL"):
            lines.append(f"{status}: {cnt}")
    if summary.exceptions:
        lines.append(f"errors: {len(summary.exceptions)}")
        lines.extend(f"  {e}" for e in summary.exceptions[:5])
    return "\n".join(lines)
