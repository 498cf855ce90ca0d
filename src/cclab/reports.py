"""Artifact emission: trajectory/belief/zeta CSVs, metrics JSON, check tables.

CSV numbers are printed with 17 significant digits and JSON floats with
Python's shortest round-trip ``repr``, so artifacts round-trip losslessly;
agents, clusters, and states are rendered 1-based.

A run that settles onto a limit cycle repeats most of its numbers, so the
writers format each distinct value once, in one C-level ``%`` call, and
index the texts back into place.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .dynamics import BoundReport, PeriodicLimit, Trajectory, separation_metric
from .learning import LearningRun
from .stochastic import MATRIX_NORM, STATE_NORM
from .verifier import EnsembleSummary, HypothesisReport, Outcome

# Rows formatted together: a CSV writer holds one block's text at a time.
_BLOCK = 128
# Rows whose text a block hands on to the next: a trajectory or belief
# history that settles onto a limit cycle of at most this period is
# formatted once per cycle row.
_ROW_MEMO = 16


def _texts(values: np.ndarray, spec: str = "%.17g") -> np.ndarray:
    """``spec % v`` for each value of a float array, as an object array of
    the same shape.

    Each distinct bit pattern is formatted once; keying on the ``int64``
    view keeps -0.0 apart from 0.0."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = ((spec + "\n") * len(distinct) % tuple(distinct.view(np.float64).tolist())).split("\n")
    return np.array(texts, dtype=object)[inverse.reshape(values.shape)]


def _row_blocks(
    history: np.ndarray, compose: Callable[[list[str]], Any]
) -> Iterator[tuple[int, list]]:
    """``(t0, rows)`` for each block of ``_BLOCK`` rows of a 2-D history,
    where ``rows[k]`` is ``compose`` of the texts of row ``t0 + k``.

    A row repeating one met earlier in its block, or among the last
    ``_ROW_MEMO`` rows of the block before, reuses that row's result."""
    history = np.ascontiguousarray(history, dtype=np.float64)
    n = history.shape[1]
    rows = history.view(np.dtype((np.void, 8 * n))).reshape(len(history))
    memo: dict[bytes, Any] = {}
    for t0 in range(0, len(history), _BLOCK):
        keys = rows[t0 : t0 + _BLOCK].tolist()
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        values = np.frombuffer(b"".join(fresh)).reshape(-1, n)
        memo.update(zip(fresh, map(compose, _texts(values).tolist())))
        yield t0, list(map(memo.__getitem__, keys))
        memo = {key: memo[key] for key in keys[-_ROW_MEMO:]}


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(traj.n)) + "\n")
        for t0, rows in _row_blocks(traj.states, ",".join):
            fh.write("".join([f"{t},{row}\n" for t, row in enumerate(rows, t0)]))


def write_belief_csv(path: str, run: LearningRun) -> None:
    # One line per (agent, state), each with the step t and the belief: a
    # step's text is str(t) joined between the lines' tails.
    heads = [f",{i + 1},{label}," for i in range(run.n) for label in map(str, run.labels)]

    def tails(texts: list[str]) -> list[str]:
        return ["", *[f"{head}{text}\n" for head, text in zip(heads, texts)]]

    profiles = run.beliefs.reshape(run.horizon + 1, run.n * run.m)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,agent,state,belief\n")
        for t0, steps in _row_blocks(profiles, tails):
            fh.write("".join([str(t).join(step) for t, step in enumerate(steps, t0)]))


def write_zeta_csv(path: str, zeta: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,zeta\n")
        fh.write("".join([f"{t},{z}\n" for t, z in enumerate(_texts(zeta).tolist())]))


def _json_text(doc: dict) -> str:
    """``doc`` as cclab writes JSON: ``json.dumps`` with ``indent=2`` and
    sorted keys, plus a newline. A NaN or an infinity raises
    ``ValueError``: JSON has no such number, and cclab's own reader
    refuses the tokens Python would write for them.

    ``json``'s indenting encoder is pure Python, so a top-level list of
    finite floats (the diameter series) is written from the ``repr`` of
    its distinct values; every other value is dumped alone and indented
    one level, which gives the same text."""
    if not (isinstance(doc, dict) and doc and all(type(key) is str for key in doc)):
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    members = []
    for key in sorted(doc):
        value = doc[key]
        if type(value) is list and set(map(type, value)) == {float} and np.isfinite(value).all():
            text = "[\n    " + ",\n    ".join(_texts(value, "%r").tolist()) + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            text = text.replace("\n", "\n  ")
        members.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}\n"


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


def metrics_document(
    digest: str,
    seed: Optional[int],
    label: str,
    outcome: Outcome,
    bound: BoundReport,
    report: HypothesisReport,
) -> dict:
    """``metrics.json`` of a config run: ``outcome`` is its record, kept
    from step 0, so its diameter series has ``horizon + 1`` entries."""
    limit, verdict = outcome.limit, outcome.verdict
    sep = separation_metric(limit).tolist() if limit is not None else None
    return {
        "label": label,
        "config_sha256": digest,
        "seed": seed,
        "horizon": len(outcome.diameters) - 1,
        "norms": {"matrix": MATRIX_NORM, "state": STATE_NORM},
        "max_norm": bound.max_norm,
        "intra_diameter_series": [float(d) for d in outcome.diameters],
        "final_intra_diameter": verdict.final_diameter,
        "separation_matrix": sep,
        "periodic_limit": _limit_doc(limit),
        "bound_report": dataclasses.asdict(bound),
        "hypotheses": report.to_dict(),
        "reconcile": verdict.to_dict(),
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
