"""Row-stochastic matrix analytics for clustered networks.

Matrices are plain ``numpy`` arrays validated by :func:`validate`; rows are
agents, ``a[i, j]`` is the weight agent ``i`` places on agent ``j``.

Two scalar functionals drive the convergence arguments, both taken over
same-cluster pairs only:

* the cluster ergodicity coefficient
  ``min_p min_{i,j in C_p} sum_k min(a[i,k], a[j,k])``, positive exactly when
  the support graph is cluster-scrambling;
* the cluster Hajnal diameter ``max_p max_{i,j in C_p} ||a[i] - a[j]||_1``
  (for states, ``max |x_i - x_j|``), which contracts under left products by
  matrices with inter-cluster common influence.

Row differences use the l1 norm throughout; reports record that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import Clustering

ROW_SUM_TOL = 1e-9
COMMON_INFLUENCE_TOL = 1e-9

MATRIX_NORM = "l1-row-difference"
STATE_NORM = "max-abs-difference"


class ConvergenceError(RuntimeError):
    """Power iteration did not settle within the allowed number of steps."""


def validate(raw: np.ndarray, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Return a validated row-stochastic copy of ``raw``.

    Entries must be nonnegative and every row sum must lie within ``tol`` of
    one; rows are then renormalized to sum to one exactly (in floating
    point).  Violations raise ``ValueError``.
    """
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.any(a < 0):
        i, j = np.argwhere(a < 0)[0]
        raise ValueError(f"negative entry at ({i}, {j}): {a[i, j]}")
    sums = a.sum(axis=1)
    drift = np.abs(sums - 1.0)
    if np.any(drift > tol):
        i = int(np.argmax(drift))
        raise ValueError(f"row {i} sums to {sums[i]}, beyond tolerance {tol}")
    return a / sums[:, None]


def ergodicity_coefficient(a: np.ndarray, clustering: Clustering) -> float:
    """Minimum over same-cluster row pairs of the shared mass
    ``sum_k min(a[i,k], a[j,k])``; singleton clusters contribute 1."""
    a = np.asarray(a, dtype=float)
    mu = 1.0
    for members in clustering.clusters:
        if len(members) < 2:
            continue
        rows = a[list(members)]
        shared = np.minimum(rows[:, None, :], rows[None, :, :]).sum(axis=2)
        iu = np.triu_indices(len(members), k=1)
        mu = min(mu, float(shared[iu].min()))
    return mu


def hajnal_diameter(a: np.ndarray, clustering: Clustering) -> float:
    """Largest l1 distance between same-cluster rows."""
    a = np.asarray(a, dtype=float)
    diam = 0.0
    for members in clustering.clusters:
        if len(members) < 2:
            continue
        rows = a[list(members)]
        dist = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
        diam = max(diam, float(dist.max()))
    return diam


@dataclass(frozen=True)
class ScheduleQuotient:
    """Per-step common influence (B3) and a static quotient (B3*) across a
    list of couplings.

    ``deviation`` is the worst block-sum spread over the couplings: how far
    the sum of a row over one cluster varies between the rows of another,
    zero exactly under inter-cluster common influence. Within
    the tolerance, ``quotient`` is the first coupling's quotient matrix and
    ``spread`` the largest entry gap between any coupling's quotient and
    it; both are None otherwise. ``static`` holds when ``spread`` is at most
    ten times the tolerance (never less than ``1e-11``).
    """

    deviation: float
    quotient: Optional[np.ndarray]
    spread: Optional[float]
    static: bool


def schedule_quotient(
    matrices: Sequence[np.ndarray],
    clustering: Clustering,
    tol: float = COMMON_INFLUENCE_TOL,
) -> ScheduleQuotient:
    """The B3 and B3* verdicts of ``matrices`` at common-influence tolerance
    ``tol``; see :class:`ScheduleQuotient`."""
    # tables[l][i, q] is the sum of row i of matrix l over cluster C_q.
    tables = [clustering.sums(np.asarray(m, dtype=float)) for m in matrices]
    deviation = max(float(clustering.spreads(t.T).max()) for t in tables)
    if deviation > tol:
        return ScheduleQuotient(deviation, None, None, False)
    # Each quotient is its table's rows at the first vertex of each cluster.
    firsts = clustering.order[clustering.starts]
    row_tol = max(ROW_SUM_TOL, clustering.k * tol)
    quotients = [validate(t[firsts], tol=row_tol) for t in tables]
    spread = max(float(np.abs(q - quotients[0]).max()) for q in quotients)
    return ScheduleQuotient(deviation, quotients[0], spread, spread <= max(tol, 1e-12) * 10)


@dataclass(frozen=True)
class MatrixSchedule:
    """Finite list of stochastic matrices cycled periodically; a fixed
    coupling is the one-matrix schedule.

    ``floor`` is the positivity floor the schedule is meant to satisfy
    (every nonzero entry and every diagonal entry at least ``floor``).  It
    is recorded, not enforced, so that the hypothesis check's
    ``entry-floor-b1`` and ``diagonal-floor-b2`` rows report a violation
    instead of the constructor hiding it.
    When ``floor`` is omitted it defaults to the smallest positive entry
    found across the schedule.
    """

    matrices: tuple[np.ndarray, ...]
    floor: Optional[float] = None

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("schedule needs at least one matrix")
        mats = tuple(validate(m) for m in self.matrices)
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise ValueError("schedule matrices have mismatched sizes")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if self.floor is None:
            object.__setattr__(self, "floor", min(float(m[m > 0].min()) for m in mats))
        elif not 0 < self.floor <= 1:
            raise ValueError("floor must lie in (0, 1]")

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def period(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class PowerLimit:
    """Limit of matrix powers: ``limit`` is ``A^steps``, the first power
    within the tolerance of the one before it."""

    limit: np.ndarray
    steps: int


def power_limit(
    a: np.ndarray, tol: float = 1e-12, max_iter: int = 50_000
) -> PowerLimit:
    """Iterate ``A^t`` until successive powers differ by less than ``tol``.

    Convergence requires every diagonal entry positive (otherwise powers may
    cycle); a run past ``max_iter`` raises :class:`ConvergenceError`.
    """
    a = validate(a)
    if np.any(np.diag(a) <= 0):
        raise ValueError("power limit requires positive diagonal entries")
    power = a.copy()
    steps = 1
    while True:
        nxt = power @ a
        delta = float(np.abs(nxt - power).max())
        power = nxt
        steps += 1
        if delta < tol:
            return PowerLimit(limit=power, steps=steps)
        if steps > max_iter:
            raise ConvergenceError(
                f"powers still moving after {max_iter} steps (last delta {delta:.3e})"
            )
