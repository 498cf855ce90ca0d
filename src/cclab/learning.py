"""Simplified non-Bayesian social learning over a clustered network.

Each agent carries a belief vector over a finite state set.  For every state
the update is the plain driven averaging step with per-cluster gain
``strength * sigma_k(state)``: neighbors are averaged, then a small periodic
cultural push is added.  The push rows sum to zero across states, so each
agent's beliefs keep summing to one; nothing projects them back into [0, 1],
which is why runs monitor the range.  Excursions inside ``slack`` are logged,
excursions beyond it abort with an error naming the strength.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DivergenceError, System, simulate_batch
from .graph import Clustering
from .signals import ClusterOffsets

DEFAULT_SLACK = 0.1
_LOG_CAP = 64


class BeliefRangeError(RuntimeError):
    """A belief left [-slack, 1 + slack]; the influence strength is too large."""

    def __init__(self, t: int, agent: int, state: int, value: float, strength: float):
        self.t = t
        self.agent = agent
        self.state = state
        self.value = value
        self.strength = strength
        super().__init__(
            f"belief {value:.6g} of agent {agent + 1}, state {state + 1} left the"
            f" admissible range at step {t}; reduce the influence strength"
            f" c={strength:.6g}"
        )


def _default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"theta_{s + 1}" for s in range(m))


@dataclass(frozen=True)
class BeliefProfile:
    """Row ``i`` is agent ``i``'s probability vector over the states."""

    beliefs: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        b = np.array(self.beliefs, dtype=float)
        if b.ndim != 2 or b.size == 0:
            raise ValueError("beliefs must be a nonempty agents x states matrix")
        if not np.isfinite(b).all():
            raise ValueError("beliefs must be finite")
        drift = np.abs(b.sum(axis=1) - 1.0).max()
        if drift > 1e-9:
            raise ValueError(f"agent belief sums deviate from 1 by {drift:.3e}")
        b.setflags(write=False)
        object.__setattr__(self, "beliefs", b)
        labels = tuple(self.labels) or _default_labels(b.shape[1])
        if len(labels) != b.shape[1]:
            raise ValueError("one label per state required")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.beliefs.shape[0]

    @property
    def m(self) -> int:
        return self.beliefs.shape[1]

    @classmethod
    def uniform(cls, n: int, m: int) -> "BeliefProfile":
        return cls(np.full((n, m), 1.0 / m))

    @classmethod
    def random(cls, rng: np.random.Generator, n: int, m: int) -> "BeliefProfile":
        return cls(rng.dirichlet(np.ones(m), size=n))


@dataclass(frozen=True)
class CulturalFlags:
    """Per-cluster push directions ``table[k, state]`` with zero row sums."""

    table: np.ndarray
    strength: float = 0.01

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 2 or t.size == 0:
            raise ValueError("flag table must be a nonempty clusters x states matrix")
        if not np.isfinite(t).all():
            raise ValueError("flags must be finite")
        worst = np.abs(t.sum(axis=1)).max()
        if worst > 1e-9:
            raise ValueError(f"flag rows must sum to zero (worst {worst:.3e})")
        if self.strength < 0:
            raise ValueError("strength must be nonnegative")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "strength", float(self.strength))

    @property
    def k(self) -> int:
        return self.table.shape[0]

    @property
    def m(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class ValidityLog:
    """Range monitoring: beliefs that strayed outside [0, 1] (within slack)."""

    ok: bool
    count: int
    worst_low: float
    worst_high: float
    excursions: tuple[tuple[int, int, int, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "excursion_count": self.count,
            "lowest_belief": self.worst_low,
            "highest_belief": self.worst_high,
            "first_excursions": [
                {"t": t, "agent": a + 1, "state": s + 1, "belief": v}
                for (t, a, s, v) in self.excursions
            ],
        }


@dataclass(frozen=True)
class LearningRun:
    """Belief history ``beliefs[t, agent, state]`` plus range diagnostics."""

    beliefs: np.ndarray
    clustering: Clustering
    flags: CulturalFlags
    validity: ValidityLog
    labels: tuple[str, ...]

    @property
    def horizon(self) -> int:
        return self.beliefs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.beliefs.shape[1]

    @property
    def m(self) -> int:
        return self.beliefs.shape[2]

    def zeta_series(self, p: int, q: int, state: int) -> np.ndarray:
        """|cluster-p mean - cluster-q mean| of the given state's belief,
        one value per recorded step."""
        if p == q:
            raise ValueError("zeta compares two distinct clusters")
        means = self.clustering.means(self.beliefs[:, :, state])
        return np.abs(means[:, p] - means[:, q])

    def sum_drift(self) -> float:
        """Worst deviation of any agent's belief sum from one, over the run."""
        return float(np.abs(self.beliefs.sum(axis=2) - 1.0).max())


def _validity(rows: np.ndarray, slack: float, strength: float) -> ValidityLog:
    """Range log of a run, ``rows[t, state, agent]`` after ``t`` steps.

    States are scanned one after another, each in step order, as a per-state
    run would meet them: the first non-finite row raises
    :class:`DivergenceError`, the first row beyond the slack band
    :class:`BeliefRangeError`. A row outside [0, 1] within the band logs its
    worst agent, the lowest if it is below 0.
    """
    # [state, t - 1]: each state's rows after t = 1..horizon steps.
    x = rows[1:].transpose(1, 0, 2)
    lo, hi = x.argmin(axis=2), x.argmax(axis=2)
    low = np.take_along_axis(x, lo[..., None], axis=2)[..., 0]
    high = np.take_along_axis(x, hi[..., None], axis=2)[..., 0]
    finite = np.isfinite(x).all(axis=2)
    too_low = low < -slack - 1e-12
    fatal = ~finite | too_low | (high > 1.0 + slack + 1e-12)
    if fatal.any():
        s, t = np.unravel_index(int(fatal.argmax()), fatal.shape)
        if not finite[s, t]:
            raise DivergenceError(int(t) + 1)
        agent, value = (lo, low) if too_low[s, t] else (hi, high)
        raise BeliefRangeError(int(t) + 1, int(agent[s, t]), int(s), float(value[s, t]), strength)
    below = low < -1e-12
    stray = below | (high > 1.0 + 1e-12)
    agents = np.where(below, lo, hi)[stray]
    values = np.where(below, low, high)[stray]
    states, steps = np.nonzero(stray)
    excursions = zip(
        (steps[:_LOG_CAP] + 1).tolist(),
        agents[:_LOG_CAP].tolist(),
        states[:_LOG_CAP].tolist(),
        values[:_LOG_CAP].tolist(),
    )
    return ValidityLog(
        ok=not values.size,
        count=values.size,
        worst_low=float(np.min(values, initial=0.0)),
        worst_high=float(np.max(values, initial=1.0)),
        excursions=tuple(excursions),
    )


def learn_simulate(
    sys: System,
    flags: CulturalFlags,
    profile0: BeliefProfile,
    horizon: int,
    slack: float = DEFAULT_SLACK,
) -> LearningRun:
    """Run the belief dynamics of ``sys`` for ``horizon`` steps.

    The coupling, clustering and signal come from ``sys``; the flags, not
    the system's offsets, set the per-cluster drive. States evolve
    independently (the update is linear per state): state ``s`` is ``sys``
    with the gains ``strength * flags[:, s]``, and all states advance as one
    :func:`simulate_batch` batch on the shared schedule.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    # Python floats: an overflowing gain is inf, with no warning.
    systems = [
        replace(sys, offsets=ClusterOffsets(sys.clustering, [flags.strength * f for f in col]))
        for col in flags.table.T.tolist()
    ]
    rows = simulate_batch(systems, np.ascontiguousarray(profile0.beliefs.T), horizon)
    return LearningRun(
        beliefs=rows.transpose(0, 2, 1),
        clustering=sys.clustering,
        flags=flags,
        validity=_validity(rows, slack, flags.strength),
        labels=profile0.labels,
    )
