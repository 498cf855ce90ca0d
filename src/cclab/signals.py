"""Scalar input signals and per-cluster offset gains.

The driven dynamics add ``sigma * u(t)`` to the averaging step, where the
offset vector ``sigma`` is constant within each cluster and ``u`` is a shared
scalar signal.  The workhorse is the zero-sum periodic signal: a period ``T``
and free values ``u(1), ..., u(T-1)``, with the value at phase zero defined
as ``-(u(1) + ... + u(T-1))`` so every full period sums to zero.  Bounded
aperiodic signals are supported behind the same ``value(t)`` interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .graph import Clustering


class Signal(Protocol):
    def value(self, t: int) -> float: ...


@dataclass(frozen=True)
class PeriodicInput:
    """Zero-sum periodic signal; ``free_values`` are the phases 1..T-1."""

    period: int
    free_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be at least 1")
        vals = tuple(float(v) for v in self.free_values)
        if len(vals) != self.period - 1:
            raise ValueError(
                f"period {self.period} needs {self.period - 1} free values, got {len(vals)}"
            )
        object.__setattr__(self, "free_values", vals)

    def value(self, t: int) -> float:
        theta = t % self.period
        if theta == 0:
            return -float(sum(self.free_values))
        return self.free_values[theta - 1]


@dataclass(frozen=True)
class SequenceInput:
    """Explicit finite signal for bounded aperiodic experiments."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def value(self, t: int) -> float:
        if not 0 <= t < len(self.values):
            raise IndexError(f"signal defined on 0..{len(self.values) - 1}, got {t}")
        return self.values[t]


def eval_u(sig: Signal, t: int) -> float:
    if t < 0:
        raise ValueError("signals are defined for t >= 0")
    return float(sig.value(t))


def partial_sum_bound(sig: Signal, horizon: int) -> tuple[float, float]:
    """Exact maxima of ``|u(t)|`` and ``|sum_{k<=t} u(k)|`` over ``0..horizon``."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    max_u = 0.0
    max_partial = 0.0
    acc = 0.0
    for t in range(horizon + 1):
        u = eval_u(sig, t)
        acc += u
        max_u = max(max_u, abs(u))
        max_partial = max(max_partial, abs(acc))
    return max_u, max_partial


@dataclass(frozen=True)
class ClusterOffsets:
    """Per-cluster gains ``alpha_1..alpha_K``.

    Gains may repeat: distinct gains are a hypothesis of cluster consensus
    (the ``distinct-inputs`` check), not a rule of the input.
    """

    clustering: Clustering
    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) != self.clustering.k:
            raise ValueError(
                f"need one gain per cluster ({self.clustering.k}), got {len(alphas)}"
            )

    def vector(self) -> np.ndarray:
        """Expanded length-n gain vector, constant on each cluster."""
        return np.array(self.alphas)[self.clustering.labels()]

    def reduced(self) -> np.ndarray:
        return np.array(self.alphas, dtype=float)
