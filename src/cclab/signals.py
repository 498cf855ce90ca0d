"""Scalar input signals.

The driven dynamics add ``sigma * u(t)`` to the averaging step, where the
gain vector ``sigma`` is constant within each cluster and ``u`` is a shared
scalar signal.  The workhorse is the zero-sum periodic signal: a period ``T``
and free values ``u(1), ..., u(T-1)``, with the value at phase zero defined
as ``-(u(1) + ... + u(T-1))`` so every full period sums to zero.  Bounded
aperiodic signals are supported behind the same ``value(t)`` interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np



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


def _partial_sums(sig: Signal, last: int) -> tuple[np.ndarray, np.ndarray]:
    """``|u(t)|`` and ``|u(0) + ... + u(t)|`` for ``t`` in ``0..last``, summed in order."""
    u = np.fromiter((eval_u(sig, t) for t in range(last + 1)), float)
    return np.abs(u), np.abs(np.cumsum(u))


def partial_sum_bound(sig: Signal, horizon: int) -> tuple[float, float]:
    """Exact maxima of ``|u(t)|`` and ``|sum_{k<=t} u(k)|`` over ``0..horizon``."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    u, sums = _partial_sums(sig, horizon)
    return float(u.max()), float(sums.max())


@dataclass(frozen=True)
class InputBound:
    """The peaks ``Y_u`` of ``|u|`` and ``Y_s`` of its partial sums, whether
    they bound the input, and the ``input-bounded`` detail."""

    max_u: float
    max_partial: float
    bounded: bool
    detail: str


def input_bound(sig: Signal, horizon: Optional[int] = None) -> InputBound:
    """The one input rule: a periodic signal is scanned over two periods, any
    other over ``u(0..horizon-1)``, the inputs a run of ``horizon`` steps
    reads (1000 by default), and fails where a value is undefined or where
    its partial sums pass their peak at the half-way step by a relative
    1e-9. A non-finite value or partial sum always fails."""
    if isinstance(sig, PeriodicInput):
        max_u, max_partial = partial_sum_bound(sig, 2 * sig.period)
        scan, growing = "periodic zero-sum signal", False
    else:
        span = 1000 if horizon is None else horizon
        try:
            u, sums = _partial_sums(sig, span - 1)
        except IndexError:
            return InputBound(math.nan, math.nan, False, f"signal undefined across horizon {span}")
        max_u, max_partial = float(u.max(initial=0.0)), float(sums.max(initial=0.0))
        # sums[: (span + 1) // 2] ends at the half-way step (span - 1) // 2.
        growing = max_partial > sums[: (span + 1) // 2].max(initial=0.0) * (1 + 1e-9)
        scan = f"empirical over 0..{span - 1}"
    # A non-finite value leaves every later partial sum non-finite.
    finite = math.isfinite(max_partial)
    detail = (
        f"{scan}: |u| <= {max_u:.6g}, |partial sums| <= {max_partial:.6g}"
        + ("; still growing in the tail" if growing else "")
        + ("" if finite else "; not finite")
    )
    return InputBound(max_u, max_partial, finite and not growing, detail)
