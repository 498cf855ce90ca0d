"""Driven averaging dynamics and their asymptotics.

The state update is ``x(t+1) = A(t) x(t) + sigma * u(t)`` where ``A(t)``
cycles through a schedule of stochastic matrices (one matrix for a fixed
coupling), ``sigma`` is a per-cluster offset vector and ``u`` a scalar
signal.  Because the offsets are constant on clusters and the couplings
have inter-cluster common influence, the cluster averages follow the
reduced recursion ``y(t+1) = B y(t) + alpha * u(t)`` with ``B`` the
quotient matrix.

With a zero-sum signal of period ``T`` the reduced state sampled at times
``n T + 1`` converges to ``Z1 y(0) + Z2 alpha`` where ``Z1`` is the limit of
``B`` powers and ``Z2`` the limit of the input convolution sums; per-cluster
trajectories settle on a ``T``-periodic cycle whose levels differ across
clusters for generic data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .graph import Clustering
from .signals import ClusterOffsets, InputBound, PeriodicInput, Signal, eval_u
from .stochastic import ConvergenceError, MatrixSchedule, ScheduleQuotient, power_limit, validate


class DivergenceError(RuntimeError):
    """A simulated state stopped being finite.

    ``partial`` holds the finite prefix of the trajectory when the raiser
    had one, so callers can still emit diagnostics.
    """

    def __init__(self, t: int, partial: Optional[np.ndarray] = None):
        super().__init__(f"non-finite state at step {t}")
        self.t = t
        self.partial = partial


@dataclass(frozen=True)
class System:
    """Driven averaging system over a clustered vertex set.

    ``coupling`` is a :class:`MatrixSchedule`; a bare matrix is taken as
    the one-matrix schedule. ``offsets`` may be None for an undriven run
    (the signal, if any, is then ignored).
    """

    coupling: Union[MatrixSchedule, np.ndarray]
    clustering: Clustering
    offsets: Optional[ClusterOffsets] = None
    signal: Optional[Signal] = None

    def __post_init__(self):
        if not isinstance(self.coupling, MatrixSchedule):
            object.__setattr__(self, "coupling", MatrixSchedule((self.coupling,)))
        n = self.coupling.n
        if n != self.clustering.n:
            raise ValueError(
                f"coupling is {n}-dimensional but clustering covers {self.clustering.n}"
            )
        if self.offsets is not None and self.offsets.clustering.n != n:
            raise ValueError("offsets built on a different vertex set")

    @property
    def n(self) -> int:
        return self.clustering.n

    @property
    def is_switching(self) -> bool:
        return self.coupling.period > 1

    def driven(self) -> bool:
        return self.offsets is not None and self.signal is not None


@dataclass(frozen=True)
class Trajectory:
    """States stacked row-wise; ``states[t]`` is the state after ``t`` steps."""

    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 2:
            raise ValueError("states must be a 2-d array (time, vertex)")
        object.__setattr__(self, "states", s)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def diameter_series(self, clustering: Clustering) -> np.ndarray:
        """Largest intra-cluster state gap of every row."""
        return clustering.spreads(self.states).max(axis=1, initial=0.0)


def _drive(sigma: np.ndarray, signals: Sequence[Signal], horizon: int) -> np.ndarray:
    """Input terms ``sigma u(t)`` of a batch, one per phase, shape (P, B, n, 1).

    ``sigma`` has shape (B, n). P is the least common period of the signals,
    or the horizon when a signal is not periodic or the period is longer.
    """
    periods = [s.period if isinstance(s, PeriodicInput) else horizon for s in signals]
    phases = min(math.lcm(*periods), horizon)
    u = np.empty((phases, len(signals)))
    for b, s in enumerate(signals):
        u[:, b] = np.fromiter((eval_u(s, t) for t in range(phases)), float, count=phases)
    # Silenced as in _advance: an infinite gain times u = 0 is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        return (sigma * u[:, :, None])[..., None]


# Steps between two looks of _advance for a repeated state: a run that
# repeats takes at most this many steps past its first repeat.
_REPEAT_CHECK = 32


def _advance(
    couplings: Sequence[np.ndarray],
    drive: Optional[np.ndarray],
    x0: np.ndarray,
    horizon: int,
    first: int,
) -> np.ndarray:
    """The step loop ``x(t+1) = A(t) x(t) + sigma u(t)`` over a batch of states.

    ``x0`` has shape (B, n). ``couplings[t % len(couplings)]`` is ``A(t)``,
    either one (n, n) matrix shared by the batch or a (B, n, n) stack; the
    arrays are read as given, never copied. ``drive[t % len(drive)]`` is the
    input term (see :func:`_drive`), or ``drive`` is None for an undriven
    batch. Returns the states after ``first..horizon`` steps as an array of
    shape (horizon + 1 - first, B, n).

    Step ``t`` runs the same operations as step ``t - L``, with ``L`` the
    least common multiple of the two lengths. So once the batch state
    ``x(s)`` equals ``x(s - L)`` bit for bit, every later state equals the
    state ``L`` steps before it. When ``L`` is shorter than the horizon, the
    loop compares the two every ``_REPEAT_CHECK`` steps and, on a match,
    copies the last ``L`` states over the rest of the rows instead of
    stepping on: the rows hold the same bits either way. States before
    ``first`` are kept modulo ``L + 1``, or modulo 2 without a check.

    Finiteness is not checked: callers test the rows they keep once, at the
    end. Overflow and invalid-value warnings are silenced because a
    diverging state keeps stepping until then.
    """
    n_couplings = len(couplings)
    n_drives = 0 if drive is None else len(drive)
    period = math.lcm(n_couplings, n_drives or 1)
    repeats = period < horizon
    ring = period + 1 if repeats else 2
    rows = np.empty((horizon + 1 - first,) + x0.shape + (1,))
    held = np.empty((min(ring, first),) + x0.shape + (1,))

    x = x0[..., None]
    (rows[0] if first == 0 else held[0])[...] = x
    stride = _REPEAT_CHECK if repeats else horizon
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon, stride):
            for t in range(start, min(start + stride, horizon)):
                out = rows[t + 1 - first] if t + 1 >= first else held[(t + 1) % ring]
                np.matmul(couplings[t % n_couplings], x, out=out)
                if n_drives:
                    out += drive[t % n_drives]
                x = out
            s = t + 1
            if not repeats or s < period or s == horizon:
                continue
            back = rows[s - period - first] if s - period >= first else held[(s - period) % ring]
            if x.tobytes() == back.tobytes():
                # Row t > s repeats state u in s - L + 1..s with t = u (mod L).
                low = max(s + 1, first)
                for u in range(s + 1 - period, s + 1):
                    rows[low + (u - low) % period - first :: period] = (
                        rows[u - first] if u >= first else held[u % ring]
                    )
                break
    return rows[..., 0]


def _addressable(steps: int, x0: np.ndarray) -> None:
    """Raise ``MemoryError`` when the ``steps + 1`` rows of states that
    :func:`_advance` keeps from ``x0`` pass numpy's index range, which
    numpy refuses with a ``ValueError``."""
    if (steps + 1) * x0.nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"{steps} steps of {x0.size} states pass the addressable size")


def _checked(states: np.ndarray) -> Trajectory:
    """The trajectory, or :class:`DivergenceError` at its first non-finite
    state ``x(t)``, with the states before it as the partial trajectory."""
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        t = int(bad.argmax())
        raise DivergenceError(t, partial=states[:t].copy())
    return Trajectory(states)


def simulate(sys: System, x0: np.ndarray, horizon: int) -> Trajectory:
    """Roll the system forward ``horizon`` steps from ``x0``: a batch of one."""
    return _checked(simulate_batch([sys], np.asarray(x0, dtype=float)[None], horizon)[:, 0])


def simulate_batch(
    systems: Sequence[System], x0: np.ndarray, horizon: int, first: int = 0
) -> np.ndarray:
    """Advance systems of one size together, all driven or all undriven.

    ``x0`` has shape (B, n), one row per system. Returns the states after
    ``first..horizon`` steps, shape (horizon + 1 - first, B, n); row ``i``
    of system ``b`` equals ``simulate(systems[b], x0[b], horizon)`` at step
    ``first + i`` bit for bit, because a stack of matrix-vector products runs
    the same BLAS kernel per system as a single one. Systems on one schedule
    object step on its matrices as given, without a stacked copy. Finiteness
    is not checked: a non-finite state stays non-finite under stochastic
    couplings, so a caller that finds one in the kept rows replays that
    system through :func:`simulate` for its :class:`DivergenceError`.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not 0 <= first <= horizon:
        raise ValueError("first kept step must lie in 0..horizon")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(systems), systems[0].n):
        raise ValueError("need one initial state per system, all of one size")
    driven = {s.driven() for s in systems}
    if len(driven) > 1:
        raise ValueError("a batch must be all driven or all undriven")
    _addressable(horizon - first, x0)
    if all(s.coupling is systems[0].coupling for s in systems):
        couplings = systems[0].coupling.matrices
    else:
        mats = [s.coupling.matrices for s in systems]
        phases = math.lcm(*(len(m) for m in mats))
        couplings = [np.stack([m[t % len(m)] for m in mats]) for t in range(phases)]
    drive = None
    if driven == {True}:
        sigma = np.stack([s.offsets.vector() for s in systems])
        drive = _drive(sigma, [s.signal for s in systems], horizon)
    return _advance(couplings, drive, x0, horizon, first)


@dataclass(frozen=True)
class PeriodicLimit:
    """Per-cluster limit cycle: ``cycles[p, theta]`` is the level of cluster
    ``p`` at times congruent to ``theta`` modulo ``period``."""

    period: int
    cycles: np.ndarray
    residual: float


def limit_window_start(length: int, period: int) -> int:
    """First step :func:`detect_periodic_limit` compares in a run of
    ``length`` states: the final quarter, or more to hold two full periods
    of comparisons."""
    last = length - 1
    return max(min((3 * length) // 4, last - 3 * period + 1), 0)


def detect_periodic_limit(
    traj: Trajectory,
    clustering: Clustering,
    period: int,
    tol: float = 1e-8,
    first: int = 0,
) -> Optional[PeriodicLimit]:
    """Check the trajectory tail for a ``period``-periodic limit.

    Compares ``x(t)`` with ``x(t + period)`` over the final quarter of the
    trajectory (at least two full periods of comparisons) and requires the
    worst residual below ``tol``.  On success the per-cluster cycle is read
    off the last full period, each phase sample averaged over the cluster
    members; returns None when the tail has not settled.

    ``traj`` may hold only the end of a run: ``first`` is then the step of
    ``traj.states[0]``, at most :func:`limit_window_start` of the run.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    length = first + traj.states.shape[0]
    if length < 4 * period:
        raise ValueError(
            f"trajectory too short for period {period}: need at least {4 * period} states"
        )
    last = length - 1
    start = limit_window_start(length, period)
    if start < first:
        raise ValueError(f"states from step {start} needed, trajectory starts at {first}")
    window = traj.states[start - first :]
    diffs = window[period:] - window[:-period]
    residual = float(np.abs(diffs).max())
    if residual >= tol:
        return None
    cycles = np.empty((clustering.k, period))
    for t in range(last - period + 1, last + 1):
        cycles[:, t % period] = clustering.means(traj.states[t - first])
    return PeriodicLimit(period=period, cycles=cycles, residual=residual)


def separation_metric(limit: PeriodicLimit) -> np.ndarray:
    """K-by-K matrix of peak gaps between cluster cycles."""
    c = limit.cycles
    return np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)


def z_limits(
    b: np.ndarray,
    sig: PeriodicInput,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Limits ``Z1`` of the sampled powers and ``Z2`` of the convolution sums.

    ``Z1 = lim B^{nT+1}`` and ``Z2 = lim sum_{k=0..nT} B^{nT-k} u(k)``; the
    sampled reduced state satisfies ``y(nT+1) -> Z1 y(0) + Z2 alpha``.  Each
    eigenvalue ``nu`` of ``B`` maps to the ``Z2`` eigenvalue
    ``sum_{k<T} u(k) nu^k / (1 - nu^T)`` (and to ``u(0)`` at ``nu = 1``) on
    the same left eigenvectors.  Requires positive diagonal entries.
    """
    b = validate(b)
    if np.any(np.diag(b) <= 0):
        raise ValueError("limits require positive diagonal entries")
    z1 = power_limit(b, tol=tol).limit
    T = sig.period
    # One period of the convolution increment: sum_j B^{T-1-j} u((1+j) mod T).
    increment = np.zeros_like(b)
    bt = np.eye(b.shape[0])
    for j in range(T - 1, -1, -1):
        increment += bt * eval_u(sig, (1 + j) % T)
        bt = bt @ b
    # bt now holds B^T.
    z2 = eval_u(sig, 0) * np.eye(b.shape[0])
    for it in range(max_iter):
        nxt = bt @ z2 + increment
        delta = float(np.abs(nxt - z2).max())
        z2 = nxt
        if delta < tol:
            return z1, z2
    raise RuntimeError(f"convolution sums still moving after {max_iter} periods")


@dataclass(frozen=True)
class BoundReport:
    """Observed peak norm against the paper's horizon-free a-priori bound.

    Under inter-cluster common influence with one quotient ``B`` for every
    step, ``x(t) = Phi(t, 0) x(0) + lift(y(t))`` where
    ``y(t+1) = B y(t) + alpha u(t)``, ``y(0) = 0``, so

        ``||x(t)|| <= ||x(0)|| + ||B_inf alpha|| Y_s + ||alpha|| Y_u S``

    in the max norm, with ``Y_u`` and ``Y_s`` the peaks of ``|u|`` and of its
    partial sums and ``S >= sum_j ||B^j - B_inf||``. Where the tolerance
    accepts a nonzero block-sum spread or quotient gap across steps, their
    sum ``e`` widens the ``y`` part by the factor ``1 + horizon K e``. An
    undriven run is bounded by ``||x(0)||``.
    ``applicable`` is False, ``bound`` None and ``note`` says why, without
    common influence, when the quotient varies across the schedule, when
    the input fails the ``input-bounded`` check, or when the quotient's
    powers have no limit.
    """

    max_norm: float
    bound: Optional[float]
    applicable: bool
    note: str = ""


def _power_error_sum(b: np.ndarray, b_inf: np.ndarray) -> float:
    """An upper bound ``S`` on ``sum_j ||B^j - B_inf||`` (max row sum).

    With ``E_j = ||B^j - B_inf||`` and ``s`` the first power with
    ``E_s <= 1/2``, ``B^{ks+r} - B_inf = (B^s - B_inf)^k (B^r - B_inf)``
    gives ``S = sum_{j<s} E_j / (1 - E_s)``. ``b_inf`` is a power of
    ``validate(b)`` formed by right multiplication, as :func:`power_limit`
    returns it, so the walk reaches ``E = 0`` there; where ``validate``
    renormalizes the rows of ``b``, ``E`` only falls to round-off level,
    and the identity holds to within it.
    """
    total = 0.0
    power = np.eye(b.shape[0])
    while True:
        err = float(np.abs(power - b_inf).sum(axis=1).max())
        if err <= 0.5:
            return total / (1.0 - err)
        total += err
        power = power @ b


def boundedness_report(
    sys: System,
    x0: np.ndarray,
    horizon: int,
    peak: float,
    quotient: ScheduleQuotient,
    inputs: Optional[InputBound],
) -> BoundReport:
    """Compare a run's peak max-norm ``peak`` over ``x(0..horizon)`` with the
    a-priori bound of :class:`BoundReport`, computed on the K-by-K quotient.
    ``quotient`` and ``inputs`` are the hypothesis check's
    (:attr:`~cclab.verifier.HypothesisReport.quotient` and ``inputs``)."""
    x0_norm = float(np.abs(x0).max())
    if not sys.driven():
        return BoundReport(peak, x0_norm, True, "undriven: peak equals initial norm bound")
    b = quotient.quotient
    why = ""
    if b is None:
        why = f"no inter-cluster common influence (block-sum spread {quotient.deviation:.3e})"
    elif not quotient.static:
        why = f"quotient varies across the schedule (deviation {quotient.spread:.3e})"
    elif not inputs.bounded:
        why = f"input-bounded fails ({inputs.detail})"
    else:
        try:
            b_inf = power_limit(b).limit
        except (ValueError, ConvergenceError) as exc:
            why = f"quotient powers: {exc}"
    if why:
        return BoundReport(peak, None, False, f"{why}; bound inapplicable")
    alpha = sys.offsets.reduced()
    y_part = (
        float(np.abs(b_inf @ alpha).max()) * inputs.max_partial
        + float(np.abs(alpha).max()) * inputs.max_u * _power_error_sum(b, b_inf)
    )
    widen = horizon * b.shape[0] * (quotient.deviation + quotient.spread)
    return BoundReport(peak, x0_norm + y_part * (1.0 + widen), True)
