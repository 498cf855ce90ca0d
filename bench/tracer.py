"""Spans around the calls into cclab's modules, installed from outside.

While a :meth:`Tracer.active` block runs, every public function and public
method of each layer module is replaced by a wrapper: at the defining module,
at every module that bound the same object with ``from .x import y`` (so
``cli.simulate`` and ``verifier.simulate`` are wrapped, not only
``dynamics.simulate``), and on the class for methods. The originals are put
back when the block ends, so untraced runs execute the program unchanged.

Time is attributed from the spans alone. Between two consecutive span events
(in any thread) the elapsed wall time is split equally among the *running
leaves*: the innermost open span of each thread, unless that span is waiting
for child spans open in another thread. A span's self time is therefore its
duration minus the part of it that its children cover, and the self times of
all layers plus the time with no running leaf (``unattributed_s``) add up to
the traced wall time exactly, also when a thread pool runs spans in parallel.
A span opened by a thread that has no open span takes the innermost open span
of the thread that started tracing as its parent, which is the caller that
handed it the work (the benchmark drives the program from one thread).

Calls made once per simulation step or trajectory row are counted or skipped
(``counted``, ``skipped``): timing them would cost more than the calls
themselves, so their time stays in the caller's span.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Mapping, Optional


class Frame:
    """One open span."""

    __slots__ = ("layer", "name", "groups", "foreign_parent", "waiting")

    def __init__(self, layer, name, groups, foreign_parent):
        self.layer = layer
        self.name = name
        self.groups = groups
        self.foreign_parent = foreign_parent
        self.waiting = 0


class Tracer:
    """Collects self time per layer, inclusive time per group of functions,
    call counts and counters fed by result hooks.

    ``groups`` maps a qualified name (``"dynamics.simulate"``) to the group
    whose inclusive time it feeds; time inside nested members of one group
    is counted once. ``counted`` names are counted, not timed; ``skipped``
    names are left unwrapped. ``hooks`` map
    a qualified name to a callable receiving ``(tracer, result)``.
    """

    def __init__(
        self,
        groups: Optional[Mapping[str, str]] = None,
        counted: Iterable[str] = (),
        skipped: Iterable[str] = (),
        hooks: Optional[Mapping[str, Callable]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.groups = dict(groups or {})
        self.counted = frozenset(counted)
        self.skipped = frozenset(skipped)
        self.hooks = dict(hooks or {})
        self.clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Frame]] = {}
        self._main: Optional[int] = None
        self._last = 0.0
        self._started = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.exceptions: Counter = Counter()
        self.counters: Counter = Counter()
        self.unattributed_s = 0.0
        self.wall_s = 0.0

    def layer_calls(self, layer: str) -> int:
        """Calls into ``layer``, timed or only counted."""
        prefix = layer + "."
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    # -- clock and attribution -------------------------------------------

    def start(self, thread: Optional[int] = None) -> None:
        with self._lock:
            self._main = threading.get_ident() if thread is None else thread
            self._last = self._started = self.clock()

    def stop(self) -> None:
        with self._lock:
            now = self.clock()
            self._advance(now)
            self.wall_s += now - self._started

    def _advance(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        running = [s[-1] for s in self._stacks.values() if not s[-1].waiting]
        if not running:
            self.unattributed_s += dt
            return
        share = dt / len(running)
        for frame in running:
            self.self_s[frame.layer] += share
            for group in frame.groups:
                self.group_s[group] += share

    def enter(self, layer: str, name: str, thread: Optional[int] = None) -> Frame:
        tid = threading.get_ident() if thread is None else thread
        own = self.groups.get(name)
        with self._lock:
            self._advance(self.clock())
            stack = self._stacks.get(tid)
            foreign = None
            if stack:
                inherited = stack[-1].groups
            else:
                stack = self._stacks[tid] = []
                main = self._stacks.get(self._main) if tid != self._main else None
                foreign = main[-1] if main else None
                inherited = foreign.groups if foreign else frozenset()
                if foreign is not None:
                    foreign.waiting += 1
            groups = inherited | {own} if own else inherited
            frame = Frame(layer, name, groups, foreign)
            stack.append(frame)
            self.calls[name] += 1
        return frame

    def exit(
        self, frame: Frame, failed: bool = False, thread: Optional[int] = None
    ) -> None:
        tid = threading.get_ident() if thread is None else thread
        with self._lock:
            self._advance(self.clock())
            stack = self._stacks[tid]
            if stack.pop() is not frame:
                raise RuntimeError(f"span {frame.name} closed out of order")
            if not stack:
                del self._stacks[tid]
                if frame.foreign_parent is not None:
                    frame.foreign_parent.waiting -= 1
            if failed:
                self.exceptions[frame.layer] += 1

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        if name in self.counted:
            lock, calls = self._lock, self.calls

            def counted(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)
        hook = self.hooks.get(name)

        def timed(*args, **kwargs):
            frame = self.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame, failed=True)
                raise
            self.exit(frame)
            if hook is not None:
                hook(self, result)
            return result

        return functools.wraps(fn)(timed)

    @contextmanager
    def active(self, layers: Mapping[str, object], bindings: Iterable[object]):
        """Trace the block. ``layers`` maps a layer name to its module;
        ``bindings`` lists every module whose imported names are rewired."""
        replaced: list[tuple[object, str, object]] = []
        wrappers: dict[int, tuple[object, Callable]] = {}
        try:
            for layer, mod in layers.items():
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj) and f"{layer}.{attr}" not in self.skipped:
                        wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
                    elif inspect.isclass(obj):
                        for meth_name, meth in list(vars(obj).items()):
                            qual = f"{layer}.{obj.__name__}.{meth_name}"
                            if (meth_name.startswith("_") or not inspect.isfunction(meth)
                                    or qual in self.skipped):
                                continue
                            setattr(obj, meth_name, self._wrap(meth, layer, qual))
                            replaced.append((obj, meth_name, meth))
            for mod in bindings:
                for attr, obj in list(vars(mod).items()):
                    entry = wrappers.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        setattr(mod, attr, entry[1])
                        replaced.append((mod, attr, obj))
            self.start()
            try:
                yield self
            finally:
                self.stop()
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)
