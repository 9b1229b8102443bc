"""In-memory span tracer that wraps functions of a running program.

The tracer never edits the program's source.  ``Tracer.patch`` swaps a
function (or method) for a timing wrapper in every namespace that holds
it, and ``Tracer.restore`` puts the originals back.

Three kinds of wrapper exist:

* span  -- records one span per call: name, start, end, parent span,
           grid cell and thread.  For coarse calls.
* fold  -- for high-frequency calls: no span is stored; the call count and
           self time are summed per (name, cell).  A span-kind call made
           inside a folded call is folded too, so folds never contain
           stored spans.
* count -- counts the outermost call per (name, cell) and nothing else;
           a counted call made inside another counted call is not counted.

Each thread keeps its own stack of open calls.  Children on one thread
run one after another, so their durations simply add up; spans opened on
pool worker threads on behalf of a parent on another thread may overlap,
which is why a span's self time is its duration minus the *union* of its
child spans' intervals (see :func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

SPAN, FOLD, COUNT = "span", "fold", "count"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: object
    thread: int
    fold_cover: float = 0.0   # summed time of folded calls directly inside

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration, minus the union of its
    child spans' intervals (clipped to the span), minus the time of the
    folded calls made directly inside it."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children.setdefault(parent.id, []).append(
                (max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: s.duration - s.fold_cover
            - union_length(children.get(s.id, ()))
            for s in spans}


class _ThreadState:
    __slots__ = ("index", "stack", "cell", "spans", "folds", "counts",
                 "depth")

    def __init__(self, index):
        self.index = index
        # open frames: [is_fold, span id, time of folded calls inside]
        self.stack: list[list] = []
        self.cell = None
        self.spans: list[Span] = []
        self.folds: dict[tuple, list] = {}    # (name, cell) -> [calls, self]
        self.counts: dict[tuple, int] = {}    # (name, cell) -> calls
        self.depth = 0                        # open counted calls


class Tracer:
    """Collects spans, folded call totals and counters from all threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}

    # -- per-thread state ------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
            return st

    def current_span(self):
        """Id of the innermost open span on this thread, or None."""
        for frame in reversed(self.state().stack):
            if not frame[0]:
                return frame[1]
        return None

    def add(self, key: str, value: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        """Raise a named counter to value if it is lower (thread-safe)."""
        with self._lock:
            if key not in self.counters or value > self.counters[key]:
                self.counters[key] = value

    # -- calls -----------------------------------------------------

    def span(self, name, fn, args, kwargs, *, cell=None, parent=None):
        """Call fn as a span.  ``cell`` opens a grid cell for the call;
        ``parent`` links a span started on a worker thread to the span
        that submitted it."""
        st = self.state()
        if st.stack and st.stack[-1][0]:
            return self.fold(name, fn, args, kwargs)
        if parent is None and st.stack:
            parent = st.stack[-1][1]
        saved_cell = st.cell
        if cell is not None:
            st.cell = cell
        sid = next(self._ids)
        frame = [False, sid, 0.0]
        st.stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            st.stack.pop()
            st.spans.append(Span(sid, name, start, end, parent, st.cell,
                                 st.index, frame[2]))
            st.cell = saved_cell

    def fold(self, name, fn, args, kwargs):
        """Call fn, adding its count and self time to (name, cell)."""
        st = self.state()
        frame = [True, None, 0.0]
        st.stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.clock() - start
            st.stack.pop()
            key = (name, st.cell)
            agg = st.folds.get(key)
            if agg is None:
                agg = st.folds[key] = [0, 0.0]
            agg[0] += 1
            agg[1] += dur - frame[2]
            if st.stack:
                st.stack[-1][2] += dur

    def count(self, name, fn, args, kwargs):
        """Call fn, counting it unless another counted call is open."""
        st = self.state()
        if st.depth == 0:
            key = (name, st.cell)
            st.counts[key] = st.counts.get(key, 0) + 1
        st.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            st.depth -= 1

    # -- patching --------------------------------------------------

    def wrapper(self, name, fn, kind=SPAN, cell_of=None, before=None,
                after=None):
        """A wrapper for fn.  ``cell_of(args)`` names the grid cell a span
        opens; ``before(args)`` and ``after(args, result)`` read counters
        outside the timed interval of the call itself."""
        call = {SPAN: self.span, FOLD: self.fold, COUNT: self.count}[kind]
        if cell_of is None and before is None and after is None:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return call(name, fn, args, kwargs)
            return wrapped

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            if cell_of is not None:
                result = self.span(name, fn, args, kwargs, cell=cell_of(args))
            else:
                result = call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapped

    def patch(self, owner, attr: str, replacement, package: str) -> None:
        """Replace ``owner.attr`` by ``replacement`` in owner and in every
        loaded module of ``package`` that imported the same object."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner:
                continue
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    # -- results ---------------------------------------------------

    def spans(self) -> list[Span]:
        return [s for st in self._threads for s in st.spans]

    def folds(self) -> dict[tuple, list]:
        out: dict[tuple, list] = {}
        for st in self._threads:
            for key, (calls, self_s) in st.folds.items():
                agg = out.setdefault(key, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
        return out

    def counts(self) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for st in self._threads:
            for key, n in st.counts.items():
                out[key] = out.get(key, 0) + n
        return out

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds] over spans and folded calls."""
        out: dict[str, list] = {}
        spans = self.spans()
        selfs = self_times(spans)
        for s in spans:
            agg = out.setdefault(s.name, [0, 0.0])
            agg[0] += 1
            agg[1] += selfs[s.id]
        for (name, _cell), (calls, self_s) in self.folds().items():
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        for (name, _cell), n in self.counts().items():
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += n
        return out
