"""In-memory span tracer and the statistics the benchmark reports.

The tracer replaces functions of already-imported modules with timing
wrappers. A function is wrapped once and installed under every name a module
binds it to, because weakseg modules import functions by name (`from .model
import backward`), so patching only the defining module would miss the
callers. `restore()` puts every original binding back.

Spans are kept in memory as (name, start, end, parent) and written out when
the run ends. Each thread has its own span stack; a span opened on a worker
thread with nothing open on that thread is parented to the benchmark-level
span that was open when the workers started (`root`).
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
import time

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
MIN_BEYOND = 10


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "data")

    def __init__(self, name, parent, tag=""):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.tag = tag
        self.data = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.lock = threading.Lock()
        self.root = -1
        self._local = threading.local()
        self._saved = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def _open(self, name, tag=""):
        span = Span(name, self.current(), tag)
        with self.lock:
            idx = len(self.spans)
            self.spans.append(span)
        self._stack().append(idx)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, tag=""):
        """A benchmark-level span; spans opened on worker threads while it
        is open are parented to it."""
        span = self._open(name, tag)
        outer, self.root = self.root, self._stack()[-1]
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span)
            self.root = outer

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper for fn. `before(span, args, kwargs)` runs just
        before the timed interval starts and `after(span, args, kwargs,
        result)` just after it ends, so neither is counted in the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if before is not None:
                before(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self, modules, name, fn, before=None, after=None) -> int:
        """Install one wrapper of fn under every binding of fn in modules.
        Returns the number of bindings replaced."""
        wrapper = self.wrap(name, fn, before, after)
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    count += 1
        if count == 0:
            raise LookupError(f"{name}: no module binds {fn!r}")
        return count

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def installed(self) -> int:
        return len(self._saved)

    def children(self) -> list[list[int]]:
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        return [self_time(s.start, s.end,
                          [(self.spans[k].start, self.spans[k].end)
                           for k in kids[i]])
                for i, s in enumerate(self.spans)]

    def dump(self) -> list:
        """Spans as JSON-ready rows: name, tag, start, end, parent, self."""
        selfs = self.self_times()
        t0 = min((s.start for s in self.spans), default=0.0)
        return [[s.name, s.tag, s.start - t0, s.end - t0, s.parent, st]
                for s, st in zip(self.spans, selfs)]


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of [start, end] its children cover.
    Overlapping children (worker threads) are counted once.

    >>> self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)])
    5.0
    """
    covered = 0.0
    cur_lo = cur_hi = None
    clipped = sorted((max(lo, start), min(hi, end)) for lo, hi in children)
    for lo, hi in clipped:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def nearest_rank(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p * n / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(values):
    """Highest percentile of TAIL_PERCENTILES with at least MIN_BEYOND
    samples above its nearest rank: (p, value), or None when there are too
    few samples for any of them."""
    s = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(s) - math.ceil(p * len(s) / 100.0) >= MIN_BEYOND:
            return p, nearest_rank(s, p)
    return None


def timing_summary(values, scale=1.0) -> dict:
    """p50, the tail percentile and the call count of a list of timings."""
    s = sorted(v * scale for v in values)
    out = {"calls": len(s)}
    if s:
        out["p50"] = nearest_rank(s, 50.0)
        tail = tail_percentile(s)
        if tail is not None:
            out["tail_p"], out["tail"] = tail
    return out
