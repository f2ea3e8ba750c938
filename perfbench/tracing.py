"""In-memory span tracing around cellang's public functions, plus the small
statistics the benchmark reports.

Spans are recorded from outside the program: `Tracer.wrap` replaces a
module or class attribute with a wrapper that opens a span, calls the
original and closes the span, and `Tracer.restore` puts every original
back. A name that does not resolve is recorded in `Tracer.absent` instead
of failing, so the benchmark still runs against a commit where that
function is gone or renamed.
"""

import functools
import statistics
import time


def median(values):
    """Median of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("median of an empty sequence")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index of the enclosing span, or -1

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    lie inside it; a child's index is always greater than its parent's.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def child_of(spans, i, root):
    """Index of the ancestor of span i (or i itself) whose parent is root,
    or -1 when span i is not below root."""
    while i >= 0 and spans[i].parent != root:
        i = spans[i].parent
    return i


class Tracer:
    """Span recorder for one thread. Not reentrant across threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.absent = {}
        self._stack = []
        self._originals = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        self.spans[index].end = self.clock()

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, owner, attr, name, count=None):
        """Trace every call of `owner.attr` as a span called `name`.

        `count(args, kwargs)` may return a number added to the counter
        `name`; if it raises, the counter is marked absent and dropped.
        Returns False (and records `name` as absent) when the attribute
        does not exist or is not callable.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent[name] = "%s has no callable %r" % (
                getattr(owner, "__name__", owner), attr)
            return False
        tracer = self
        counter = name + ".count"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None and counter not in tracer.absent:
                try:
                    tracer.add(counter, count(args, kwargs))
                except Exception as exc:  # a probe must never fail the run
                    tracer.absent[counter] = "%s: %s" % (
                        type(exc).__name__, exc)
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)
        return True

    def restore(self):
        """Undo every wrap, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
