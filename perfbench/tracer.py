"""Spans recorded around the benchmark's calls into the program.

The traced run wraps calls at each layer boundary (store methods,
core construction and run, component methods on a core's own
instances) and records a span for each: name, start, end, the span
that caused it and the request it belongs to.  A span's self time is
its duration minus the time its child spans cover.

Coarse spans (one per cell, store call or report) are kept one by one
and written out at the end.  Hot spans (one per simulated cycle or
memory access) are folded into per-name totals as they close, because
keeping millions of them would dwarf the program's own memory; both
kinds feed the same self-time accounting.
"""

import contextlib
import json
import time


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Kept spans: ``(name, start, end, parent, request, tag, self)``.
        self.spans = []
        #: ``name -> [calls, total_s, self_s]`` over kept and hot spans.
        self.totals = {}
        #: Request id stamped on kept spans (set by the workload).
        self.request = None
        # Open spans, innermost last: ``[child_s, kept span id or None]``.
        self._stack = []

    def _parent(self):
        for _child, span_id in reversed(self._stack):
            if span_id is not None:
                return span_id
        return None

    def _close(self, name, frame, start, end, tag):
        elapsed = end - start
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        span_id = frame[1]
        if span_id is not None:
            self.spans[span_id] = (name, start, end, self._parent(),
                                   self.request, tag, elapsed - frame[0])

    @contextlib.contextmanager
    def span(self, name, tag=None):
        """Kept span around a block of the benchmark's own code."""
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self._close(name, frame, start, end, tag)

    def wrap(self, fn, name, keep=False):
        """``fn`` wrapped in a span; hot (folded) unless ``keep``."""
        stack = self._stack
        clock = self.clock
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        if keep:
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced

        def traced(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def wrap_iter(self, fn, name):
        """``fn`` returning an iterator whose every step is a hot span."""
        def traced(*args, **kwargs):
            step = self.wrap(iter(fn(*args, **kwargs)).__next__, name)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item
        return traced

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def kept(self, name):
        """Kept spans called ``name``, in start order."""
        return [span for span in self.spans
                if span is not None and span[0] == name]

    def dump(self, path, meta):
        """Write every kept span and every total to ``path`` as JSON."""
        fields = ("name", "start", "end", "parent", "request", "tag",
                  "self_s")
        payload = {
            "meta": meta,
            "totals": {name: {"calls": calls, "total_s": total,
                              "self_s": own}
                       for name, (calls, total, own)
                       in sorted(self.totals.items())},
            "spans": [dict(zip(fields, span)) for span in self.spans
                      if span is not None],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
