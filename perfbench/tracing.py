"""In-memory timing spans recorded around calls into the program.

A :class:`Tracer` wraps module attributes in place, so a call that the
program makes through that attribute opens a span. Each span records its
name, start, end, parent span and the run id shared by the whole run, plus
any work counts the wrapper derived from the call and the wrapper's own cost
outside the call. Spans stay in memory until :meth:`Tracer.dump` writes them
out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import uuid


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.unmeasured = []
        self._patched = []
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, module, attr, name, count=None):
        """Time every call made through ``module.attr`` as span ``name``.

        ``count(arguments, result)`` returns a dict of work counts for the
        span, from the call's arguments by parameter name. A missing
        attribute, or a count whose parameters no longer exist, is recorded
        in ``unmeasured``, so a refactor that renames a function leaves that
        layer unmeasured instead of failing the run.
        """
        target = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if not callable(original):
            self.unmeasured.append(target)
            return
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if count is not None:
                try:
                    sp["counts"] = count(signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError):
                    if f"{target} counts" not in self.unmeasured:
                        self.unmeasured.append(f"{target} counts")
            # The wrapper's own cost: its time outside the wrapped call.
            sp["overhead"] = time.perf_counter() - entered - duration(sp)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "unmeasured": self.unmeasured, "spans": self.spans}, handle)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = {"name": name, "run_id": tracer.run_id}

    def __enter__(self):
        stack = self.tracer._stack
        self.record["id"] = len(self.tracer.spans)
        self.record["parent"] = stack[-1]["id"] if stack else None
        self.tracer.spans.append(self.record)
        stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def duration(span):
    return span["end"] - span["start"]


def self_time(span, spans):
    """Span duration minus the part of it that its child spans cover."""
    kids = sorted((s["start"], s["end"]) for s in spans if s["parent"] == span["id"])
    covered, reach = 0.0, span["start"]
    for start, end in kids:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return duration(span) - covered
