"""Spans around the calls the benchmark and ``afcdepth.cli`` make into the
library, kept in memory and written out when the run ends.

Instrumentation lives here, not in ``src/``: while a traced op runs, every
afcdepth function referenced from a wrapped namespace (the benchmark's own
entry-point table and the ``afcdepth.cli`` module) is replaced by a wrapper
that records a span named ``<module>.<function>``.  Calls the library makes
internally are not wrapped, so a span's self time includes them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time


class Tracer:
    """Span recorder: each span has a name, start, end, parent and op id."""

    def __init__(self, counters, namespaces, classmethods=()):
        """``counters`` maps a span name to ``f(args, kwargs, result)``, which
        returns the counts to store on that span.  ``instrumented`` wraps the
        library functions in ``namespaces`` and the given ``(class, name,
        span name)`` classmethods."""
        self.spans = []
        self._stack = []
        self._counters = counters
        self._namespaces = namespaces
        self._classmethods = classmethods
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "op": self.op_id, "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrumented(self):
        """Wrap the library functions; restore them on exit."""
        saved = []
        try:
            for holder in self._namespaces:
                own = getattr(holder, "__name__", None)
                for attr, fn in list(vars(holder).items()):
                    if (inspect.isfunction(fn) and fn.__module__ != own
                            and fn.__module__.startswith("afcdepth.")):
                        saved.append((holder, attr, fn))
                        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                        setattr(holder, attr, self.wrap(name, fn))
            for cls, attr, name in self._classmethods:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, classmethod(self.wrap(name, original.__func__)))
            yield
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def children(self):
        kids = {}
        for record in self.spans:
            if record["parent"] is not None:
                kids.setdefault(record["parent"], []).append(record)
        return kids

    def validate(self, expected_layers):
        """Raise when an expected layer has no span, a span never closed, a
        span sticks out of its parent, or a span sits inside one of the same
        name (a function wrapped twice, whose time would count twice)."""
        seen = {record["name"].split(".", 1)[0] for record in self.spans}
        missing = sorted(set(expected_layers) - seen)
        if missing:
            raise RuntimeError(f"traced run recorded zero calls in layer(s) {missing}")
        for record in self.spans:
            if record["end"] is None:
                raise RuntimeError(f"span {record['id']} ({record['name']}) never closed")
            if record["parent"] is None:
                continue
            parent = self.spans[record["parent"]]
            if not parent["start"] <= record["start"] <= record["end"] <= parent["end"]:
                raise RuntimeError(
                    f"span {record['id']} ({record['name']}) runs outside its "
                    f"parent span {parent['id']} ({parent['name']})")
            while parent is not None:
                if parent["name"] == record["name"]:
                    raise RuntimeError(
                        f"span {record['id']} ({record['name']}) nests in a span of "
                        f"the same name: the function is wrapped twice")
                parent = None if parent["parent"] is None else self.spans[parent["parent"]]

    def busy(self, name):
        return sum(r["end"] - r["start"] for r in self.spans if r["name"] == name)

    def calls(self, name):
        return sum(1 for r in self.spans if r["name"] == name)

    def count(self, name, key):
        return sum(r["counts"].get(key, 0) for r in self.spans if r["name"] == name)

    def self_time(self, name):
        kids = self.children()
        total = 0.0
        for record in self.spans:
            if record["name"] == name:
                inside = sum(k["end"] - k["start"] for k in kids.get(record["id"], ()))
                total += record["end"] - record["start"] - inside
        return total

    def write(self, path):
        origin = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for record in self.spans:
                out = dict(record, start=record["start"] - origin,
                           end=record["end"] - origin)
                fh.write(json.dumps(out, sort_keys=True) + "\n")
