"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end, parent and the run's trace id. Spans
are opened by the benchmark around its own calls into pdesym, and by
wrappers that :meth:`Tracer.instrument` installs on public pdesym
functions. A wrapper replaces every binding of the function in the loaded
``pdesym`` modules, so calls that pdesym makes itself (``generate`` calling
``solve``, ``reweight`` calling ``advance_ensemble``) are recorded as well
without editing the package. :meth:`Tracer.restore` puts the originals back.

Spans stay in memory until the run ends; :class:`Summary` turns them into
per-name and per-layer totals, where a span's self time is its duration
minus the time covered by its children and its layer is the part of its
name before the first dot.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span record layout: [name, parent index, start, end, attrs]
NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str, **attrs) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, time.perf_counter(), None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    def instrument(self, fn, name: str, attrs=None) -> None:
        """Record a span named ``name`` around every call of ``fn``.

        ``attrs(args, result)`` may return counts to attach to the span.
        """

        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec[ATTRS].update(attrs(args, result))
                return result
            finally:
                self.close(rec)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pdesym" and not mod_name.startswith("pdesym."):
                continue
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "trace": self.trace_id, "id": i, "parent": parent,
                    "name": name, "start": start, "end": end, "attrs": attrs,
                }) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.rec = self.tracer.open(self.name, **self.attrs)
        return self.rec

    def __exit__(self, *exc):
        self.tracer.close(self.rec)
        return False


class Summary:
    """Per-name call counts, total and self seconds, and summed attrs."""

    def __init__(self, spans: list[list]):
        child_time = defaultdict(float)
        for rec in spans:
            if rec[PARENT] is not None:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attrs = defaultdict(lambda: defaultdict(float))
        for i, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            self.count[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child_time[i]
            for key, value in rec[ATTRS].items():
                self.attrs[name][key] += value

    def mean(self, *names: str) -> float:
        """Mean seconds per call over the named spans (0 without calls)."""
        n = sum(self.count[name] for name in names)
        return sum(self.total[name] for name in names) / n if n else 0.0

    def layer_self(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out
