"""Span tracing for the benchmark's traced run.

The tracer rebinds the module attributes that callers look up at call time,
for example ``mixedsums.growth.brute_force_norm`` (growth calls the norms
layer through it) or ``mixedsums.norms.dual_maximizer`` (norms calls it
internally), so nothing under ``src/`` changes. Each span records its name,
start, end, parent span, item id and thread id, plus computed counts for a
few spans. Spans stay in memory until the run writes them out.

A span's name starts with its layer, which is the package module that
defines the function (``_rng`` counts as ``forms``, which calls it).

Self time is a span's duration minus the union of its child spans'
intervals. Worker threads of the package's thread pools have no open span of
their own when they start, so their spans are children of the innermost open
span of the thread that installed the tracer, which is blocked in the pool.
Where spans on different threads are leaves at the same instant, that wall
time is split equally between them, so the self times of one item's spans
sum to at most the item's latency.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "growth", "exponents", "forms", "tensors", "norms")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: int
    thread: int
    counts: dict | None


def _patterns(args, kwargs, result):
    form = args[0] if args else kwargs["form"]
    return {"patterns": math.prod(2 ** (n - 1) for n in form.shape[:-1])}


def _ascent(args, kwargs, result):
    return {"restarts": result.restarts_used, "converged": int(result.converged)}


def _entries(args, kwargs, result):
    return {"entries": int(result.size)}


def _bytes_read(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"bytes": 8 * int(np.size(a))}


def _rows(args, kwargs, result):
    return {"rows": len(result.rows)}


# span name -> (defining module, attribute, modules whose attribute is
# rebound, computed-count hook)
TARGETS = {
    "cli.main": ("cli", "main", ("cli",), None),
    "growth.run_growth": ("growth", "run_growth", ("growth", "cli"), _rows),
    "growth.loglog_fit": ("growth", "loglog_fit", ("growth", "cli"), None),
    "growth.series_to_csv": ("growth", "series_to_csv", ("cli",), None),
    "growth.report_obj": ("growth", "report_obj", ("cli",), None),
    "exponents.predict": ("exponents", "predict", ("growth", "cli"), None),
    "forms.ksz_random_form": ("forms", "ksz_random_form", ("growth", "cli"), None),
    "forms.product_extension": ("forms", "product_extension", ("growth", "cli"), None),
    "forms.diagonal_form": ("forms", "diagonal_form", ("growth", "cli"), None),
    "forms.row_form": ("forms", "row_form", ("growth", "cli"), None),
    "forms.form_from_obj": ("forms", "form_from_obj", ("growth", "cli"), None),
    "forms.partial_contract": ("forms", "partial_contract", ("norms",), None),
    "forms.rng.sign_array": ("_rng", "sign_array", ("_rng",), _entries),
    "forms.rng.derive_seed": ("_rng", "derive_seed", ("_rng",), None),
    "forms.rng.stream": ("_rng", "stream", ("_rng",), None),
    "tensors.mixed_norm": ("tensors", "mixed_norm", ("tensors", "growth", "cli"), _bytes_read),
    "tensors.tensor_from_obj": ("tensors", "tensor_from_obj", ("forms", "cli"), None),
    "norms.brute": ("norms", "brute_force_norm", ("norms", "growth", "cli"), _patterns),
    "norms.ascent": ("norms", "alternating_ascent", ("growth", "cli"), _ascent),
    "norms.analytic": ("norms", "analytic_norm", ("growth", "cli"), None),
    "norms.dual_maximizer": ("norms", "dual_maximizer", ("norms",), None),
    "norms.estimate_to_obj": ("norms", "estimate_to_obj", ("cli",), None),
}


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self._local.stack = self._main_stack
        for name, (home, attr, callers, hook) in TARGETS.items():
            original = getattr(importlib.import_module(f"mixedsums.{home}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for caller in callers:
                mod = importlib.import_module(f"mixedsums.{caller}")
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, hook):
        local = self._local
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            result = None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                counts = hook(args, kwargs, result) if ok and hook else None
                spans.append(
                    Span(sid, name, start, end, parent, self.item, threading.get_ident(), counts)
                )

        return wrapper


def attribute(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, splitting wall time shared by concurrent leaves."""
    ids = {s.id for s in spans}
    parent = {s.id: (s.parent if s.parent in ids else None) for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.id, s.id))
        events.append((s.end, 0, -s.id, s.id))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    self_time: dict[int, float] = defaultdict(float)
    last = None
    for t, kind, _, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_time[leaf] += share
        last = t
        p = parent[sid]
        if kind == 1:
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
            leaves.add(sid)
        else:
            leaves.discard(sid)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return {s.id: self_time[s.id] for s in spans}


def by_item(spans: list[Span]) -> dict[int, list[Span]]:
    groups: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        groups[s.item].append(s)
    return groups


def summarize(spans: list[Span]) -> dict:
    """Per-name calls, self time, inclusive time and counts; per-layer self time.

    Inclusive time is the span's self time plus that of all its descendants,
    so it too never counts one instant of wall time twice.
    """
    names: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    layers = dict.fromkeys(LAYERS, 0.0)
    for group in by_item(spans).values():
        self_time = attribute(group)
        inclusive = dict(self_time)
        parent = {s.id: s.parent for s in group}
        for sid in sorted(inclusive, reverse=True):
            p = parent[sid]
            if p in inclusive:
                inclusive[p] += inclusive[sid]
        for s in group:
            st = names[s.name]
            st["calls"] += 1
            st["self_s"] += self_time[s.id]
            st["s"] += inclusive[s.id]
            for key, value in (s.counts or {}).items():
                st[key] += value
            layers[s.name.split(".", 1)[0]] += self_time[s.id]
    return {"names": {k: dict(v) for k, v in names.items()}, "layers": layers}


def write_spans(path, spans: list[Span]) -> None:
    """One JSON document: field names, then one list per span."""
    with open(path, "w") as f:
        json.dump({"fields": list(Span._fields), "spans": [list(s) for s in spans]}, f)
        f.write("\n")
