"""Spans around calls into the library, recorded from outside it.

:class:`Tracer` replaces selected ``howecorr`` functions by timing wrappers
in every module namespace that holds them (``unipotent`` imported
``horizontal_strip_additions`` from ``partitions``, so both names are
patched), and restores the originals on :meth:`Tracer.uninstall`.

Each call into ``unipotent``, ``lusztig``, ``hyperoctahedral``, ``verify``
and ``cli`` becomes a span: name, start, end, parent span and the item it
served.  The hot leaves (strip additions, ``pieri_induction``, dominance,
``sn_character_value``) run millions of times; they get no span of their
own but add a count and their summed time to the span that called them, so
the trace stays small enough to keep in memory until the run ends.

Self time of a call is its duration minus the time of the wrapped calls
nested in it; it is summed per function name in :attr:`Tracer.stats`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

# (module, attribute) -> (metric name, is a hot leaf)
TARGETS = {
    ("partitions", "horizontal_strip_additions"): ("partitions.strip_additions", True),
    ("partitions", "vertical_strip_additions"): ("partitions.strip_additions", True),
    ("partitions", "bipartition_dominance_leq"): ("partitions.dominance", True),
    ("symmetric", "sn_character_value"): ("symmetric.sn_character_value", True),
    ("unipotent", "pieri_induction"): ("unipotent.pieri_induction", True),
    ("unipotent", "omega_unipotent"): ("unipotent.omega_unipotent", False),
    ("unipotent", "theta_images"): ("unipotent.theta_images", False),
    ("unipotent", "extremal_images"): ("unipotent.extremal_images", False),
    ("lusztig", "omega_full"): ("lusztig.omega_full", False),
    ("lusztig", "centralizer_decomposition"): ("lusztig.centralizer_decomposition", False),
    ("lusztig", "transport_series"): ("lusztig.transport_series", False),
    ("hyperoctahedral", "build_character_table"): ("hyperoctahedral.build_character_table", False),
    ("hyperoctahedral", "induce_class_function"): ("hyperoctahedral.induce_class_function", False),
    ("hyperoctahedral", "decompose"): ("hyperoctahedral.decompose", False),
    ("hyperoctahedral", "linear_character"): ("hyperoctahedral.linear_character", False),
    ("cli", "main"): ("cli.main", False),
}


def _omega_key(signature, args, kwargs):
    """What an omega table depends on: both contexts up to the field size
    (the table does not depend on q), the series index and the convention."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    ctx, ctx_p, k = list(bound.arguments.values())[:3]
    return (
        ctx.witt_index,
        ctx.dim_parity,
        ctx_p.witt_index,
        ctx_p.dim_parity,
        k,
        bound.arguments.get("convention"),
    )


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end, item id]
        self.leaves = {}  # (parent span id, leaf name) -> [count, seconds]
        self.stats = {}  # metric name -> [calls, self seconds]
        self.counters = {
            "partitions.strip_additions.results": 0,
            "unipotent.omega_unipotent.cells": 0,
            "unipotent.omega_unipotent.repeats": 0,
        }
        self._frames = []  # [start, nested seconds] per open wrapped call
        self._open = []  # ids of open spans
        self._item = None
        self._seen_omega = set()
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self, package: str = "howecorr") -> list:
        """Patch every target; returns the targets that do not exist."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        missing = []
        wrappers = {}  # id(original) -> (original, wrapper)
        for (mod_name, attr), (metric, leaf) in TARGETS.items():
            fn = getattr(sys.modules.get(f"{package}.{mod_name}"), attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            call = fn
            if attr == "extremal_images" and "order" in inspect.signature(fn).parameters:
                # the default ``order`` is bound at definition and would
                # bypass the patched dominance, so pass the wrapper explicitly
                partitions = sys.modules[f"{package}.partitions"]
                dominance = wrappers.get(id(partitions.bipartition_dominance_leq))
                if dominance is not None:
                    call = functools.partial(fn, order=dominance[1])
            wrappers[id(fn)] = (fn, self._wrap(metric, call, leaf))
        verify = sys.modules.get(f"{package}.verify")
        for attr, fn in sorted(vars(verify).items() if verify else ()):
            if attr.startswith("check_") and inspect.isfunction(fn):
                wrappers[id(fn)] = (fn, self._wrap(f"verify.{attr}", fn, False))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        return missing

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, metric, fn, leaf):
        clock = time.perf_counter
        frames = self._frames
        stats = self.stats.setdefault(metric, [0, 0.0])
        observe = None
        if metric == "partitions.strip_additions":
            observe = self._observe_strips
        elif metric == "unipotent.omega_unipotent":
            observe = functools.partial(self._observe_omega, inspect.signature(fn))

        def wrapper(*args, **kwargs):
            sid = None if leaf else self._open_span(metric)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration - frame[1]
                if frames:
                    frames[-1][1] += duration
                if leaf:
                    self._add_leaf(metric, duration)
                else:
                    self._close_span(sid, frame[0], end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _open_span(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, name, None, None, self._item])
        self._open.append(sid)
        return sid

    def _close_span(self, sid, start, end):
        self._open.pop()
        span = self.spans[sid]
        span[3], span[4] = start, end

    def _add_leaf(self, name, duration):
        key = (self._open[-1] if self._open else None, name)
        agg = self.leaves.get(key)
        if agg is None:
            self.leaves[key] = [1, duration]
        else:
            agg[0] += 1
            agg[1] += duration

    def _observe_strips(self, args, kwargs, result):
        self.counters["partitions.strip_additions.results"] += len(result)

    def _observe_omega(self, signature, args, kwargs, result):
        key = _omega_key(signature, args, kwargs)
        if key in self._seen_omega:
            self.counters["unipotent.omega_unipotent.repeats"] += 1
        else:
            self._seen_omega.add(key)
            self.counters["unipotent.omega_unipotent.cells"] += len(result.entries)

    @contextlib.contextmanager
    def item(self, kind: str):
        """A root span for one workload item."""
        self._item = len(self.spans)
        sid = self._open_span(f"item.{kind}")
        start = time.perf_counter()
        self._frames.append([start, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            self._frames.pop()
            self._close_span(sid, start, end)
            self._item = None

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, plus the counters."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        calls = out.get("unipotent.omega_unipotent.calls", 0)
        repeats = out.pop("unipotent.omega_unipotent.repeats")
        out["unipotent.omega_unipotent.repeat_ratio"] = repeats / calls if calls else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        """The spans and the per-parent leaf aggregates, as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "parent", "name", "start_s", "end_s", "item"],
                    "spans": self.spans,
                    "leaf_fields": ["parent", "name", "calls", "seconds"],
                    "leaves": [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()],
                    "summary": self.summary(),
                },
                fh,
            )

