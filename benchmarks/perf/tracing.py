"""Spans recorded from outside the program.

The traced pass of a workload installs wrappers on public callables of
``repro`` *before any object is built*, keeps every span
``(name, start_ns, end_ns, parent, run_id)`` in memory, and derives a
layer's self time as its spans' duration minus the part their child
spans cover.  Span names are ``"<layer>:<what>"``; the layer is the
module name used throughout ``catalog.py``.

Nothing in ``src/`` knows about this file.  A target that a later
refactor removes is skipped (and listed in ``Tracer.missing``) instead
of breaking the benchmark; its layer metrics then read 0.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns
from typing import Any, Callable

#: Spans kept in the Chrome trace file; the in-memory list is complete,
#: the file is capped so a per-event trace stays loadable.
TRACE_FILE_SPANS = 50_000


class Tracer:
    """In-memory span recorder plus the monkeypatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name: str | Callable[..., str], fn: Callable,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` with a span around every call.

        ``name`` may be a callable taking ``fn``'s arguments, for the
        few seams whose layer depends on the receiver's state.
        ``on_result`` sees each return value, for counts that exist only
        in what a layer hands back (timed-out estimates, WayOff
        decisions).
        """
        spans, stack, clock = self.spans, self._stack, perf_counter_ns
        dynamic = callable(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            label = name(*args, **kwargs) if dynamic else name
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.run_id)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def _resolve(self, target: str) -> tuple[Any, str, Any] | None:
        """``"pkg.mod:Class.attr"`` -> ``(owner, attr, original)``.

        ``original`` is read from the owner's own namespace (the raw
        function of the defining class, or the module global), so
        :meth:`uninstall` restores exactly what was there.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return None
        self._patches.append((owner, attr, original))
        return owner, attr, original

    def patch(self, target: str, name: str | Callable[..., str],
              on_result: Callable[[Any], None] | None = None) -> None:
        """Replace ``target`` with a span-recording wrapper."""
        resolved = self._resolve(target)
        if resolved is None:
            return
        owner, attr, original = resolved
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                self.wrap(name, original.__func__, on_result))
        else:
            wrapped = self.wrap(name, original, on_result)
        setattr(owner, attr, wrapped)

    def patch_scheduler(self, target: str,
                        classify: Callable[[str], str]) -> None:
        """Wrap a ``schedule(self, when, callback, tag="")`` seam so each
        *scheduled callback* runs inside a span named from its tag."""
        resolved = self._resolve(target)
        if resolved is None:
            return
        owner, attr, original = resolved
        wrap = self.wrap
        names: dict[str, str] = {}

        def schedule(sim, when, callback, tag=""):
            name = names.get(tag)
            if name is None:
                name = names[tag] = classify(tag)
            return original(sim, when, wrap(name, callback), tag)

        setattr(owner, attr, schedule)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns (aligned with ``self.spans``)."""
        own = [0 if span is None else span[2] - span[1]
               for span in self.spans]
        for span in self.spans:
            if span is not None and span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_seconds(self) -> tuple[dict[str, float], dict[str, float],
                                     dict[str, int]]:
        """``(self_s, total_s, count)`` keyed by span name.

        ``total_s`` sums only spans whose parent has a different name,
        so recursion is not counted twice.
        """
        own = self.self_times()
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        count: dict[str, int] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name = span[0]
            self_s[name] = self_s.get(name, 0.0) + own[index] / 1e9
            count[name] = count.get(name, 0) + 1
            parent = self.spans[span[3]] if span[3] >= 0 else None
            if parent is None or parent[0] != name:
                total_s[name] = total_s.get(name, 0.0) \
                    + (span[2] - span[1]) / 1e9
        return self_s, total_s, count

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in call order."""
        return [(span[2] - span[1]) / 1e6 for span in self.spans
                if span is not None and span[0] == name]

    def child_offsets_ms(self, parent_name: str, child_name: str
                         ) -> list[float]:
        """Start of each ``child_name`` span relative to the start of
        its direct ``parent_name`` parent (e.g. build time before the
        event loop starts)."""
        offsets = []
        for span in self.spans:
            if span is None or span[0] != child_name or span[3] < 0:
                continue
            parent = self.spans[span[3]]
            if parent is not None and parent[0] == parent_name:
                offsets.append((span[1] - parent[1]) / 1e6)
        return offsets

    # -- output --------------------------------------------------------

    def write_chrome_trace(self, path, workload: str) -> None:
        """Write the spans as Chrome ``trace_event`` JSON."""
        spans = [span for span in self.spans if span is not None]
        origin = min((span[1] for span in spans), default=0)
        events = [{
            "name": name, "cat": name.partition(":")[0], "ph": "X",
            "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
            "pid": 1, "tid": run_id,
            "args": {"parent": parent},
        } for name, start, end, parent, run_id in spans[:TRACE_FILE_SPANS]]
        with open(path, "w") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {
                    "workload": workload,
                    "spans_recorded": len(spans),
                    "spans_written": len(events),
                    "targets_missing": self.missing,
                },
            }, handle)


def sum_layer(values: dict[str, float], layer: str) -> float:
    """Sum a ``layer_seconds`` mapping over every span of one layer
    (the part of a span name before the colon)."""
    return sum(value for name, value in values.items()
               if name.partition(":")[0] == layer)
