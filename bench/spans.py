"""In-memory spans around the library's module-level entry points.

The traced run rebinds module attributes (and three BraidWord operators)
to wrappers that record one span per call, then restores the originals.
Nothing in the library changes: the wrapped names are exactly the ones
the library itself calls through, so an audit line yields the chain
cli.run > genus_bounds.audit_bounds > fdtc.fdtc_exact >
fdtc.dehornoy_floor > ordering.compare > ordering.order_sign >
ordering.handle_reduce, with braid operations hanging off it.

A span's layer is the part of its name before the first dot.  Self time
is the span's duration minus the durations of its direct children; spans
nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
import statistics
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "size_in", "size_out", "error")

    def __init__(self, name: str, parent: int, op: int) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.size_in = self.size_out = None
        self.error = None


class Tracer:
    """Records spans while installed; `op` is the id of the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.op = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, size_in=None, size_out=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            if size_in is not None:
                span.size_in = size_in(args[0])
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if size_out is not None:
                span.size_out = size_out(result)
            return result

        return traced

    def install(self, lib) -> None:
        """Prepare wrappers for the library's call-through names; resume() puts them in place."""
        word = lib.braid.BraidWord
        targets = [
            (lib.ordering, "handle_reduce", "ordering.handle_reduce", len, len),
            (lib.ordering, "order_sign", "ordering.order_sign", None, None),
            (lib.ordering, "compare", "ordering.compare", None, None),
            (lib.fdtc, "compare", "ordering.compare", None, None),
            (lib.fdtc, "dehornoy_floor", "fdtc.dehornoy_floor", len, None),
            (lib.fdtc, "fdtc_exact", "fdtc.fdtc_exact", None, None),
            (lib.fdtc, "free_reduce", "braid.free_reduce", None, None),
            (lib.fdtc, "garside_delta", "braid.garside_delta", None, None),
            (lib.genus_bounds, "dehornoy_floor", "fdtc.dehornoy_floor", len, None),
            (lib.genus_bounds, "fdtc_exact", "fdtc.fdtc_exact", None, None),
            (lib.cli, "audit_bounds", "genus_bounds.audit_bounds", None, None),
            (word, "__pow__", "braid.power", None, None),
            (word, "__mul__", "braid.concat", None, None),
            (word, "inverse", "braid.inverse", None, None),
        ]
        for owner, attr, name, size_in, size_out in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(name, original, size_in, size_out)))

    def pause(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, op, size_in, size_out, error."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                      s.size_in, s.size_out, s.error]))
                out.write("\n")


def p90(values: list[float]) -> float:
    """The 90th percentile of a nonempty list, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans: list[Span], op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase; op_seconds is the phase's timed total."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    self_s: dict[str, float] = {}
    entries: dict[str, int] = {}
    for idx, s in enumerate(spans):
        lay = layer(s.name)
        self_s[lay] = self_s.get(lay, 0.0) + (s.end - s.start) - child_time[idx]
        if s.parent < 0 or layer(spans[s.parent].name) != lay:
            entries[lay] = entries.get(lay, 0) + 1

    reductions = [s for s in spans if s.name == "ordering.handle_reduce"]
    ordering_entries = [
        (s.end - s.start) * 1e3
        for s in spans
        if layer(s.name) == "ordering" and (s.parent < 0 or layer(spans[s.parent].name) != "ordering")
    ]
    floors = [s for s in spans if s.name == "fdtc.dehornoy_floor"]
    probes = sum(
        1 for s in spans
        if s.name == "ordering.compare" and s.parent >= 0 and spans[s.parent].name == "fdtc.dehornoy_floor"
    )
    busy = self_s.get("ordering", 0.0)
    letters_in = sum(s.size_in for s in reductions)
    per_floor = probes / len(floors) if floors else 0.0
    share = (lambda part: part / op_seconds) if op_seconds > 0 else (lambda part: 0.0)

    return {
        "ordering.calls": (entries.get("ordering", 0), "count"),
        "ordering.busy_s": (busy, "s"),
        "ordering.busy_share": (share(busy), "ratio"),
        "ordering.letters_in": (letters_in, "letters"),
        "ordering.letters_out": (sum(s.size_out or 0 for s in reductions), "letters"),
        "ordering.letters_per_s": (letters_in / busy if busy > 0 else 0.0, "letters/s"),
        "ordering.call_p90_ms": (p90(ordering_entries) if ordering_entries else 0.0, "ms"),
        "ordering.cap_errors": (sum(1 for s in reductions if s.error == "ReductionCapError"), "count"),
        "fdtc.floor_calls": (len(floors), "count"),
        "fdtc.probes": (probes, "count"),
        "fdtc.probes_per_floor": (per_floor, "count"),
        "fdtc.power_letters": (sum(s.size_in for s in floors), "letters"),
        "fdtc.certifying_probe_share": (2 / per_floor if per_floor else 0.0, "ratio"),
        "fdtc.self_s": (self_s.get("fdtc", 0.0), "s"),
        "braid.calls": (entries.get("braid", 0), "count"),
        "braid.self_s": (self_s.get("braid", 0.0), "s"),
        "genus_bounds.calls": (entries.get("genus_bounds", 0), "count"),
        "genus_bounds.self_s": (self_s.get("genus_bounds", 0.0), "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.self_share": (share(self_s.get("cli", 0.0)), "ratio"),
    }
