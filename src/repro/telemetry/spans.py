"""Hierarchical spans and metrics: the profiler's own profiler.

A :class:`Telemetry` object collects three kinds of self-observation:

* **spans** — named, nested wall/CPU timings with attributes, built
  with ``with tm.span("replay", trace=path) as span:``. Spans nest by
  dynamic scope (the innermost open span adopts new children), forming
  the tree ``--metrics`` dumps and ``alchemist stats`` renders.
* **counters** — monotonically accumulated event tallies
  (``tm.count("trace.events_decoded", n)``): decoded events, bytes
  read/written, cache hits/misses, …
* **gauges** — last-value-wins measurements (``tm.gauge(...)``): pool
  utilization, cache sizes at the end of a run.

Hot loops must never pay for telemetry: instrumented code bumps
counters *once per stage* from tallies the stage keeps anyway, not per
event, and the disabled path (:data:`NULL_TELEMETRY`) records nothing.
Disabled spans still measure wall/CPU time — stage timings (``RunStats``,
``RecordResult.wall_seconds``, per-segment worker costs) are derived
from the span objects in both modes, exactly as the old ad-hoc
``perf_counter`` blocks did, so enabling telemetry can never change a
reported number.

Clocks are injectable (``Telemetry(clock=..., cpu_clock=...)``) so span
trees in tests are deterministic.

Worker processes build their own ``Telemetry`` and ship
``export_spans()`` payloads back; the coordinator stitches them under
its own span with :meth:`Telemetry.attach`, which is how per-segment
replay spans appear under the parallel coordinator span.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Iterator

__all__ = ["Span", "Telemetry", "NullTelemetry", "NULL_TELEMETRY",
           "as_telemetry"]


class Span:
    """One timed, attributed node of the span tree.

    Use as a context manager (obtained from :meth:`Telemetry.span`);
    ``wall_seconds`` / ``cpu_seconds`` are valid after exit. Attributes
    set at creation or via :meth:`set` are plain JSON-able values.
    """

    __slots__ = ("name", "attrs", "children", "wall_seconds",
                 "cpu_seconds", "_tm", "_t0", "_c0")

    def __init__(self, tm: "Telemetry", name: str,
                 attrs: dict[str, Any] | None = None):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._tm = tm

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tm = self._tm
        stack = tm._stack
        parent = stack[-1] if stack else None
        (parent.children if parent is not None else tm.spans).append(self)
        stack.append(self)
        self._t0 = tm._wall()
        self._c0 = tm._cpu()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tm = self._tm
        self.cpu_seconds = tm._cpu() - self._c0
        self.wall_seconds = tm._wall() - self._t0
        if tm._stack and tm._stack[-1] is self:
            tm._stack.pop()
        else:  # pragma: no cover - misnested exit; keep the tree sane
            while tm._stack:
                if tm._stack.pop() is self:
                    break
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    @classmethod
    def from_dict(cls, tm: "Telemetry", payload: dict) -> "Span":
        span = cls(tm, payload["name"], payload.get("attrs"))
        span.wall_seconds = float(payload.get("wall_seconds", 0.0))
        span.cpu_seconds = float(payload.get("cpu_seconds", 0.0))
        span.children = [cls.from_dict(tm, child)
                         for child in payload.get("children", ())]
        return span

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Pre-order (depth, span) traversal of this subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class _NullSpan:
    """Disabled-path span: times itself (stage timings stay honest) but
    records nothing and is never linked into any tree."""

    __slots__ = ("wall_seconds", "cpu_seconds", "_t0", "_c0")

    def __enter__(self) -> "_NullSpan":
        self._t0 = _time.perf_counter()
        self._c0 = _time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cpu_seconds = _time.process_time() - self._c0
        self.wall_seconds = _time.perf_counter() - self._t0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


class Telemetry:
    """Collects one process's span tree, counters, and gauges."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None,
                 cpu_clock: Callable[[], float] | None = None):
        self._wall = clock if clock is not None else _time.perf_counter
        self._cpu = cpu_clock if cpu_clock is not None else \
            _time.process_time
        #: Completed/open top-level spans, in start order (a forest —
        #: one CLI invocation usually produces a single root).
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[Span] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; use as ``with tm.span("record") as span:``."""
        return Span(self, name, attrs)

    def attach(self, payload: dict | None) -> None:
        """Adopt an exported span tree (e.g. shipped back from a worker
        process) as a child of the currently open span."""
        if not payload:
            return
        span = Span.from_dict(self, payload)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.spans).append(span)

    def export_spans(self) -> dict | None:
        """The first top-level span as a payload dict (what workers ship
        to the coordinator), or None if nothing was recorded."""
        return self.spans[0].to_dict() if self.spans else None

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Accumulate ``n`` onto the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def merge_counters(self, counters: dict[str, int] | None) -> None:
        """Fold a worker's counter dict into this one (summing)."""
        for name, value in (counters or {}).items():
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a last-value-wins measurement."""
        self.gauges[name] = value

    # -- introspection -----------------------------------------------------

    def find_spans(self, name: str) -> list[Span]:
        """Every span named ``name``, in pre-order."""
        return [span for root in self.spans
                for _, span in root.walk() if span.name == name]


class NullTelemetry:
    """The disabled path: API-compatible, records nothing.

    Spans still measure time (see :class:`_NullSpan`) so instrumented
    code can read ``span.wall_seconds`` unconditionally; everything
    else is a no-op. Shared as :data:`NULL_TELEMETRY` — the class keeps
    no state, so one instance serves the whole process.
    """

    enabled = False
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    spans: list = []

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NullSpan()

    def attach(self, payload: dict | None) -> None:
        pass

    def export_spans(self) -> None:
        return None

    def count(self, name: str, n: int = 1) -> None:
        pass

    def merge_counters(self, counters: dict[str, int] | None) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def find_spans(self, name: str) -> list:
        return []


#: Process-wide disabled telemetry; the default everywhere.
NULL_TELEMETRY = NullTelemetry()


def as_telemetry(tm: "Telemetry | NullTelemetry | None"
                 ) -> "Telemetry | NullTelemetry":
    """Normalize an optional telemetry argument (None -> disabled)."""
    return tm if tm is not None else NULL_TELEMETRY
