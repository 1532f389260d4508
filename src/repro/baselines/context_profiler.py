"""Context-sensitive dependence profiling (the paper's foil).

Attributes every dependence edge to the *calling context* of its head
access — the chain of function names on the call stack — exactly the
granularity of context-sensitive profilers ([2], and the dependence
profilers of [6, 8] the paper discusses). No loop-iteration structure
is recorded. Detection is :class:`~repro.core.shadow.ShadowMemory`
with the calling context as payload, so the pair stream is exactly
Alchemist's.

The paper's §III-B argument, reproducible with this class: take

    F() { for (i...) for (j...) { A(); B(); } }

and four variants whose A-to-B dependence stays within a j-iteration,
crosses j-iterations, crosses i-iterations, or crosses calls to F.
All four produce the *same* head context ``main -> F -> A`` and tail
context ``main -> F -> B``, so a context profile cannot tell which
loop (if any) is parallelizable — while Alchemist's execution index
distinguishes all four (see ``tests/core/test_profile_integration.py``
and ``benchmarks/bench_baselines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.profile_data import DepKind
from repro.core.shadow import BOUNDARY, ShadowMemory
from repro.runtime.tracing import Tracer

Context = tuple[str, ...]

_RAW, _WAR, _WAW = DepKind.RAW, DepKind.WAR, DepKind.WAW


@dataclass
class ContextEdge:
    """One dependence edge attributed to (head context, tail context)."""

    head_context: Context
    tail_context: Context
    head_pc: int
    tail_pc: int
    kind: DepKind
    min_tdep: int
    count: int = 1

    def observe(self, tdep: int) -> None:
        self.count += 1
        if tdep < self.min_tdep:
            self.min_tdep = tdep


@dataclass
class ContextProfile:
    """All context-attributed edges of one run."""

    edges: dict[tuple, ContextEdge] = field(default_factory=dict)
    instructions: int = 0

    def record(self, head_context: Context, tail_context: Context,
               head_pc: int, tail_pc: int, kind: DepKind,
               tdep: int) -> None:
        key = (head_context, tail_context, head_pc, tail_pc, kind)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = ContextEdge(head_context, tail_context,
                                          head_pc, tail_pc, kind, tdep)
        else:
            edge.observe(tdep)

    def edges_between(self, head_fn: str,
                      tail_fn: str) -> list[ContextEdge]:
        """Edges whose head context ends in ``head_fn`` and tail context
        ends in ``tail_fn``."""
        return [e for e in self.edges.values()
                if e.head_context and e.head_context[-1] == head_fn
                and e.tail_context and e.tail_context[-1] == tail_fn]

    def attribution_signature(self, head_fn: str,
                              tail_fn: str) -> set[tuple]:
        """What this profiler can say about head_fn -> tail_fn
        dependences: the set of (head context, tail context) pairs.
        Programs this signature cannot separate are indistinguishable
        to context-sensitive profiling."""
        return {(e.head_context, e.tail_context)
                for e in self.edges_between(head_fn, tail_fn)}


class ContextSensitiveTracer(Tracer):
    """Shadow-memory dependence detection with calling-context
    attribution only: the shadow payload is the calling context.

    A head context may be :data:`~repro.core.shadow.BOUNDARY`: a
    parallel segment starts from ``call_stack`` and a shadow seeded
    from its checkpoint, where the head's context lives in an earlier
    segment. Pairs with such a head go to ``deferred`` as ``(kind,
    addr, head_pc, head_t, tail_ctx, tail_pc, tail_t)`` for the merge
    to attribute; a serial run never has one.
    """

    def __init__(self, call_stack: Iterable[str] = ()) -> None:
        self.profile = ContextProfile()
        self._stack: list[str] = list(call_stack)
        self._context: Context = tuple(self._stack)
        self.shadow = ShadowMemory()
        self.deferred: list[tuple] = []

    # -- context maintenance ------------------------------------------------

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self._stack.append(fn_name)
        self._context = tuple(self._stack)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self._stack.pop()
        self._context = tuple(self._stack)

    # -- dependence detection ---------------------------------------------------
    # on_read/on_write are the per-event reference path; consume_span
    # is the same shadow step and edge update fused into one loop.

    def _pair(self, head_ctx, head_pc: int, head_t: int, pc: int,
              timestamp: int, kind: DepKind, addr: int) -> None:
        if head_ctx is BOUNDARY:
            self.deferred.append((kind, addr, head_pc, head_t,
                                  self._context, pc, timestamp))
        else:
            self.profile.record(head_ctx, self._context, head_pc, pc,
                                kind, timestamp - head_t)

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        write = self.shadow.on_read(addr, pc, self._context, timestamp)
        if write is not None:
            self._pair(write[1], write[0], write[2], pc, timestamp,
                       _RAW, addr)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        write, reads = self.shadow.on_write(addr, pc, self._context,
                                            timestamp)
        for read_pc, (read_ctx, read_t) in reads.items():
            self._pair(read_ctx, read_pc, read_t, pc, timestamp, _WAR,
                       addr)
        if write is not None:
            self._pair(write[1], write[0], write[2], pc, timestamp,
                       _WAW, addr)

    def consume_span(self, batch) -> None:
        """Every READ/WRITE of one memory-quiet span (no ENTER/EXIT
        inside, so one context throughout) in one loop: exactly
        :meth:`on_read`/:meth:`on_write`, minus the per-event and
        per-edge calls."""
        ctx = self._context
        entries = self.shadow.entries
        insert = self.shadow.insert
        edges = self.profile.edges
        deferred = self.deferred
        for etype, addr, pc, t in batch.rows():
            if etype == EV_READ:
                entry = entries.get(addr)
                if entry is None:
                    insert(addr, None, {pc: (ctx, t)})
                    continue
                write = entry[0]
                entry[1][pc] = (ctx, t)
                if write is None:
                    continue
                head_pc, head_ctx, head_t = write
                kind = _RAW
            elif etype == EV_WRITE:
                entry = entries.get(addr)
                if entry is None:
                    insert(addr, (pc, ctx, t), {})
                    continue
                write, reads = entry
                entry[0] = (pc, ctx, t)
                entry[1] = {}
                for head_pc, (head_ctx, head_t) in reads.items():
                    if head_ctx is BOUNDARY:
                        deferred.append((_WAR, addr, head_pc, head_t,
                                         ctx, pc, t))
                        continue
                    key = (head_ctx, ctx, head_pc, pc, _WAR)
                    edge = edges.get(key)
                    if edge is None:
                        edges[key] = ContextEdge(head_ctx, ctx, head_pc,
                                                 pc, _WAR, t - head_t)
                    else:
                        edge.count += 1
                        if t - head_t < edge.min_tdep:
                            edge.min_tdep = t - head_t
                if write is None:
                    continue
                head_pc, head_ctx, head_t = write
                kind = _WAW
            else:
                continue
            # The RAW (read) or WAW (write) pair with the last writer.
            if head_ctx is BOUNDARY:
                deferred.append((kind, addr, head_pc, head_t, ctx, pc, t))
                continue
            key = (head_ctx, ctx, head_pc, pc, kind)
            edge = edges.get(key)
            if edge is None:
                edges[key] = ContextEdge(head_ctx, ctx, head_pc, pc, kind,
                                         t - head_t)
            else:
                edge.count += 1
                if t - head_t < edge.min_tdep:
                    edge.min_tdep = t - head_t

    def on_frame_free(self, lo: int, hi: int) -> None:
        self.shadow.clear_range(lo, hi)

    def on_finish(self, timestamp: int) -> None:
        self.profile.instructions = timestamp


# Imported at the bottom on purpose, as in ``repro.analyses.builtin``:
# ``repro.trace`` imports the replay engine, which imports the
# analyses, which import this module; ``consume_span`` resolves these
# names at call time.
from repro.trace.events import EV_READ, EV_WRITE  # noqa: E402
