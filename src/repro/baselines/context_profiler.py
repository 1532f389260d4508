"""Context-sensitive dependence profiling (the paper's foil).

Attributes every dependence edge to the *calling context* of its head
access — the chain of function names on the call stack — exactly the
granularity of context-sensitive profilers ([2], and the dependence
profilers of [6, 8] the paper discusses). No loop-iteration structure
is recorded.

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

from repro.core.profile_data import DepKind
from repro.runtime.tracing import Tracer

Context = tuple[str, ...]


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
    attribution only."""

    def __init__(self) -> None:
        self.profile = ContextProfile()
        self._stack: list[str] = []
        self._context: Context = ()
        # addr -> [ (write_pc, write_ctx, write_t) | None,
        #           {read_pc: (read_ctx, read_t)} ]
        self._shadow: dict[int, list] = {}

    # -- context maintenance ------------------------------------------------

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self._stack.append(fn_name)
        self._context = tuple(self._stack)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self._stack.pop()
        self._context = tuple(self._stack)

    # -- dependence detection ---------------------------------------------------

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        entry = self._shadow.get(addr)
        if entry is None:
            self._shadow[addr] = [None, {pc: (self._context, timestamp)}]
            return
        write = entry[0]
        if write is not None:
            self.profile.record(write[1], self._context, write[0], pc,
                                DepKind.RAW, timestamp - write[2])
        entry[1][pc] = (self._context, timestamp)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        entry = self._shadow.get(addr)
        if entry is None:
            self._shadow[addr] = [(pc, self._context, timestamp), {}]
            return
        write, reads = entry
        for read_pc, (read_ctx, read_t) in reads.items():
            self.profile.record(read_ctx, self._context, read_pc, pc,
                                DepKind.WAR, timestamp - read_t)
        if write is not None:
            self.profile.record(write[1], self._context, write[0], pc,
                                DepKind.WAW, timestamp - write[2])
        entry[0] = (pc, self._context, timestamp)
        entry[1] = {}

    def on_frame_free(self, lo: int, hi: int) -> None:
        shadow = self._shadow
        if hi - lo < len(shadow):
            for addr in range(lo, hi):
                shadow.pop(addr, None)
        else:
            for addr in [a for a in shadow if lo <= a < hi]:
                del shadow[addr]

    def on_finish(self, timestamp: int) -> None:
        self.profile.instructions = timestamp
