"""Context-sensitive dependence profiling (the paper's foil).

Attributes every dependence edge to the *calling context* of its head
access — the chain of function names on the call stack — exactly the
granularity of context-sensitive profilers ([2], and the dependence
profilers of [6, 8] the paper discusses). No loop-iteration structure
is recorded. Detection is the pair kernel of :mod:`repro.core.shadow`
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

import numpy as np

from repro.core.profile_data import DepKind
from repro.core.shadow import (BOUNDARY_ID, PAIR_KINDS, ShadowArrays,
                               group_pairs)

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


class ContextBlocks:
    """The context baseline over whole trace blocks, into ``profile``:
    the pairs come from the block kernel, with calling contexts as
    interned ids riding as the shadow payload. ``functions`` names the
    program's functions in order, the table ENTER rows index.

    A parallel segment starts from ``call_stack`` (the seam's function
    names, bottom to top) and the checkpoint's ``shadow`` rows, whose
    accesses carry :data:`~repro.core.shadow.BOUNDARY_ID`: their
    contexts live in an earlier segment, so a pair with such a head
    goes to ``deferred`` as ``(kind, addr, head_pc, head_t, tail_ctx,
    tail_pc, tail_t)`` for the merge to attribute. A serial run never
    defers.
    """

    def __init__(self, profile: ContextProfile, functions: list[str],
                 call_stack: Iterable[str] = (), shadow: list = ()):
        self.profile = profile
        self.functions = functions
        self.shadow = ShadowArrays.seed(shadow)
        self.deferred: list[tuple] = []
        # The interned contexts: id -> tuple, id -> parent id, (parent
        # id, callee) -> id; and the current context's id.
        self._contexts: list[Context] = [()]
        self._parents: list[int] = [-1]
        self._children: dict[tuple[int, str], int] = {}
        self._ctx = 0
        for name in call_stack:
            self._ctx = self._callee(self._ctx, name)

    def _callee(self, ctx: int, name: str) -> int:
        child = self._children.get((ctx, name))
        if child is None:
            child = self._children[(ctx, name)] = len(self._contexts)
            self._contexts.append(self._contexts[ctx] + (name,))
            self._parents.append(ctx)
        return child

    def frontier(self) -> dict:
        """:meth:`ShadowArrays.frontier
        <repro.core.shadow.ShadowArrays.frontier>` with each payload
        id decoded to its calling context."""
        return self.shadow.frontier(self._contexts.__getitem__)

    def consume_block(self, batch) -> None:
        """Every event of one trace block: the calling context of each
        event comes from the block's ENTER/EXIT rows (callees named
        through ``functions``), the pairs
        from the block kernel, and each block's pairs are folded per
        (head context, tail context, head pc, tail pc, kind)."""
        etypes, a, b, t = batch.arrays()
        calls = np.flatnonzero((etypes == EV_ENTER) | (etypes == EV_EXIT))
        ctx = self._ctx
        if len(calls):
            ids = [ctx]
            parents, callee = self._parents, self._callee
            functions = self.functions
            for etype, index in zip(etypes[calls].tolist(),
                                    a[calls].tolist()):
                if etype == EV_ENTER:
                    ctx = callee(ctx, functions[index])
                else:
                    ctx = parents[ctx]
                ids.append(ctx)
            mark = np.zeros(len(etypes), dtype=np.int64)
            mark[calls] = 1
            payload = np.array(ids, dtype=np.int64)[np.cumsum(mark)]
            self._ctx = ctx
        else:
            payload = np.full(len(etypes), ctx, dtype=np.int64)
        rows, head, tail, kind = self.shadow.step(etypes, a, b, t, payload)
        if len(etypes) and etypes[-1] == EV_FINISH:
            self.profile.instructions = int(t[-1])
        addr, pc, ts, ctxs = rows
        contexts = self._contexts
        head_ctx = ctxs[head]
        boundary = head_ctx == BOUNDARY_ID
        if boundary.any():
            deferred = (kind[boundary], addr[head[boundary]],
                        pc[head[boundary]], ts[head[boundary]],
                        ctxs[tail[boundary]], pc[tail[boundary]],
                        ts[tail[boundary]])
            for k, ad, head_pc, head_t, tail_ctx, tail_pc, tail_t in zip(
                    *(col.tolist() for col in deferred)):
                self.deferred.append((PAIR_KINDS[k], ad, head_pc, head_t,
                                      contexts[tail_ctx], tail_pc,
                                      tail_t))
            keep = ~boundary
            head, tail, kind = head[keep], tail[keep], kind[keep]
            head_ctx = head_ctx[keep]
        keys, minima, counts = group_pairs(
            (head_ctx, ctxs[tail], pc[head], pc[tail], kind),
            ts[tail] - ts[head])
        edges = self.profile.edges
        for h, tl, head_pc, tail_pc, k, tdep, count in zip(
                *keys, minima, counts):
            key = (contexts[h], contexts[tl], head_pc, tail_pc,
                   PAIR_KINDS[k])
            edge = edges.get(key)
            if edge is None:
                edges[key] = ContextEdge(*key, tdep, count)
            else:
                edge.count += count
                if tdep < edge.min_tdep:
                    edge.min_tdep = tdep


# Imported at the bottom on purpose, as in ``repro.analyses.builtin``:
# ``repro.trace`` imports the replay engine, which imports the
# analyses, which import this module; ``consume_block`` resolves these
# names at call time.
from repro.trace.events import EV_ENTER, EV_EXIT, EV_FINISH  # noqa: E402
