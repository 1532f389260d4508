"""The profiling algorithm (paper §III-B, Table II), one edge at a time.

This per-edge walk is the reference: every dep profile (live,
replayed, ``Alchemist().profile``) takes the vectorised walk of
:mod:`repro.core.blockdep`, which the equivalence tests hold to this
one store for store.

Given a detected dependence edge — head access ``(pc_h, node_h, t_h)``
and tail access ``(pc_t, t_t)`` — walk the index tree bottom-up from the
head's enclosing construct, updating the min-Tdep profile of every
ancestor that has *completed* and has not been recycled, and stop at the
first still-active ancestor (for which the edge is an intra-construct
dependence).

The validity test ``Tenter <= Th <= Texit`` simultaneously rejects
active constructs (``Texit`` is reset to 0 on entry) and recycled nodes
(a recycled node's ``Tenter`` exceeds every timestamp observed before
its reuse — the argument of the paper's Theorem 1).

Since the tracer moved to garbage-collected node allocation
(:class:`repro.core.pool.NodeAllocator`), recycling never actually
happens: a node referenced by shadow memory keeps its true
``Tenter``/``Texit`` forever, so the walk sees exactly the completed
ancestors covering the head access and the profile is a pure function
of the event stream — the determinism sharded parallel replay
(:mod:`repro.trace.parallel`) relies on to merge per-segment profiles
bit-identically to a serial pass. The validity test is kept in its
recycling-tolerant form because the paper's fixed-pool discipline
(:class:`repro.core.pool.ConstructPool`) remains a supported
allocator and Theorem 1 still bounds what recycling under it can
change: only edges whose ``Tdep`` already exceeds the head construct's
duration.
"""

from __future__ import annotations

from repro.core.node import ConstructNode
from repro.core.profile_data import DepKind, EdgeStats, ProfileStore


def _unnamed(addr: int) -> str:
    return ""


class DependenceProfiler:
    """Applies Table II to each detected dependence.

    ``names`` resolves a conflicting address to its symbol (the
    tracer binds ``Memory.addr_to_name``); it runs only when a static
    edge is seen for the first time.
    """

    __slots__ = ("store", "names", "events", "updates")

    def __init__(self, store: ProfileStore, names=_unnamed):
        self.store = store
        self.names = names
        #: Dependence events processed (dynamic edges), by kind.
        self.events = {kind: 0 for kind in DepKind}
        #: Construct profiles touched (tree-walk steps that updated).
        self.updates = 0

    @property
    def edges_profiled(self) -> int:
        """Dynamic edges processed."""
        return sum(self.events.values())

    def profile_edge(self, head_pc: int, head_node: ConstructNode,
                     head_time: int, tail_pc: int, tail_time: int,
                     kind: DepKind, addr: int) -> int:
        """Record one dynamic dependence on ``addr``; returns #profiles
        updated."""
        self.events[kind] += 1
        node = head_node
        if node is None or not node.t_enter <= head_time <= node.t_exit:
            return 0  # the head's construct is still active
        key = (head_pc, tail_pc, kind)
        tdep = tail_time - head_time
        profiles = self.store.profiles
        name = None
        updated = 0
        while True:
            static = node.static
            profile = profiles.get(static.pc)
            if profile is None:
                profile = self.store.get_or_create(static)
            edges = profile.edges
            stats = edges.get(key)
            if stats is None:
                if name is None:
                    name = self.names(addr)
                edges[key] = EdgeStats(head_pc, tail_pc, kind, tdep, 1,
                                       name, first_t=tail_time)
            else:
                stats.count += 1
                if tdep < stats.min_tdep:
                    stats.min_tdep = tdep
            updated += 1
            node = node.parent
            if node is None or not node.t_enter <= head_time <= node.t_exit:
                break
        self.updates += updated
        return updated
