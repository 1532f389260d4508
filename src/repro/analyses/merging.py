"""Cross-segment merge machinery for sharded parallel replay.

Workers replay disjoint trace segments with full pre-segment *memory*
state (reconstructed from a checkpoint) but cold *analysis* state, so
every dependence whose head lies before the segment is detected — the
checkpointed shadow pairs the tail with its true head ``(pc, t)`` —
but cannot be attributed locally: attribution needs the head's
execution-index chain (``dep``), or its calling context (``context``),
which live in the segment that executed the head. Workers therefore
**defer** such pairs, and export alongside their partial profile a
**live-writer frontier**: for every address still tracked at segment
end, the in-segment last write and per-pc reads, each tagged with its
attribution payload (index-tree chain / context). The left-to-right
fold (:meth:`repro.analyses.base.AnalysisSegment.merge`) keeps the
running frontier, resolves each segment's deferred pairs against it,
and folds the partial profiles — producing results bit-identical to a
serial pass.

Identity across segments uses timestamps, which the interpreter makes
unambiguous: the clock advances once per instruction, so

* a construct instance is globally identified by
  ``(head pc, Tenter)`` — no two pushes share a timestamp;
* an ancestor was completed *before* a deferred tail at ``Tt`` iff its
  ``Texit < Tt`` — pops share a timestamp with a tail only inside one
  ``ret`` instruction (return-value write, then the pop), where the
  serial engine sees the construct still active, matching the strict
  inequality;
* the first observation of a static edge (which fixes ``var_hint``) is
  the one with the smallest tail timestamp — no two observations of
  the same edge share one.

The locality merge is different in kind: reuse distances need no
frontier, but a cross-segment reuse's distance spans the seam. Each
segment exports, per first-in-segment access, how many distinct
addresses preceded it locally; the fold counts the live last-access
positions between the global previous access and the seam with a
Fenwick tree, subtracting addresses whose live position already moved
into the new segment. Intra-segment distances are exact as computed
(every intervening access lies inside the segment), so the merged
histogram is exact, not approximate.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.analyses.base import AnalysisError
from repro.core.profiler import BOUNDARY


# ---------------------------------------------------------------------------
# Construct-instance records shared across the fold (dep analysis)
# ---------------------------------------------------------------------------

class NodeRec:
    """One construct instance, as the merge sees it.

    Created when any segment exports the instance (in a frontier chain
    or as part of its seeded stack); ``t_exit`` stays 0 until the
    segment that actually pops it reports the completion, at which
    point every earlier chain referencing this record sees it — that
    is how a head recorded in segment i gets attributed to an ancestor
    that completes in segment j > i.
    """

    __slots__ = ("pc", "t_enter", "t_exit", "parent")

    def __init__(self, pc: int, t_enter: int, t_exit: int = 0,
                 parent: "NodeRec | None" = None):
        self.pc = pc
        self.t_enter = t_enter
        self.t_exit = t_exit
        self.parent = parent


def register_nodes(recs: dict, nodes: dict) -> dict:
    """Fold one segment's exported node table into the shared records.

    ``nodes`` maps local id -> ``(pc, t_enter, t_exit, parent_id)``;
    returns local id -> :class:`NodeRec` for resolving this segment's
    chain references. Completion times fill in monotonically (a pop is
    reported by exactly one segment)."""
    local: dict[int, NodeRec] = {}
    for nid, (pc, t_enter, t_exit, _parent) in nodes.items():
        key = (pc, t_enter)
        rec = recs.get(key)
        if rec is None:
            rec = NodeRec(pc, t_enter)
            recs[key] = rec
        if t_exit and not rec.t_exit:
            rec.t_exit = t_exit
        local[nid] = rec
    for nid, (_pc, _t, _x, parent_id) in nodes.items():
        if parent_id is not None and local[nid].parent is None:
            local[nid].parent = local[parent_id]
    return local


def resolve_deferred_dep(deferred: list, frontier: dict,
                         profile: dict, counters: dict) -> None:
    """Attribute one segment's deferred dependence pairs.

    Each entry is ``(kind, addr, head_pc, head_t, tail_pc, tail_t,
    var_hint)``; the head's chain comes from the running frontier. The
    walk mirrors ``DependenceProfiler.profile_edge`` exactly, with
    "completed and not recycled" expressed in merge terms: ``Texit``
    known, ``< Tt``, and covering the head timestamp (nodes are never
    recycled under the GC allocator, so no staleness cases exist).
    """
    for kind, addr, head_pc, head_t, tail_pc, tail_t, hint in deferred:
        entry = frontier.get(addr)
        if entry is None:
            raise AnalysisError(
                f"deferred {kind.value} pair at address {addr} has no "
                "frontier entry (corrupt segment export)")
        if kind.value == "WAR":
            head = entry[2].get(head_pc)
            if head is None or head[0] != head_t:
                raise AnalysisError(
                    f"deferred WAR head at address {addr} does not "
                    "match the frontier (corrupt segment export)")
            rec = head[1]
        else:
            head = entry[1]
            if head is None or head[0] != head_pc or head[1] != head_t:
                raise AnalysisError(
                    f"deferred {kind.value} head at address {addr} "
                    "does not match the frontier (corrupt segment "
                    "export)")
            rec = head[2]
        counters[kind.value] += 1
        counters["edges_profiled"] += 1
        tdep = tail_t - head_t
        key = (head_pc, tail_pc, kind)
        while rec is not None and rec.t_exit \
                and rec.t_exit < tail_t \
                and rec.t_enter <= head_t <= rec.t_exit:
            prof = profile.get(rec.pc)
            if prof is None:
                prof = profile[rec.pc] = [0, 0, 0, {}]
            edges = prof[3]
            stats = edges.get(key)
            if stats is None:
                edges[key] = [tdep, 1, hint, tail_t]
            else:
                stats[1] += 1
                if tdep < stats[0]:
                    stats[0] = tdep
                if tail_t < stats[3]:
                    stats[2] = hint
                    stats[3] = tail_t
            rec = rec.parent


def merge_dep_profiles(acc: dict, part: dict) -> None:
    """Fold per-construct aggregates: durations and instances add, max
    duration maxes, edges combine by (min, sum, earliest var_hint)."""
    for pc, (dur, inst, max_dur, edges) in part.items():
        mine = acc.get(pc)
        if mine is None:
            acc[pc] = [dur, inst, max_dur,
                       {key: list(stats) for key, stats in edges.items()}]
            continue
        mine[0] += dur
        mine[1] += inst
        if max_dur > mine[2]:
            mine[2] = max_dur
        my_edges = mine[3]
        for key, (min_tdep, count, hint, first_t) in edges.items():
            stats = my_edges.get(key)
            if stats is None:
                my_edges[key] = [min_tdep, count, hint, first_t]
            else:
                stats[1] += count
                if min_tdep < stats[0]:
                    stats[0] = min_tdep
                if first_t < stats[3]:
                    stats[2] = hint
                    stats[3] = first_t


def update_dep_frontier(frontier: dict, part_frontier: dict,
                        local_recs: dict) -> None:
    """Advance the live-writer frontier past one segment.

    ``part_frontier`` maps addr -> ``(wrote, write, reads)`` with
    ``write = (pc, t, node_id)`` and ``reads = {pc: (t, node_id)}``. A
    segment that wrote the address supersedes the entry wholesale
    (its write also reset the read set, exactly like the shadow); a
    read-only touch folds into the existing read set per static pc.
    Entries for addresses a later segment freed simply go stale — a
    deferred pair can only reference state the checkpoint still
    carried, so stale entries are never consulted.
    """
    for addr, (wrote, write, reads) in part_frontier.items():
        new_reads = {pc: (t, local_recs[nid])
                     for pc, (t, nid) in reads.items()}
        if wrote:
            new_write = (None if write is None
                         else (write[0], write[1], local_recs[write[2]]))
            frontier[addr] = [addr, new_write, new_reads]
        else:
            entry = frontier.get(addr)
            if entry is None:
                frontier[addr] = [addr, None, new_reads]
            else:
                entry[2].update(new_reads)


# ---------------------------------------------------------------------------
# Context-profile merge (same frontier idea, contexts instead of chains)
# ---------------------------------------------------------------------------

def resolve_deferred_context(deferred: list, frontier: dict,
                             edges: dict) -> None:
    """Attribute deferred pairs for the context baseline: the frontier
    carries the head's calling context instead of an index chain."""
    for kind, addr, head_pc, head_t, tail_ctx, tail_pc, tail_t in deferred:
        entry = frontier.get(addr)
        if entry is None:
            raise AnalysisError(
                f"deferred {kind.value} pair at address {addr} has no "
                "frontier entry (corrupt segment export)")
        if kind.value == "WAR":
            head = entry[1].get(head_pc)
            if head is None or head[0] != head_t:
                raise AnalysisError(
                    f"deferred WAR head at address {addr} does not "
                    "match the frontier")
            head_ctx = head[1]
        else:
            head = entry[0]
            if head is None or head[0] != head_pc or head[1] != head_t:
                raise AnalysisError(
                    f"deferred {kind.value} head at address {addr} "
                    "does not match the frontier")
            head_ctx = head[2]
        key = (head_ctx, tail_ctx, head_pc, tail_pc, kind)
        tdep = tail_t - head_t
        stats = edges.get(key)
        if stats is None:
            edges[key] = [tdep, 1]
        else:
            stats[1] += 1
            if tdep < stats[0]:
                stats[0] = tdep


def update_context_frontier(frontier: dict, part_frontier: dict) -> None:
    """Context twin of :func:`update_dep_frontier`; ``write`` is
    ``(pc, t, context)`` and ``reads`` maps pc -> ``(t, context)``."""
    for addr, (wrote, write, reads) in part_frontier.items():
        if wrote:
            frontier[addr] = [write, dict(reads)]
        else:
            entry = frontier.get(addr)
            if entry is None:
                frontier[addr] = [None, dict(reads)]
            else:
                entry[1].update(reads)


# ---------------------------------------------------------------------------
# Exact cross-segment reuse distances (locality analysis)
# ---------------------------------------------------------------------------

class LivePositions:
    """Live last-access positions over the merged prefix.

    Positions are appended in strictly increasing order (each segment's
    accesses come after all earlier ones), so the backing array stays
    sorted and a Fenwick tree over it answers "how many *live*
    positions exceed q" in O(log n); superseding an address's last
    access kills its old position.
    """

    __slots__ = ("positions", "tree", "live")

    def __init__(self) -> None:
        self.positions: list[int] = []
        self.tree: list[int] = [0]
        self.live = 0

    def _prefix(self, i: int) -> int:
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def append(self, pos: int) -> int:
        """Add a live position (> all existing); returns its slot."""
        index = len(self.positions) + 1
        self.positions.append(pos)
        # Fenwick append: node `index` covers (index - lowbit, index].
        before = self._prefix(index - 1)
        self.tree.append(1 + before
                         - self._prefix(index - (index & -index)))
        self.live += 1
        return index

    def kill(self, index: int) -> None:
        tree = self.tree
        size = len(self.positions)
        while index <= size:
            tree[index] -= 1
            index += index & (-index)
        self.live -= 1

    def count_after(self, pos: int) -> int:
        """Live positions strictly greater than ``pos``."""
        return self.live - self._prefix(bisect_right(self.positions, pos))


def fold_locality(acc: dict, part: dict) -> None:
    """Fold one segment's locality export into the accumulator.

    ``part``: ``accesses``, intra-segment ``hist``, ``order`` — per
    segment-first access of an address, ``(addr, distinct addresses
    seen earlier in the segment)`` in stream order — and ``last``
    (addr -> local last position). For each cross-segment reuse the
    distance is::

        pre_distinct                       (live positions inside the
                                            segment, before this access)
      + live prefix positions > q          (last accesses between the
                                            previous access and the seam)
      - already-swept addrs with old > q   (their live position moved
                                            into the segment: counted by
                                            pre_distinct already)

    which equals the serial count of live positions strictly
    between the previous access ``q`` and this one.
    """
    last = acc["last"]
    live: LivePositions = acc["live"]
    hist = acc["hist"]
    offset = acc["offset"]

    order = part["order"]
    # Correction sweep: for each cross access, count the already-swept
    # addresses whose old global position exceeds its q — a Fenwick
    # over the per-segment ranks of the q values (known up front).
    cross = [(addr, pre_d, last[addr][0])
             for addr, pre_d in order if addr in last]
    qs = sorted({q for _a, _p, q in cross})
    rank = {q: i + 1 for i, q in enumerate(qs)}
    rank_tree = [0] * (len(qs) + 1)

    def rank_prefix(i: int) -> int:
        total = 0
        while i > 0:
            total += rank_tree[i]
            i -= i & (-i)
        return total

    def rank_add(i: int) -> None:
        while i <= len(qs):
            rank_tree[i] += 1
            i += i & (-i)

    inserted = 0
    for addr, pre_d, q in cross:
        distance = pre_d + live.count_after(q) \
            - (inserted - rank_prefix(rank[q]))
        bucket = distance.bit_length()
        hist[bucket] = hist.get(bucket, 0) + 1
        rank_add(rank[q])
        inserted += 1
    acc["cold"] += len(order) - len(cross)

    for bucket, count in part["hist"].items():
        hist[bucket] = hist.get(bucket, 0) + count
    # Sorted by position: LivePositions is append-only increasing, and
    # the export dict is keyed in first-access order, not last-access.
    for addr, local_pos in sorted(part["last"].items(),
                                  key=lambda item: item[1]):
        global_pos = offset + local_pos
        old = last.get(addr)
        if old is not None:
            live.kill(old[1])
        last[addr] = (global_pos, live.append(global_pos))
    acc["offset"] = offset + part["accesses"]
    acc["accesses"] += part["accesses"]


# ---------------------------------------------------------------------------
# Segment tracers: serial tracers + boundary seeding + deferral
# ---------------------------------------------------------------------------

class SegmentAlchemistTracer:
    """The Alchemist tracer state of one parallel worker.

    Seeds an unmodified :class:`~repro.core.tracer.AlchemistTracer`:
    its indexing stack from the checkpoint, its shadow with
    boundary-sentinel accesses, and its profiler's ``deferred`` list,
    so the shared dependence walk defers any pair whose head is a
    sentinel instead of walking an index chain that lives in an
    earlier segment. Events go straight to the inner tracer; this
    object only exports the segment's nodes and frontier.
    """

    def __init__(self, inner, seed):
        self.inner = inner
        self.deferred: list = []
        inner.profiler.deferred = self.deferred
        inner.stack.seed(seed.construct_stack)
        self.seeded_nodes = list(inner.stack.stack)
        for addr, write, reads in seed.shadow:
            inner.shadow.insert(
                addr,
                None if write is None else (write[0], BOUNDARY, write[1]),
                {pc: (BOUNDARY, t) for pc, t in reads.items()})

    def export_nodes(self):
        """Serialize every construct instance the merge must know:
        the seeded stack (their pops complete earlier segments'
        chains) plus everything reachable from the final shadow, with
        ancestor chains. Returns ``(nodes, node_id_of)``."""
        ids: dict[int, int] = {}
        nodes: dict[int, tuple] = {}

        def intern(node) -> int:
            nid = ids.get(id(node))
            if nid is not None:
                return nid
            nid = len(ids)
            ids[id(node)] = nid
            parent = node.parent
            parent_id = intern(parent) if parent is not None else None
            nodes[nid] = (node.static.pc, node.t_enter, node.t_exit,
                          parent_id)
            return nid

        for node in self.seeded_nodes:
            intern(node)
        for entry in self.inner.shadow._entries.values():
            write, reads = entry
            if write is not None and write[1] is not BOUNDARY:
                intern(write[1])
            for read_node, _t in reads.values():
                if read_node is not BOUNDARY:
                    intern(read_node)
        return nodes, (lambda node: ids[id(node)])

    def export_frontier(self, node_id_of):
        """addr -> (wrote, write, reads) for segment-born accesses."""
        frontier: dict[int, tuple] = {}
        for addr, (write, reads) in self.inner.shadow._entries.items():
            wrote = write is not None and write[1] is not BOUNDARY
            out_reads = {pc: (t, node_id_of(node))
                         for pc, (node, t) in reads.items()
                         if node is not BOUNDARY}
            if not wrote and not out_reads:
                continue
            out_write = ((write[0], write[2], node_id_of(write[1]))
                         if wrote else None)
            frontier[addr] = (wrote, out_write, out_reads)
        return frontier


class SegmentContextTracer:
    """Context-baseline twin of :class:`SegmentAlchemistTracer`.

    Seeds an unmodified
    :class:`~repro.baselines.context_profiler.ContextSensitiveTracer`:
    its call stack from the checkpointed frame stack, its shadow from
    the checkpoint with every head context replaced by the boundary
    sentinel. The tracer itself (per-event hooks and fused span loop
    alike) defers pairs whose head is a sentinel to its ``deferred``
    list, for the merge to attribute via the context frontier. Events
    go straight to the inner tracer; this object only exports the
    segment's frontier.
    """

    def __init__(self, seed):
        from repro.baselines.context_profiler import ContextSensitiveTracer

        inner = ContextSensitiveTracer()
        inner._stack = list(seed.call_stack)
        inner._context = tuple(inner._stack)
        for addr, write, reads in seed.shadow:
            inner._shadow[addr] = [
                None if write is None else (write[0], BOUNDARY, write[1]),
                {pc: (BOUNDARY, t) for pc, t in reads.items()}]
        self.inner = inner
        self.deferred = inner.deferred

    def export_frontier(self):
        """addr -> (wrote, write, reads) for segment-born accesses."""
        frontier: dict[int, tuple] = {}
        for addr, (write, reads) in self.inner._shadow.items():
            wrote = write is not None and write[1] is not BOUNDARY
            out_reads = {pc: (t, ctx) for pc, (ctx, t) in reads.items()
                         if ctx is not BOUNDARY}
            if not wrote and not out_reads:
                continue
            out_write = (write[0], write[2], write[1]) if wrote else None
            frontier[addr] = (wrote, out_write, out_reads)
        return frontier
