"""Cross-segment merge machinery for sharded parallel replay.

Workers replay disjoint trace segments with full pre-segment *memory*
state (reconstructed from a checkpoint) but cold *analysis* state, so
every dependence whose head lies before the segment is detected — the
checkpointed shadow pairs the tail with its true head ``(pc, t)`` —
but cannot be attributed locally: attribution needs the head's
execution-index chain (``dep``), or its calling context (``context``),
which live in the segment that executed the head. Workers therefore
**defer** such pairs, and export alongside their partial profile a
**live-writer frontier** (:meth:`~repro.core.shadow.ShadowArrays.frontier`):
for every address still tracked at segment end, the in-segment last
write and per-pc reads, each tagged with its attribution payload
(index-tree chain / context). The left-to-right fold
(:meth:`repro.analyses.base.Analysis.merge_segments`) keeps the running
frontier, resolves each segment's deferred pairs against it, and folds
the partial profiles — producing results bit-identical to a serial
pass.

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


# ---------------------------------------------------------------------------
# The live-writer frontier and the profile folds (dep, context, flat)
# ---------------------------------------------------------------------------

def frontier_head(frontier: dict, kind, addr: int, head_pc: int,
                  head_t: int):
    """The attribution payload of one deferred pair's head, looked up
    in the running frontier (see :func:`update_frontier`)."""
    entry = frontier.get(addr)
    if entry is None:
        raise AnalysisError(
            f"deferred {kind.value} pair at address {addr} has no "
            "frontier entry (corrupt segment export)")
    if kind.value == "WAR":
        head = entry[1].get(head_pc)
        if head is not None and head[0] == head_t:
            return head[1]
    else:
        head = entry[0]
        if head is not None and head[0] == head_pc and head[1] == head_t:
            return head[2]
    raise AnalysisError(
        f"deferred {kind.value} head at address {addr} does not match "
        "the frontier (corrupt segment export)")


def update_frontier(frontier: dict, part_frontier: dict,
                    decode=lambda p: p) -> None:
    """Advance the live-writer frontier past one segment.

    ``part_frontier`` is the segment's
    :meth:`~repro.core.shadow.ShadowArrays.frontier`: addr ->
    ``(write, reads)`` with ``write = (pc, t, payload) | None`` and
    ``reads = {pc: (t, payload)}``; ``decode`` maps an exported payload
    to the one the frontier keeps. A segment that wrote the address
    supersedes the entry wholesale (its write also reset the read set,
    exactly like the shadow); a read-only touch folds into the existing
    read set per static pc. Entries for addresses a later segment freed
    simply go stale — a deferred pair can only reference state the
    checkpoint still carried, so stale entries are never consulted.
    """
    for addr, (write, reads) in part_frontier.items():
        new_reads = {pc: (t, decode(p)) for pc, (t, p) in reads.items()}
        if write is not None:
            frontier[addr] = [(write[0], write[1], decode(write[2])),
                              new_reads]
        else:
            entry = frontier.get(addr)
            if entry is None:
                frontier[addr] = [None, new_reads]
            else:
                entry[1].update(new_reads)


def fold_edges(acc: dict, part: dict) -> None:
    """Fold ``key -> [min Tdep, count]`` edge aggregates (the flat and
    context baselines): counts add, minimum distances min."""
    for key, (min_tdep, count) in part.items():
        stats = acc.get(key)
        if stats is None:
            acc[key] = [min_tdep, count]
        else:
            stats[1] += count
            if min_tdep < stats[0]:
                stats[0] = min_tdep


def resolve_deferred_dep(deferred: list, frontier: dict,
                         profile: dict, counters: dict) -> None:
    """Attribute one segment's deferred dependence pairs.

    Each entry is ``(kind, addr, head_pc, head_t, tail_pc, tail_t,
    var_hint)``; the head's chain comes from the running frontier. The
    walk mirrors Table II's per-edge walk exactly, with
    "completed and not recycled" expressed in merge terms: ``Texit``
    known, ``< Tt``, and covering the head timestamp (instances are
    never recycled, so no staleness cases exist).
    """
    for kind, addr, head_pc, head_t, tail_pc, tail_t, hint in deferred:
        rec = frontier_head(frontier, kind, addr, head_pc, head_t)
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


def resolve_deferred_context(deferred: list, frontier: dict,
                             edges: dict) -> None:
    """Attribute deferred pairs for the context baseline: the frontier
    carries the head's calling context instead of an index chain."""
    for kind, addr, head_pc, head_t, tail_ctx, tail_pc, tail_t in deferred:
        head_ctx = frontier_head(frontier, kind, addr, head_pc, head_t)
        fold_edges(edges, {(head_ctx, tail_ctx, head_pc, tail_pc, kind):
                           (tail_t - head_t, 1)})


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
