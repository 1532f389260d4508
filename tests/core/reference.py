"""The per-event dependence profiler: the oracle the block engine is
held to.

Every library entry point profiles with
:class:`~repro.core.blockdep.BlockDependence`, which indexes a whole
block at a time (:class:`~repro.core.instances.InstanceTable`), pairs
its accesses in numpy (:meth:`~repro.core.shadow.ShadowArrays.step`)
and walks Table II over arrays. This module keeps the engine it
replaced, one event at a time, as the reference the differential tests
compare it with:

* :class:`ShadowMemory` — the per-address access history as dicts;
* :class:`IndexingStack` — the execution-indexing rules (Fig. 5) on a
  stack of :class:`~repro.core.node.ConstructNode` objects, taken from
  a :class:`NodeAllocator` or the paper's
  :class:`~repro.core.pool.ConstructPool`;
* :class:`ProfileStore` — the library's store plus the recursion
  nesting counters the stack drives (§III-B "Recursion");
* :class:`DependenceProfiler` — the per-edge Table II walk;
* :class:`AlchemistTracer` — the four glued to the tracer hooks, on
  the interpreter through the record→hook adapter.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.analysis.constructs import (ConstructKind, ConstructTable,
                                       StaticConstruct)
from repro.core import profile_data
from repro.core.node import ConstructNode
from repro.core.pool import PoolStats
from repro.core.profile_data import DepKind, EdgeStats
from repro.runtime.memory import Memory
from repro.runtime.tracing import Tracer

#: A recorded access: (pc, payload at access time, timestamp).
Access = tuple[int, Any, int]

_RAW, _WAR, _WAW = DepKind.RAW, DepKind.WAR, DepKind.WAW

#: Bucket granularity of the shadow's address index: 2**6 = 64 words.
_BUCKET_BITS = 6
_BUCKET_SIZE = 1 << _BUCKET_BITS


class ShadowMemory:
    """Address -> access history, one event at a time.

    ``entries`` maps addr -> ``[last write | None, {reader pc:
    (payload, t)}]``, the reads in first-read order since the write. A
    read reports the RAW head (the last write); a write reports the WAW
    head and the WAR heads, then forgets the reads. The payload is
    opaque: a construct node, a calling context, a loop tag, ``None``.
    Only the methods here write ``entries``; it is public as the state
    :class:`~repro.core.shadow.ShadowArrays` is checked against.

    Tracked addresses are also indexed by bucket (``addr >> 6``), so a
    range wider than one bucket is cleared by walking only the buckets
    it spans and the addresses they hold. A range no wider than a bucket
    is cleared address by address and leaves its addresses in their
    bucket: a bucket holds every tracked address of its slice plus
    possibly stale ones, which the next bucket walk over it drops.
    """

    __slots__ = ("entries", "_buckets")

    def __init__(self) -> None:
        self.entries: dict[int, list] = {}
        # (addr >> _BUCKET_BITS) -> addrs inserted into that bucket: a
        # superset of its tracked addrs.
        self._buckets: defaultdict[int, set[int]] = defaultdict(set)

    def on_read(self, addr: int, pc: int, payload: Any,
                timestamp: int) -> Access | None:
        """Record a read; returns the RAW head (the last write), if any."""
        entry = self.entries.get(addr)
        if entry is None:
            self.insert(addr, None, {pc: (payload, timestamp)})
            return None
        entry[1][pc] = (payload, timestamp)
        return entry[0]

    def on_write(self, addr: int, pc: int, payload: Any, timestamp: int
                 ) -> tuple[Access | None, dict[int, tuple]]:
        """Record a write; returns (WAW head, WAR heads by reader pc)."""
        entry = self.entries.get(addr)
        if entry is None:
            self.insert(addr, (pc, payload, timestamp), {})
            return None, {}
        old_write, reads = entry
        entry[0] = (pc, payload, timestamp)
        entry[1] = {}
        return old_write, reads

    def insert(self, addr: int, write: Access | None,
               reads: dict[int, tuple]) -> None:
        """Start tracking ``addr`` with the given last write and per-pc
        reads."""
        self.entries[addr] = [write, reads]
        self._buckets[addr >> _BUCKET_BITS].add(addr)

    def clear_range(self, lo: int, hi: int) -> None:
        """Forget all state for addresses in ``[lo, hi)``.

        Cost: O(range) up to one bucket's width; beyond it,
        O(addresses held by the buckets the range touches) plus
        O(buckets spanned / tracked buckets, whichever is smaller).
        """
        if hi <= lo:
            return
        pop = self.entries.pop
        if hi - lo <= _BUCKET_SIZE:
            for addr in range(lo, hi):
                pop(addr, None)
            return
        buckets = self._buckets
        lo_bucket = lo >> _BUCKET_BITS
        hi_bucket = (hi - 1) >> _BUCKET_BITS
        if hi_bucket - lo_bucket + 1 <= len(buckets):
            span = range(lo_bucket, hi_bucket + 1)
        else:
            # A huge range over a small shadow: walk the tracked
            # buckets instead of the (mostly empty) bucket range.
            span = [b for b in buckets if lo_bucket <= b <= hi_bucket]
        for b in span:
            bucket = buckets.get(b)
            if bucket is None:
                continue
            if lo <= (b << _BUCKET_BITS) and \
                    ((b + 1) << _BUCKET_BITS) <= hi:
                # Bucket fully covered: drop it wholesale.
                for addr in bucket:
                    pop(addr, None)
                del buckets[b]
            else:
                # Boundary bucket: filter.
                doomed = [addr for addr in bucket if lo <= addr < hi]
                if len(doomed) == len(bucket):
                    del buckets[b]
                else:
                    bucket.difference_update(doomed)
                for addr in doomed:
                    pop(addr, None)

    def tracked_addresses(self) -> int:
        return len(self.entries)

    def last_write(self, addr: int) -> Access | None:
        entry = self.entries.get(addr)
        return entry[0] if entry is not None else None

    # -- seam format ---------------------------------------------------

    def snapshot(self) -> list:
        """The checkpoint rows ``[[addr, wpc, wt, [[rpc, rt], ...]],
        ...]``, sorted by address and reads by pc; ``wpc == -1`` (with
        ``wt == 0``) means no write recorded. Payloads are dropped."""
        rows = []
        entries = self.entries
        for addr in sorted(entries):
            write, reads = entries[addr]
            wpc, wt = (-1, 0) if write is None else (write[0], write[2])
            rows.append([addr, wpc, wt,
                         sorted([pc, t] for pc, (_p, t) in reads.items())])
        return rows


class NodeAllocator:
    """Garbage-collected "infinite pool": a fresh node per acquire.

    Interface-compatible with :class:`~repro.core.pool.ConstructPool`
    (the indexing stack drives either). A completed instance stays
    addressable exactly as long as the shadow or the index tree can
    reach it, so a node's ``Tenter``/``Texit`` are never overwritten by
    reuse and the profile equals what an infinitely large pool would
    produce. ``capacity`` is the peak number of live nodes, ``grows``
    counts allocations; reuses and scans are zero by construction.
    """

    def __init__(self):
        self.stats = PoolStats()
        self._live = 0

    def acquire(self, timestamp: int) -> ConstructNode:
        stats = self.stats
        stats.acquires += 1
        stats.grows += 1
        self._live += 1
        if self._live > stats.capacity:
            stats.capacity = self._live
        return ConstructNode()

    def release(self, node: ConstructNode) -> None:
        self._live -= 1

    def live_count(self) -> int:
        """Nodes acquired and not yet released (the indexing stack)."""
        return self._live


class ProfileStore(profile_data.ProfileStore):
    """The library's store plus the recursion nesting counters the
    indexing stack drives: only the outermost of nested same-pc
    instances folds its duration (§III-B "Recursion")."""

    def __init__(self) -> None:
        super().__init__()
        self._nesting: dict[int, int] = {}

    def on_construct_enter(self, static: StaticConstruct) -> None:
        self.dynamic_instances += 1
        self._nesting[static.pc] = self._nesting.get(static.pc, 0) + 1

    def on_construct_complete(self, node: ConstructNode) -> None:
        """Table I lines 19-21, guarded by the nesting counter."""
        static = node.static
        depth = self._nesting[static.pc] - 1
        self._nesting[static.pc] = depth
        if depth > 0:
            return
        profile = self.get_or_create(static)
        duration = node.t_exit - node.t_enter
        profile.total_duration += duration
        profile.instances += 1
        if duration > profile.max_duration:
            profile.max_duration = duration


class IndexingStack:
    """The execution-indexing stack (paper §III-A, Fig. 5), one event
    at a time: the rules :class:`~repro.core.instances.InstanceTable`
    memoises, generalized to compiled control flow.

    * rule 1/2 (procedures): push at entry; at exit pop every entry down
      to and including the procedure's own node;
    * rule 3 (non-loop predicate): push, unless the branch jumps
      straight to the predicate's immediate post-dominator;
    * rule 4 (loop predicate): pop every predicate entry whose block
      lies in the loop's body, then push if the branch enters the body;
    * rule 5 (construct end): on entry to block ``B``, pop predicate
      entries whose region does not contain ``B``.

    Pops stop at procedure nodes.
    """

    def __init__(self, table: ConstructTable, pool, store: ProfileStore):
        self.table = table
        self.pool = pool
        self.store = store
        self.stack: list[ConstructNode] = []
        self.max_depth = 0
        #: Optional observers called as (static, timestamp) on push and
        #: (node, timestamp) on pop.
        self.push_observer = None
        self.pop_observer = None

    def top(self) -> ConstructNode | None:
        return self.stack[-1] if self.stack else None

    def depth(self) -> int:
        return len(self.stack)

    def _push(self, static, timestamp: int) -> ConstructNode:
        node = self.pool.acquire(timestamp)
        node.static = static
        node.t_enter = timestamp
        node.t_exit = 0  # reset on entry (Table I line 10)
        node.parent = self.stack[-1] if self.stack else None
        self.stack.append(node)
        if len(self.stack) > self.max_depth:
            self.max_depth = len(self.stack)
        self.store.on_construct_enter(static)
        if self.push_observer is not None:
            self.push_observer(static, timestamp)
        return node

    def _pop(self, timestamp: int) -> ConstructNode:
        node = self.stack.pop()
        node.t_exit = timestamp
        self.store.on_construct_complete(node)
        if self.pop_observer is not None:
            self.pop_observer(node, timestamp)
        self.pool.release(node)
        return node

    def enter_procedure(self, entry_pc: int, timestamp: int) -> None:
        """Rule 1."""
        self._push(self.table.by_pc[entry_pc], timestamp)

    def exit_procedure(self, timestamp: int) -> None:
        """Rule 2, generalized: close every construct still open in this
        activation (early returns leave predicates on the stack)."""
        while self.stack:
            node = self._pop(timestamp)
            if node.static.kind is ConstructKind.PROCEDURE:
                return
        raise RuntimeError("procedure exit with no procedure on the stack")

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        """Rules 3 and 4."""
        static = self.table.by_pc[pc]
        loop_body = static.loop_body
        if loop_body is not None:
            stack = self.stack
            while stack:
                node = stack[-1]
                node_static = node.static
                if (node_static.kind is ConstructKind.PROCEDURE
                        or node_static.block_id not in loop_body):
                    break
                self._pop(timestamp)
            if target_block in loop_body:
                self._push(static, timestamp)
        elif target_block != static.ipostdom_block:
            self._push(static, timestamp)

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        """Rule 5, generalized to regions."""
        stack = self.stack
        while stack:
            static = stack[-1].static
            if static.kind is ConstructKind.PROCEDURE:
                return
            if block_id in static.region:
                return
            self._pop(timestamp)

    def index_of_top(self) -> list[str]:
        """The execution index of the current point (root to leaf), as
        construct names — Fig. 4's bracket notation."""
        return [node.static.name for node in self.stack]


def _unnamed(addr: int) -> str:
    return ""


class DependenceProfiler:
    """Table II, one detected dependence at a time: walk the index tree
    up from the head's construct, updating the min-Tdep profile of
    every ancestor that completed and covers the head access, and stop
    at the first one still active. The validity test ``Tenter <= Th <=
    Texit`` rejects active constructs (``Texit`` is 0 while open) and
    recycled nodes alike (the argument of the paper's Theorem 1).

    ``names`` resolves a conflicting address to its symbol; it runs
    only when a static edge is seen for the first time.
    """

    __slots__ = ("store", "names", "events", "updates")

    def __init__(self, store: profile_data.ProfileStore, names=_unnamed):
        self.store = store
        self.names = names
        #: Dependence events processed (dynamic edges), by kind.
        self.events = {kind: 0 for kind in DepKind}
        #: Construct profiles touched (tree-walk steps that updated).
        self.updates = 0

    @property
    def edges_profiled(self) -> int:
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


class AlchemistTracer(Tracer):
    """Profiles one execution, one hooked event at a time; single use.
    Owns the indexing stack, the node allocator, the shadow and the
    profiler, and routes each interpreter event to them."""

    def __init__(self, table: ConstructTable, track_war_waw: bool = True):
        self.table = table
        self.pool = NodeAllocator()
        self.store = ProfileStore()
        self.stack = IndexingStack(table, self.pool, self.store)
        self.shadow = ShadowMemory()
        self.profiler = DependenceProfiler(self.store)
        self.track_war_waw = track_war_waw
        self.memory: Memory | None = None
        self.final_time = 0

    @property
    def raw_events(self) -> int:
        return self.profiler.events[_RAW]

    @property
    def war_events(self) -> int:
        return self.profiler.events[_WAR]

    @property
    def waw_events(self) -> int:
        return self.profiler.events[_WAW]

    def on_start(self, program, memory: Memory) -> None:
        self.memory = memory
        self.profiler.names = memory.addr_to_name

    def on_finish(self, timestamp: int) -> None:
        self.final_time = timestamp

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self.stack.enter_procedure(entry_pc, timestamp)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self.stack.exit_procedure(timestamp)

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        self.stack.on_branch(pc, target_block, timestamp)

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        self.stack.on_block_enter(block_id, timestamp)

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        write = self.shadow.on_read(addr, pc, self.stack.stack[-1],
                                    timestamp)
        if write is not None:
            self.profiler.profile_edge(write[0], write[1], write[2], pc,
                                       timestamp, _RAW, addr)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        waw_head, war_heads = self.shadow.on_write(
            addr, pc, self.stack.stack[-1], timestamp)
        if not self.track_war_waw:
            return
        edge = self.profiler.profile_edge
        for read_pc, (read_node, read_time) in war_heads.items():
            edge(read_pc, read_node, read_time, pc, timestamp, _WAR, addr)
        if waw_head is not None:
            edge(waw_head[0], waw_head[1], waw_head[2], pc, timestamp,
                 _WAW, addr)

    def on_frame_free(self, lo: int, hi: int) -> None:
        self.shadow.clear_range(lo, hi)
