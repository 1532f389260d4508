"""The construct pool with lazy retirement (paper §III-A, Table I).

Completed construct instances are appended to the tail of a doubly
linked free list; allocation scans from the head for the first node
satisfying the retirement condition

    ``timestamp - c.Texit >= c.Texit - c.Tenter``

i.e. the node has been dead for at least its own duration, so any future
dependence into it would have ``Tdep > Tdur`` and cannot change the
profile (the argument behind the paper's Theorem 1). Scanning from the
head while appending at the tail maximizes how long completed instances
stay addressable ("lazy retiring").

The paper pre-allocates a fixed pool of one million entries; this
implementation starts smaller and grows on demand, reporting the high
water mark, which is equivalent in behaviour and friendlier as a
library default. Drive :class:`ConstructPool` through an
:class:`~repro.core.indexing.IndexingStack` directly to study the
paper's fixed-budget recycling (the tracer itself no longer does —
see below).

The pool exists because the paper's C implementation cannot reclaim
construct instances that shadow memory might still reference; lazy
retirement is its safe approximation of "free when provably
unobservable". A garbage-collected runtime gets the exact semantics
for free: :class:`NodeAllocator` hands out a fresh node per acquire
and lets the interpreter reclaim nodes once the indexing stack, the
shadow and the index tree drop their references. Under it a node's
``Tenter``/``Texit`` are never overwritten by reuse, so dependence
attribution is a pure function of the event stream — the property the
sharded parallel replay merge (``repro.trace.parallel``) relies on —
and the profile equals what an infinitely large ConstructPool would
produce. :class:`ConstructPool` is kept as the faithful reproduction
of Table I (and remains drivable through the same interface).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.node import ConstructNode


@dataclass
class PoolStats:
    """Allocation statistics reported alongside profiles."""

    capacity: int = 0
    acquires: int = 0
    reuses: int = 0
    grows: int = 0
    scan_steps: int = 0
    max_scan: int = 0

    @property
    def mean_scan(self) -> float:
        return self.scan_steps / self.acquires if self.acquires else 0.0


class ConstructPool:
    """Free list of recyclable :class:`ConstructNode` objects."""

    def __init__(self, initial_size: int = 4096):
        if initial_size < 1:
            raise ValueError("pool needs at least one node")
        self._head = ConstructNode()  # sentinel
        self._tail = ConstructNode()  # sentinel
        self._head.next = self._tail
        self._tail.prev = self._head
        self.stats = PoolStats()
        for _ in range(initial_size):
            self._link_tail(ConstructNode())
        self.stats.capacity = initial_size

    # -- free-list plumbing -------------------------------------------------

    def _link_tail(self, node: ConstructNode) -> None:
        last = self._tail.prev
        last.next = node
        node.prev = last
        node.next = self._tail
        self._tail.prev = node

    def _unlink(self, node: ConstructNode) -> None:
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = None
        node.next = None

    # -- paper's pool interface ----------------------------------------------

    def acquire(self, timestamp: int) -> ConstructNode:
        """Table I lines 3-7: first retireable node from the head, or a
        freshly allocated node if nothing can retire yet."""
        self.stats.acquires += 1
        scanned = 0
        node = self._head.next
        while node is not self._tail:
            scanned += 1
            # Retirement condition: dead for at least its own duration.
            if timestamp - node.t_exit >= node.t_exit - node.t_enter:
                self._unlink(node)
                self.stats.reuses += 1
                self._note_scan(scanned)
                return node
            node = node.next
        self.stats.grows += 1
        self.stats.capacity += 1
        self._note_scan(scanned)
        return ConstructNode()

    def release(self, node: ConstructNode) -> None:
        """Table I line 22: append the completed instance at the tail."""
        self._link_tail(node)

    def _note_scan(self, scanned: int) -> None:
        self.stats.scan_steps += scanned
        if scanned > self.stats.max_scan:
            self.stats.max_scan = scanned

    # -- introspection ---------------------------------------------------------

    def free_count(self) -> int:
        """Number of nodes currently in the free list (O(n); tests only)."""
        count = 0
        node = self._head.next
        while node is not self._tail:
            count += 1
            node = node.next
        return count


class NodeAllocator:
    """Garbage-collected "infinite pool": a fresh node per acquire.

    Interface-compatible with :class:`ConstructPool` (the indexing
    stack drives either). ``release`` only updates accounting — the
    node is reclaimed by the runtime once nothing references it, so a
    completed instance stays addressable exactly as long as shadow
    memory or the index tree can still reach it. Stats map onto
    :class:`PoolStats`: ``capacity`` is the peak number of
    simultaneously live (acquired, not yet released) nodes, ``grows``
    counts allocations, and ``reuses``/scan figures are zero by
    construction.
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
