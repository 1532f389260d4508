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
library default.

The pool exists because the paper's C implementation cannot reclaim
construct instances that shadow memory might still reference; lazy
retirement is its safe approximation of "free when provably
unobservable". The library's dependence engine needs no pool: its
instances are rows of :class:`~repro.core.instances.InstanceTable`,
which keeps exactly the rows the shadow and the open stack still
reach, so a completed instance's ``Tenter``/``Texit`` are never
overwritten and the profile equals what an infinitely large pool would
produce. :class:`ConstructPool` is kept as the faithful reproduction of
Table I; the tests' per-event indexing stack drives it, and
:class:`PoolStats` is the shape of a report's allocation figures.
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

