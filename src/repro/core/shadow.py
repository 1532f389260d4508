"""Shadow memory: per-address access history for dependence detection.

For every traced address the shadow keeps

* the last write: ``(pc, construct node, timestamp)``;
* the most recent read per static reader pc since that write.

A read reports a RAW dependence from the last write. A write reports a
WAR dependence from every recorded read and a WAW dependence from the
previous write, then clears the read set (older reads pair with the
previous write, whose WAR edges were already reported — keeping only the
most recent read per static pc preserves the *minimum* Tdep per static
edge, which is what profiles record).

``clear_range`` forgets state for deallocated stack frames so address
reuse across calls cannot fabricate dependences; the return-value cell
is cleared separately after the caller's read.

Tracked addresses are additionally indexed by bucket (``addr >> 6``,
64-word granularity). ``clear_range`` walks only the buckets the freed
range spans — and within them only the addresses actually tracked — so
tearing down a frame costs time proportional to the frame's own traced
accesses, not to the whole shadow. Before this index, freeing a large
heap block (or any frame while many addresses were tracked) scanned
either the entire range or every tracked address, which made teardown
quadratic for alloc/free-heavy workloads.
"""

from __future__ import annotations

from repro.core.node import ConstructNode

#: A recorded access: (pc, construct node at access time, timestamp).
Access = tuple[int, ConstructNode, int]

#: Bucket granularity: 2**6 = 64 words per bucket.
_BUCKET_BITS = 6


class ShadowMemory:
    """Address -> access history."""

    __slots__ = ("_entries", "_buckets")

    def __init__(self) -> None:
        # addr -> [last_write | None, {reader_pc: (node, t)}]
        self._entries: dict[int, list] = {}
        # (addr >> _BUCKET_BITS) -> set of tracked addrs in that bucket;
        # kept exactly in sync with _entries (insert here on first
        # touch, remove in clear_range).
        self._buckets: dict[int, set[int]] = {}

    def on_read(self, addr: int, pc: int, node: ConstructNode,
                timestamp: int) -> Access | None:
        """Record a read; returns the RAW head (the last write), if any."""
        entry = self._entries.get(addr)
        if entry is None:
            self.insert(addr, None, {pc: (node, timestamp)})
            return None
        entry[1][pc] = (node, timestamp)
        return entry[0]

    def on_write(self, addr: int, pc: int, node: ConstructNode,
                 timestamp: int
                 ) -> tuple[Access | None, dict[int, tuple]]:
        """Record a write; returns (WAW head, WAR heads by reader pc)."""
        entry = self._entries.get(addr)
        if entry is None:
            self.insert(addr, (pc, node, timestamp), {})
            return None, {}
        old_write, reads = entry
        entry[0] = (pc, node, timestamp)
        entry[1] = {}
        return old_write, reads

    def insert(self, addr: int, write: Access | None,
               reads: dict[int, tuple]) -> None:
        """Start tracking ``addr`` with the given last write and per-pc
        reads — a first access, or checkpointed pre-segment state in
        parallel segment replay (nodes replaced by the boundary
        sentinel the dependence walk defers on)."""
        self._entries[addr] = [write, reads]
        bucket = self._buckets.get(addr >> _BUCKET_BITS)
        if bucket is None:
            self._buckets[addr >> _BUCKET_BITS] = {addr}
        else:
            bucket.add(addr)

    def clear_range(self, lo: int, hi: int) -> None:
        """Forget all state for addresses in ``[lo, hi)``.

        Cost: O(tracked addresses inside the range) plus O(buckets
        spanned / tracked buckets, whichever is smaller).
        """
        if hi <= lo:
            return
        entries = self._entries
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
                    del entries[addr]
                del buckets[b]
            else:
                # Boundary bucket: filter.
                doomed = [addr for addr in bucket if lo <= addr < hi]
                if len(doomed) == len(bucket):
                    del buckets[b]
                else:
                    bucket.difference_update(doomed)
                for addr in doomed:
                    del entries[addr]

    def tracked_addresses(self) -> int:
        return len(self._entries)

    def last_write(self, addr: int) -> Access | None:
        entry = self._entries.get(addr)
        return entry[0] if entry is not None else None
