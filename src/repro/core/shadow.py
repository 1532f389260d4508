"""Shadow memory: the one per-address access history.

Every detector with the paper's §III-B semantics — the Alchemist
tracer, the flat and context baselines, the TEST-style loop baseline
and the checkpoint scanner — keeps its history here. For every traced
address the shadow keeps

* the last write: ``(pc, payload, timestamp)``;
* the most recent read per static reader pc since that write:
  ``{pc: (payload, timestamp)}``.

A read reports a RAW dependence from the last write. A write reports a
WAR dependence from every recorded read and a WAW dependence from the
previous write, then clears the read set (older reads pair with the
previous write, whose WAR edges were already reported — keeping only the
most recent read per static pc preserves the *minimum* Tdep per static
edge, which is what profiles record). So every detector sees the same
pair stream; they differ only in how they attribute it.

The *payload* is opaque to the shadow: the construct node for
Alchemist, the calling context for the context baseline, the loop tag
for the TEST baseline, ``None`` for the flat baseline and the
checkpoint scanner. :data:`BOUNDARY` is the payload of pre-segment
state seeded into a parallel segment.

``clear_range`` forgets state for deallocated stack frames so address
reuse across calls cannot fabricate dependences; the return-value cell
is cleared separately after the caller's read.

Tracked addresses are additionally indexed by bucket (``addr >> 6``,
64-word granularity). A range wider than one bucket is cleared by
walking only the buckets it spans — and within them only the addresses
they hold — so freeing a large heap block costs time proportional to
its own traced accesses, not to the whole shadow or the whole block.
Before this index, such a free scanned either the entire range or
every tracked address, which made teardown quadratic for
alloc/free-heavy workloads. A range no wider than a bucket (a typical
stack frame) is cheaper to clear address by address; that path leaves
the cleared addresses in their bucket, so a bucket holds every tracked
address of its slice plus possibly some stale ones, which the next
bucket walk over it drops.

The shadow also owns the seam format of sharded parallel replay:
:meth:`ShadowMemory.snapshot` writes a checkpoint's ``shadow`` rows,
:meth:`ShadowMemory.seed` reads them back under a payload, and
:meth:`ShadowMemory.frontier` exports what a segment added on top.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

#: Payload of a checkpointed, pre-segment access in parallel segment
#: replay: its construct node (or calling context) lives in an earlier
#: segment, so a pair whose head carries it cannot be attributed in
#: the segment and is deferred to the merge
#: (``repro.analyses.merging``).
BOUNDARY = type("_Boundary", (), {"__repr__": lambda s: "<boundary>"})()

#: A recorded access: (pc, payload at access time, timestamp).
Access = tuple[int, Any, int]

#: Bucket granularity: 2**6 = 64 words per bucket.
_BUCKET_BITS = 6
_BUCKET_SIZE = 1 << _BUCKET_BITS


class ShadowMemory:
    """Address -> access history.

    ``entries`` maps addr -> ``[last write | None, {reader pc:
    (payload, t)}]``. It is public for the fused span loops only (dep's
    ``consume_batch``, context's ``consume_span``), which read it and
    add addresses through :meth:`insert`; everything else goes through
    the methods.
    """

    __slots__ = ("entries", "_buckets")

    def __init__(self) -> None:
        self.entries: dict[int, list] = {}
        # (addr >> _BUCKET_BITS) -> addrs inserted into that bucket: a
        # superset of its tracked addrs (see the module docstring).
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
        reads: a first access, or a seeded checkpoint row."""
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

    def seed(self, rows: list, payload: Any = BOUNDARY) -> None:
        """Track the accesses of :meth:`snapshot` rows, each carrying
        ``payload``."""
        for addr, wpc, wt, reads in rows:
            self.insert(addr, None if wpc < 0 else (wpc, payload, wt),
                        {pc: (payload, t) for pc, t in reads})

    def frontier(self, encode: Callable[[Any], Any] = lambda p: p
                 ) -> dict:
        """What this shadow added on top of its :data:`BOUNDARY` seed:
        addr -> ``(write, reads)``, with ``write = (pc, t,
        encode(payload))`` for an unseeded last write (else ``None``)
        and ``reads = {pc: (t, encode(payload))}`` for the unseeded
        reads. Addresses with neither are left out."""
        out: dict[int, tuple] = {}
        for addr, (write, reads) in self.entries.items():
            new_reads = {pc: (t, encode(p)) for pc, (p, t) in reads.items()
                         if p is not BOUNDARY}
            if write is not None and write[1] is not BOUNDARY:
                out[addr] = ((write[0], write[2], encode(write[1])),
                             new_reads)
            elif new_reads:
                out[addr] = (None, new_reads)
        return out
