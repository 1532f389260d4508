"""Shadow memory unit tests."""

import numpy as np

from repro.core.node import ConstructNode
from repro.core.shadow import BOUNDARY_ID, ShadowArrays
from repro.trace.events import EV_READ, EV_WRITE
from tests.core.reference import ShadowMemory

#: The per-event oracle's payload of a seeded, pre-segment access.
BOUNDARY = type("_Boundary", (), {"__repr__": lambda s: "<boundary>"})()


def node():
    return ConstructNode()


def seed_shadow(rows: list, payload=BOUNDARY) -> ShadowMemory:
    """A per-event shadow tracking the accesses of checkpoint ``rows``,
    each carrying ``payload``: the oracle for
    :meth:`ShadowArrays.seed`."""
    shadow = ShadowMemory()
    for addr, wpc, wt, reads in rows:
        shadow.insert(addr, None if wpc < 0 else (wpc, payload, wt),
                      {pc: (payload, t) for pc, t in reads})
    return shadow


def shadow_frontier(shadow: ShadowMemory, encode=lambda p: p) -> dict:
    """What ``shadow`` added on top of its :data:`BOUNDARY` seed, in the
    format of :meth:`ShadowArrays.frontier`: the oracle for it."""
    out = {}
    for addr, (write, reads) in shadow.entries.items():
        new_reads = {pc: (t, encode(p)) for pc, (p, t) in reads.items()
                     if p is not BOUNDARY}
        if write is not None and write[1] is not BOUNDARY:
            out[addr] = ((write[0], write[2], encode(write[1])), new_reads)
        elif new_reads:
            out[addr] = (None, new_reads)
    return out


def shadow_entries(state: ShadowArrays, decode=lambda p: p) -> dict:
    """``state`` as :attr:`ShadowMemory.entries`, payload ids mapped
    through ``decode``: addresses with a write first, then the
    read-only ones, each run sorted by address."""
    entries = {}
    for addr, pc, t, payload in zip(*(c.tolist() for c in state.writes)):
        entries[addr] = [(pc, decode(payload), t), {}]
    for addr, pc, t, payload in zip(*(c.tolist() for c in state.reads)):
        entries.setdefault(addr, [None, {}])[1][pc] = (decode(payload), t)
    return entries


def _step(state: ShadowArrays, events: list) -> None:
    """Advance ``state`` over ``(etype, addr, pc, t, payload id)``
    events."""
    columns = [np.array([event[k] for event in events], dtype=np.int64)
               for k in range(5)]
    state.step(*columns)


class TestDetection:
    def test_raw_from_last_write(self):
        shadow = ShadowMemory()
        writer = node()
        assert shadow.on_read(7, pc=1, payload=node(), timestamp=5) is None
        shadow.on_write(7, pc=2, payload=writer, timestamp=10)
        head = shadow.on_read(7, pc=3, payload=node(), timestamp=14)
        assert head == (2, writer, 10)

    def test_raw_reflects_most_recent_write(self):
        shadow = ShadowMemory()
        first, second = node(), node()
        shadow.on_write(7, 1, first, 10)
        shadow.on_write(7, 2, second, 20)
        head = shadow.on_read(7, 3, node(), 25)
        assert head == (2, second, 20)

    def test_waw_links_consecutive_writes(self):
        shadow = ShadowMemory()
        first, second = node(), node()
        shadow.on_write(7, 1, first, 10)
        waw, wars = shadow.on_write(7, 2, second, 20)
        assert waw == (1, first, 10)
        assert wars == {}

    def test_war_from_reads_since_last_write(self):
        shadow = ShadowMemory()
        r1, r2 = node(), node()
        shadow.on_read(7, 11, r1, 5)
        shadow.on_read(7, 12, r2, 6)
        waw, wars = shadow.on_write(7, 2, node(), 9)
        assert waw is None
        assert set(wars) == {11, 12}
        assert wars[12] == (r2, 6)

    def test_write_clears_read_set(self):
        shadow = ShadowMemory()
        shadow.on_read(7, 11, node(), 5)
        shadow.on_write(7, 1, node(), 6)
        _, wars = shadow.on_write(7, 2, node(), 7)
        assert wars == {}  # the read paired with the first write only

    def test_repeated_read_same_pc_keeps_latest(self):
        shadow = ShadowMemory()
        a, b = node(), node()
        shadow.on_read(7, 11, a, 5)
        shadow.on_read(7, 11, b, 9)
        _, wars = shadow.on_write(7, 2, node(), 12)
        assert wars[11] == (b, 9)  # latest read -> minimal WAR Tdep

    def test_addresses_are_independent(self):
        shadow = ShadowMemory()
        shadow.on_write(7, 1, node(), 10)
        assert shadow.on_read(8, 2, node(), 11) is None


class TestClearing:
    def test_clear_range_forgets_writes(self):
        shadow = ShadowMemory()
        shadow.on_write(100, 1, node(), 10)
        shadow.on_write(101, 1, node(), 11)
        shadow.clear_range(100, 102)
        assert shadow.on_read(100, 2, node(), 20) is None
        assert shadow.on_read(101, 2, node(), 20) is None

    def test_clear_range_is_exact(self):
        shadow = ShadowMemory()
        shadow.on_write(99, 1, node(), 10)
        shadow.on_write(100, 1, node(), 10)
        shadow.clear_range(100, 101)
        assert shadow.on_read(99, 2, node(), 20) is not None
        assert shadow.on_read(100, 2, node(), 20) is None

    def test_clear_large_range_over_sparse_entries(self):
        shadow = ShadowMemory()
        shadow.on_write(5, 1, node(), 1)
        shadow.on_write(500_000, 1, node(), 2)
        shadow.clear_range(0, 1_000_000)
        assert shadow.tracked_addresses() == 0

    def test_tracked_addresses(self):
        shadow = ShadowMemory()
        for addr in range(10):
            shadow.on_write(addr, 1, node(), addr + 1)
        assert shadow.tracked_addresses() == 10


class TestBucketIndex:
    """The per-range address index behind O(frame accesses) teardown."""

    def test_index_stays_in_sync(self):
        shadow = ShadowMemory()
        for addr in (3, 64, 65, 130, 700):
            shadow.on_write(addr, 1, node(), 1)
        shadow.on_read(131, 2, node(), 2)
        assert shadow.tracked_addresses() == 6
        # Clear one boundary bucket's worth plus a partial neighbour.
        shadow.clear_range(64, 132)
        assert shadow.tracked_addresses() == 2
        assert shadow.last_write(3) is not None
        assert shadow.last_write(700) is not None
        assert shadow.last_write(65) is None
        # Buckets hold no stale addresses: re-clearing is a no-op.
        shadow.clear_range(0, 1024)
        assert shadow.tracked_addresses() == 0
        assert not shadow._buckets

    def test_fully_covered_buckets_dropped_wholesale(self):
        shadow = ShadowMemory()
        for addr in range(128, 256):
            shadow.on_write(addr, 1, node(), 1)
        shadow.clear_range(128, 256)
        assert shadow.tracked_addresses() == 0
        assert not shadow._buckets

    def test_empty_and_inverted_ranges_are_noops(self):
        shadow = ShadowMemory()
        shadow.on_write(10, 1, node(), 1)
        shadow.clear_range(10, 10)
        shadow.clear_range(20, 10)
        assert shadow.tracked_addresses() == 1

    def test_huge_range_over_small_shadow(self):
        """A giant free must cost tracked-buckets, not range words."""
        shadow = ShadowMemory()
        shadow.on_write(1, 1, node(), 1)
        shadow.on_write(10_000_000, 1, node(), 1)
        import time
        start = time.perf_counter()
        shadow.clear_range(0, 1 << 40)
        elapsed = time.perf_counter() - start
        assert shadow.tracked_addresses() == 0
        assert elapsed < 0.1

    def test_random_equivalence_with_model(self):
        """Differential test against a plain-dict model."""
        import random

        rng = random.Random(99)
        shadow = ShadowMemory()
        model = {}
        for step in range(2000):
            op = rng.random()
            if op < 0.6:
                addr = rng.randrange(4096)
                shadow.on_write(addr, 1, node(), step)
                model[addr] = step
            else:
                lo = rng.randrange(4096)
                hi = lo + rng.randrange(512)
                shadow.clear_range(lo, hi)
                for addr in [a for a in model if lo <= a < hi]:
                    del model[addr]
            if step % 250 == 0:
                assert shadow.tracked_addresses() == len(model)
        assert shadow.tracked_addresses() == len(model)
        for addr in model:
            assert shadow.last_write(addr) is not None


class TestSeamFormat:
    """snapshot/seed/frontier: the checkpoint rows and a segment's
    export on top of them."""

    def _shadow(self):
        shadow = ShadowMemory()
        shadow.on_read(5, 11, node(), 1)      # reads only
        shadow.on_write(3, 2, node(), 2)
        shadow.on_read(3, 12, node(), 3)
        shadow.on_read(3, 11, node(), 4)
        shadow.on_read(3, 12, node(), 6)      # latest read per pc
        return shadow

    def test_snapshot_rows(self):
        assert self._shadow().snapshot() == [
            [3, 2, 2, [[11, 4], [12, 6]]],
            [5, -1, 0, [[11, 1]]],
        ]

    def test_seed_snapshot_round_trips(self):
        rows = self._shadow().snapshot()
        seeded = seed_shadow(rows)
        assert seeded.snapshot() == rows
        assert seeded.last_write(3) == (2, BOUNDARY, 2)
        _, wars = seeded.on_write(5, 1, node(), 7)
        assert wars == {11: (BOUNDARY, 1)}
        flat = seed_shadow(rows, None)
        assert flat.last_write(3) == (2, None, 2)
        # Seeded addresses are indexed for clearing like any other.
        flat.clear_range(0, 64)
        assert flat.tracked_addresses() == 0

    def test_arrays_seed_snapshot_round_trips(self):
        rows = self._shadow().snapshot()
        seeded = ShadowArrays.seed(rows)
        assert seeded.snapshot() == rows
        assert shadow_entries(seeded) == {
            3: [(2, BOUNDARY_ID, 2), {11: (BOUNDARY_ID, 4),
                                      12: (BOUNDARY_ID, 6)}],
            5: [None, {11: (BOUNDARY_ID, 1)}],
        }
        flat = ShadowArrays.seed(rows, 0)
        assert shadow_entries(flat) == shadow_entries(
            seeded, lambda p: 0 if p == BOUNDARY_ID else p)
        assert ShadowArrays.seed([]).snapshot() == []

    def test_frontier_skips_seeded_entries(self):
        seeded = seed_shadow(self._shadow().snapshot())
        assert shadow_frontier(seeded) == {}
        writer, reader = node(), node()
        seeded.on_read(3, 13, reader, 7)      # onto a seeded write
        seeded.on_write(5, 1, writer, 8)      # supersedes seeded reads
        seeded.on_read(9, 14, reader, 9)      # fresh address
        names = {id(writer): "w", id(reader): "r"}
        assert shadow_frontier(seeded, lambda n: names[id(n)]) == {
            3: (None, {13: (7, "r")}),
            5: ((1, 8, "w"), {}),
            9: (None, {14: (9, "r")}),
        }

    def test_arrays_frontier_skips_seeded_entries(self):
        """The same accesses on the block path: payload ids 1 (writer)
        and 2 (reader) are carried out and decoded."""
        seeded = ShadowArrays.seed(self._shadow().snapshot())
        assert seeded.frontier() == {}
        _step(seeded, [(EV_READ, 3, 13, 7, 2), (EV_WRITE, 5, 1, 8, 1),
                       (EV_READ, 9, 14, 9, 2)])
        names = {1: "w", 2: "r"}
        assert seeded.frontier(names.__getitem__) == {
            3: (None, {13: (7, "r")}),
            5: ((1, 8, "w"), {}),
            9: (None, {14: (9, "r")}),
        }
        assert seeded.frontier() == {
            3: (None, {13: (7, 2)}),
            5: ((1, 8, 1), {}),
            9: (None, {14: (9, 2)}),
        }
