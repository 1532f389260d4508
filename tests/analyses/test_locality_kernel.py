"""The locality reuse-distance kernel against brute force.

Random address streams are cut into random chunks, each fed as one
``consume_batch`` block (scalar-decoded lists or numpy columns), so
chunk boundaries and carried state land at arbitrary places. Every case must equal a brute-force distinct
count, and ``merge_segments()`` over the ``export_segment()`` dicts
of random seam cuts must equal the serial result. A last test pins
the memory bound: the carried state is O(distinct addresses), not
O(accesses).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.builtin import LocalityAnalysis
from repro.trace.columnar import EventBatch
from repro.trace.events import EV_BLOCK, EV_READ, EV_WRITE


@st.composite
def _chunks(draw) -> list[tuple[str, list[int]]]:
    """``(how, addresses)`` chunks: ``how`` is ``"lists"`` (a
    scalar-decoded batch) or ``"array"`` (a numpy batch); chunks may be
    empty, all-cold or all-reuse."""
    chunks = []
    seen: list[int] = []
    fresh = 1000
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("mixed", "cold", "reuse")))
        size = draw(st.integers(0, 40))
        if kind == "cold":
            addrs = list(range(fresh, fresh + size))
            fresh += size
        elif kind == "reuse" and seen:
            addrs = draw(st.lists(st.sampled_from(seen), min_size=size,
                                  max_size=size))
        else:
            addrs = draw(st.lists(st.integers(0, 12), min_size=size,
                                  max_size=size))
        how = draw(st.sampled_from(("lists", "array")))
        chunks.append((how, addrs))
        seen.extend(addrs)
    return chunks


def _batch(addrs: list[int], array: bool) -> EventBatch:
    """READ/WRITE rows for ``addrs``, with a BLOCK event (not an
    access) after every third one."""
    etypes, a = [], []
    for i, addr in enumerate(addrs):
        etypes.append(EV_WRITE if i % 2 else EV_READ)
        a.append(addr)
        if i % 3 == 2:
            etypes.append(EV_BLOCK)
            a.append(7)
    zeros = [0] * len(etypes)
    if array:
        return EventBatch(np.array(etypes, dtype=np.int64),
                          np.array(a, dtype=np.int64),
                          np.array(zeros, dtype=np.int64),
                          np.array(zeros, dtype=np.int64))
    return EventBatch.from_lists(etypes, a, zeros, list(zeros))


def _feed(chunks) -> LocalityAnalysis:
    analysis = LocalityAnalysis()
    for how, addrs in chunks:
        analysis.consume_batch(_batch(addrs, how == "array"))
    return analysis


def _brute(stream: list[int]) -> tuple[dict, int, int]:
    """(histogram, cold misses, distinct addresses) by distinct
    counting over every reuse window."""
    hist: dict[int, int] = {}
    cold = 0
    last: dict[int, int] = {}
    for i, addr in enumerate(stream):
        if addr in last:
            bucket = len(set(stream[last[addr] + 1:i])).bit_length()
            hist[bucket] = hist.get(bucket, 0) + 1
        else:
            cold += 1
        last[addr] = i
    return hist, cold, len(last)


class TestLocalityKernel:
    @given(_chunks())
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, chunks):
        stream = [addr for _how, addrs in chunks for addr in addrs]
        analysis = _feed(chunks)
        hist, cold, distinct = _brute(stream)
        stats = analysis.stats
        assert stats.histogram == hist
        assert stats.cold_misses == cold
        assert stats.distinct_addresses == distinct
        assert stats.accesses == len(stream)

    @given(_chunks(), st.lists(st.integers(0, 400), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_segment_fold_equals_serial(self, chunks, cuts):
        """Seams at random stream positions, each segment fed in its
        own random chunks: the fold of the exports is the serial
        result."""
        serial = _feed(chunks).finish(None)
        # Cut each chunk's stream positions into segments.
        segments: list[list] = [[]]
        at = 0
        cuts = sorted(set(cuts))
        for how, addrs in chunks:
            for addr in addrs:
                while cuts and at == cuts[0]:
                    cuts.pop(0)
                    segments.append([])
                if not segments[-1] or segments[-1][-1][0] != how:
                    segments[-1].append((how, []))
                segments[-1][-1][1].append(addr)
                at += 1
        merged = LocalityAnalysis.merge_segments(
            [_feed(parts).export_segment(None) for parts in segments],
            None)
        assert merged.to_dict() == serial.to_dict()
        assert merged.text == serial.text


def _retained_bytes(accesses: int) -> int:
    """Traced memory a locality analysis holds after ``accesses``
    accesses over 16 addresses, fed as blocks of 4096."""
    tracemalloc.start()
    try:
        analysis = LocalityAnalysis()
        before = tracemalloc.get_traced_memory()[0]
        block = [i % 16 for i in range(4096)]
        for _ in range(accesses // len(block)):
            analysis.consume_batch(_batch(block, array=True))
        analysis.finish(None)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert analysis.stats.distinct_addresses == 16
    return retained


def test_state_does_not_grow_with_trace_length():
    """Ten times the accesses over the same 16 addresses retain the
    same memory, up to a small constant: the state is O(distinct)."""
    short = _retained_bytes(20_000)
    long = _retained_bytes(200_000)
    assert long - short < 16 * 1024, (short, long)
