"""Round-trip fuzz: randomized event sequences survive the v2 codec on
both decode paths (vectorized kernel and scalar reference loop).

The codec layer is driven directly (no interpreter, no file envelope):
``encode_events`` must invert through ``decode_events`` for arbitrary
well-formed event streams — any type byte, full 32-bit operand range,
random timestamp gaps — across block boundaries (tiny ``block_bytes``
forces records to straddle many blocks) and for the empty trace
(FINISH alone). A full-file sweep then checks the same property
through the writer/reader envelope.
"""

from __future__ import annotations

import random

import pytest

from repro.trace.codec import (decode_events, encode_events, unzigzag,
                               zigzag)
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                EV_WRITE, TraceTruncatedError)

EVENT_TYPES = (EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH, EV_READ,
               EV_WRITE, EV_ALLOC, EV_FREE)

U32 = (1 << 32) - 1

#: ``decode_events(..., scalar=)``: the vectorized kernel, then the
#: scalar reference loop.
DECODE_PATHS = (False, True)


def random_events(rng: random.Random, count: int) -> list[tuple]:
    """A plausible-shape stream: monotone time, 32-bit operands,
    FINISH last (what a well-formed writer always produces)."""
    events = []
    time = 0
    for _ in range(count):
        etype = rng.choice(EVENT_TYPES)
        # Mix small sequential-ish operands (the common case the
        # delta encoding optimizes for) with full-range extremes.
        if rng.random() < 0.1:
            a, b = rng.randint(0, U32), rng.randint(0, U32)
        else:
            a, b = rng.randint(0, 4096), rng.randint(0, 4096)
        gap = rng.choice((0, 0, 1, 1, 2, 7, rng.randint(0, 100000)))
        time += gap
        events.append((etype, a, b, time))
    events.append((EV_FINISH, 0, 0, time))
    return events


class TestCodecFuzz:
    @pytest.mark.parametrize("seed", range(4))
    def test_zigzag_reference_roundtrip(self, seed):
        """The reference zigzag transform inverts over the full signed
        delta range; the v2 record roundtrip below pins the encoder's
        and decoder's *inlined* copies against it (a record whose
        per-type delta is n survives iff inlined == reference)."""
        rng = random.Random(seed)
        for _ in range(2000):
            n = rng.randint(-(1 << 32), 1 << 32)
            z = zigzag(n)
            assert z >= 0
            assert unzigzag(z) == n
        for n, z in ((0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)):
            assert zigzag(n) == z
            assert unzigzag(z) == n

    @pytest.mark.parametrize("scalar", DECODE_PATHS)
    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random_streams(self, scalar, seed):
        rng = random.Random(seed)
        events = random_events(rng, rng.randint(1, 400))
        blob = encode_events(events)
        assert decode_events(blob, scalar=scalar) == events

    @pytest.mark.parametrize("scalar", DECODE_PATHS)
    def test_roundtrip_empty_trace(self, scalar):
        """The degenerate stream: FINISH and nothing else."""
        events = [(EV_FINISH, 0, 0, 0)]
        blob = encode_events(events)
        assert decode_events(blob, scalar=scalar) == events

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_across_block_boundaries(self, seed):
        """block_bytes=16 splits nearly every record pair; per-type
        delta state must survive the block seams."""
        rng = random.Random(1000 + seed)
        events = random_events(rng, 300)
        blob = encode_events(events, block_bytes=16)
        assert decode_events(blob) == events
        assert decode_events(blob, scalar=True) == events

    @pytest.mark.parametrize("scalar", DECODE_PATHS)
    def test_extreme_operands(self, scalar):
        events = [
            (EV_READ, U32, 0, 0),
            (EV_READ, 0, U32, 0),       # max negative per-type delta
            (EV_WRITE, U32, U32, U32),  # max timestamp delta
            (EV_READ, U32, 0, U32),
            (EV_FINISH, 0, 0, U32),
        ]
        blob = encode_events(events)
        assert decode_events(blob, scalar=scalar) == events

    def test_missing_finish_is_truncation(self):
        events = [(EV_READ, 1, 2, 3)]
        blob = encode_events(events)
        with pytest.raises(TraceTruncatedError):
            decode_events(blob)

    def test_zero_events_is_truncation(self):
        for scalar in DECODE_PATHS:
            with pytest.raises(TraceTruncatedError):
                decode_events(b"", scalar=scalar)


class TestFullFileFuzz:
    """The same property through the writer/reader envelope: random
    programs record and read back identically on both decode paths."""

    @pytest.mark.parametrize("seed", range(3))
    def test_program_roundtrip_both_decode_paths(self, seed, tmp_path):
        from repro.trace import TraceReader, record_source

        rng = random.Random(seed)
        n = rng.randint(5, 40)
        stride = rng.choice((1, 3, 7))
        source = f"""
        int buf[{max(n * stride, 8)}];
        int main() {{
            int s = 0;
            for (int i = 0; i < {n}; i++) {{
                buf[i * {stride}] = i;
                s += buf[(i * {stride} + 1) % {n * stride}];
            }}
            print(s);
            return 0;
        }}
        """
        path = tmp_path / "prog.trace"
        result = record_source(source, path)
        with TraceReader(path) as reader:
            vector = list(reader.events())
            scalar = [row for batch in reader.batches(columnar=False)
                      for row in batch.rows()]
        assert vector == scalar
        assert len(vector) == result.events
