"""The block encoder writes the reference encoder's bytes.

:class:`~repro.trace.codec.BlockEncoder` (the writer's encoder) must
produce exactly :func:`~repro.trace.codec.encode_events`'s stream —
the per-record :class:`~repro.trace.codec.V2Encoder` is the byte
oracle — however the records arrive in batches: block cuts, the raw
tail, the per-type deltas and the clock all carry across batches.
Recorded traces are checked the same way, on random programs with
small flushes and small blocks.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.trace import writer as writer_module
from repro.trace.codec import BlockEncoder, encode_events
from repro.trace.columnar import EventBatch
from repro.trace.events import EV_BLOCK, EV_READ, EV_WRITE, TraceError
from repro.trace.reader import TraceReader
from repro.trace.writer import TraceWriter
from tests.core.test_random_programs import _loop_programs, _programs

U32_MAX = (1 << 32) - 1

#: Values whose zigzag or plain varints take every length from 1 to 5
#: bytes, both ends of each.
EDGES = [0, 1, 63, 64, 127, 128, (1 << 13) - 1, 1 << 13, (1 << 14) - 1,
         1 << 14, 1 << 20, 1 << 21, 1 << 27, 1 << 28, U32_MAX - 1, U32_MAX]

_u32 = st.one_of(st.sampled_from(EDGES), st.integers(0, U32_MAX))
_records = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255]),
              _u32, _u32, _u32),
    min_size=1, max_size=120)


def absolute(records) -> list:
    """``(etype, a, b, Δt)`` records as absolute-clock events."""
    events, time = [], 0
    for etype, a, b, delta in records:
        time += delta
        events.append((etype, a, b, time))
    return events


def batch_of(events) -> EventBatch:
    return EventBatch(*(np.array(column, np.int64)
                        for column in zip(*events)))


def encode_in_chunks(events, cuts, block_bytes: int) -> bytes:
    """The block encoder's stream for ``events`` fed as the batches
    between the sorted ``cuts``."""
    encoder = BlockEncoder(block_bytes)
    bounds = [0, *cuts, len(events)]
    out = b"".join(encoder.encode(batch_of(events[lo:hi]))
                   for lo, hi in zip(bounds, bounds[1:]) if hi > lo)
    assert encoder.events == len(events)
    return out + encoder.finish()


class TestByteIdentity:
    @given(records=_records, data=st.data(),
           block_bytes=st.sampled_from([1, 16, 64, 96, 65536]))
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_matches_the_reference(self, records, data,
                                                block_bytes):
        events = absolute(records)
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(events)), max_size=8)))
        assert encode_in_chunks(events, cuts, block_bytes) == \
            encode_events(events, block_bytes)

    @pytest.mark.parametrize("block_bytes", [1, 16, 64, 96, 65536])
    def test_every_varint_length(self, block_bytes):
        """Operands jump between the edges (zigzag deltas of every
        length, both signs) and Δt takes every edge value."""
        rng = np.random.default_rng(0)
        events = absolute(
            (int(etype), int(a), int(b), int(delta))
            for etype, a, b, delta in zip(
                rng.choice([EV_READ, EV_WRITE, EV_BLOCK], 600),
                *(rng.choice(EDGES, 600) for _ in range(3))))
        expected = encode_events(events, block_bytes)
        assert encode_in_chunks(events, [], block_bytes) == expected
        assert encode_in_chunks(events, list(range(1, len(events), 7)),
                                block_bytes) == expected

    def test_per_type_state_carries_across_batches(self):
        """Interleaved sweeps of three types, one record per batch: each
        delta is taken against the same type's record batches ago."""
        events = []
        for i in range(300):
            events.append((EV_READ, 4096 + 4 * i, 17, 3 * i))
            if i % 7 == 0:
                events.append((EV_WRITE, 9000 - i, 23, 3 * i + 1))
            if i % 50 == 0:
                events.append((EV_BLOCK, i // 50, 0, 3 * i + 2))
        every = list(range(1, len(events)))
        for block_bytes in (16, 96, 65536):
            assert encode_in_chunks(events, every, block_bytes) == \
                encode_events(events, block_bytes)


class TestErrors:
    @pytest.mark.parametrize("bad, message", [
        ((EV_READ, 1 << 32, 0, 10), "event 5: operand 4294967296 does "
                                    "not fit the 32-bit"),
        ((EV_READ, 0, -1, 10), "event 5: operand -1 does not fit"),
        ((EV_READ, 0, 0, 2), "event 5: timestamp delta -2 does not fit"),
        ((EV_READ, 0, 0, 4 + (1 << 32)),
         "event 5: timestamp delta 4294967296 does not fit"),
    ])
    def test_the_first_bad_record_is_named(self, bad, message):
        encoder = BlockEncoder()
        encoder.encode(batch_of([(EV_READ, i, 0, i) for i in range(3)]))
        tail = [(EV_READ, 3, 0, 3), (EV_READ, 4, 0, 4), bad,
                (EV_READ, -5, 0, 1)]
        with pytest.raises(TraceError, match=message):
            encoder.encode(batch_of(tail))

    def test_block_bytes_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockEncoder(0)


def _event_section(path: str, block_bytes: int) -> tuple[bytes, bytes]:
    """The recorded event section and the reference encoder's stream
    for the events it decodes to."""
    with TraceReader(path) as reader:
        start = reader.events_start
        events = list(reader.events())
    expected = encode_events(events, block_bytes)
    with open(path, "rb") as handle:
        blob = handle.read()
    return blob[start:start + len(expected)], expected


class TestRecordedPrograms:
    @given(st.one_of(_programs.map(pretty_print), _loop_programs()),
           st.sampled_from([1, 3, 64]), st.sampled_from([16, 96, 65536]))
    @settings(max_examples=30, deadline=None)
    def test_random_program_traces(self, source, flush_events,
                                   block_bytes):
        try:
            program = compile_source(source, "<random>")
        except SemanticError:
            return
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(writer_module, "LIVE_BLOCK_EVENTS",
                                  flush_events):
            path = os.path.join(tmp, "r.trace")
            writer = TraceWriter(path, source, block_bytes=block_bytes)
            interp = Interpreter(program, writer, max_steps=20_000)
            try:
                exit_value = interp.run()
            except (MiniCRuntimeError, StepLimitExceeded):
                writer.abort()
                return
            writer.close(exit_value, interp.output)
            recorded, expected = _event_section(path, block_bytes)
        assert recorded == expected
