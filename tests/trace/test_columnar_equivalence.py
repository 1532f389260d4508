"""Property-based equivalence: the vectorized block kernel IS the scalar
reference loop.

:class:`~repro.trace.codec.V2BatchDecoder` promises byte-for-byte the
same observable behaviour whether a block goes through the vectorized
kernel or its scalar reference loop (``scalar=True``) — the same
events in the same order, and on malformed input the same event
*prefix* followed by the same typed error with the same message. This
suite pins that promise:

* hypothesis-generated random streams, with tiny block sizes so
  records cross many block seams and per-type delta state must carry
  across them;
* resume-from-checkpoint ``state`` dicts captured mid-stream;
* random truncation and byte-flip corruption (drains must match
  events, exception type, and exception text);
* hand-crafted corrupt blocks covering both codec hardening fixes —
  the bounded-varint cap and the encoder's non-monotone-clock
  rejection — and the reader's record contract (operands in
  ``[0, 2^32)``, the clock within int64);
* batch-vs-scalar replay-engine parity over every registered analysis
  plus a scalar-only custom plugin (the fallback dispatch path).
"""

from __future__ import annotations

import io
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.codec import (BLOCK_HEADER, MAX_VARINT_BYTES,
                               V2BatchDecoder, V2Encoder, encode_events,
                               read_uvarint)
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH,
                                EV_CHECKPOINT, EV_ENTER, EV_EXIT,
                                EV_FINISH, EV_FREE, EV_READ, EV_WRITE,
                                TraceError, TraceTruncatedError)

EVENT_TYPES = (EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH, EV_READ,
               EV_WRITE, EV_ALLOC, EV_FREE, EV_CHECKPOINT)

U32 = (1 << 32) - 1


def drain(decoder) -> tuple[list, type | None, str]:
    """Everything a decoder produces: events, then how it stopped."""
    events = []
    try:
        for batch in decoder.batches():
            events.extend(batch.rows())
    except Exception as exc:  # noqa: BLE001 — the *type* is the oracle
        return events, type(exc), str(exc)
    return events, None, ""


def both(blob: bytes, state: dict | None = None):
    scalar = drain(V2BatchDecoder(io.BytesIO(blob), "<t>", state=state,
                                  scalar=True))
    batch = drain(V2BatchDecoder(io.BytesIO(blob), "<t>", state=state))
    return scalar, batch


# A record's operands: mostly small (the wire format's sweet spot),
# sometimes full 32-bit (multi-byte varints), to mix 1..5-byte fields.
operand = st.one_of(st.integers(0, 4096), st.integers(0, U32))
gap = st.one_of(st.just(0), st.integers(0, 7), st.integers(0, 1 << 40))
record = st.tuples(st.sampled_from(EVENT_TYPES), operand, operand, gap)


def absolutize(records: list[tuple], finish: bool) -> list[tuple]:
    time = 0
    events = []
    for etype, a, b, delta in records:
        time += delta
        events.append((etype, a, b, time))
    if finish:
        events.append((EV_FINISH, 0, 0, time))
    return events


class TestStreamEquivalence:
    @given(records=st.lists(record, max_size=300),
           block_bytes=st.integers(1, 64),
           finish=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_streams_across_block_seams(self, records,
                                               block_bytes, finish):
        """Valid and FINISH-less streams: identical events, identical
        termination (StopIteration vs the missing-FINISH error)."""
        events = absolutize(records, finish)
        blob = encode_events(events, block_bytes)
        scalar, batch = both(blob)
        assert batch == scalar
        if finish:
            assert scalar == (events, None, "")

    @given(records=st.lists(record, min_size=20, max_size=200),
           split=st.integers(1, 19),
           block_bytes=st.integers(1, 48))
    @settings(max_examples=100, deadline=None)
    def test_resume_from_checkpoint_state(self, records, split,
                                          block_bytes):
        """Decoding the tail blocks seeded with the encoder's captured
        ``state`` dict: both decoders reconstruct the same suffix."""
        events = absolutize(records, True)
        encoder = V2Encoder(block_bytes)
        head = bytearray()
        last = 0
        for etype, a, b, t in events[:split]:
            encoder.add(etype, a, b, t - last)
            last = t
        head += encoder.take()
        state = encoder.state()
        state["time"] = last
        tail = bytearray()
        for etype, a, b, t in events[split:]:
            encoder.add(etype, a, b, t - last)
            last = t
        tail += encoder.take()
        scalar, batch = both(bytes(tail), state=state)
        assert batch == scalar
        assert scalar == (events[split:], None, "")

    @given(records=st.lists(record, max_size=120),
           block_bytes=st.integers(1, 32),
           cut=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_truncation_equivalence(self, records, block_bytes, cut):
        """Any prefix of a valid stream: same events, same typed
        truncation error, same message."""
        blob = encode_events(absolutize(records, True), block_bytes)
        scalar, batch = both(blob[:cut % (len(blob) + 1)])
        assert batch == scalar

    @given(records=st.lists(record, min_size=1, max_size=120),
           block_bytes=st.integers(1, 32),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_byte_flip_corruption_equivalence(self, records,
                                              block_bytes, seed):
        """Random byte flips anywhere in the framed stream — headers,
        compressed payloads, lengths: still the same prefix-then-error
        behaviour from both decoders."""
        blob = bytearray(encode_events(absolutize(records, True),
                                       block_bytes))
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(blob))
            blob[pos] ^= 1 << rng.randrange(8)
        scalar, batch = both(bytes(blob))
        assert batch == scalar

    @given(raw=st.binary(min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_block_payload_equivalence(self, raw):
        """A well-framed block holding arbitrary bytes: whatever the
        scalar loop makes of it (garbage events, overlong varints,
        mid-record cuts), the batch decoder makes the same."""
        payload = zlib.compress(raw)
        blob = BLOCK_HEADER.pack(len(payload), len(raw)) + payload
        scalar, batch = both(blob)
        assert batch == scalar

    def test_finish_mid_block_stops_both_decoders(self):
        """Records packed after FINISH in the same block are dead
        bytes: neither decoder may surface them."""
        raw = bytearray()
        for etype in (EV_READ, EV_FINISH, EV_WRITE, EV_READ):
            raw += bytes((etype, 2, 2, 1))
        payload = zlib.compress(bytes(raw))
        blob = BLOCK_HEADER.pack(len(payload), len(raw)) + payload
        scalar, batch = both(blob)
        assert batch == scalar
        events, exc_type, _ = scalar
        assert exc_type is None
        assert [e[0] for e in events] == [EV_READ, EV_FINISH]


class TestRecordContract:
    """An operand outside the writer's ``[0, 2^32)`` or a clock past
    int64: both decoders give the events before it, then the same
    :class:`TraceError`."""

    @pytest.mark.parametrize("value", [-1, 1 << 32, 1 << 64])
    @pytest.mark.parametrize("operand", ["a", "b"])
    @given(records=st.lists(record, max_size=60),
           block_bytes=st.integers(1, 48),
           at=st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_operand_outside_u32(self, value, operand, records,
                                 block_bytes, at):
        events = absolutize(records, True)
        at = min(at, len(events) - 1)
        etype, a, b, t = events[at]
        bad = (EV_READ, value, b, t) if operand == "a" \
            else (EV_READ, a, value, t)
        blob = encode_events(events[:at] + [bad] + events[at:],
                             block_bytes)
        scalar, batch = both(blob)
        assert batch == scalar
        assert scalar == (events[:at], TraceError,
                          f"<t>: corrupt trace: operand {value} does not "
                          "fit the 32-bit record format")

    @pytest.mark.parametrize("seeded", [False, True])
    def test_clock_past_int64(self, seeded):
        limit = (1 << 63) - 1
        events = [(EV_READ, 1, 2, 5), (EV_WRITE, 1, 2, limit),
                  (EV_READ, 1, 2, limit + 1), (EV_FINISH, 0, 0, limit + 1)]
        state = None
        if seeded:
            events = [(etype, a, b, t - 5) for etype, a, b, t in events]
            state = {"time": 5}
        scalar, batch = both(encode_events(events), state)
        assert batch == scalar
        assert scalar[1:] == (TraceError, f"<t>: corrupt trace: clock "
                                          f"{limit + 1} runs past int64")
        assert len(scalar[0]) == 2


class TestBoundedVarint:
    """Satellite fix 1: ``read_uvarint`` is capped at 10 bytes."""

    def test_ten_byte_varint_still_decodes(self):
        data = b"\x80" * (MAX_VARINT_BYTES - 1) + b"\x01"
        value, pos = read_uvarint(data, 0)
        assert value == 1 << (7 * (MAX_VARINT_BYTES - 1))
        assert pos == MAX_VARINT_BYTES

    def test_eleven_continuation_bytes_raise_typed_error(self):
        data = b"\xff" * (MAX_VARINT_BYTES + 5)
        with pytest.raises(TraceError, match="overlong varint"):
            read_uvarint(data, 0)

    def test_overlong_is_not_reported_as_truncation(self):
        """The cap fires even with bytes left — corruption, not EOF."""
        data = b"\xff" * 64 + b"\x01"
        with pytest.raises(TraceError) as info:
            read_uvarint(data, 0)
        assert not isinstance(info.value, TraceTruncatedError)

    def test_truncated_varint_still_truncation_error(self):
        with pytest.raises(TraceTruncatedError, match="cut mid-way"):
            read_uvarint(b"\x80\x80", 0)

    def test_overlong_varint_in_block_same_from_both_decoders(self):
        """An in-band overlong field: the decoders agree on prefix and
        error (the batch kernel falls back, then applies the cap)."""
        raw = bytes((EV_READ, 2, 2, 1))          # one good record
        raw += bytes((EV_WRITE,)) + b"\xff" * 24  # then a corrupt one
        payload = zlib.compress(raw)
        blob = BLOCK_HEADER.pack(len(payload), len(raw)) + payload
        scalar, batch = both(blob)
        assert batch == scalar
        events, exc_type, message = scalar
        assert [e[0] for e in events] == [EV_READ]
        assert exc_type is TraceError
        assert "overlong varint" in message


class TestEncoderClockGuard:
    """Satellite fix 2: negative time deltas are rejected with
    context, not a bare ``ValueError`` from ``bytearray.append``."""

    def test_negative_delta_raises_trace_error_with_event_index(self):
        encoder = V2Encoder()
        encoder.add(EV_READ, 1, 2, 3)
        encoder.add(EV_WRITE, 1, 2, 3)
        with pytest.raises(TraceError, match=r"event 2: clock went "
                                             r"backwards"):
            encoder.add(EV_READ, 1, 2, -1)

    def test_message_names_the_offending_delta(self):
        with pytest.raises(TraceError, match=r"timestamp delta -7"):
            V2Encoder().add(EV_READ, 0, 0, -7)

    def test_rejected_event_is_not_encoded(self):
        encoder = V2Encoder()
        encoder.add(EV_READ, 1, 2, 3)
        pending = encoder.pending()
        with pytest.raises(TraceError):
            encoder.add(EV_READ, 1, 2, -1)
        assert encoder.pending() == pending


class TestEngineParity:
    """Replay with the vectorized decoder must reproduce the scalar
    reference decoder exactly — for the builtin analyses (block
    consumers on both) and for plugins that never opted in (per-event
    hooks on both)."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        from repro.trace.writer import record_source
        from repro.workloads import get

        path = str(tmp_path_factory.mktemp("col") / "wl.trace")
        record_source(get("aes", 0.25).source, path,
                      checkpoint_interval=2000)
        return path

    def test_all_registered_analyses_identical(self, trace):
        from repro.analyses import analysis_names
        from repro.trace.replay import replay_trace

        names = analysis_names()
        scalar = replay_trace(trace, names, columnar=False)
        batch = replay_trace(trace, names, columnar=True)
        for name in names:
            assert (batch.reports[name].to_dict()
                    == scalar.reports[name].to_dict()), name

    @pytest.mark.parametrize("workload", ["gzip", "bzip2"])
    def test_all_registered_analyses_identical_at_half_scale(
            self, workload, tmp_path):
        from repro.trace.writer import record_source
        from repro.workloads import get

        path = str(tmp_path / f"{workload}.trace")
        record_source(get(workload, 0.5).source, path,
                      checkpoint_interval=2000)
        self.test_all_registered_analyses_identical(path)

    def test_scalar_only_plugin_sees_every_event(self, trace):
        """A plugin without ``consume_batch`` rides the per-event
        fallback inside the batch engine — same hook sequence."""
        from repro.analyses import Analysis
        from repro.analyses.base import AnalysisResult
        from repro.trace.replay import replay_with

        class Probe(Analysis):
            name = "probe"
            description = "records every hook invocation"

            def __init__(self):
                self.log = []

            def on_enter_function(self, fn_name, entry_pc, timestamp):
                self.log.append(("enter", fn_name, entry_pc, timestamp))

            def on_exit_function(self, fn_name, timestamp):
                self.log.append(("exit", fn_name, timestamp))

            def on_block_enter(self, block_id, timestamp):
                self.log.append(("block", block_id, timestamp))

            def on_branch(self, pc, target_block, timestamp):
                self.log.append(("branch", pc, target_block, timestamp))

            def on_read(self, addr, pc, timestamp):
                self.log.append(("read", addr, pc, timestamp))

            def on_write(self, addr, pc, timestamp):
                self.log.append(("write", addr, pc, timestamp))

            def on_heap_alloc(self, base, size, timestamp):
                self.log.append(("alloc", base, size, timestamp))

            def on_frame_free(self, lo, hi):
                self.log.append(("free", lo, hi))

            def on_finish(self, timestamp):
                self.log.append(("finish", timestamp))

            def finish(self, ctx):
                return AnalysisResult(analysis=self.name,
                                      data={"events": len(self.log)},
                                      text="probe")

        runs = {}
        for mode in (False, True):
            probe = Probe()
            replay_with(trace, [probe], columnar=mode)
            runs[mode] = probe.log
        assert runs[True] == runs[False]
        assert runs[True]  # the probe actually saw the stream

    def test_mixed_batch_and_scalar_consumers(self, trace):
        """Block and per-event consumers in one engine pass agree
        with an all-scalar pass (the dispatch-split seams)."""
        from repro.analyses import make_analyses
        from repro.trace.replay import replay_with

        def run(columnar):
            consumers = make_analyses(("counts", "dep", "hot"))
            outcome = replay_with(trace, consumers, columnar=columnar)
            return {name: report.to_dict()
                    for name, report in outcome.reports.items()}

        assert run(True) == run(False)
