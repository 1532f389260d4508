"""Trace format v2: parity with v1, compression, corruption handling."""

from __future__ import annotations

import zlib

import pytest

from repro.trace import (DEFAULT_TRACE_VERSION, TraceError, TraceReader,
                         TraceTruncatedError, record_source)
from repro.trace.codec import BLOCK_HEADER, BLOCK_HEADER_SIZE
from repro.trace.replay import replay_trace

SMALL = """
int a[32];
int helper(int x) {
    a[x % 32] = x;
    return a[(x + 1) % 32];
}
int main() {
    int s = 0;
    for (int i = 0; i < 20; i++) {
        s += helper(i);
    }
    print(s);
    return 0;
}
"""

LOOPY = """
int data[256];
int main() {
    int s = 0;
    for (int round = 0; round < 40; round++) {
        for (int i = 0; i < 256; i++) {
            data[i] = data[i] + round;
        }
        s += data[round % 256];
    }
    print(s);
    return 0;
}
"""


@pytest.fixture
def both_traces(tmp_path):
    v1 = tmp_path / "v1.trace"
    v2 = tmp_path / "v2.trace"
    r1 = record_source(SMALL, v1, version=1)
    r2 = record_source(SMALL, v2, version=2)
    return (v1, r1), (v2, r2)


class TestParity:
    def test_default_version_is_v2(self, tmp_path):
        assert DEFAULT_TRACE_VERSION == 2
        path = tmp_path / "default.trace"
        record_source(SMALL, path)
        with TraceReader(path) as reader:
            assert reader.version == 2

    def test_event_streams_identical(self, both_traces):
        (v1, _), (v2, _) = both_traces
        with TraceReader(v1) as ra, TraceReader(v2) as rb:
            assert list(ra.events()) == list(rb.events())
            assert ra.footer.events == rb.footer.events
            assert ra.footer.final_time == rb.footer.final_time

    def test_header_and_versions(self, both_traces):
        (v1, _), (v2, _) = both_traces
        with TraceReader(v1) as ra, TraceReader(v2) as rb:
            assert ra.version == 1
            assert rb.version == 2
            assert ra.header.digest == rb.header.digest
            assert rb.header.sampling == "full"

    def test_replay_results_identical(self, both_traces):
        """The analyses cannot tell which wire format fed them."""
        (v1, _), (v2, _) = both_traces
        o1 = replay_trace(str(v1), ("dep", "locality", "hot", "counts"))
        o2 = replay_trace(str(v2), ("dep", "locality", "hot", "counts"))
        for name in o1.reports:
            assert o1.reports[name].to_dict() == o2.reports[name].to_dict()

    def test_v2_is_much_smaller(self, tmp_path):
        v1 = tmp_path / "v1.trace"
        v2 = tmp_path / "v2.trace"
        r1 = record_source(LOOPY, v1, version=1)
        r2 = record_source(LOOPY, v2, version=2)
        assert r1.events == r2.events
        assert r1.trace_bytes > 5 * r2.trace_bytes

    def test_checkpointed_trace_still_much_smaller_than_v1(self, tmp_path):
        """Prebuilt seams live in the .ckpt sidecar: the trace itself
        is byte-identical to an unseamed recording."""
        v1 = tmp_path / "v1.trace"
        v2 = tmp_path / "v2.trace"
        bare = tmp_path / "bare.trace"
        r1 = record_source(LOOPY, v1, version=1)
        r2 = record_source(LOOPY, v2, version=2,
                           checkpoint_interval=10_000)
        record_source(LOOPY, bare, version=2)
        assert r2.checkpoints > 0
        assert (tmp_path / "v2.trace.ckpt").exists()
        assert v2.read_bytes() == bare.read_bytes()
        assert r1.trace_bytes > 5 * r2.trace_bytes

    def test_multiple_blocks_roundtrip(self, tmp_path):
        """A tiny block size forces many blocks; decoding still matches
        the single-block stream record for record."""
        from repro.ir.lowering import compile_source
        from repro.runtime.interpreter import Interpreter
        from repro.trace.writer import TraceWriter

        big = tmp_path / "one-block.trace"
        small = tmp_path / "many-blocks.trace"
        record_source(SMALL, big, version=2)
        program = compile_source(SMALL, "<input>")
        writer = TraceWriter(small, SMALL, version=2, block_bytes=64)
        interp = Interpreter(program, writer)
        exit_value = interp.run()
        writer.close(exit_value, interp.output)
        with TraceReader(big) as ra, TraceReader(small) as rb:
            assert list(ra.events()) == list(rb.events())
            assert rb.decoder.blocks > 1

    def test_read_footer_without_streaming(self, both_traces):
        _, (v2, r2) = both_traces
        with TraceReader(v2) as reader:
            footer = reader.read_footer()
        assert footer.events == r2.events

    def test_events_restartable(self, both_traces):
        _, (v2, _) = both_traces
        with TraceReader(v2) as reader:
            first = list(reader.events())
            second = list(reader.events())
        assert first == second


class TestCorruption:
    """Satellite contract: truncation at header, mid-record, and
    mid-block all raise typed errors, never struct/EOF exceptions."""

    def _events_start(self, path) -> int:
        with TraceReader(path) as reader:
            return reader._events_start

    def _consume(self, path):
        with TraceReader(path) as reader:
            for _ in reader.events():
                pass

    def test_truncated_header(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        bad = tmp_path / "hdr.trace"
        bad.write_bytes(v2.read_bytes()[:12])
        with pytest.raises(TraceTruncatedError):
            TraceReader(bad)

    def test_truncated_inside_block_header(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        start = self._events_start(v2)
        bad = tmp_path / "bh.trace"
        bad.write_bytes(v2.read_bytes()[:start + BLOCK_HEADER_SIZE - 3])
        with pytest.raises(TraceTruncatedError, match="block header"):
            self._consume(bad)

    def test_truncated_mid_block(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        start = self._events_start(v2)
        bad = tmp_path / "mb.trace"
        bad.write_bytes(v2.read_bytes()[:start + BLOCK_HEADER_SIZE + 40])
        with pytest.raises(TraceTruncatedError, match="mid-block"):
            self._consume(bad)

    def test_truncated_at_block_boundary(self, both_traces, tmp_path):
        """EOF exactly between blocks: reported as a missing FINISH."""
        _, (v2, _) = both_traces
        blob = v2.read_bytes()
        start = self._events_start(v2)
        comp_len, _raw = BLOCK_HEADER.unpack(
            blob[start:start + BLOCK_HEADER_SIZE])
        bad = tmp_path / "bb.trace"
        bad.write_bytes(blob[:start])  # zero whole blocks survive
        with pytest.raises(TraceTruncatedError, match="without FINISH"):
            self._consume(bad)

    def test_block_cut_mid_record(self, both_traces, tmp_path):
        """A block whose decompressed payload stops inside a record."""
        _, (v2, _) = both_traces
        blob = v2.read_bytes()
        start = self._events_start(v2)
        comp_len, raw_len = BLOCK_HEADER.unpack(
            blob[start:start + BLOCK_HEADER_SIZE])
        payload = blob[start + BLOCK_HEADER_SIZE:
                       start + BLOCK_HEADER_SIZE + comp_len]
        raw = zlib.decompress(payload)
        cut = zlib.compress(raw[:len(raw) - 2], 6)
        bad = tmp_path / "mr.trace"
        bad.write_bytes(blob[:start]
                        + BLOCK_HEADER.pack(len(cut), len(raw) - 2)
                        + cut)
        with pytest.raises(TraceTruncatedError, match="mid-record|cut"):
            self._consume(bad)

    def test_corrupt_block_payload(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        blob = bytearray(v2.read_bytes())
        start = self._events_start(v2)
        # Stomp bytes inside the compressed payload.
        for i in range(start + BLOCK_HEADER_SIZE + 4,
                       start + BLOCK_HEADER_SIZE + 12):
            blob[i] ^= 0xFF
        bad = tmp_path / "corrupt.trace"
        bad.write_bytes(blob)
        with pytest.raises(TraceError):
            self._consume(bad)

    def test_block_length_lie(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        blob = bytearray(v2.read_bytes())
        start = self._events_start(v2)
        comp_len, raw_len = BLOCK_HEADER.unpack(
            bytes(blob[start:start + BLOCK_HEADER_SIZE]))
        blob[start:start + BLOCK_HEADER_SIZE] = BLOCK_HEADER.pack(
            comp_len, raw_len + 7)
        bad = tmp_path / "lie.trace"
        bad.write_bytes(blob)
        with pytest.raises(TraceError, match="length mismatch"):
            self._consume(bad)

    def test_aborted_recording_is_truncated(self, tmp_path):
        from repro.runtime.errors import StepLimitExceeded

        path = tmp_path / "aborted.trace"
        with pytest.raises(StepLimitExceeded):
            record_source(SMALL, path, max_steps=100, version=2)
        with pytest.raises(TraceTruncatedError):
            self._consume(path)
