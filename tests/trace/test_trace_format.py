"""Trace format: round-trip fidelity, versioning, corruption handling."""

from __future__ import annotations

import struct

import pytest

from repro.runtime.interpreter import run_source
from repro.runtime.tracing import CountingTracer
from repro.trace import (TraceError, TraceReader, TraceTruncatedError,
                         TraceVersionError, record_source)
from repro.trace.codec import BLOCK_HEADER
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                EV_WRITE, MAGIC, source_digest)

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

HEAPY = """
int main() {
    int total = 0;
    for (int round = 0; round < 6; round++) {
        int *block = malloc(16);
        for (int i = 0; i < 16; i++) {
            block[i] = round * i;
        }
        total += block[round];
        free(block);
    }
    print(total);
    return 0;
}
"""


@pytest.fixture
def small_trace(tmp_path):
    path = tmp_path / "small.trace"
    result = record_source(SMALL, path)
    return path, result


class TestRoundTrip:
    def test_events_match_live_run(self, small_trace):
        """Every recorded event class matches a live counting run."""
        path, result = small_trace
        live = CountingTracer()
        run_source(SMALL, tracer=live)

        counts = {etype: 0 for etype in
                  (EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH, EV_READ,
                   EV_WRITE, EV_ALLOC, EV_FREE, EV_FINISH)}
        with TraceReader(path) as reader:
            for etype, a, b, t in reader.events():
                counts[etype] += 1
        assert counts[EV_READ] == live.reads
        assert counts[EV_WRITE] == live.writes
        assert counts[EV_ENTER] == live.calls
        assert counts[EV_BRANCH] == live.branches
        assert counts[EV_BLOCK] == live.blocks
        assert counts[EV_FINISH] == 1
        assert sum(counts.values()) == result.events

    def test_timestamps_monotone_and_final(self, small_trace):
        path, result = small_trace
        with TraceReader(path) as reader:
            last = 0
            final = 0
            for etype, a, b, t in reader.events():
                assert t >= last
                last = t
                if etype == EV_FINISH:
                    final = t
        assert final == result.final_time

    def test_header_identity(self, small_trace):
        path, _ = small_trace
        with TraceReader(path) as reader:
            header = reader.header
            assert header.source == SMALL
            assert header.digest == source_digest(SMALL)
            assert "main" in header.functions
            assert "helper" in header.functions
            assert reader.verify_source(SMALL)
            assert not reader.verify_source(SMALL + " ")

    def test_footer_outcome(self, small_trace):
        path, result = small_trace
        exit_value, interp = run_source(SMALL)
        with TraceReader(path) as reader:
            for _ in reader.events():
                pass
            footer = reader.footer
        assert footer is not None
        assert footer.exit_value == exit_value == result.exit_value
        assert [tuple(v) for v in footer.output] == interp.output
        assert footer.events == result.events
        assert footer.final_time == interp.time

    def test_footer_without_streaming(self, small_trace):
        path, result = small_trace
        with TraceReader(path) as reader:
            footer = reader.read_footer()
        assert footer.events == result.events

    def test_heap_events_roundtrip(self, tmp_path):
        path = tmp_path / "heap.trace"
        record_source(HEAPY, path)
        allocs = frees_in_heap = 0
        with TraceReader(path) as reader:
            heap_base = reader.header.heap_base
            for etype, a, b, t in reader.events():
                if etype == EV_ALLOC:
                    allocs += 1
                    assert a >= heap_base
                    assert b == 16
                elif etype == EV_FREE and a >= heap_base:
                    frees_in_heap += 1
        assert allocs == 6
        assert frees_in_heap == 6


class TestSchemaErrors:
    def test_version_mismatch_rejected(self, small_trace, tmp_path):
        """Any version but 2 is rejected."""
        path, _ = small_trace
        blob = bytearray(path.read_bytes())
        offset = len(MAGIC)
        blob[offset:offset + 2] = struct.pack("<H", 99)
        bad = tmp_path / "future.trace"
        bad.write_bytes(blob)
        with pytest.raises(TraceVersionError):
            TraceReader(bad)

    def test_v1_file_rejected(self, tmp_path, write_v1_trace):
        """Format v1 is retired: its files raise a typed version error
        naming the one version this reader understands."""
        path = tmp_path / "old.trace"
        write_v1_trace(path)
        with pytest.raises(TraceVersionError,
                           match="version 1, this reader understands "
                                 "only 2"):
            TraceReader(path)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"NOTATRACE" + b"\0" * 64)
        with pytest.raises(TraceError):
            TraceReader(bad)

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "empty.trace"
        bad.write_bytes(b"")
        with pytest.raises(TraceTruncatedError):
            TraceReader(bad)


class TestTruncation:
    def _truncate(self, path, tmp_path, keep: int):
        bad = tmp_path / "cut.trace"
        bad.write_bytes(path.read_bytes()[:keep])
        return bad

    def test_truncated_mid_events(self, tmp_path):
        """A cut deep inside a many-block stream: the whole blocks
        before the cut still decode, then the typed error follows."""
        from repro.ir.lowering import compile_source
        from repro.runtime.interpreter import Interpreter
        from repro.trace.writer import TraceWriter

        path = tmp_path / "blocks.trace"
        writer = TraceWriter(path, SMALL, block_bytes=64)
        interp = Interpreter(compile_source(SMALL), writer)
        writer.close(interp.run(), interp.output)
        with TraceReader(path) as reader:
            full = list(reader.events())
            blocks = reader.decoder.blocks
        assert blocks > 4
        bad = self._truncate(path, tmp_path, path.stat().st_size // 2)
        seen = []
        with pytest.raises(TraceTruncatedError):
            with TraceReader(bad) as reader:
                for event in reader.events():
                    seen.append(event)
        assert 0 < len(seen) < len(full)
        assert seen == full[:len(seen)]

    def test_truncated_mid_record(self, small_trace, tmp_path):
        """A block whose last record stops inside a multi-byte varint."""
        import zlib

        path, _ = small_trace
        with TraceReader(path) as reader:
            start = reader._events_start
        blob = path.read_bytes()
        # One READ record whose first operand varint never terminates.
        raw = bytes([EV_READ, 0x80, 0x80])
        payload = zlib.compress(raw)
        bad = tmp_path / "cut.trace"
        bad.write_bytes(blob[:start] + BLOCK_HEADER.pack(len(payload),
                                                         len(raw))
                        + payload)
        with pytest.raises(TraceTruncatedError, match="varint"):
            with TraceReader(bad) as reader:
                for _ in reader.events():
                    pass

    def test_missing_footer(self, small_trace, tmp_path):
        """FINISH present but footer/trailer cut off."""
        path, _ = small_trace
        size = path.stat().st_size
        bad = self._truncate(path, tmp_path, size - 9)
        with pytest.raises(TraceTruncatedError):
            with TraceReader(bad) as reader:
                for _ in reader.events():
                    pass

    def test_truncated_header(self, small_trace, tmp_path):
        path, _ = small_trace
        bad = self._truncate(path, tmp_path, len(MAGIC) + 4)
        with pytest.raises(TraceTruncatedError):
            TraceReader(bad)

    def test_aborted_recording_is_truncated(self, tmp_path):
        """A recording that dies (step limit) leaves a detectable stub."""
        from repro.runtime.errors import StepLimitExceeded

        path = tmp_path / "aborted.trace"
        with pytest.raises(StepLimitExceeded):
            record_source(SMALL, path, max_steps=100)
        with pytest.raises(TraceTruncatedError):
            with TraceReader(path) as reader:
                for _ in reader.events():
                    pass
