"""Trace format v2: decode-path parity, compression, corruption handling."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.trace import (TRACE_VERSION_V2, TraceError, TraceReader,
                         TraceTruncatedError, record_source)
from repro.cli import main
from repro.trace.codec import BLOCK_HEADER, BLOCK_HEADER_SIZE
from repro.trace.events import MAGIC, pack_length
from repro.ir.lowering import compile_source
from repro.runtime.memory import Memory
from repro.runtime.tracing import EV_BLOCK, EV_FINISH, EV_READ
from repro.trace.replay import replay_trace
from repro.trace.writer import LIVE_BLOCK_EVENTS, TraceWriter

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


#: Offset of the header blob: magic, u16 version, u32 header length.
_HEADER_AT = len(MAGIC) + 2 + 4

#: Bytes per event of the retired fixed-record format (v1): the yard
#: stick the v2 compression claims are measured against.
FIXED_RECORD_BYTES = 13


def _writer_sink(path):
    """A writer for SMALL and the sink its run would emit into."""
    program = compile_source(SMALL)
    writer = TraceWriter(path, SMALL)
    return writer, writer.sink(program, Memory(program))


def _drive(sink, records) -> None:
    """Emit ``records`` into ``sink``, flushing as the interpreter does
    (here a record stands for an instruction)."""
    for i, record in enumerate(records, 1):
        sink.emit(record)
        if i % sink.flush_every == 0:
            sink.flush()


@pytest.fixture
def small_trace(tmp_path):
    path = tmp_path / "v2.trace"
    return path, record_source(SMALL, path)


def _header_json(path) -> dict:
    """The decoded JSON of the trace header at ``path``."""
    blob = open(path, "rb").read()
    length = int.from_bytes(blob[_HEADER_AT - 4:_HEADER_AT], "little")
    return json.loads(zlib.decompress(blob[_HEADER_AT:_HEADER_AT + length]))


def _rewrite_header(path, out, edit) -> None:
    """Copy the trace at ``path`` to ``out`` with ``edit`` applied to
    its header JSON (the events and footer are kept byte for byte)."""
    blob = open(path, "rb").read()
    length = int.from_bytes(blob[_HEADER_AT - 4:_HEADER_AT], "little")
    header = _header_json(path)
    edit(header)
    packed = zlib.compress(json.dumps(header).encode("utf-8"), 6)
    with open(out, "wb") as handle:
        handle.write(blob[:_HEADER_AT - 4] + pack_length(len(packed))
                     + packed + blob[_HEADER_AT + length:])


def _rows(reader: TraceReader, columnar: bool) -> list:
    return [row for batch in reader.batches(columnar=columnar)
            for row in batch.rows()]


class TestParity:
    def test_default_version_is_v2(self, tmp_path):
        assert TRACE_VERSION_V2 == 2
        path = tmp_path / "default.trace"
        record_source(SMALL, path)
        with TraceReader(path) as reader:
            assert reader.version == 2

    def test_event_streams_identical(self, small_trace):
        """The vectorized decode and the scalar reference decode yield
        the same events and the same footer."""
        path, result = small_trace
        with TraceReader(path) as ra, TraceReader(path) as rb:
            assert _rows(ra, True) == _rows(rb, False) == list(ra.events())
            assert ra.decoder.blocks_vectorized == ra.decoder.blocks
            assert rb.decoder.blocks_vectorized == 0
            assert ra.footer.events == rb.footer.events == result.events
            assert ra.footer.final_time == rb.footer.final_time

    def test_header_and_versions(self, small_trace):
        from repro.trace.events import source_digest

        path, _ = small_trace
        with TraceReader(path) as reader:
            assert reader.version == 2
            assert reader.header.digest == source_digest(SMALL)
            assert not hasattr(reader.header, "sampling")
        # The key stays in every header as a constant of the format.
        assert _header_json(path)["sampling"] == "full"

    def test_replay_results_identical(self, small_trace):
        """The analyses cannot tell which decode path fed them."""
        path, _ = small_trace
        analyses = ("dep", "locality", "hot", "counts")
        o1 = replay_trace(str(path), analyses, columnar=False)
        o2 = replay_trace(str(path), analyses)
        for name in o1.reports:
            assert o1.reports[name].to_dict() == o2.reports[name].to_dict()

    def test_v2_is_much_smaller(self, tmp_path):
        path = tmp_path / "v2.trace"
        result = record_source(LOOPY, path)
        assert result.events * FIXED_RECORD_BYTES > 5 * result.trace_bytes

    def test_checkpointed_trace_still_much_smaller_than_v1(self, tmp_path):
        """Prebuilt seams live in the .ckpt sidecar: the trace itself
        is byte-identical to an unseamed recording."""
        v2 = tmp_path / "v2.trace"
        bare = tmp_path / "bare.trace"
        r2 = record_source(LOOPY, v2, checkpoint_interval=10_000)
        record_source(LOOPY, bare)
        assert r2.checkpoints > 0
        assert (tmp_path / "v2.trace.ckpt").exists()
        assert v2.read_bytes() == bare.read_bytes()
        assert r2.events * FIXED_RECORD_BYTES > 5 * r2.trace_bytes

    def test_multiple_blocks_roundtrip(self, tmp_path):
        """A tiny block size forces many blocks; decoding still matches
        the single-block stream record for record."""
        from repro.runtime.interpreter import Interpreter

        big = tmp_path / "one-block.trace"
        small = tmp_path / "many-blocks.trace"
        record_source(SMALL, big)
        program = compile_source(SMALL, "<input>")
        writer = TraceWriter(small, SMALL, block_bytes=64)
        interp = Interpreter(program, writer)
        exit_value = interp.run()
        writer.close(exit_value, interp.output)
        with TraceReader(big) as ra, TraceReader(small) as rb:
            assert list(ra.events()) == list(rb.events())
            assert rb.decoder.blocks > 1

    def test_read_footer_without_streaming(self, small_trace):
        v2, r2 = small_trace
        with TraceReader(v2) as reader:
            footer = reader.read_footer()
        assert footer.events == r2.events

    def test_events_restartable(self, small_trace):
        v2, _ = small_trace
        with TraceReader(v2) as reader:
            first = list(reader.events())
            second = list(reader.events())
        assert first == second


class TestSampledHeader:
    """Traces hold every event. A header naming a sampling policy (a
    recording that dropped memory events) fails with the same
    :class:`TraceError` on every path that opens a trace; a header
    without the key, as written before sampling existed, still reads."""

    MESSAGE = r"sampled traces \(interval:100\) are no longer supported"

    @pytest.fixture
    def sampled(self, small_trace, tmp_path):
        path, _ = small_trace
        out = tmp_path / "sampled.trace"
        _rewrite_header(path, out,
                        lambda header: header.update(sampling="interval:100"))
        return str(out)

    def test_reader(self, sampled):
        with pytest.raises(TraceError, match=self.MESSAGE):
            TraceReader(sampled)

    def test_replay(self, sampled):
        with pytest.raises(TraceError, match=self.MESSAGE):
            replay_trace(sampled, ("dep", "counts"))

    def test_parallel_replay(self, sampled):
        from repro.trace.parallel import parallel_replay

        with pytest.raises(TraceError, match=self.MESSAGE):
            parallel_replay(sampled, ("dep", "counts"), jobs=2)

    def test_checkpoints(self, sampled):
        from repro.trace.shards import load_or_build_checkpoints

        with pytest.raises(TraceError, match=self.MESSAGE):
            load_or_build_checkpoints(sampled, 50)

    @pytest.mark.parametrize("verb", [["info"], ["replay"]],
                             ids=["info", "replay"])
    def test_cli_exits_2(self, sampled, verb, capsys):
        assert main([*verb, sampled]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sampled traces (interval:100) are no longer supported" \
            in err
        assert len(err.strip().splitlines()) == 1

    def test_header_without_the_key_reads(self, small_trace, tmp_path):
        path, _ = small_trace
        old = tmp_path / "old.trace"
        _rewrite_header(path, old, lambda header: header.pop("sampling"))
        assert "sampling" not in _header_json(old)
        with TraceReader(old) as a, TraceReader(path) as b:
            assert a.header == b.header
            assert list(a.events()) == list(b.events())
        assert (replay_trace(str(old), ("dep",)).reports["dep"].to_dict()
                == replay_trace(str(path), ("dep",)).reports["dep"]
                .to_dict())


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

    def test_truncated_header(self, small_trace, tmp_path):
        v2, _ = small_trace
        bad = tmp_path / "hdr.trace"
        bad.write_bytes(v2.read_bytes()[:12])
        with pytest.raises(TraceTruncatedError):
            TraceReader(bad)

    def test_truncated_inside_block_header(self, small_trace, tmp_path):
        v2, _ = small_trace
        start = self._events_start(v2)
        bad = tmp_path / "bh.trace"
        bad.write_bytes(v2.read_bytes()[:start + BLOCK_HEADER_SIZE - 3])
        with pytest.raises(TraceTruncatedError, match="block header"):
            self._consume(bad)

    def test_truncated_mid_block(self, small_trace, tmp_path):
        v2, _ = small_trace
        start = self._events_start(v2)
        bad = tmp_path / "mb.trace"
        bad.write_bytes(v2.read_bytes()[:start + BLOCK_HEADER_SIZE + 40])
        with pytest.raises(TraceTruncatedError, match="mid-block"):
            self._consume(bad)

    def test_truncated_at_block_boundary(self, small_trace, tmp_path):
        """EOF exactly between blocks: reported as a missing FINISH."""
        v2, _ = small_trace
        blob = v2.read_bytes()
        start = self._events_start(v2)
        comp_len, _raw = BLOCK_HEADER.unpack(
            blob[start:start + BLOCK_HEADER_SIZE])
        bad = tmp_path / "bb.trace"
        bad.write_bytes(blob[:start])  # zero whole blocks survive
        with pytest.raises(TraceTruncatedError, match="without FINISH"):
            self._consume(bad)

    def test_block_cut_mid_record(self, small_trace, tmp_path):
        """A block whose decompressed payload stops inside a record."""
        v2, _ = small_trace
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

    def test_corrupt_block_payload(self, small_trace, tmp_path):
        v2, _ = small_trace
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

    def test_block_length_lie(self, small_trace, tmp_path):
        v2, _ = small_trace
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

    @pytest.mark.parametrize("addr", [-1, 1 << 32, 1 << 64])
    def test_writer_rejects_operands_outside_u32(self, tmp_path, addr):
        """The writer's half of the record contract the reader
        enforces: no operand outside [0, 2^32) reaches the stream."""
        writer, sink = _writer_sink(tmp_path / "w.trace")
        _drive(sink, [(EV_READ, addr, 0, 1), (EV_FINISH, 0, 0, 1)])
        with pytest.raises(TraceError, match=(
                f"event 0: operand {addr} does not fit the 32-bit")):
            sink.finish()
        writer.abort()

    def test_aborted_recording_is_truncated(self, tmp_path):
        from repro.runtime.errors import StepLimitExceeded

        path = tmp_path / "aborted.trace"
        with pytest.raises(StepLimitExceeded):
            record_source(SMALL, path, max_steps=100)
        with pytest.raises(TraceTruncatedError):
            self._consume(path)


class TestWriterErrors:
    """Where the writer raises: an operand when its record is staged,
    a clock when its block is encoded, naming the record's index in
    the stream; a recording it stops stays truncated."""

    #: Past the first block, so the index counts records already
    #: handed on (8192 per block).
    AT = 9000

    def _consume(self, path):
        with TraceReader(path) as reader:
            for _ in reader.events():
                pass

    @pytest.mark.parametrize("addr", [-1, 1 << 32, 1 << 64])
    @pytest.mark.parametrize("operand", ["a", "b"])
    def test_operand_error_names_the_event(self, tmp_path, addr, operand):
        writer, sink = _writer_sink(tmp_path / "w.trace")
        bad = (EV_READ, addr, 0, self.AT) if operand == "a" else (
            EV_READ, 0, addr, self.AT)
        with pytest.raises(TraceError, match=(
                f"event {self.AT}: operand {addr} does not fit the "
                "32-bit trace record format")):
            _drive(sink, [*((EV_BLOCK, 0, 0, t) for t in range(self.AT)),
                          bad, (EV_FINISH, 0, 0, self.AT)])
            sink.finish()
        assert writer.events < self.AT
        writer.abort()

    @pytest.mark.parametrize("step", [-3, 1 << 32])
    def test_clock_error_names_the_event(self, tmp_path, step):
        writer, sink = _writer_sink(tmp_path / "w.trace")
        _drive(sink, [*((EV_BLOCK, 0, 0, t) for t in range(self.AT)),
                      (EV_BLOCK, 0, 0, self.AT - 1 + step),
                      (EV_FINISH, 0, 0, self.AT + step)])
        with pytest.raises(TraceError, match=(
                f"event {self.AT}: timestamp delta {step} does not fit "
                "the 32-bit trace record format")):
            sink.finish()
        writer.abort()

    @pytest.mark.parametrize("step", [-3, 1 << 32])
    def test_clock_error_aborts_the_recording(self, tmp_path, monkeypatch,
                                              step):
        from repro.trace import writer as writer_module

        at = self.AT

        class Skewed(writer_module.TraceWriter):
            """Moves record ``at`` of the interpreter's stream to
            ``step`` past the clock of the record before it."""

            def take(self, batch):
                i = at - self.events
                if 0 <= i < len(batch):
                    prev = batch.t[i - 1] if i else self.final_time
                    batch.t[i] = prev + step
                super().take(batch)

        monkeypatch.setattr(writer_module, "TraceWriter", Skewed)
        path = tmp_path / "skewed.trace"
        with pytest.raises(TraceError, match=f"event {at}: timestamp "
                                             f"delta {step} does not fit"):
            record_source(LOOPY, path)
        with pytest.raises(TraceTruncatedError):
            self._consume(path)

    def test_counts_match_the_stream(self, tmp_path):
        """``events`` and ``final_time`` count every record taken and
        the clock of the last, as the footer and the decoded stream
        do."""
        writer, sink = _writer_sink(tmp_path / "records.trace")
        _drive(sink, [*((EV_BLOCK, 0, 0, 2 * t) for t in range(self.AT)),
                      (EV_FINISH, 0, 0, 2 * self.AT)])
        assert writer.events == LIVE_BLOCK_EVENTS
        sink.finish()
        assert writer.events == self.AT + 1
        assert writer.final_time == 2 * self.AT
        writer.abort()

        path = tmp_path / "clean.trace"
        result = record_source(LOOPY, path)
        with TraceReader(path) as reader:
            events = list(reader.events())
            footer = reader.read_footer()
        assert result.events == footer.events == len(events) > self.AT
        assert result.final_time == footer.final_time == events[-1][3]
