"""Trace recording: a tracer that streams a run's records to a file.

The interpreter emits every event as an ``(etype, a, b, t)`` record
(:mod:`repro.runtime.tracing`). :class:`TraceWriter` is an
:class:`EventRecorder`: its sink's ``emit`` is a list's ``extend``, so
recording adds no Python call per event. At flushes the list is staged
into int64 blocks of :data:`LIVE_BLOCK_EVENTS` records, each FREE
riding the clock of the record before it, and each block is written
out by :class:`~repro.trace.codec.BlockEncoder` as trace format v2
(:mod:`repro.trace.codec`): delta/varint records in zlib-compressed
blocks. Recording is therefore far cheaper than profiling (no shadow
memory, no index tree), and the resulting trace can be replayed
through any number of analyses without touching the interpreter again.
Hooked tracers on the same run are served by the record→hook adapter
(:func:`~repro.runtime.tracing.hook_sink`).

The header is written from :meth:`TraceWriter.on_start` (which is the
first moment the program — and with it the function-name table and
memory geometry — is known); the footer is written by :meth:`close`,
which the record helpers call with the run's exit value and output.

The writer keeps no shard-seam state: parallel replay's checkpoints
come from one scan of the finished trace, cached in a ``.ckpt``
sidecar (:mod:`repro.trace.shards`). ``record_program`` can prebuild
that sidecar right after recording (``checkpoint_interval=N``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.memory import Memory
from repro.runtime.tracing import Sink, Tracer, _nothing
from repro.trace.codec import DEFAULT_BLOCK_BYTES, BlockEncoder
from repro.trace.columnar import EventBatch
from repro.trace.events import (EV_FREE, MAGIC, TRAILER, TraceError,
                                TraceFooter, TraceHeader, pack_length,
                                pack_version, source_digest)


#: Records a recorder hands on per block (about a decoded trace
#: block's worth); read when a run starts.
LIVE_BLOCK_EVENTS = 8192

#: Instructions the interpreter runs between flushes, each staging
#: the records in the list into the recorders' int64 block. An
#: instruction emits at most four records, so the list of Python ints
#: stays small.
FLUSH_INSTRUCTIONS = 2048


class EventRecorder(Tracer):
    """A tracer that takes a run's records whole — the trace writer and
    the live tap (:class:`repro.trace.live.LiveTap`). Its sink
    (:class:`RecordBlocks`) cuts them into int64
    :class:`~repro.trace.columnar.EventBatch` blocks of exactly
    :data:`LIVE_BLOCK_EVENTS` records (the last, ending with FINISH,
    may be shorter), each handed to :meth:`take`; subclasses say where
    a block goes (:meth:`_deliver`). ``events`` and ``final_time``
    count the records taken and the clock of the last."""

    def __init__(self) -> None:
        self.events = 0
        self.final_time = 0

    def sink(self, program: ProgramIR, memory: Memory) -> "RecordBlocks":
        self.on_start(program, memory)
        return RecordBlocks([self])

    def take(self, batch: EventBatch) -> None:
        self.events += len(batch)
        self.final_time = int(batch.t[-1])
        self._deliver(batch)

    def _deliver(self, batch: EventBatch) -> None:
        raise NotImplementedError


class RecordBlocks(Sink):
    """The recorders' sink: ``emit`` is ``pending.extend``, so each
    record lands in the list as four ints. A flush (every
    :data:`FLUSH_INSTRUCTIONS` instructions) stages the list into one
    int64 block, giving each FREE the clock of the record before it;
    once the block holds :data:`LIVE_BLOCK_EVENTS` records it goes to
    every recorder in ``recorders`` (one list serves the writer and the
    live tap of a run). ``finish`` hands on the rest. An operand
    outside ``[0, 2^32)`` raises :class:`TraceError` naming its record's
    index in the stream, before any block holding it is handed on."""

    def __init__(self, recorders: list[EventRecorder]):
        self.pending: list[int] = []
        super().__init__(self.pending.extend, FLUSH_INSTRUCTIONS,
                         self._stage, self._finish)
        self.recorders = recorders
        self._size = LIVE_BLOCK_EVENTS
        self._columns: list = []
        self._rows = 0      # records staged in the block
        self._staged = 0    # records staged so far, all blocks
        self._time = 0      # clock of the last staged record

    def _stage(self) -> None:
        pending = self.pending
        if not pending:
            return
        try:
            rows = np.fromiter(pending, np.int64,
                               len(pending)).reshape(-1, 4)
        except OverflowError:  # an operand beyond int64
            _check_operands(zip(pending[1::4], pending[2::4]), self._staged)
            raise
        pending.clear()
        etypes, a, b, t = rows.T
        wide = (a | b) >> 32  # anything outside [0, 2^32)
        if wide.any():
            i = int(np.flatnonzero(wide)[0])
            _check_operands([(int(a[i]), int(b[i]))], self._staged + i)
        free = etypes == EV_FREE
        if free.any():
            # FREE rides the clock of the last other record before it.
            source = np.where(free, -1, np.arange(len(rows)))
            np.maximum.accumulate(source, out=source)
            t[free] = np.where(source[free] < 0, self._time,
                               t[source[free]])
        self._time = int(t[-1])
        self._staged += len(rows)
        while len(rows):
            at = self._rows
            if not at:
                self._columns = [np.empty(self._size, np.int64)
                                 for _ in range(4)]
            take = min(self._size - at, len(rows))
            for column, values in zip(self._columns, rows[:take].T):
                column[at:at + take] = values
            rows = rows[take:]
            self._rows = at + take
            if self._rows == self._size:
                self._hand_on()

    def _finish(self) -> None:
        self._stage()
        if self._rows:
            self._hand_on()
        # The bound methods refer back to this sink: dropping them lets
        # the run's recorders (and the analyses behind a live tap) go
        # as soon as the run does, not at the next full collection.
        self.flush = self.finish = _nothing

    def _hand_on(self) -> None:
        batch = EventBatch(*(column[:self._rows]
                             for column in self._columns))
        self._columns = []
        self._rows = 0
        for recorder in self.recorders:
            recorder.take(batch)


def _check_operands(pairs, first: int) -> None:
    """Raise the :class:`TraceError` of the first operand outside
    ``[0, 2^32)`` in ``pairs``, the ``(a, b)`` of consecutive records
    from index ``first`` on."""
    for k, pair in enumerate(pairs):
        for value in pair:
            if not 0 <= value < 1 << 32:
                raise TraceError(f"event {first + k}: operand {value} "
                                 "does not fit the 32-bit trace record "
                                 "format")


class TraceWriter(EventRecorder):
    """Records one execution into a trace file; single use.

    Parameters
    ----------
    path:
        Destination file (created/truncated).
    source:
        The program source being run; embedded (compressed) in the
        header together with its digest so the trace is self-contained.
    filename:
        Reported in the header for provenance only.
    block_bytes:
        Uncompressed bytes buffered per compressed block.
    """

    def __init__(self, path: str | os.PathLike, source: str,
                 filename: str = "<input>", *,
                 block_bytes: int = DEFAULT_BLOCK_BYTES):
        self.path = os.fspath(path)
        self.source = source
        self.filename = filename
        self.closed = False
        super().__init__()
        self._block_encoder = BlockEncoder(block_bytes)
        self._handle = open(self.path, "wb")

    # -- lifecycle ---------------------------------------------------------

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        header = TraceHeader(
            digest=source_digest(self.source),
            filename=self.filename,
            source=self.source,
            globals_size=program.globals_size,
            stack_limit=memory.stack_limit,
            heap_base=memory.heap_base,
            functions=list(program.functions),
        )
        blob = header.to_bytes()
        self._handle.write(MAGIC)
        self._handle.write(pack_version())
        self._handle.write(pack_length(len(blob)))
        self._handle.write(blob)

    def close(self, exit_value: int = 0,
              output: list[tuple[int, ...]] | None = None) -> None:
        """Write the footer and close the file (idempotent)."""
        if self.closed:
            return
        self.closed = True
        handle = self._handle
        handle.write(self._block_encoder.finish())
        footer = TraceFooter(
            exit_value=exit_value,
            output=[list(values) for values in (output or [])],
            events=self.events,
            final_time=self.final_time,
        )
        blob = footer.to_bytes()
        handle.write(blob)
        handle.write(pack_length(len(blob)))
        handle.write(TRAILER)
        handle.close()

    def abort(self) -> None:
        """Close the handle without a footer (the file stays truncated)."""
        if not self.closed:
            self.closed = True
            self._handle.close()

    def _deliver(self, batch: EventBatch) -> None:
        self._handle.write(self._block_encoder.encode(batch))


@dataclass
class RecordResult:
    """Outcome of one recording run."""

    path: str
    exit_value: int
    events: int
    final_time: int
    trace_bytes: int
    wall_seconds: float
    #: Shard seams prebuilt into the ``.ckpt`` sidecar
    #: (``checkpoint_interval > 0``); 0 = built on first parallel plan.
    checkpoints: int = 0


def note_recording(writer: TraceWriter, telemetry,
                   wall_seconds: float) -> int:
    """Count and log one closed recording (``record_program`` and a
    cold ``Session.analyze`` run alike); returns the trace's size in
    bytes."""
    from repro.telemetry import get_logger

    trace_bytes = os.path.getsize(writer.path)
    telemetry.count("trace.events_written", writer.events)
    telemetry.count("trace.bytes_written", trace_bytes)
    get_logger(__name__).info(
        "recorded trace", extra={
            "trace": writer.path, "events": writer.events,
            "bytes": trace_bytes,
            "wall_seconds": round(wall_seconds, 6)})
    return trace_bytes


def record_program(program: ProgramIR, path: str | os.PathLike, *,
                   source: str, filename: str = "<input>",
                   max_steps: int = DEFAULT_MAX_STEPS,
                   checkpoint_interval: int = 0,
                   telemetry=None) -> RecordResult:
    """Run ``program`` under a :class:`TraceWriter`; returns the summary.

    ``source`` must be the text ``program`` was compiled from — it is
    embedded in the trace and recompiled at replay time.
    ``checkpoint_interval > 0`` scans the finished trace into its
    ``.ckpt`` shard-seam sidecar, one seam every that many events (0:
    parallel replay builds it on first use). ``telemetry`` wraps the
    run in a ``record`` span with writer and block translation counters
    (tallies the stage keeps anyway — nothing is added per event).
    """
    from repro.telemetry import as_telemetry

    if checkpoint_interval < 0:
        raise ValueError(f"checkpoint_interval must be >= 0, "
                         f"got {checkpoint_interval}")
    tm = as_telemetry(telemetry)
    writer = TraceWriter(path, source, filename)
    with tm.span("record", file=filename) as span:
        try:
            interp = Interpreter(program, writer, max_steps)
            exit_value = interp.run()
        except BaseException:
            writer.abort()
            raise
        writer.close(exit_value, interp.output)
    checkpoints = 0
    if checkpoint_interval:
        from repro.trace.shards import load_or_build_checkpoints

        with tm.span("record.seams", interval=checkpoint_interval):
            checkpoints = len(load_or_build_checkpoints(
                writer.path, checkpoint_interval))
    span.set(events=writer.events, checkpoints=checkpoints,
             **interp.block_stats())
    trace_bytes = note_recording(writer, tm, span.wall_seconds)
    return RecordResult(
        path=writer.path,
        exit_value=exit_value,
        events=writer.events,
        final_time=writer.final_time,
        trace_bytes=trace_bytes,
        wall_seconds=span.wall_seconds,
        checkpoints=checkpoints,
    )


def record_source(source: str, path: str | os.PathLike, *,
                  filename: str = "<input>",
                  max_steps: int = DEFAULT_MAX_STEPS,
                  checkpoint_interval: int = 0,
                  telemetry=None) -> RecordResult:
    """Compile and record MiniC ``source`` into a trace at ``path``."""
    from repro.telemetry import as_telemetry

    tm = as_telemetry(telemetry)
    with tm.span("compile", file=filename):
        program = compile_source(source, filename)
    return record_program(program, path, source=source, filename=filename,
                          max_steps=max_steps,
                          checkpoint_interval=checkpoint_interval,
                          telemetry=tm)
