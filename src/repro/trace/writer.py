"""Trace recording: a tracer that streams events to a file.

:class:`TraceWriter` plugs into the interpreter exactly like the live
profiler does — it is a :class:`~repro.runtime.tracing.Tracer` — but
instead of analyzing events it records them into columns and writes
each flush out as encoded blocks. Recording is therefore far cheaper
than profiling (no shadow memory, no index tree), and the resulting
trace can be replayed through any number of analyses without touching
the interpreter again.

The on-disk encoding is trace format v2 (:mod:`repro.trace.codec`):
delta/varint records in zlib-compressed blocks, encoded a flush at a
time by :class:`~repro.trace.codec.BlockEncoder`. Recording can also
run under a sampling policy (:mod:`repro.sampling`): the policy gates
which READ/WRITE events reach the file while every structural event
(enter/exit, block, branch, alloc, free, finish) is always kept, so a
sampled trace still replays with exact memory reconstruction — only
the memory-access stream is thinned. The policy's spec string is embedded in the header
so consumers can label sampled results as lower-confidence.

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
from array import array
from dataclasses import dataclass

import numpy as np

from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.memory import Memory
from repro.runtime.tracing import Tracer
from repro.trace.codec import DEFAULT_BLOCK_BYTES, BlockEncoder
from repro.trace.columnar import EventBatch
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                EV_WRITE, MAGIC, TRAILER, TraceFooter,
                                TraceHeader, check_u32, pack_length,
                                pack_version, source_digest)


#: Events a recorder buffers before a flush hands them on as one
#: block (about a decoded trace block's worth).
LIVE_BLOCK_EVENTS = 8192

# Operands are stored as C unsigned ints: the append itself is the
# [0, 2^32) range check of the record format.
assert array("I").itemsize == 4


class EventRecorder(Tracer):
    """The one mapping from tracer hooks to trace records ``(etype, a,
    b, t)``, shared by the trace writer and the live tap
    (:class:`repro.trace.live.LiveTap`): ENTER and EXIT name their
    function by its index in the program's function table, and FREE
    (its hook has no clock) rides at the clock of the record before it.

    The records collect in four columns, flushed as one int64
    :class:`~repro.trace.columnar.EventBatch` every
    :data:`LIVE_BLOCK_EVENTS` events and at FINISH (FINISH last);
    subclasses say where a flush goes (:meth:`_deliver`). An operand
    outside ``[0, 2^32)`` raises :class:`TraceError` at its own hook.
    """

    _last_time = 0

    def __init__(self) -> None:
        self._flushed = 0
        self._start_block()

    @property
    def events(self) -> int:
        """Records taken so far."""
        return self._flushed + len(self._etypes)

    def _start_block(self) -> None:
        self._etypes = array("B")
        self._a = array("I")
        self._b = array("I")
        self._t = array("q")

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        self._fn_index = {name: i for i, name in
                          enumerate(program.functions)}

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self._emit(EV_ENTER, self._fn_index[fn_name], entry_pc, timestamp)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self._emit(EV_EXIT, self._fn_index[fn_name], 0, timestamp)

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        self._emit(EV_BLOCK, block_id, 0, timestamp)

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        self._emit(EV_BRANCH, pc, target_block, timestamp)

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        self._emit(EV_READ, addr, pc, timestamp)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        self._emit(EV_WRITE, addr, pc, timestamp)

    def on_heap_alloc(self, base: int, size: int, timestamp: int) -> None:
        self._emit(EV_ALLOC, base, size, timestamp)

    def on_frame_free(self, lo: int, hi: int) -> None:
        self._emit(EV_FREE, lo, hi - lo, self._last_time)

    def on_finish(self, timestamp: int) -> None:
        self._emit(EV_FINISH, 0, 0, timestamp)
        self._flush()

    def _emit(self, etype: int, a: int, b: int, timestamp: int) -> None:
        try:
            self._a.append(a)
            self._b.append(b)
        except OverflowError:
            check_u32(a, "operand")
            check_u32(b, "operand")
            raise
        self._t.append(timestamp)
        etypes = self._etypes
        etypes.append(etype)
        self._last_time = timestamp
        if len(etypes) >= LIVE_BLOCK_EVENTS:
            self._flush()

    def _flush(self) -> None:
        if not self._etypes:
            return
        columns = (np.frombuffer(self._etypes, np.uint8),
                   np.frombuffer(self._a, np.uint32),
                   np.frombuffer(self._b, np.uint32),
                   np.frombuffer(self._t, np.int64))
        self._flushed += len(self._etypes)
        self._start_block()
        self._deliver(EventBatch(*(column.astype(np.int64)
                                   for column in columns)))

    def _deliver(self, batch: EventBatch) -> None:
        raise NotImplementedError


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
    sampling:
        Spec string recorded in the header (``"full"`` unless the run
        is gated by a sampling policy — the *gating* itself is the
        policy's job, via :class:`repro.sampling.SampledTracer`).
    block_bytes:
        Uncompressed bytes buffered per compressed block.
    """

    def __init__(self, path: str | os.PathLike, source: str,
                 filename: str = "<input>", *,
                 sampling: str = "full",
                 block_bytes: int = DEFAULT_BLOCK_BYTES):
        self.path = os.fspath(path)
        self.source = source
        self.filename = filename
        self.sampling = sampling
        self.closed = False
        super().__init__()
        self._block_encoder = BlockEncoder(block_bytes)
        self._handle = open(self.path, "wb")

    # -- lifecycle ---------------------------------------------------------

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        super().on_start(program, memory)
        header = TraceHeader(
            digest=source_digest(self.source),
            filename=self.filename,
            source=self.source,
            globals_size=program.globals_size,
            stack_limit=memory.stack_limit,
            heap_base=memory.heap_base,
            functions=list(program.functions),
            sampling=self.sampling,
        )
        blob = header.to_bytes()
        self._handle.write(MAGIC)
        self._handle.write(pack_version())
        self._handle.write(pack_length(len(blob)))
        self._handle.write(blob)

    @property
    def final_time(self) -> int:
        """The clock of the last record: FINISH's, once written."""
        return self._last_time

    def close(self, exit_value: int = 0,
              output: list[tuple[int, ...]] | None = None) -> None:
        """Write the footer and close the file (idempotent)."""
        if self.closed:
            return
        try:
            self._flush()
        except BaseException:
            self.abort()
            raise
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
    #: Sampling spec the run recorded under ("full" = unsampled).
    sampling: str = "full"
    #: Shard seams prebuilt into the ``.ckpt`` sidecar
    #: (``checkpoint_interval > 0``); 0 = built on first parallel plan.
    checkpoints: int = 0


def record_program(program: ProgramIR, path: str | os.PathLike, *,
                   source: str, filename: str = "<input>",
                   max_steps: int = DEFAULT_MAX_STEPS,
                   sampling=None,
                   checkpoint_interval: int = 0,
                   telemetry=None) -> RecordResult:
    """Run ``program`` under a :class:`TraceWriter`; returns the summary.

    ``source`` must be the text ``program`` was compiled from — it is
    embedded in the trace and recompiled at replay time. ``sampling``
    accepts a spec string (``"interval:100"``) or an instantiated
    :class:`repro.sampling.SamplingPolicy`; memory events the policy
    drops never reach the file. ``checkpoint_interval > 0`` scans the
    finished trace into its ``.ckpt`` shard-seam sidecar, one seam
    every that many events (0: parallel replay builds it on
    first use). ``telemetry`` wraps the run in a ``record`` span with
    writer and sampling-gate counters (tallies the stage keeps anyway
    — nothing is added per event).
    """
    from repro.sampling import SampledTracer, as_policy
    from repro.telemetry import as_telemetry, get_logger

    if checkpoint_interval < 0:
        raise ValueError(f"checkpoint_interval must be >= 0, "
                         f"got {checkpoint_interval}")
    tm = as_telemetry(telemetry)
    policy = as_policy(sampling)
    writer = TraceWriter(path, source, filename, sampling=policy.spec)
    tracer = (writer if policy.is_full
              else SampledTracer(policy, writer, telemetry=tm))
    with tm.span("record", file=filename,
                 sampling=policy.spec) as span:
        try:
            interp = Interpreter(program, tracer, max_steps)
            exit_value = interp.run()
        except BaseException:
            writer.abort()
            raise
        writer.close(exit_value, interp.output)
    trace_bytes = os.path.getsize(writer.path)
    checkpoints = 0
    if checkpoint_interval:
        from repro.trace.shards import load_or_build_checkpoints

        with tm.span("record.seams", interval=checkpoint_interval):
            checkpoints = len(load_or_build_checkpoints(
                writer.path, checkpoint_interval))
    span.set(events=writer.events, checkpoints=checkpoints)
    tm.count("trace.events_written", writer.events)
    tm.count("trace.bytes_written", trace_bytes)
    if not policy.is_full and tm.enabled:
        tm.count("sampling.memory_events_kept", tracer.kept)
        tm.count("sampling.memory_events_dropped", tracer.dropped)
    get_logger(__name__).info(
        "recorded trace", extra={
            "trace": writer.path, "events": writer.events,
            "bytes": trace_bytes,
            "sampling": policy.spec,
            "wall_seconds": round(span.wall_seconds, 6)})
    return RecordResult(
        path=writer.path,
        exit_value=exit_value,
        events=writer.events,
        final_time=writer.final_time,
        trace_bytes=trace_bytes,
        wall_seconds=span.wall_seconds,
        sampling=policy.spec,
        checkpoints=checkpoints,
    )


def record_source(source: str, path: str | os.PathLike, *,
                  filename: str = "<input>",
                  max_steps: int = DEFAULT_MAX_STEPS,
                  sampling=None,
                  checkpoint_interval: int = 0,
                  telemetry=None) -> RecordResult:
    """Compile and record MiniC ``source`` into a trace at ``path``."""
    from repro.telemetry import as_telemetry

    tm = as_telemetry(telemetry)
    with tm.span("compile", file=filename):
        program = compile_source(source, filename)
    return record_program(program, path, source=source, filename=filename,
                          max_steps=max_steps, sampling=sampling,
                          checkpoint_interval=checkpoint_interval,
                          telemetry=tm)
