"""Replay: drive registered analyses over a recorded trace.

The engine re-derives everything an analysis needs *without* running
the interpreter again:

* the program is recompiled from the source embedded in the trace
  header (digest-checked), giving back the construct table, function
  layouts and global names;
* a :class:`~repro.runtime.memory.Memory` is reconstructed by applying
  the recorded ENTER/EXIT/ALLOC/FREE events, so symbolic address names
  (``fn.local``, ``heap#3[7]``, ``retval(f)``) resolve at replay time
  exactly as they did live — frame pushes, pops and heap recycling are
  deterministic given the same event sequence;
* events are then dispatched to every requested analysis in recorded
  order, so one pass over the trace feeds N analyses.

:func:`batch_dispatcher` is the one event-dispatch loop: serial replay
and every parallel segment (:mod:`repro.trace.parallel`) feed it
decoded blocks through :func:`dispatch_batches`, and a live run
(:mod:`repro.trace.live`) feeds it the blocks its tap records.
Analyses are :class:`repro.analyses.Analysis` plugins resolved through
the shared registry — the same objects a live run and the batch driver
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.analyses import (Analysis, AnalysisContext, AnalysisResult,
                            make_analyses)
from repro.ir import instructions as ins
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.memory import Memory
from repro.runtime.tracing import _takes_blocks, hook_sink, overridden_hooks
from repro.trace.events import (EV_ALLOC, EV_BRANCH, EV_ENTER, EV_EXIT,
                                EV_FREE, TraceError, source_digest)
from repro.trace.reader import TraceReader


def check_functions(program: ProgramIR, header) -> None:
    """ENTER and EXIT index the program's own function table: a trace
    header that lists other functions, or the same ones in another
    order, is a source/trace mismatch."""
    if header.functions != list(program.functions):
        raise TraceError(
            f"trace names functions {header.functions}, the program "
            f"{list(program.functions)} (source/trace mismatch)")


def batch_dispatcher(consumers: list, memory: Memory,
                     segment: bool = False):
    """The event-dispatch loop, one batch at a time: returns
    ``feed(batch)``, which drives one decoded
    :class:`~repro.trace.columnar.EventBatch` through the consumers,
    replaying memory reconstruction at the structural seams, and
    returns the FINISH clock if the batch held FINISH (else ``None``).
    Serial replay, every parallel segment and the shard seam scan
    (:func:`repro.trace.shards.build_checkpoints`) feed it through
    :func:`dispatch_batches`; a live run feeds it the blocks its
    :class:`~repro.trace.live.LiveTap` records.

    ENTER indices resolve through the function table of
    ``memory.program`` (:func:`check_functions` holds a trace to it).
    Consumers split two ways by
    :func:`~repro.runtime.tracing._takes_blocks`:

    * block consumers — ``consume_batch`` sees each whole block once,
      after the loop has replayed the block's structural events, and
      no per-event hooks fire for it (valid only for consumers that
      never consult :class:`Memory`). Every bundled analysis, the seam
      scan and task-graph extraction take whole blocks, whichever
      decoder produced them, in every segment and live;
    * hooked consumers — every record goes through the record→hook
      adapter (:func:`~repro.runtime.tracing.hook_sink`) a live run
      uses, over the program's function names, with memory synchronized
      exactly as a live run has it: an ENTER's hooks run after its
      frame is pushed, an EXIT's before its frame is popped, FREE and
      ALLOC hooks after the heap operation (custom plugins keep
      working unmodified). Only a hooked consumer of reads, writes,
      block entries or branches makes the loop walk the rows between
      the structural ones.

    ``segment`` flavors the corrupt-trace messages. A structural event
    memory cannot replay (an ENTER of an unknown function, at a pc
    other than its entry or past the stack region, an EXIT with no
    live frame, a FREE of a heap address that is not a live block, an
    ALLOC of no words or at a base the allocator does not return), a
    BRANCH at a pc that is no branch of the program and a READ or
    WRITE with no live frame raise :class:`TraceError` before any hook
    or block consumer sees them. Frames are empty only before main's
    ENTER and after its EXIT, so only the runs of events there are
    searched for accesses.
    """
    program = memory.program
    functions = list(program.functions.values())
    block_feeds = [c.consume_batch for c in consumers if _takes_blocks(c)]
    hooked = [c for c in consumers if not _takes_blocks(c)]
    emit = hook_sink(hooked, program).emit if hooked else None
    feed_runs = any(overridden_hooks(hooked, name) for name in (
        "on_read", "on_write", "on_block_enter", "on_branch"))

    push_frame = memory.push_frame
    pop_frame = memory.pop_frame
    frames = memory.frames
    heap_alloc = memory.heap_alloc
    heap_free = memory.heap_free
    heap_base = memory.heap_base
    n_functions = len(functions)
    # The pcs a BRANCH may name are the branch terminators' (each heads
    # a construct), indexed by pc; the last slot stays False for every
    # pc past them.
    branches = [block.terminator.pc for fn in functions
                for block in fn.blocks
                if isinstance(block.terminator, ins.Branch)]
    is_branch = np.zeros(max(branches, default=-1) + 2, dtype=bool)
    is_branch[branches] = True
    where = " in segment" if segment else ""

    def run(quiet) -> None:
        """One memory-quiet run of events between structural seams."""
        if not frames and len(quiet.access_addrs()):
            raise TraceError(
                f"corrupt trace{where}: access with no live frame")
        if feed_runs:
            # An EV_CHECKPOINT row (a shard seam marker) calls nothing.
            for record in quiet.rows():
                emit(record)

    def feed(batch) -> int | None:
        finished = None
        unknown = batch.first_unknown_etype()
        if unknown is not None:
            raise TraceError(f"unknown event type {unknown}")
        pcs = batch.a[batch.etypes == EV_BRANCH]
        known = is_branch[np.minimum(pcs, len(is_branch) - 1)]
        if not known.all():
            raise TraceError(
                f"corrupt trace{where}: BRANCH at pc {pcs[~known][0]}, "
                "which is no branch of the program")
        seams = batch.structural_indices()
        pos = 0
        s_et, s_a, s_b, s_t = batch.gather(seams)
        for idx, etype, a, b, t in zip(seams.tolist(), s_et, s_a, s_b,
                                       s_t):
            if idx > pos and (feed_runs or not frames):
                run(batch.slice(pos, idx))
            pos = idx + 1
            if etype == EV_ENTER:
                if not 0 <= a < n_functions:
                    raise TraceError(
                        f"corrupt trace{where}: ENTER of function index "
                        f"{a}; the trace names {n_functions} functions")
                fn = functions[a]
                if b != fn.entry_pc:
                    raise TraceError(
                        f"corrupt trace{where}: ENTER of {fn.name} at pc "
                        f"{b}; its entry pc is {fn.entry_pc}")
                try:
                    push_frame(fn)
                except ValueError as exc:
                    raise TraceError(f"corrupt trace{where}: {exc}") from None
            elif etype == EV_EXIT:
                if not frames:
                    raise TraceError(
                        f"corrupt trace{where}: EXIT with no live frame")
                if emit is not None:
                    emit((etype, a, b, t))
                pop_frame()
                continue
            elif etype == EV_FREE:
                # Heap blocks always have size > 0; an empty range is
                # a degenerate stack-frame free (and could sit exactly
                # at heap_base when the stack region is full).
                if b and a >= heap_base:
                    try:
                        heap_free(a)
                    except ValueError as exc:
                        raise TraceError(
                            f"corrupt trace{where}: {exc}") from None
            elif etype == EV_ALLOC:
                try:
                    base = heap_alloc(b)
                except ValueError as exc:
                    raise TraceError(f"corrupt trace{where}: {exc}") from None
                if base != a:
                    raise TraceError(
                        f"heap replay diverged{where}: alloc returned "
                        f"{base}, trace recorded {a}")
            else:  # EV_FINISH (the decoder never puts it mid-block)
                finished = t
            if emit is not None:
                emit((etype, a, b, t))
        if pos < len(batch) and (feed_runs or not frames):
            run(batch.slice(pos, len(batch)))
        for consume in block_feeds:
            consume(batch)
        return finished

    return feed


def dispatch_batches(batches, consumers: list, memory: Memory,
                     budget: int | None = None,
                     segment: bool = False) -> tuple[int, int]:
    """Drive decoded batches through :func:`batch_dispatcher` over
    ``consumers``. ``budget`` caps the number of events consumed (the
    parallel segment driver's slice discipline); ``segment`` flavors
    the corrupt-trace messages. Returns ``(final_time,
    events_consumed)``.
    """
    feed = batch_dispatcher(consumers, memory, segment)
    final_time = 0
    consumed = 0
    for batch in batches:
        if budget is not None and len(batch) > budget - consumed:
            batch = batch.slice(0, budget - consumed)
        finished = feed(batch)
        if finished is not None:
            final_time = finished
        consumed += len(batch)
        if budget is not None and consumed >= budget:
            break
    return final_time, consumed


class ReplayEngine:
    """Streams a trace once through any number of analyses.

    The engine mirrors the interpreter's event discipline exactly:
    frames are pushed before ``on_enter_function`` fires and popped
    after ``on_exit_function`` (matching ``Interpreter.run``), and heap
    blocks are allocated/freed at their events, so every analysis
    observes memory state identical to a live run.
    """

    def __init__(self, reader: TraceReader, program: ProgramIR | None = None,
                 telemetry=None, columnar: bool = True):
        from repro.telemetry import as_telemetry

        self.telemetry = as_telemetry(telemetry)
        #: ``False`` selects the scalar reference decoder; consumers
        #: are fed the same way either way (see
        #: :func:`dispatch_batches`).
        self.columnar = columnar
        self.reader = reader
        header = reader.header
        if program is None:
            if source_digest(header.source) != header.digest:
                raise TraceError(
                    f"{reader.path}: embedded source does not match the "
                    "header digest (corrupt trace)")
            with self.telemetry.span("compile", file=header.filename):
                program = compile_source(header.source, header.filename)
        # An explicitly passed program is trusted (the caller compiled
        # it); mismatches surface via the function table or the alloc
        # divergence check below.
        self.program = program

    def run(self, consumers: list[Analysis]) -> AnalysisContext:
        """Dispatch every event; returns the context each analysis's
        ``finish`` receives."""
        reader = self.reader
        header = reader.header
        program = self.program
        check_functions(program, header)
        memory = Memory(program, header.stack_limit)

        tm = self.telemetry
        # Consumers are usually Analysis plugins, but anything with the
        # tracer hook surface replays fine (e.g. task-graph tracers) —
        # fall back to the class name for the span attribute.
        names = [getattr(c, "name", None) or type(c).__name__
                 for c in consumers]
        with tm.span("replay", trace=reader.path,
                     analyses=names) as span:
            for consumer in consumers:
                consumer.on_start(program, memory)
            # Hooks are bound inside the loop — after ``on_start``, where
            # analyses may rebind them.
            final_time, _ = dispatch_batches(
                reader.batches(columnar=self.columnar), consumers, memory)
        wall = span.wall_seconds
        footer = reader.footer
        if tm.enabled:
            events = footer.events if footer is not None else 0
            decoder = reader.decoder
            span.set(events=events, blocks=decoder.blocks)
            tm.count("trace.events_decoded", events)
            tm.count("trace.bytes_read", decoder.compressed_bytes)
            tm.count("trace.blocks_read", decoder.blocks)
            tm.count("trace.blocks_batched", decoder.blocks_vectorized)
            tm.count("trace.blocks_scalar_fallback",
                     decoder.blocks_fallback)
            from repro.telemetry import get_logger

            get_logger(__name__).info(
                "replayed trace", extra={
                    "trace": reader.path, "events": events,
                    "analyses": names,
                    "wall_seconds": round(wall, 6)})
        return AnalysisContext(
            program=program,
            memory=memory,
            final_time=final_time,
            exit_value=footer.exit_value if footer is not None else 0,
            output=([tuple(v) for v in footer.output]
                    if footer is not None else []),
            events=footer.events if footer is not None else 0,
            wall_seconds=wall,
            mode="replay",
            telemetry=tm,
        )


@dataclass
class ReplayOutcome:
    """All results of one replay pass.

    ``reports`` holds the structured :class:`AnalysisResult` per
    analysis; ``results`` maps each analysis to its raw payload
    (``ProfileReport`` for ``dep``, ``LocalityResult`` for
    ``locality``, ...).
    """

    reports: dict[str, AnalysisResult]
    context: AnalysisContext
    consumers: list[Analysis]

    @property
    def results(self) -> dict[str, Any]:
        return {name: report.payload if report.payload is not None
                else report.data
                for name, report in self.reports.items()}

    def describe(self) -> str:
        return "\n\n".join(report.text for report in self.reports.values())


def replay_trace(path: str, analyses: Iterable[str] | str = ("dep",),
                 program: ProgramIR | None = None,
                 telemetry=None,
                 columnar: bool = True) -> ReplayOutcome:
    """Replay ``path`` through the named analyses in one pass."""
    consumers = make_analyses(analyses)
    return replay_with(path, consumers, program, telemetry=telemetry,
                       columnar=columnar)


def replay_with(path: str, consumers: list[Analysis],
                program: ProgramIR | None = None,
                telemetry=None,
                columnar: bool = True) -> ReplayOutcome:
    """Replay ``path`` through already-instantiated analyses."""
    from repro.telemetry import as_telemetry

    tm = as_telemetry(telemetry)
    with TraceReader(path) as reader:
        engine = ReplayEngine(reader, program, telemetry=tm,
                              columnar=columnar)
        ctx = engine.run(consumers)
    reports = {}
    for consumer in consumers:
        with tm.span("analysis.finish", analysis=consumer.name):
            report = consumer.finish(ctx)
        reports[consumer.name] = report
    return ReplayOutcome(reports=reports, context=ctx, consumers=consumers)
