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

:func:`dispatch_batches` is the one event-dispatch loop: serial replay
and every parallel segment (:mod:`repro.trace.parallel`) run through
it. Analyses are :class:`repro.analyses.Analysis` plugins resolved
through the shared registry — the same objects that attach to a live
interpreter run and that the batch driver spawns, which is what lets
perfbench's ``dep-bzip2`` time record + replay against a live run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.analyses import (Analysis, AnalysisContext, AnalysisResult,
                            live_hooks, make_analyses)
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.memory import Memory
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                EV_EXIT, EV_FREE, EV_READ, EV_WRITE,
                                TraceError, source_digest)
from repro.trace.reader import TraceReader


#: Hooks the engine dispatches from trace events. Must cover every
#: Tracer event hook (``repro.runtime.tracing.TRACER_HOOKS``) — a hook
#: added to Tracer without a trace event is a live/replay divergence;
#: the hook-coverage test asserts the two sets stay equal.
DISPATCHED_HOOKS = ("on_enter_function", "on_exit_function",
                    "on_block_enter", "on_branch", "on_read", "on_write",
                    "on_heap_alloc", "on_frame_free", "on_finish")


def _batch_mode(consumer) -> str | None:
    """How a consumer wants its events: ``"block"``/``"span"`` if it
    declared a usable ``consume_batch``, else ``None`` (per-event
    hooks). Non-Analysis tracers without the attributes land on the
    scalar path automatically."""
    kind = getattr(consumer, "batch_kind", None)
    if kind not in ("block", "span"):
        return None
    if getattr(consumer, "consume_batch", None) is None:
        return None
    return kind


def dispatch_batches(batches, consumers: list, memory: Memory,
                     functions: list, check_allocs: bool = True,
                     budget: int | None = None,
                     segment: bool = False,
                     columnar: bool = True) -> tuple[int, int]:
    """The event-dispatch loop: drive decoded
    :class:`~repro.trace.columnar.EventBatch` blocks through the
    consumers, replaying memory reconstruction at the structural seams.
    Serial replay and every parallel segment run through it.

    Consumers split three ways by :func:`_batch_mode`:

    * ``"block"`` — ``consume_batch`` sees each whole block once and
      no per-event hooks fire for it (valid only for analyses that
      never consult :class:`Memory`);
    * ``"span"`` — ``consume_batch`` sees the maximal memory-quiet
      sub-batches between structural events; the structural events
      themselves (ENTER/EXIT/ALLOC/FREE/FINISH) still arrive through
      the scalar hooks with memory synchronized exactly as the scalar
      engine would have it;
    * ``None`` — every event is dispatched per-hook (custom plugins
      keep working unmodified).

    ``columnar=False`` is the reference path: every consumer gets
    per-event hooks whatever its ``batch_kind``. ``budget`` caps the
    number of events consumed (the parallel segment driver's slice
    discipline); ``segment`` selects the segment-flavored
    heap-divergence message. Returns ``(final_time, events_consumed)``.
    """
    modes = [_batch_mode(c) if columnar else None for c in consumers]
    block_consumers = [c for c, m in zip(consumers, modes) if m == "block"]
    span_consumers = [c for c, m in zip(consumers, modes) if m == "span"]
    scalar_consumers = [c for c, m in zip(consumers, modes) if m is None]

    # Structural hooks fire for span + scalar consumers (block
    # consumers already saw those events inside their batch); interior
    # hooks fire for scalar consumers only.
    hooked = span_consumers + scalar_consumers
    on_enter = live_hooks(hooked, "on_enter_function")
    on_exit = live_hooks(hooked, "on_exit_function")
    on_alloc = live_hooks(hooked, "on_heap_alloc")
    on_free = live_hooks(hooked, "on_frame_free")
    on_finish = live_hooks(hooked, "on_finish")
    on_block = live_hooks(scalar_consumers, "on_block_enter")
    on_branch = live_hooks(scalar_consumers, "on_branch")
    on_read = live_hooks(scalar_consumers, "on_read")
    on_write = live_hooks(scalar_consumers, "on_write")
    block_feeds = [c.consume_batch for c in block_consumers]
    span_feeds = [c.consume_batch for c in span_consumers]
    scalar_spans = bool(on_read or on_write or on_block or on_branch)
    feed_spans = bool(span_feeds) or scalar_spans

    push_frame = memory.push_frame
    pop_frame = memory.pop_frame
    heap_alloc = memory.heap_alloc
    heap_free = memory.heap_free
    heap_base = memory.heap_base
    where = " in segment" if segment else ""

    final_time = 0
    consumed = 0

    def run_span(span) -> None:
        for feed in span_feeds:
            feed(span)
        if not scalar_spans:
            return
        for etype, a, b, t in span.rows():
            if etype == EV_READ:
                for hook in on_read:
                    hook(a, b, t)
            elif etype == EV_WRITE:
                for hook in on_write:
                    hook(a, b, t)
            elif etype == EV_BLOCK:
                for hook in on_block:
                    hook(a, t)
            elif etype == EV_BRANCH:
                for hook in on_branch:
                    hook(a, b, t)
            # EV_CHECKPOINT: shard seam marker, nothing to dispatch.

    for batch in batches:
        if budget is not None and len(batch) > budget - consumed:
            batch = batch.slice(0, budget - consumed)
        unknown = batch.first_unknown_etype()
        if unknown is not None:
            raise TraceError(f"unknown event type {unknown}")
        for feed in block_feeds:
            feed(batch)
        seams = batch.structural_indices()
        pos = 0
        s_et, s_a, s_b, s_t = batch.gather(seams)
        for idx, etype, a, b, t in zip(seams, s_et, s_a, s_b, s_t):
            if feed_spans and idx > pos:
                run_span(batch.slice(pos, idx))
            pos = idx + 1
            if etype == EV_ENTER:
                push_frame(functions[a])
                name = functions[a].name
                for hook in on_enter:
                    hook(name, b, t)
            elif etype == EV_EXIT:
                name = functions[a].name
                for hook in on_exit:
                    hook(name, t)
                pop_frame()
            elif etype == EV_FREE:
                # Heap blocks always have size > 0; an empty range is
                # a degenerate stack-frame free (and could sit exactly
                # at heap_base when the stack region is full).
                if b and a >= heap_base:
                    heap_free(a)
                hi = a + b
                for hook in on_free:
                    hook(a, hi)
            elif etype == EV_ALLOC:
                base = heap_alloc(b)
                if check_allocs and base != a:
                    raise TraceError(
                        f"heap replay diverged{where}: alloc returned "
                        f"{base}, trace recorded {a}")
                for hook in on_alloc:
                    hook(a, b, t)
            else:  # EV_FINISH (the decoder never puts it mid-block)
                final_time = t
                for hook in on_finish:
                    hook(t)
        if feed_spans and pos < len(batch):
            run_span(batch.slice(pos, len(batch)))
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
                 check_allocs: bool = True, telemetry=None,
                 columnar: bool = True):
        from repro.telemetry import as_telemetry

        self.telemetry = as_telemetry(telemetry)
        #: ``False`` selects the reference path: scalar block decode and
        #: per-event hooks for every consumer (see
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
        self.check_allocs = check_allocs

    def run(self, consumers: list[Analysis]) -> AnalysisContext:
        """Dispatch every event; returns the context each analysis's
        ``finish`` receives."""
        reader = self.reader
        header = reader.header
        program = self.program
        memory = Memory(program, header.stack_limit)
        functions = []
        for name in header.functions:
            try:
                functions.append(program.functions[name])
            except KeyError:
                raise TraceError(
                    f"trace names function {name!r} missing from the "
                    "program (source/trace mismatch)") from None

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
                reader.batches(columnar=self.columnar), consumers, memory,
                functions, check_allocs=self.check_allocs,
                columnar=self.columnar)
        wall = span.wall_seconds
        footer = reader.footer
        if tm.enabled:
            events = footer.events if footer is not None else 0
            span.set(events=events)
            tm.count("trace.events_decoded", events)
            decoder = reader.decoder
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
        sampling = getattr(header, "sampling", "full")
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
            sampling=None if sampling in (None, "", "full") else sampling,
            trace_path=reader.path,
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
