"""Live runs through the replay dispatch loop.

:class:`TeeTracer` splits one run's consumers the way replay does
(:func:`~repro.runtime.tracing._takes_blocks`) and picks the run's
record emitter. Block consumers get a ``Memory`` of their own and the
run's records from a :class:`LiveTap`, which takes them as the trace
writer does (both are :class:`~repro.trace.writer.EventRecorder`
objects sharing one record list) and feeds each int64 block of
:data:`~repro.trace.writer.LIVE_BLOCK_EVENTS` records to the dispatch
loop replay uses (:func:`~repro.trace.replay.batch_dispatcher`). So a
bundled analysis has one event path, live or replayed. Hooked tracers
ride the record→hook adapter
(:func:`~repro.runtime.tracing.hook_sink`) and see the interpreter's
own ``Memory`` at each hook.

:func:`run_live` is the one live run behind ``Session`` (its live
analyses, and recording in the same run), ``Alchemist().profile`` and
the index tree.
"""

from __future__ import annotations

from repro.analyses.base import AnalysisContext
from repro.ir.cfg import ProgramIR
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.memory import Memory
from repro.runtime.tracing import (Sink, Tracer, _takes_blocks, hook_sink,
                                   join_sinks)
from repro.telemetry import as_telemetry
from repro.trace.columnar import EventBatch
from repro.trace.replay import batch_dispatcher
from repro.trace.writer import EventRecorder, RecordBlocks


class LiveTap(EventRecorder):
    """Hands ``feed`` (a :func:`~repro.trace.replay.batch_dispatcher`)
    each block of the run's records; ``events`` and ``blocks`` count
    them."""

    def __init__(self, feed):
        super().__init__()
        self.feed = feed
        self.blocks = 0

    def _deliver(self, batch: EventBatch) -> None:
        self.blocks += 1
        self.feed(batch)


class TeeTracer(Tracer):
    """Picks the emitter for one interpreter run of any number of
    child tracers: recorders (trace writers, and a :class:`LiveTap`
    — ``tap``, ``None`` without one — for the block consumers, which
    get a fresh ``Memory``) share one record list; hooked children
    share one record→hook adapter on the interpreter's memory. With
    only recorders, ``emit`` is the list's ``extend``."""

    def __init__(self, children: list[Tracer]):
        self.children = list(children)
        self.tap: LiveTap | None = None

    def sink(self, program: ProgramIR, memory: Memory) -> Sink:
        recorders, hooked = [], []
        blocks = [c for c in self.children if _takes_blocks(c)]
        replayed = Memory(program, memory.stack_limit)
        for child in self.children:
            if _takes_blocks(child):
                child.on_start(program, replayed)
            elif isinstance(child, EventRecorder):
                child.on_start(program, memory)
                recorders.append(child)
            else:
                child.on_start(program, memory)
                hooked.append(child)
        if blocks:
            self.tap = LiveTap(batch_dispatcher(blocks, replayed))
            recorders.append(self.tap)
        sinks = [RecordBlocks(recorders)] if recorders else []
        if hooked:
            sinks.append(hook_sink(hooked, program))
        return join_sinks(sinks)


def run_live(program: ProgramIR, consumers: list, *,
             max_steps: int = DEFAULT_MAX_STEPS, telemetry=None,
             filename: str = "<input>",
             recorder=None) -> AnalysisContext:
    """One interpreter run feeding every consumer through a
    :class:`TeeTracer` (and, when ``recorder`` is given, the trace
    writer too: aborted if the run raises, else closed with the run's
    exit value and output). The ``live`` span and the context count
    the events and blocks the run handed block consumers; the span
    also carries the interpreter's block translation counters."""
    telemetry = as_telemetry(telemetry)
    tee = TeeTracer(([recorder] if recorder is not None else [])
                    + consumers)
    interp = Interpreter(program, tee, max_steps)
    with telemetry.span(
            "live", file=filename,
            analyses=[c.name for c in consumers],
            recording=recorder is not None) as span:
        try:
            exit_value = interp.run()
        except BaseException:
            if recorder is not None:
                recorder.abort()
            raise
        span.set(**interp.block_stats())
        tap = tee.tap
        if tap is not None:
            span.set(events=tap.events, blocks=tap.blocks)
    if recorder is not None:
        recorder.close(exit_value, interp.output)
    return AnalysisContext(
        program=program,
        memory=interp.memory,
        final_time=interp.time,
        exit_value=exit_value,
        output=[tuple(v) for v in interp.output],
        events=tap.events if tap is not None else None,
        wall_seconds=span.wall_seconds,
        mode="live",
        telemetry=telemetry,
    )
