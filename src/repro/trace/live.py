"""Live runs through the replay dispatch loop.

:class:`TeeTracer` splits one run's consumers the way replay does
(:func:`~repro.runtime.tracing._takes_blocks`): hooked tracers ride the
interpreter and see its own ``Memory``; block consumers get a
``Memory`` of their own and the run's events from a :class:`LiveTap`,
which records them as the trace writer does and feeds each flushed
int64 block to the dispatch loop replay uses
(:func:`~repro.trace.replay.batch_dispatcher`). So a bundled analysis
has one event path, live or replayed.

:func:`run_live` is the one live run behind ``Session`` (its live
analyses, and recording in the same run), ``Alchemist().profile`` and
the index tree.
"""

from __future__ import annotations

from repro.analyses.base import AnalysisContext
from repro.ir.cfg import ProgramIR
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.memory import Memory
from repro.runtime.tracing import (TRACER_HOOKS, Tracer, _takes_blocks,
                                   overridden_hooks)
from repro.telemetry import as_telemetry
from repro.trace.columnar import EventBatch
from repro.trace.replay import batch_dispatcher
from repro.trace.writer import EventRecorder


class LiveTap(EventRecorder):
    """Hands ``feed`` (a :func:`~repro.trace.replay.batch_dispatcher`)
    each flushed block of the run's records; ``events`` and ``blocks``
    count them."""

    def __init__(self, feed):
        super().__init__()
        self.feed = feed
        self.blocks = 0

    def _deliver(self, batch: EventBatch) -> None:
        self.blocks += 1
        self.feed(batch)


class TeeTracer(Tracer):
    """Fans one interpreter run out to any number of child tracers:
    hooked children on the interpreter's memory, block consumers on a
    fresh one behind a :class:`LiveTap` (``tap``, ``None`` without
    any). Each hook calls only the children that override it; a single
    interested child is called directly."""

    def __init__(self, children: list[Tracer]):
        self.children = list(children)
        self.tap: LiveTap | None = None

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        hooked = [c for c in self.children if not _takes_blocks(c)]
        blocks = [c for c in self.children if _takes_blocks(c)]
        replayed = Memory(program, memory.stack_limit)
        for child in self.children:
            child.on_start(program, replayed if _takes_blocks(child)
                           else memory)
        if blocks:
            self.tap = LiveTap(batch_dispatcher(
                blocks, replayed, list(program.functions.values())))
            self.tap.on_start(program, memory)
            hooked.append(self.tap)
        for name in TRACER_HOOKS:
            hooks = overridden_hooks(hooked, name)
            if len(hooks) == 1:
                setattr(self, name, hooks[0])
            elif hooks:
                setattr(self, name, _fan(hooks))


def _fan(hooks: list):
    """One hook that calls each of ``hooks`` in order."""
    def dispatch(*args):
        for hook in hooks:
            hook(*args)
    return dispatch


def run_live(program: ProgramIR, consumers: list, *,
             max_steps: int = DEFAULT_MAX_STEPS, telemetry=None,
             filename: str = "<input>",
             recorder=None) -> AnalysisContext:
    """One interpreter run feeding every consumer through a
    :class:`TeeTracer` (and, when ``recorder`` is given, the trace
    writer too: aborted if the run raises, else closed with the run's
    exit value and output). The ``live`` span and the context count
    the events and blocks the run handed block consumers."""
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
