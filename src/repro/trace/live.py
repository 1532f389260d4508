"""Live runs through the replay dispatch loop.

:class:`TeeTracer` splits one run's consumers the way replay does
(:func:`~repro.runtime.tracing._takes_blocks`): hooked tracers ride the
interpreter and see its own ``Memory``; block consumers get a
``Memory`` of their own and the run's events from a :class:`LiveTap`,
which records them as the trace writer does and feeds each flushed
int64 block to the dispatch loop replay uses
(:func:`~repro.trace.replay.batch_dispatcher`). So a bundled analysis
has one event path, live or replayed.
"""

from __future__ import annotations

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory
from repro.runtime.tracing import (TRACER_HOOKS, Tracer, _takes_blocks,
                                   overridden_hooks)
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
