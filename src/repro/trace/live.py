"""Live runs through the replay dispatch loop.

:class:`TeeTracer` splits one run's consumers the way replay does
(:func:`~repro.runtime.tracing._takes_blocks`): hooked tracers ride the
interpreter and see its own ``Memory``; block consumers get a
``Memory`` of their own and the run's events from a :class:`LiveTap`,
which records them into the four int64 columns a trace decodes into
and feeds them, a block at a time, to the dispatch loop replay uses
(:func:`~repro.trace.replay.batch_dispatcher`). So a bundled analysis
has one event path, live or replayed.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory
from repro.runtime.tracing import (TRACER_HOOKS, Tracer, _takes_blocks,
                                   overridden_hooks)
from repro.trace.columnar import EventBatch
from repro.trace.replay import batch_dispatcher
from repro.trace.writer import EventRecorder

#: Events a live run buffers before the dispatch loop takes them as
#: one block (about a decoded trace block's worth).
LIVE_BLOCK_EVENTS = 8192


class LiveTap(EventRecorder):
    """Hands ``feed`` (a :func:`~repro.trace.replay.batch_dispatcher`)
    the run's records every :data:`LIVE_BLOCK_EVENTS` events, and at
    FINISH with FINISH last; ``events`` and ``blocks`` count them."""

    def __init__(self, feed):
        self.feed = feed
        self.events = self.blocks = 0
        self._start_block()

    def _start_block(self) -> None:
        self._etypes, self._a, self._b, self._t = (array("q")
                                                   for _ in range(4))

    def _emit(self, etype: int, a: int, b: int, timestamp: int) -> None:
        self._last_time = timestamp
        self._etypes.append(etype)
        self._a.append(a)
        self._b.append(b)
        t = self._t
        t.append(timestamp)
        if len(t) >= LIVE_BLOCK_EVENTS:
            self._flush()

    def on_finish(self, timestamp: int) -> None:
        super().on_finish(timestamp)
        self._flush()

    def _flush(self) -> None:
        batch = EventBatch(*(np.frombuffer(column, np.int64) for column in
                             (self._etypes, self._a, self._b, self._t)))
        self._start_block()
        self.events += len(batch)
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
