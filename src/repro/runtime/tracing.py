"""Tracer interface: the instrumentation surface of the interpreter.

The interpreter reports every event as one record ``(etype, a, b, t)``
— the trace format's event types and operands, below — through the
``emit`` of the :class:`Sink` its tracer returns from
:meth:`Tracer.sink`. A recorder (the trace writer, the live tap)
returns a sink whose ``emit`` is a list's ``extend``, so a recorded run
makes no Python call per event; the recorder cuts the list into
blocks at flushes, which the interpreter paces by its instruction
clock (:mod:`repro.trace.writer`). Hooked tracers — hook-only
plugins, the tests' per-event reference profilers — keep their
``on_*`` hooks: :meth:`Tracer.sink` serves them through the
one record→hook adapter, :func:`hook_sink`, which calls each hook as
its record is emitted, so a hook still reads the interpreter's own
memory as of its event; replay serves hooked consumers through the
same adapter, from decoded records. Timestamps are the number of IR
instructions executed so far — the reproduction's stand-in for the
paper's dynamic instruction counts.

Hook order guarantees relied on by the profiler (records come in the
same order):

* ``on_enter_function`` fires before any instruction of the callee runs;
* ``on_block_enter`` fires before the first instruction of a block when
  control arrives via a branch or jump (not at function entry);
* ``on_branch`` fires after the branch's condition has been read, with
  the chosen target;
* ``on_write`` for a return value fires before ``on_exit_function``;
  the matching ``on_read`` (attributed to the call site) fires after it;
* ``on_frame_free`` fires when a frame's addresses become dead; the
  profiler must forget shadow state for that range.
"""

from __future__ import annotations

import sys

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory

# -- record types: the trace format's event bytes ---------------------------

EV_ENTER = 1    #: a = function index, b = entry pc
EV_EXIT = 2     #: a = function index
EV_BLOCK = 3    #: a = block id
EV_BRANCH = 4   #: a = branch pc, b = chosen target block
EV_READ = 5     #: a = address, b = pc
EV_WRITE = 6    #: a = address, b = pc
EV_ALLOC = 7    #: a = block base, b = size
#: a = range lo, b = range length (hi - lo). The interpreter stamps
#: the clock of the free; a recorder stores the clock of the record
#: before it instead (the format's FREE has no clock of its own).
EV_FREE = 8
EV_FINISH = 9   #: end of the run; always the last record


class Sink:
    """Where one run's records go.

    The interpreter calls ``emit(record)`` once per ``(etype, a, b,
    t)`` record, ``flush()`` between instructions once every
    ``flush_every`` instructions, and ``finish()`` after FINISH, the
    last record.
    """

    __slots__ = ("emit", "flush_every", "flush", "finish")

    def __init__(self, emit, flush_every: int = sys.maxsize,
                 flush=None, finish=None):
        self.emit = emit
        self.flush_every = flush_every
        self.flush = flush or _nothing
        self.finish = finish or _nothing


def _nothing() -> None:
    pass


#: An ``emit`` that keeps nothing: a builtin takes the record without
#: the cost of a Python call.
_discard = len


class Tracer:
    """No-op base tracer; subclasses override what they need."""

    def sink(self, program: ProgramIR, memory: Memory) -> Sink:
        """Start a run and say where its records go: by default
        :meth:`on_start`, then this tracer's hooks through
        :func:`hook_sink`."""
        self.on_start(program, memory)
        return hook_sink([self], program)

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        """Execution is about to begin (globals already initialized)."""

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        """A call pushed a new activation."""

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        """The current activation is returning."""

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        """Control transferred to the start of a block."""

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        """A Branch at ``pc`` chose ``target_block``."""

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        """A traced memory read."""

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        """A traced memory write."""

    def on_heap_alloc(self, base: int, size: int, timestamp: int) -> None:
        """``malloc`` returned the block ``[base, base + size)``.

        The dependence profiler does not need this hook (a fresh block
        has no history), but trace recording does: replaying the
        allocation stream lets a consumer reconstruct the heap layout —
        and therefore symbolic names — without re-running the program.
        """

    def on_frame_free(self, lo: int, hi: int) -> None:
        """Addresses ``[lo, hi)`` were deallocated."""

    def on_finish(self, timestamp: int) -> None:
        """Execution completed normally."""


class NullTracer(Tracer):
    """The baseline (the paper's 'Orig.' runs): the interpreter builds
    every record and an ``emit`` that keeps nothing drops it."""

    def sink(self, program: ProgramIR, memory: Memory) -> Sink:
        return Sink(_discard)


#: Every event hook, derived from Tracer: the record→hook adapter, live
#: and replayed, must serve all of them; tests check it.
TRACER_HOOKS = tuple(name for name in vars(Tracer)
                     if name.startswith("on_") and name != "on_start")


def _takes_blocks(consumer) -> bool:
    """Does ``consumer`` take whole blocks, that is, define
    ``consume_batch``? Every other consumer, non-Analysis tracers
    included, gets per-event hooks. The one consumer split of every
    dispatcher: the replay loop and the live tee; the interpreter,
    which hands over records, not blocks, refuses a block consumer."""
    return hasattr(consumer, "consume_batch")


def overridden_hooks(tracers: list, hook_name: str) -> list:
    """Bound ``hook_name`` methods that actually override the base
    no-op, so a tracer only pays for the events it handles."""
    base = getattr(Tracer, hook_name)
    hooks = []
    for tracer in tracers:
        hook = getattr(tracer, hook_name)
        if getattr(hook, "__func__", None) is not base:
            hooks.append(hook)
    return hooks


def _fan(hooks: list):
    """One callable that calls each of ``hooks`` in order (the hook
    itself when there is one)."""
    if len(hooks) == 1:
        return hooks[0]

    def dispatch(*args):
        for hook in hooks:
            hook(*args)
    return dispatch


def hook_sink(tracers: list, program: ProgramIR) -> Sink:
    """The record→hook adapter: a sink whose ``emit`` calls, for each
    record, the matching hook of every tracer in ``tracers`` that
    overrides it, in order. ENTER/EXIT name their function by its
    index into ``program``'s function table, live and replayed; FREE's
    clock is not passed (its hook has none); any other event byte calls
    nothing. Hooks are bound now, so start the tracers first: they may
    rebind their hooks in ``on_start``."""
    names = list(program.functions)
    handlers = [_skip] * 256

    def hooks(name: str):
        found = overridden_hooks(tracers, name)
        return _fan(found) if found else None

    for etype, name in ((EV_BRANCH, "on_branch"), (EV_READ, "on_read"),
                        (EV_WRITE, "on_write"),
                        (EV_ALLOC, "on_heap_alloc")):
        hook = hooks(name)
        if hook is not None:
            handlers[etype] = hook  # takes (a, b, t) as they come
    if (enter := hooks("on_enter_function")) is not None:
        handlers[EV_ENTER] = lambda a, b, t: enter(names[a], b, t)
    if (exit_ := hooks("on_exit_function")) is not None:
        handlers[EV_EXIT] = lambda a, b, t: exit_(names[a], t)
    if (block := hooks("on_block_enter")) is not None:
        handlers[EV_BLOCK] = lambda a, b, t: block(a, t)
    if (free := hooks("on_frame_free")) is not None:
        handlers[EV_FREE] = lambda a, b, t: free(a, a + b)
    if (finish := hooks("on_finish")) is not None:
        handlers[EV_FINISH] = lambda a, b, t: finish(t)

    def emit(record) -> None:
        etype, a, b, t = record
        handlers[etype](a, b, t)
    return Sink(emit)


def _skip(a, b, t) -> None:
    pass


def join_sinks(sinks: list[Sink]) -> Sink:
    """One sink feeding each of ``sinks`` every record, in order; a
    flush, as often as the most frequent one asks, and finish reach
    them all."""
    if not sinks:
        return Sink(_discard)
    if len(sinks) == 1:
        return sinks[0]
    emits = [sink.emit for sink in sinks]

    def emit(record) -> None:
        for each in emits:
            each(record)

    def flush() -> None:
        for sink in sinks:
            sink.flush()

    def finish() -> None:
        for sink in sinks:
            sink.finish()
    return Sink(emit, min(sink.flush_every for sink in sinks), flush,
                finish)


class CountingTracer(Tracer):
    """Cheap event statistics; used by tests."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.calls = 0
        self.branches = 0
        self.blocks = 0

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self.calls += 1

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        self.blocks += 1

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        self.branches += 1

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        self.reads += 1

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        self.writes += 1
