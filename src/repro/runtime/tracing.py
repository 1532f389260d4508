"""Tracer interface: the instrumentation surface of the interpreter.

The interpreter calls these hooks as it executes; the Alchemist profiler
(:mod:`repro.core.tracer`) implements them. Timestamps are the number of
IR instructions executed so far — the reproduction's stand-in for the
paper's dynamic instruction counts.

Hook order guarantees relied on by the profiler:

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

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory


class Tracer:
    """No-op base tracer; subclasses override what they need."""

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
    """The baseline: no instrumentation (the paper's 'Orig.' runs)."""


#: Every event hook, derived from Tracer so a hook added there is
#: automatically fanned out by TeeTracer (on_start is dispatch setup,
#: not an event). The replay engine's per-event dispatch necessarily
#: stays hand-written (it decodes trace records), but it reads this
#: tuple's source of truth via tests.
TRACER_HOOKS = tuple(name for name in vars(Tracer)
                     if name.startswith("on_") and name != "on_start")

#: The memory-access hooks — the only events a sampling policy may
#: drop. Everything else (enter/exit, block, branch, alloc, free,
#: finish) is structural: replay needs the complete stream to
#: reconstruct frames and the heap, so gates must pass it through.
MEMORY_HOOKS = ("on_read", "on_write")


def overridden_hooks(tracers: list, hook_name: str) -> list:
    """Bound ``hook_name`` methods that actually override the base
    no-op. Shared by every event dispatcher (the replay engine, the
    live tee) so a tracer only pays for the events it handles."""
    base = getattr(Tracer, hook_name)
    hooks = []
    for tracer in tracers:
        hook = getattr(tracer, hook_name)
        if getattr(hook, "__func__", None) is not base:
            hooks.append(hook)
    return hooks


class TeeTracer(Tracer):
    """Fans one interpreter run out to any number of child tracers.

    This is the live twin of the replay engine's dispatch: one
    execution feeds N analyses. ``on_start`` forwards to every child
    first (children may rebind their own hooks there), then rebinds
    this tracer's hooks to per-event dispatchers that skip children
    inheriting the base no-op — a child that never overrides
    ``on_block_enter`` costs nothing on block events, and a single
    interested child is called directly with no fan-out loop at all.
    """

    def __init__(self, children: list[Tracer]):
        self.children = list(children)

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        for child in self.children:
            child.on_start(program, memory)
        for name in TRACER_HOOKS:
            hooks = overridden_hooks(self.children, name)
            if not hooks:
                continue
            if len(hooks) == 1:
                setattr(self, name, hooks[0])
            else:
                setattr(self, name, self._fan(hooks))

    @staticmethod
    def _fan(hooks: list):
        def dispatch(*args):
            for hook in hooks:
                hook(*args)
        return dispatch


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
