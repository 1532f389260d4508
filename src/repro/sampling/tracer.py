"""The sampling gate: a tracer wrapper that thins memory events.

:class:`SampledTracer` sits between an event source (the interpreter,
or :class:`~repro.trace.live.TeeTracer`) and a hooked child tracer —
most usefully a :class:`~repro.trace.writer.TraceWriter`, which is how
``alchemist record --sample interval:100`` produces small traces. A
block consumer (every bundled analysis) has no hooks to gate, so the
gate refuses it: sample the recording and replay it instead.

Only READ/WRITE events are gated (``MEMORY_HOOKS``); structural events
forward unconditionally so a sampled trace still reconstructs frames
and the heap exactly on replay. Like the other dispatchers in this
codebase, the wrapper rebinds its hooks in ``on_start``: structural
hooks become direct references to the child's bound methods (zero
per-event overhead), and the two memory hooks become closures that ask
the policy first. Hooks the child never overrides stay as base-class
no-ops, so both engines drop them from dispatch entirely.
"""

from __future__ import annotations

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory
from repro.runtime.tracing import (MEMORY_HOOKS, TRACER_HOOKS, Tracer,
                                   _takes_blocks, overridden_hooks)
from repro.sampling.policies import SamplingPolicy


class SampledTracer(Tracer):
    """Forward events to ``child``, dropping memory events the
    ``policy`` rejects.

    With an *enabled* ``telemetry`` handle the gate also tallies
    kept/dropped memory events (``self.kept`` / ``self.dropped``);
    without one the original zero-bookkeeping closures are installed,
    so the default path pays nothing for observability.
    """

    def __init__(self, policy: SamplingPolicy, child: Tracer,
                 telemetry=None):
        if _takes_blocks(child):
            raise TypeError(f"{type(child).__name__} takes whole event "
                            "blocks: sample the recording and replay it")
        self.policy = policy
        self.child = child
        self._counted = bool(telemetry is not None
                             and getattr(telemetry, "enabled", False))
        self.kept = 0
        self.dropped = 0

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        child = self.child
        child.on_start(program, memory)
        self.policy.reset()
        self.kept = 0
        self.dropped = 0
        # Bind after the child's on_start: children (e.g. analyses)
        # may rebind their own hooks there.
        for name in TRACER_HOOKS:
            if name in MEMORY_HOOKS:
                continue
            hooks = overridden_hooks([child], name)
            if hooks:
                setattr(self, name, hooks[0])
        keep = self.policy.keep
        counted = self._counted
        if overridden_hooks([child], "on_read"):
            child_read = child.on_read

            if counted:
                def on_read(addr: int, pc: int, timestamp: int) -> None:
                    if keep(addr, False):
                        self.kept += 1
                        child_read(addr, pc, timestamp)
                    else:
                        self.dropped += 1
            else:
                def on_read(addr: int, pc: int, timestamp: int) -> None:
                    if keep(addr, False):
                        child_read(addr, pc, timestamp)

            self.on_read = on_read
        if overridden_hooks([child], "on_write"):
            child_write = child.on_write

            if counted:
                def on_write(addr: int, pc: int, timestamp: int) -> None:
                    if keep(addr, True):
                        self.kept += 1
                        child_write(addr, pc, timestamp)
                    else:
                        self.dropped += 1
            else:
                def on_write(addr: int, pc: int, timestamp: int) -> None:
                    if keep(addr, True):
                        child_write(addr, pc, timestamp)

            self.on_write = on_write

    # -- recorder lifecycle pass-through ----------------------------------
    # A gated TraceWriter is still "the recorder" to Session._run_live;
    # forward its close/abort so callers need not unwrap. (Wrapping a
    # tracer without these methods is fine as long as nobody calls
    # them.)

    def close(self, exit_value: int = 0, output=None) -> None:
        self.child.close(exit_value, output)

    def abort(self) -> None:
        self.child.abort()
