"""The sampling gate: a record filter that thins memory events.

:class:`SampledTracer` sits between the interpreter (or
:class:`~repro.trace.live.TeeTracer`) and a child tracer — most
usefully a :class:`~repro.trace.writer.TraceWriter`, which is how
``alchemist record --sample interval:100`` produces small traces. A
block consumer (every bundled analysis) has no hooks to gate, so the
gate refuses it: sample the recording and replay it instead.

Only READ/WRITE records are gated; structural records pass
unconditionally so a sampled trace still reconstructs frames and the
heap exactly on replay. The gate's sink is the child's (a recorder's
record list, or the record→hook adapter for a hooked child) behind one
``emit`` that asks the policy about each memory record first.
"""

from __future__ import annotations

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory
from repro.runtime.tracing import (EV_READ, EV_WRITE, Sink, Tracer,
                                   _takes_blocks)
from repro.sampling.policies import SamplingPolicy


class SampledTracer(Tracer):
    """Forward records to ``child``, dropping memory records the
    ``policy`` rejects.

    With an *enabled* ``telemetry`` handle the gate also tallies
    kept/dropped memory events (``self.kept`` / ``self.dropped``);
    without one the filter keeps no tallies, so the default path pays
    nothing for observability.
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

    def sink(self, program: ProgramIR, memory: Memory) -> Sink:
        inner = self.child.sink(program, memory)
        self.policy.reset()
        self.kept = 0
        self.dropped = 0
        keep = self.policy.keep
        forward = inner.emit

        if self._counted:
            def emit(record) -> None:
                etype = record[0]
                if etype == EV_READ or etype == EV_WRITE:
                    if not keep(record[1], etype == EV_WRITE):
                        self.dropped += 1
                        return
                    self.kept += 1
                forward(record)
        else:
            def emit(record) -> None:
                etype = record[0]
                if ((etype == EV_READ or etype == EV_WRITE)
                        and not keep(record[1], etype == EV_WRITE)):
                    return
                forward(record)
        return Sink(emit, inner.flush_every, inner.flush, inner.finish)

    # -- recorder lifecycle pass-through ----------------------------------
    # A gated TraceWriter is still "the recorder" to Session._run_live;
    # forward its close/abort so callers need not unwrap. (Wrapping a
    # tracer without these methods is fine as long as nobody calls
    # them.)

    def close(self, exit_value: int = 0, output=None) -> None:
        self.child.close(exit_value, output)

    def abort(self) -> None:
        self.child.abort()
