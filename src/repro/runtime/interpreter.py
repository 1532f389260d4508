"""MiniC interpreter that runs translated basic blocks and emits
trace records.

The interpreter executes the IR with an explicit activation stack (so
deep MiniC recursion cannot overflow the Python stack), advances a
timestamp per executed instruction, and reports every event as one
``(etype, a, b, t)`` record to the sink of its
:class:`repro.runtime.tracing.Tracer`: a recorder's list, or the
record→hook adapter for hooked tracers.

It does not decode instructions: each basic block is translated once
into Python functions (:mod:`repro.runtime.blockgen`), kept on the
program, and the dispatch loop below makes one call per call-free stretch
of a block. The loop pushes and pops frames, and checks the step
budget and the sink's flush clock once per stretch; a stretch that
would cross the budget runs through its checked variant, which raises
:class:`StepLimitExceeded` at the exact instruction and clock.

Semantics notes:

* integers are 64-bit signed with wraparound; division and remainder
  truncate toward zero (C99); shift counts are masked to 0..63 — one
  definition, :mod:`repro.ir.arith`, shared with the constant folder;
* array accesses are bounds-checked (also through array references,
  using the allocation registry);
* every :class:`MiniCRuntimeError` leaves ``time`` at the failing
  instruction's clock;
* return values travel through a traced memory cell at frame offset 0,
  written at the ``return`` and read at the call site one tick after the
  callee exits — which reproduces the paper's return-value dependences
  (gzip's ``line 29 -> line 9, Tdep = 1``).
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.blockgen import translation
from repro.runtime.errors import MiniCRuntimeError
from repro.runtime.memory import Memory
from repro.runtime.tracing import (EV_ENTER, EV_EXIT, EV_FINISH, EV_FREE,
                                   EV_READ, EV_WRITE, NullTracer, Tracer,
                                   _takes_blocks)

#: Default instruction budget; ample for every bundled workload.
DEFAULT_MAX_STEPS = 500_000_000


class Activation:
    """One frame on the explicit call stack; ``resume`` is the segment
    its function continues with once a call it made returns."""

    __slots__ = ("regs", "base", "refs", "ret_dst", "call_pc", "resume")

    def __init__(self, fn, base: int, ret_dst: int | None, call_pc: int):
        self.regs = [0] * fn.num_regs
        self.base = base
        self.refs: list[int] = []
        self.ret_dst = ret_dst
        self.call_pc = call_pc
        self.resume = None


class Interpreter:
    """Executes a finalized :class:`ProgramIR`.

    After :meth:`run`, ``blocks_translated`` and ``translate_seconds``
    say how many basic blocks this run translated (blocks an earlier
    run of the same program translated are reused) and how long that
    took; ``checked_blocks`` counts the stretches that ran through
    their step-budget-checked variant."""

    def __init__(self, program: ProgramIR, tracer: Tracer | None = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 stdout=None):
        if _takes_blocks(tracer):
            raise TypeError(
                f"{type(tracer).__name__} takes whole event blocks, not "
                "per-event hooks: run it through "
                "repro.trace.live.TeeTracer")
        self.program = program
        self.tracer = tracer if tracer is not None else NullTracer()
        self.max_steps = max_steps
        self.memory = Memory(program)
        self.time = 0
        self.output: list[tuple[int, ...]] = []
        self.stdout = stdout
        self.exit_value: int | None = None
        self.dynamic_calls = 0
        self.blocks_translated = 0
        self.translate_seconds = 0.0
        self.checked_blocks = 0

    # -- public API -----------------------------------------------------

    def run(self) -> int:
        """Run ``main()`` to completion; returns its exit value."""
        blocks = translation(self.program)
        translated, seconds = blocks.blocks, blocks.seconds
        try:
            self._run(blocks)
        finally:
            self.blocks_translated = blocks.blocks - translated
            self.translate_seconds = blocks.seconds - seconds
        return self.exit_value if self.exit_value is not None else 0

    def block_stats(self) -> dict[str, int | float]:
        """The last run's translation counters, as span attributes."""
        return {"blocks_translated": self.blocks_translated,
                "translate_s": round(self.translate_seconds, 6),
                "checked_blocks": self.checked_blocks}

    def _run(self, blocks) -> None:
        memory = self.memory
        main = self.program.main
        sink = self.tracer.sink(self.program, memory)
        emit = sink.emit
        flush = sink.flush
        flush_every = sink.flush_every
        act = Activation(main, memory.push_frame(main), None, -1)
        frames = [act]
        self.dynamic_calls = 1
        time = self.time
        emit((EV_ENTER, blocks.fn_index[main.name], main.entry_pc, time))

        cells = memory.cells
        max_steps = self.max_steps
        # One clock check per segment serves the step budget and the
        # sink's flushes.
        limit = min(max_steps, flush_every)
        entries = blocks.entries
        translate = blocks.translate
        seg = entries[main.entry_block.id] or translate(main.entry_block.id)
        regs, base, refs = act.regs, act.base, act.refs

        while True:
            n = seg.n
            if time + n > limit:
                if time + n > max_steps:
                    self.checked_blocks += 1
                    blocks.run_checked(seg, regs, cells, base, refs, time,
                                       emit, self, max_steps)
                flush()
                limit = min(max_steps, time + flush_every)
            after = seg.code(regs, cells, base, refs, time, emit, self)
            time += n
            if after is not None:  # the successor block's id
                seg = entries[after] or translate(after)
                continue
            term = seg.term
            callee = seg.callee
            if callee is not None:
                try:
                    cbase = memory.push_frame(callee)
                except ValueError as exc:
                    self.time = time
                    raise MiniCRuntimeError(str(exc), term.pc, term.line,
                                            term.col, term.fn_name)
                child = Activation(callee, cbase, term.dst, term.pc)
                for info, arg in zip(callee.params, term.args):
                    if info.is_array:
                        child.refs.append(regs[arg])
                    else:
                        cells[cbase + info.slot.offset] = regs[arg]
                act.resume = seg.next
                frames.append(child)
                self.dynamic_calls += 1
                emit((EV_ENTER, seg.fn_index, callee.entry_pc, time))
                act = child
                seg = (entries[seg.callee_block]
                       or translate(seg.callee_block))
            else:  # a return
                value = 0
                if term.src is not None:
                    value = regs[term.src]
                    cells[base] = value
                    emit((EV_WRITE, base, term.pc, time))
                emit((EV_EXIT, seg.fn_index, 0, time))
                region = memory.pop_frame()
                emit((EV_FREE, region.base + 1, region.size - 1, time))
                frames.pop()
                if not frames:
                    if term.src is not None:
                        emit((EV_FREE, base, 1, time))
                    self.exit_value = value
                    break
                caller = frames[-1]
                if act.ret_dst is not None:
                    time += 1
                    emit((EV_READ, base, act.call_pc, time))
                    caller.regs[act.ret_dst] = value
                    emit((EV_FREE, base, 1, time))
                act = caller
                seg = act.resume
            regs, base, refs = act.regs, act.base, act.refs

        self.time = time
        emit((EV_FINISH, 0, 0, time))
        sink.finish()


def run_source(source: str, tracer: Tracer | None = None,
               max_steps: int = DEFAULT_MAX_STEPS,
               stdout=None,
               program: ProgramIR | None = None
               ) -> tuple[int, Interpreter]:
    """Compile and run MiniC ``source``; returns (exit value, interpreter).

    Pass ``program`` to reuse an already-compiled :class:`ProgramIR`
    (``source`` is then ignored).
    """
    if program is None:
        program = compile_source(source)
    interp = Interpreter(program, tracer, max_steps, stdout)
    value = interp.run()
    return value, interp


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Tiny direct runner: ``python -m repro.runtime.interpreter file.mc``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: interpreter.py <file.mc>", file=sys.stderr)
        return 2
    with open(args[0]) as handle:
        source = handle.read()
    value, _ = run_source(source, stdout=sys.stdout)
    return value


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
