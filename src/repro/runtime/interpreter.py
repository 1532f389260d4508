"""Instruction-level MiniC interpreter that emits trace records.

The interpreter executes the IR with an explicit activation stack (so
deep MiniC recursion cannot overflow the Python stack), advances a
timestamp per executed instruction, and reports every event as one
``(etype, a, b, t)`` record to the sink of its
:class:`repro.runtime.tracing.Tracer`: a recorder's list, or the
record→hook adapter for hooked tracers.

Semantics notes:

* integers are 64-bit signed with wraparound; division and remainder
  truncate toward zero (C99); shift counts are masked to 0..63;
* array accesses are bounds-checked (also through array references,
  using the allocation registry);
* return values travel through a traced memory cell at frame offset 0,
  written at the ``return`` and read at the call site one tick after the
  callee exits — which reproduces the paper's return-value dependences
  (gzip's ``line 29 -> line 9, Tdep = 1``).
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.ir import instructions as ins
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.memory import Memory
from repro.runtime.tracing import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                   EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                   EV_WRITE, NullTracer, Tracer,
                                   _takes_blocks)

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: Default instruction budget; ample for every bundled workload.
DEFAULT_MAX_STEPS = 500_000_000


def _wrap(value: int) -> int:
    """Reduce to 64-bit two's-complement signed."""
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


def c_div(a: int, b: int) -> int:
    """C99 division (truncate toward zero)."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


class Activation:
    """One frame on the explicit call stack."""

    __slots__ = ("fn", "regs", "base", "refs", "block", "idx",
                 "ret_dst", "call_pc")

    def __init__(self, fn, base: int, ret_dst: int | None, call_pc: int):
        self.fn = fn
        self.regs = [0] * fn.num_regs
        self.base = base
        self.refs: list[int] = []
        self.block = fn.entry_block
        self.idx = 0
        self.ret_dst = ret_dst
        self.call_pc = call_pc


class Interpreter:
    """Executes a finalized :class:`ProgramIR`."""

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

    # -- public API -----------------------------------------------------

    def run(self) -> int:
        """Run ``main()`` to completion; returns its exit value."""
        memory = self.memory
        program = self.program
        main = program.main
        sink = self.tracer.sink(program, memory)
        emit = sink.emit
        flush = sink.flush
        flush_every = sink.flush_every
        fn_index = {name: i for i, name in enumerate(program.functions)}
        base = memory.push_frame(main)
        frames = [Activation(main, base, None, -1)]
        self.dynamic_calls = 1
        emit((EV_ENTER, fn_index[main.name], main.entry_pc, self.time))

        cells = memory.cells
        blocks_by_id = program.blocks_by_id
        max_steps = self.max_steps
        time = self.time
        # One clock check per instruction serves the step budget and
        # the sink's flushes.
        limit = min(max_steps, flush_every)

        while frames:
            act = frames[-1]
            instr = act.block.instrs[act.idx]
            act.idx += 1
            time += 1
            if time > limit:
                if time > max_steps:
                    self.time = time
                    raise StepLimitExceeded(
                        f"instruction budget of {max_steps} exhausted",
                        instr.pc, instr.line, instr.col, instr.fn_name)
                flush()
                limit = min(max_steps, time + flush_every)
            op = instr.opcode
            regs = act.regs

            if op == "load":
                addr = self._resolve(act, instr, instr.index)
                emit((EV_READ, addr, instr.pc, time))
                regs[instr.dst] = cells[addr]
            elif op == "store":
                addr = self._resolve(act, instr, instr.index)
                cells[addr] = regs[instr.src]
                emit((EV_WRITE, addr, instr.pc, time))
            elif op == "binop":
                regs[instr.dst] = self._binop(instr, regs[instr.lhs],
                                              regs[instr.rhs])
            elif op == "const":
                regs[instr.dst] = instr.value
            elif op == "branch":
                target = (instr.then_block if regs[instr.cond] != 0
                          else instr.else_block)
                emit((EV_BRANCH, instr.pc, target, time))
                act.block = blocks_by_id[target]
                act.idx = 0
                emit((EV_BLOCK, target, 0, time))
            elif op == "jump":
                act.block = blocks_by_id[instr.target]
                act.idx = 0
                emit((EV_BLOCK, instr.target, 0, time))
            elif op == "move":
                regs[instr.dst] = regs[instr.src]
            elif op == "unop":
                regs[instr.dst] = self._unop(instr, regs[instr.src])
            elif op == "loadind":
                addr = regs[instr.addr]
                if not memory.check_addr(addr):
                    self.time = time
                    raise MiniCRuntimeError(
                        f"invalid pointer read at address {addr}",
                        instr.pc, instr.line, instr.col, instr.fn_name)
                emit((EV_READ, addr, instr.pc, time))
                regs[instr.dst] = cells[addr]
            elif op == "storeind":
                addr = regs[instr.addr]
                if not memory.check_addr(addr):
                    self.time = time
                    raise MiniCRuntimeError(
                        f"invalid pointer write at address {addr}",
                        instr.pc, instr.line, instr.col, instr.fn_name)
                cells[addr] = regs[instr.src]
                emit((EV_WRITE, addr, instr.pc, time))
            elif op == "alloc":
                size = regs[instr.size]
                try:
                    base = memory.heap_alloc(size)
                except ValueError as exc:
                    self.time = time
                    raise MiniCRuntimeError(str(exc), instr.pc, instr.line,
                                            instr.col, instr.fn_name)
                regs[instr.dst] = base
                emit((EV_ALLOC, base, size, time))
            elif op == "free":
                try:
                    lo, hi = memory.heap_free(regs[instr.src])
                except ValueError as exc:
                    self.time = time
                    raise MiniCRuntimeError(str(exc), instr.pc, instr.line,
                                            instr.col, instr.fn_name)
                emit((EV_FREE, lo, hi - lo, time))
            elif op == "call":
                callee = self.program.functions[instr.name]
                try:
                    cbase = memory.push_frame(callee)
                except ValueError as exc:
                    self.time = time
                    raise MiniCRuntimeError(str(exc), instr.pc, instr.line,
                                            instr.col, instr.fn_name)
                cells = memory.cells  # push_frame may reallocate
                child = Activation(callee, cbase, instr.dst, instr.pc)
                for info, arg in zip(callee.params, instr.args):
                    if info.is_array:
                        child.refs.append(regs[arg])
                    else:
                        cells[cbase + info.slot.offset] = regs[arg]
                frames.append(child)
                self.dynamic_calls += 1
                emit((EV_ENTER, fn_index[instr.name], callee.entry_pc,
                      time))
            elif op == "ret":
                value = 0
                if instr.src is not None:
                    value = regs[instr.src]
                    cells[act.base] = value
                    emit((EV_WRITE, act.base, instr.pc, time))
                emit((EV_EXIT, fn_index[act.fn.name], 0, time))
                region = memory.pop_frame()
                emit((EV_FREE, region.base + 1, region.size - 1, time))
                frames.pop()
                if frames:
                    caller = frames[-1]
                    if act.ret_dst is not None:
                        time += 1
                        emit((EV_READ, act.base, act.call_pc, time))
                        caller.regs[act.ret_dst] = value
                        emit((EV_FREE, act.base, 1, time))
                else:
                    if instr.src is not None:
                        emit((EV_FREE, act.base, 1, time))
                    self.exit_value = value
            elif op == "addrof":
                regs[instr.dst] = self._base_of(act, instr.slot, instr)
            elif op == "print":
                values = tuple(regs[a] for a in instr.args)
                self.output.append(values)
                if self.stdout is not None:
                    print(" ".join(str(v) for v in values),
                          file=self.stdout)
            elif op == "assert":
                if regs[instr.cond] == 0:
                    self.time = time
                    raise MiniCRuntimeError("assertion failed", instr.pc,
                                            instr.line, instr.col,
                                            instr.fn_name)
            else:  # pragma: no cover - exhaustive opcode list
                raise MiniCRuntimeError(f"unknown opcode {op}", instr.pc,
                                        instr.line, instr.col, instr.fn_name)

        self.time = time
        emit((EV_FINISH, 0, 0, time))
        sink.finish()
        return self.exit_value if self.exit_value is not None else 0

    # -- helpers ------------------------------------------------------------

    def _base_of(self, act: Activation, slot: ins.Slot,
                 instr: ins.Instr) -> int:
        if type(slot) is ins.GlobalSlot:
            return slot.offset
        if type(slot) is ins.LocalSlot:
            return act.base + slot.offset
        return act.refs[slot.ref_index]

    def _resolve(self, act: Activation, instr: ins.Instr,
                 index: int | None) -> int:
        """Compute the effective address of a Load/Store, bounds-checked."""
        slot = instr.slot
        slot_type = type(slot)
        if slot_type is ins.GlobalSlot:
            base, size = slot.offset, slot.size
        elif slot_type is ins.LocalSlot:
            base, size = act.base + slot.offset, slot.size
        else:
            base = act.refs[slot.ref_index]
            extent = self.memory.array_extent(base)
            if extent is None:
                # An interior pointer (`f(&buf[k])`) or other computed
                # address: no static extent, so fall back to a liveness
                # check on the effective address.
                addr = base if index is None else base + act.regs[index]
                if not self.memory.check_addr(addr):
                    raise MiniCRuntimeError(
                        f"array reference {slot.name!r} points outside "
                        f"live memory (address {addr})", instr.pc,
                        instr.line, instr.col, instr.fn_name)
                return addr
            size = extent[0]
        if index is None:
            return base
        idx = act.regs[index]
        if idx < 0 or idx >= size:
            raise MiniCRuntimeError(
                f"index {idx} out of bounds for {slot.name!r}[{size}]",
                instr.pc, instr.line, instr.col, instr.fn_name)
        return base + idx

    def _binop(self, instr: ins.BinOp, a: int, b: int) -> int:
        op = instr.op
        if op == "+":
            return _wrap(a + b)
        if op == "-":
            return _wrap(a - b)
        if op == "*":
            return _wrap(a * b)
        if op == "<":
            return 1 if a < b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">=":
            return 1 if a >= b else 0
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "&":
            return _wrap(a & b)
        if op == "|":
            return _wrap(a | b)
        if op == "^":
            return _wrap(a ^ b)
        if op == "<<":
            return _wrap(a << (b & 63))
        if op == ">>":
            return _wrap(a >> (b & 63))
        if op == "/":
            if b == 0:
                raise MiniCRuntimeError("division by zero", instr.pc,
                                        instr.line, instr.col, instr.fn_name)
            return _wrap(c_div(a, b))
        if op == "%":
            if b == 0:
                raise MiniCRuntimeError("remainder by zero", instr.pc,
                                        instr.line, instr.col, instr.fn_name)
            return _wrap(a - c_div(a, b) * b)
        raise MiniCRuntimeError(f"unknown operator {op!r}", instr.pc,
                                instr.line, instr.col, instr.fn_name)

    def _unop(self, instr: ins.UnOp, a: int) -> int:
        op = instr.op
        if op == "-":
            return _wrap(-a)
        if op == "~":
            return _wrap(~a)
        if op == "!":
            return 1 if a == 0 else 0
        if op == "tobool":
            return 1 if a != 0 else 0
        raise MiniCRuntimeError(f"unknown operator {op!r}", instr.pc,
                                instr.line, instr.col, instr.fn_name)


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
