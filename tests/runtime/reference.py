"""The instruction-at-a-time reference semantics of the interpreter.

:class:`ReferenceInterpreter` decodes and runs one IR instruction per
loop iteration — the interpreter as it was before basic blocks were
translated into Python (:mod:`repro.runtime.blockgen`). It stays here
as the oracle the differential tests compare the translated blocks
with: the same record stream, output, exit value, errors (type,
message, pc) and final clock. Its arithmetic is the operator table of
:mod:`repro.ir.arith`, evaluated one instruction at a time.
"""

from __future__ import annotations

from repro.ir import arith
from repro.ir import instructions as ins
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                   EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                   EV_WRITE)


class _Frame:
    __slots__ = ("fn", "regs", "base", "refs", "block", "idx", "ret_dst",
                 "call_pc")

    def __init__(self, fn, base: int, ret_dst, call_pc: int):
        self.fn = fn
        self.regs = [0] * fn.num_regs
        self.base = base
        self.refs: list[int] = []
        self.block = fn.entry_block
        self.idx = 0
        self.ret_dst = ret_dst
        self.call_pc = call_pc


class ReferenceInterpreter(Interpreter):
    """One opcode dispatch per instruction; same constructor and
    results as :class:`Interpreter`."""

    def run(self) -> int:
        memory = self.memory
        program = self.program
        main = program.main
        sink = self.tracer.sink(program, memory)
        emit = sink.emit
        fn_index = {name: i for i, name in enumerate(program.functions)}
        frames = [_Frame(main, memory.push_frame(main), None, -1)]
        self.dynamic_calls = 1
        emit((EV_ENTER, fn_index[main.name], main.entry_pc, self.time))
        cells = memory.cells
        time = self.time

        while frames:
            act = frames[-1]
            instr = act.block.instrs[act.idx]
            act.idx += 1
            time += 1
            self.time = time
            if time > self.max_steps:
                raise StepLimitExceeded(
                    f"instruction budget of {self.max_steps} exhausted",
                    instr.pc, instr.line, instr.col, instr.fn_name)
            op = instr.opcode
            regs = act.regs

            def trap(message: str):
                return MiniCRuntimeError(message, instr.pc, instr.line,
                                         instr.col, instr.fn_name)

            if op == "load" or op == "store":
                addr = self._address(act, instr, trap)
                if op == "load":
                    emit((EV_READ, addr, instr.pc, time))
                    regs[instr.dst] = cells[addr]
                else:
                    cells[addr] = regs[instr.src]
                    emit((EV_WRITE, addr, instr.pc, time))
            elif op == "binop":
                b = regs[instr.rhs]
                if b == 0 and instr.op in ("/", "%"):
                    raise trap("division by zero" if instr.op == "/"
                               else "remainder by zero")
                regs[instr.dst] = arith.BINARY[instr.op](regs[instr.lhs], b)
            elif op == "unop":
                regs[instr.dst] = arith.UNARY[instr.op](regs[instr.src])
            elif op == "const":
                regs[instr.dst] = instr.value
            elif op == "move":
                regs[instr.dst] = regs[instr.src]
            elif op == "branch":
                target = (instr.then_block if regs[instr.cond] != 0
                          else instr.else_block)
                emit((EV_BRANCH, instr.pc, target, time))
                act.block = program.blocks_by_id[target]
                act.idx = 0
                emit((EV_BLOCK, target, 0, time))
            elif op == "jump":
                act.block = program.blocks_by_id[instr.target]
                act.idx = 0
                emit((EV_BLOCK, instr.target, 0, time))
            elif op == "loadind" or op == "storeind":
                addr = regs[instr.addr]
                if not memory.check_addr(addr):
                    what = "read" if op == "loadind" else "write"
                    raise trap(f"invalid pointer {what} at address {addr}")
                if op == "loadind":
                    emit((EV_READ, addr, instr.pc, time))
                    regs[instr.dst] = cells[addr]
                else:
                    cells[addr] = regs[instr.src]
                    emit((EV_WRITE, addr, instr.pc, time))
            elif op == "addrof":
                slot = instr.slot
                if type(slot) is ins.GlobalSlot:
                    regs[instr.dst] = slot.offset
                elif type(slot) is ins.LocalSlot:
                    regs[instr.dst] = act.base + slot.offset
                else:
                    regs[instr.dst] = act.refs[slot.ref_index]
            elif op == "alloc":
                size = regs[instr.size]
                try:
                    base = memory.heap_alloc(size)
                except ValueError as exc:
                    raise trap(str(exc))
                regs[instr.dst] = base
                emit((EV_ALLOC, base, size, time))
            elif op == "free":
                try:
                    lo, hi = memory.heap_free(regs[instr.src])
                except ValueError as exc:
                    raise trap(str(exc))
                emit((EV_FREE, lo, hi - lo, time))
            elif op == "call":
                callee = program.functions[instr.name]
                try:
                    cbase = memory.push_frame(callee)
                except ValueError as exc:
                    raise trap(str(exc))
                child = _Frame(callee, cbase, instr.dst, instr.pc)
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
                    if act.ret_dst is not None:
                        time += 1
                        emit((EV_READ, act.base, act.call_pc, time))
                        frames[-1].regs[act.ret_dst] = value
                        emit((EV_FREE, act.base, 1, time))
                else:
                    if instr.src is not None:
                        emit((EV_FREE, act.base, 1, time))
                    self.exit_value = value
            elif op == "print":
                values = tuple(regs[a] for a in instr.args)
                self.output.append(values)
                if self.stdout is not None:
                    print(" ".join(str(v) for v in values),
                          file=self.stdout)
            elif op == "assert":
                if regs[instr.cond] == 0:
                    raise trap("assertion failed")
            else:  # pragma: no cover - exhaustive opcode list
                raise trap(f"unknown opcode {op}")

        self.time = time
        emit((EV_FINISH, 0, 0, time))
        sink.finish()
        return self.exit_value if self.exit_value is not None else 0

    def _address(self, act: _Frame, instr, trap) -> int:
        """The effective address of a Load/Store, bounds-checked."""
        slot = instr.slot
        index = instr.index
        if type(slot) is ins.GlobalSlot:
            base, size = slot.offset, slot.size
        elif type(slot) is ins.LocalSlot:
            base, size = act.base + slot.offset, slot.size
        else:
            base = act.refs[slot.ref_index]
            extent = self.memory.array_extent(base)
            if extent is None:
                addr = base if index is None else base + act.regs[index]
                if not self.memory.check_addr(addr):
                    raise trap(f"array reference {slot.name!r} points "
                               f"outside live memory (address {addr})")
                return addr
            size = extent[0]
        if index is None:
            return base
        idx = act.regs[index]
        if idx < 0 or idx >= size:
            raise trap(f"index {idx} out of bounds for "
                       f"{slot.name!r}[{size}]")
        return base + idx
