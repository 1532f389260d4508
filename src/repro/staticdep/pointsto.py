"""Flow-insensitive points-to analysis and per-pc may-access sets.

An Andersen-style inclusion fixpoint over the whole :class:`ProgramIR`:
three tables grow monotonically until stable —

``reg``
    abstract locations a virtual register may point to, per
    ``(function, register)``;
``contents``
    pointer values that may be *stored in* an abstract location (a
    pointer scalar, an array cell, a heap word);
``refs``
    arrays a ``RefSlot`` (array parameter) may be bound to, per
    ``(function, ref_index)``.

After the fixpoint, every instruction that the tracer records as a
memory event gets a may-access set mirroring the tracer exactly:
``Load``/``Store`` access their resolved slot, ``LoadInd``/``StoreInd``
access whatever their address register may point to, a value-returning
``Call`` reads the callee's return cell (the tracer attributes that read
to the call pc), and a value-carrying ``Ret`` writes its own return
cell. Scalar argument passing is untraced and therefore carries no
access set — but its data flow still feeds ``contents`` so that pointers
passed by value keep their targets.
"""

from __future__ import annotations

from collections import defaultdict

from repro.ir import instructions as ins
from repro.ir.cfg import ProgramIR

from repro.staticdep.model import Loc

EMPTY_LOCS: frozenset[Loc] = frozenset()


def _slot_loc(slot: ins.GlobalSlot | ins.LocalSlot, fn_name: str) -> Loc:
    if isinstance(slot, ins.GlobalSlot):
        return Loc("global", "", slot.name, slot.offset, slot.is_array)
    return Loc("local", fn_name, slot.name, slot.offset, slot.is_array)


def _ret_loc(fn_name: str) -> Loc:
    return Loc("ret", fn_name, "retval", 0, False)


class AccessModel:
    """Points-to facts and per-pc may-access sets for one program."""

    def __init__(self, program: ProgramIR) -> None:
        self.reg: dict[tuple[str, int], set[Loc]] = defaultdict(set)
        self.contents: dict[Loc, set[Loc]] = defaultdict(set)
        self.refs: dict[tuple[str, int], set[Loc]] = defaultdict(set)
        #: traced may-read set per pc (absent pc: no traced read)
        self.reads: dict[int, frozenset[Loc]] = {}
        #: traced may-write set per pc (absent pc: no traced write)
        self.writes: dict[int, frozenset[Loc]] = {}
        self._solve(program)
        self._collect_accesses(program)

    # -- fixpoint -----------------------------------------------------

    def _resolve(self, slot: ins.Slot, fn_name: str) -> set[Loc]:
        """Locations a slot operand may denote (RefSlots follow the
        current binding set, which is part of the fixpoint)."""
        if isinstance(slot, ins.RefSlot):
            return self.refs[(fn_name, slot.ref_index)]
        return {_slot_loc(slot, fn_name)}

    def _solve(self, program: ProgramIR) -> None:
        changed = True
        while changed:
            changed = False
            for instr in program.instrs:
                changed |= self._apply(instr, program)

    def _flow(self, dst: set[Loc], src: set[Loc]) -> bool:
        if src <= dst:
            return False
        dst |= src
        return True

    def _apply(self, instr: ins.Instr, program: ProgramIR) -> bool:
        fn = instr.fn_name
        reg, contents, refs = self.reg, self.contents, self.refs
        if isinstance(instr, ins.Move):
            return self._flow(reg[(fn, instr.dst)], reg[(fn, instr.src)])
        if isinstance(instr, ins.UnOp):
            return self._flow(reg[(fn, instr.dst)], reg[(fn, instr.src)])
        if isinstance(instr, ins.BinOp):
            # Pointer arithmetic stays within the pointed-to object
            # (memory-safety assumption), so propagating from both
            # operands keeps region-granular targets.
            dst = reg[(fn, instr.dst)]
            changed = self._flow(dst, reg[(fn, instr.lhs)])
            changed |= self._flow(dst, reg[(fn, instr.rhs)])
            return changed
        if isinstance(instr, ins.Load):
            dst = reg[(fn, instr.dst)]
            changed = False
            for loc in self._resolve(instr.slot, fn):
                changed |= self._flow(dst, contents[loc])
            return changed
        if isinstance(instr, ins.Store):
            src = reg[(fn, instr.src)]
            changed = False
            for loc in self._resolve(instr.slot, fn):
                changed |= self._flow(contents[loc], src)
            return changed
        if isinstance(instr, ins.AddrOf):
            return self._flow(reg[(fn, instr.dst)],
                              self._resolve(instr.slot, fn))
        if isinstance(instr, ins.LoadInd):
            dst = reg[(fn, instr.dst)]
            changed = False
            for loc in set(reg[(fn, instr.addr)]):
                changed |= self._flow(dst, contents[loc])
            return changed
        if isinstance(instr, ins.StoreInd):
            src = reg[(fn, instr.src)]
            changed = False
            for loc in set(reg[(fn, instr.addr)]):
                changed |= self._flow(contents[loc], src)
            return changed
        if isinstance(instr, ins.Alloc):
            heap = Loc("heap", "", f"heap@{instr.pc}", instr.pc, True)
            return self._flow(reg[(fn, instr.dst)], {heap})
        if isinstance(instr, ins.Call):
            callee = program.functions.get(instr.name)
            if callee is None:
                return False
            changed = False
            for arg_reg, param in zip(instr.args, callee.params):
                if isinstance(param.slot, ins.RefSlot):
                    changed |= self._flow(
                        refs[(callee.name, param.slot.ref_index)],
                        reg[(fn, arg_reg)])
                elif isinstance(param.slot, ins.LocalSlot):
                    changed |= self._flow(
                        contents[_slot_loc(param.slot, callee.name)],
                        reg[(fn, arg_reg)])
            if instr.dst is not None:
                changed |= self._flow(reg[(fn, instr.dst)],
                                      contents[_ret_loc(callee.name)])
            return changed
        if isinstance(instr, ins.Ret) and instr.src is not None:
            return self._flow(contents[_ret_loc(fn)], reg[(fn, instr.src)])
        return False

    # -- traced access sets -------------------------------------------

    def _collect_accesses(self, program: ProgramIR) -> None:
        for instr in program.instrs:
            fn = instr.fn_name
            if isinstance(instr, ins.Load):
                self.reads[instr.pc] = frozenset(self._resolve(instr.slot, fn))
            elif isinstance(instr, ins.Store):
                self.writes[instr.pc] = frozenset(self._resolve(instr.slot, fn))
            elif isinstance(instr, ins.LoadInd):
                self.reads[instr.pc] = frozenset(self.reg[(fn, instr.addr)])
            elif isinstance(instr, ins.StoreInd):
                self.writes[instr.pc] = frozenset(self.reg[(fn, instr.addr)])
            elif isinstance(instr, ins.Call) and instr.dst is not None:
                if instr.name in program.functions:
                    self.reads[instr.pc] = frozenset({_ret_loc(instr.name)})
            elif isinstance(instr, ins.Ret) and instr.src is not None:
                self.writes[instr.pc] = frozenset({_ret_loc(fn)})

    def reads_at(self, pc: int) -> frozenset[Loc]:
        return self.reads.get(pc, EMPTY_LOCS)

    def writes_at(self, pc: int) -> frozenset[Loc]:
        return self.writes.get(pc, EMPTY_LOCS)
