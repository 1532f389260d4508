"""Block translation: each basic block of a program becomes Python code.

The interpreter (:mod:`repro.runtime.interpreter`) does not decode
instructions. The first time a basic block runs, this module generates
one Python function per *segment* of the block — a call-free stretch
ending in the block's terminator or in a call — compiles them together
and keeps them on the program (``ProgramIR.memo``), so later runs of
the same program reuse them. The interpreter's dispatch loop then makes
one Python call per segment, not one dispatch per instruction.

A segment function ``s<j>(regs, cells, base, refs, time, emit, rt)``
runs its instructions straight-line:

* registers are cached in locals (``r<n>``), read from the activation's
  list on first use and written back before the segment ends, except
  those no other segment or the dispatch loop ever reads; operands, pcs,
  offsets and sizes are int literals;
* instruction ``k`` of the segment stamps its records with the folded
  clock ``time + k + 1``, and emits them in the interpreter's order
  relative to the cell or heap update each reports;
* arithmetic is :mod:`repro.ir.arith`'s templates, with the 64-bit wrap
  taken only when the value leaves the int64 range; bounds and pointer
  checks are written inline and raise through the helpers below, which
  set ``rt.time`` to the failing instruction's clock;
* a branch or jump emits BRANCH/BLOCK and returns the successor
  block's id; a segment ending in a call or return returns ``None`` and
  the dispatch loop pushes or pops the frame.

The *checked* variant of a block takes a further ``max_steps`` and
guards every instruction with the step budget, so a run whose budget
ends inside a block raises :class:`StepLimitExceeded` at the same pc
and clock as an instruction-at-a-time loop would.

Only ints and operator templates are formatted into the generated
source; the program's instruction table (and through it every MiniC
name) is bound in the functions' globals as ``I``, which the error
paths index by pc.
"""

from __future__ import annotations

from time import perf_counter

from repro.ir import arith
from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock, ProgramIR
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.tracing import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_FREE,
                                   EV_READ, EV_WRITE)

_PARAMS = "regs, cells, base, refs, time, emit, rt"


class Segment:
    """A call-free stretch of basic block ``block_id``: ``n``
    instructions, the last a terminator or a call (``term``). ``code``
    runs it, ``checked`` (built on first need) runs it under the step
    budget. ``next`` is the segment after a call; ``callee`` and
    ``callee_block`` are the called function (``None`` unless the
    segment ends in a call) and its entry block, and ``fn_index`` is
    the called or returning function's index in the program's function
    table."""

    __slots__ = ("code", "checked", "n", "term", "next", "callee",
                 "callee_block", "fn_index", "block_id")

    def __init__(self, block_id: int, n: int, term: ins.Instr):
        self.block_id = block_id
        self.n = n
        self.term = term
        self.next: Segment | None = None
        self.callee = None
        self.callee_block = -1
        self.fn_index = -1
        self.code = None
        self.checked = None


class Translation:
    """A program's translated blocks, built lazily: ``entries[id]`` is
    the first segment of block ``id`` once it has run. ``blocks`` and
    ``seconds`` count the blocks translated and the time it took.

    The generated code and the segments refer to the program's
    instructions, blocks and functions, never to the program itself,
    and a successor block is named by its id, so a translation holds
    no reference cycle."""

    def __init__(self, program: ProgramIR):
        self.blocks_by_id = program.blocks_by_id
        self.functions = program.functions
        self.fn_index = {name: i for i, name in
                         enumerate(program.functions)}
        self.entries: list[Segment | None] = \
            [None] * (max(program.blocks_by_id, default=-1) + 1)
        self.namespace = dict(_HELPERS, I=program.instrs)
        self._local: dict[str, frozenset[int]] = {}
        self.blocks = 0
        self.seconds = 0.0

    def local_registers(self, fn_name: str) -> frozenset[int]:
        found = self._local.get(fn_name)
        if found is None:
            found = self._local[fn_name] = segment_local_registers(
                self.functions[fn_name])
        return found

    def translate(self, block_id: int) -> Segment:
        """Translate block ``block_id``; returns its first segment."""
        began = perf_counter()
        block = self.blocks_by_id[block_id]
        segments = []
        start = 0
        for k, instr in enumerate(block.instrs):
            if type(instr) is ins.Call or k == len(block.instrs) - 1:
                segments.append(Segment(block_id, k + 1 - start, instr))
                start = k + 1
        for seg, after in zip(segments, segments[1:]):
            seg.next = after
        for seg, function in zip(segments,
                                 _generate(self, block, segments, False)):
            seg.code = function
        self.entries[block_id] = segments[0]
        self.seconds += perf_counter() - began
        self.blocks += 1
        return segments[0]

    def run_checked(self, seg: Segment, *args) -> None:
        """Run ``seg`` with every instruction guarded by the step
        budget (the last argument); raises at the instruction that
        exhausts it, or earlier at a runtime error."""
        if seg.checked is None:
            began = perf_counter()
            segments = []
            each: Segment | None = self.entries[seg.block_id]
            while each is not None:
                segments.append(each)
                each = each.next
            functions = _generate(self, self.blocks_by_id[seg.block_id],
                                  segments, True)
            for each, function in zip(segments, functions):
                each.checked = function
            self.seconds += perf_counter() - began
        seg.checked(*args)


def translation(program: ProgramIR) -> Translation:
    """``program``'s translation, kept on the program itself."""
    found = program.memo.get("translation")
    if found is None:
        found = program.memo["translation"] = Translation(program)
    assert isinstance(found, Translation)
    return found


# -- runtime helpers bound into the generated code ---------------------------

def _error(rt, instr: ins.Instr, time: int, message: str,
           kind: type[MiniCRuntimeError] = MiniCRuntimeError
           ) -> MiniCRuntimeError:
    """The error to raise at ``instr``, whose clock is ``time``; the
    interpreter's clock is left there."""
    rt.time = time
    return kind(message, instr.pc, instr.line, instr.col, instr.fn_name)


def _out_of_bounds(rt, instr, time: int, index: int, size: int):
    raise _error(rt, instr, time, f"index {index} out of bounds for "
                 f"{instr.slot.name!r}[{size}]")


def _unsized_ref(rt, instr, time: int, addr: int) -> int:
    """An array reference with no extent (an interior pointer, such as
    ``f(&buf[k])``): check liveness of the effective address."""
    if not rt.memory.check_addr(addr):
        raise _error(rt, instr, time,
                     f"array reference {instr.slot.name!r} points outside "
                     f"live memory (address {addr})")
    return addr


def _bad_pointer(rt, instr, time: int, addr: int):
    what = "read" if type(instr) is ins.LoadInd else "write"
    raise _error(rt, instr, time,
                 f"invalid pointer {what} at address {addr}")


def _zero_divisor(rt, instr, time: int):
    what = "division" if instr.op == "/" else "remainder"
    raise _error(rt, instr, time, f"{what} by zero")


def _assert_failed(rt, instr, time: int):
    raise _error(rt, instr, time, "assertion failed")


def _alloc(rt, instr, time: int, size: int) -> int:
    try:
        return rt.memory.heap_alloc(size)
    except ValueError as exc:
        raise _error(rt, instr, time, str(exc))


def _free(rt, instr, time: int, base: int) -> tuple[int, int, int, int]:
    """Free the heap block at ``base``; its FREE record."""
    try:
        lo, hi = rt.memory.heap_free(base)
    except ValueError as exc:
        raise _error(rt, instr, time, str(exc))
    return (EV_FREE, lo, hi - lo, time)


def _print(rt, values: tuple[int, ...]) -> None:
    rt.output.append(values)
    if rt.stdout is not None:
        print(" ".join(str(v) for v in values), file=rt.stdout)


def _step_limit(rt, instr, time: int, max_steps: int):
    raise _error(rt, instr, time,
                 f"instruction budget of {max_steps} exhausted",
                 StepLimitExceeded)


_HELPERS = {
    "wrap": arith.wrap, "c_div": arith.c_div, "c_rem": arith.c_rem,
    "out_of_bounds": _out_of_bounds, "unsized_ref": _unsized_ref,
    "bad_pointer": _bad_pointer, "zero_divisor": _zero_divisor,
    "assert_failed": _assert_failed, "alloc": _alloc, "free": _free,
    "print_": _print, "step_limit": _step_limit,
}


# -- the generator ---------------------------------------------------------

def _generate(translation: Translation, block: BasicBlock,
              segments: list[Segment], checked: bool) -> list:
    """Compile ``block``'s segments into functions (checked variants
    take ``max_steps`` and guard each instruction)."""
    local = translation.local_registers(block.instrs[0].fn_name)
    lines: list[str] = []
    k = 0
    for j, seg in enumerate(segments):
        writer = _Writer(translation, local, checked)
        lines += writer.segment(j, block.instrs[k:k + seg.n], seg)
        k += seg.n
    code = compile("\n".join(lines) + "\n", f"<block {_lit(block.id)}>",
                   "exec")
    functions: dict = {}
    exec(code, translation.namespace, functions)
    return [functions[f"s{j}"] for j in range(len(segments))]


def _operands(instr: ins.Instr) -> tuple[list[int], list[int]]:
    """The registers ``instr`` reads and writes (in that order), but
    those of calls and returns, which the dispatch loop reads and
    writes."""
    kind = type(instr)
    if kind is ins.Const or kind is ins.AddrOf:
        return [], [instr.dst]
    if kind is ins.Move or kind is ins.UnOp:
        return [instr.src], [instr.dst]
    if kind is ins.BinOp:
        return [instr.lhs, instr.rhs], [instr.dst]
    if kind is ins.Load:
        return [] if instr.index is None else [instr.index], [instr.dst]
    if kind is ins.Store:
        return ([instr.src] + ([] if instr.index is None
                               else [instr.index])), []
    if kind is ins.LoadInd:
        return [instr.addr], [instr.dst]
    if kind is ins.StoreInd:
        return [instr.addr, instr.src], []
    if kind is ins.Alloc:
        return [instr.size], [instr.dst]
    if kind is ins.FreeOp:
        return [instr.src], []
    if kind is ins.Print:
        return list(instr.args), []
    if kind is ins.AssertOp or kind is ins.Branch:
        return [instr.cond], []
    return [], []


def segment_local_registers(fn) -> frozenset[int]:
    """The registers of ``fn`` that live inside one segment: every
    read and write of them is in one call-free stretch of one block,
    the first of them a write, and no call or return reads or writes
    them. Generated code keeps these in locals only."""
    home: dict[int, object] = {}
    written_first: set[int] = set()
    escaping: set[int] = set()
    for block in fn.blocks:
        stretch = 0
        for instr in block.instrs:
            if type(instr) is ins.Call:
                escaping.update(instr.args)
                if instr.dst is not None:
                    escaping.add(instr.dst)
                stretch += 1
                continue
            if type(instr) is ins.Ret:
                if instr.src is not None:
                    escaping.add(instr.src)
                continue
            reads, writes = _operands(instr)
            for reg, writing in [(r, False) for r in reads] + \
                    [(r, True) for r in writes]:
                where = (block.id, stretch)
                if reg not in home:
                    home[reg] = where
                    if writing:
                        written_first.add(reg)
                elif home[reg] != where:
                    home[reg] = None
    return frozenset(reg for reg, where in home.items()
                     if where is not None and reg in written_first
                     and reg not in escaping)


def _lit(value) -> str:
    """An int as a source literal; anything else is refused."""
    if type(value) is not int:
        raise TypeError(f"only ints are formatted into generated code, "
                        f"got {type(value).__name__}")
    return repr(value)


class _Writer:
    """Writes one segment's function.

    Registers live in locals ``r<n>``: one the segment reads before
    writing is loaded from ``regs`` at its first read, and every
    register it writes is stored back before it returns, except the
    segment-local ones."""

    def __init__(self, translation: Translation, local: frozenset[int],
                 checked: bool):
        self.translation = translation
        self.local = local
        self.checked = checked
        self.body: list[str] = []
        self.loaded: set[int] = set()
        self.written: list[int] = []
        self.needs_memory = False

    def use(self, reg: int) -> str:
        if reg not in self.loaded:
            assert reg not in self.local, f"r{reg} read before written"
            self.loaded.add(reg)
            self.body.append(f"r{_lit(reg)} = regs[{_lit(reg)}]")
        return f"r{_lit(reg)}"

    def define(self, reg: int) -> str:
        self.loaded.add(reg)
        if reg not in self.local and reg not in self.written:
            self.written.append(reg)
        return f"r{_lit(reg)}"

    def assign(self, reg: int, expr: str, wraps: bool) -> None:
        name = self.define(reg)
        self.body.append(f"{name} = {expr}")
        if wraps:
            self.body.append(f"if not {arith.MIN_INT} <= {name} <= "
                             f"{arith.MAX_INT}: {name} = wrap({name})")

    def write_back(self) -> None:
        self.body.extend(f"regs[{_lit(r)}] = r{_lit(r)}"
                         for r in self.written)

    def segment(self, j: int, instrs: list[ins.Instr],
                seg: Segment) -> list[str]:
        body = self.body
        for offset, instr in enumerate(instrs):
            clock = f"time + {_lit(offset + 1)}"
            if self.checked:
                body.append(f"if time + {_lit(offset)} >= max_steps: "
                            f"step_limit(rt, I[{_lit(instr.pc)}], {clock}, "
                            "max_steps)")
            self.instruction(instr, clock, seg)
        params = _PARAMS + (", max_steps" if self.checked else "")
        head = [f"def s{_lit(j)}({params}):"]
        if self.needs_memory:
            head.append("    memory = rt.memory")
        return head + ["    " + line for line in body]

    def instruction(self, instr: ins.Instr, clock: str,
                    seg: Segment) -> None:
        body = self.body
        ref = f"I[{_lit(instr.pc)}]"
        pc = _lit(instr.pc)
        kind = type(instr)
        if kind is ins.Const:
            self.assign(instr.dst, _lit(instr.value), False)
        elif kind is ins.Move:
            self.assign(instr.dst, self.use(instr.src), False)
        elif kind is ins.BinOp:
            template, wraps = arith.BINARY_EXPR[instr.op]
            a, b = self.use(instr.lhs), self.use(instr.rhs)
            if instr.op in ("/", "%"):
                body.append(f"if {b} == 0: zero_divisor(rt, {ref}, "
                            f"{clock})")
            self.assign(instr.dst, template.format(a=a, b=b), wraps)
        elif kind is ins.UnOp:
            template, wraps = arith.UNARY_EXPR[instr.op]
            self.assign(instr.dst, template.format(a=self.use(instr.src)),
                        wraps)
        elif kind is ins.Load or kind is ins.Store:
            addr = self.address(instr, ref, clock)
            if kind is ins.Load:
                body.append(f"emit(({EV_READ}, {addr}, {pc}, {clock}))")
                self.assign(instr.dst, f"cells[{addr}]", False)
            else:
                body.append(f"cells[{addr}] = {self.use(instr.src)}")
                body.append(f"emit(({EV_WRITE}, {addr}, {pc}, {clock}))")
        elif kind is ins.AddrOf:
            slot = instr.slot
            if type(slot) is ins.GlobalSlot:
                self.assign(instr.dst, _lit(slot.offset), False)
            elif type(slot) is ins.LocalSlot:
                self.assign(instr.dst, f"base + {_lit(slot.offset)}", False)
            else:
                self.assign(instr.dst, f"refs[{_lit(slot.ref_index)}]",
                            False)
        elif kind is ins.LoadInd or kind is ins.StoreInd:
            self.needs_memory = True
            body.append(f"a = {self.use(instr.addr)}")
            body.append(f"if not memory.check_addr(a): "
                        f"bad_pointer(rt, {ref}, {clock}, a)")
            if kind is ins.LoadInd:
                body.append(f"emit(({EV_READ}, a, {pc}, {clock}))")
                self.assign(instr.dst, "cells[a]", False)
            else:
                body.append(f"cells[a] = {self.use(instr.src)}")
                body.append(f"emit(({EV_WRITE}, a, {pc}, {clock}))")
        elif kind is ins.Alloc:
            size = self.use(instr.size)
            body.append(f"a = alloc(rt, {ref}, {clock}, {size})")
            body.append(f"emit(({EV_ALLOC}, a, {size}, {clock}))")
            self.assign(instr.dst, "a", False)
        elif kind is ins.FreeOp:
            body.append(f"emit(free(rt, {ref}, {clock}, "
                        f"{self.use(instr.src)}))")
        elif kind is ins.Print:
            values = "".join(f"{self.use(a)}, " for a in instr.args)
            body.append(f"print_(rt, ({values}))")
        elif kind is ins.AssertOp:
            body.append(f"if not {self.use(instr.cond)}: "
                        f"assert_failed(rt, {ref}, {clock})")
        elif kind is ins.Branch:
            cond = self.use(instr.cond)
            self.write_back()
            body.append(f"if {cond}:")
            for target, indent in ((instr.then_block, "    "),
                                   (instr.else_block, "")):
                target = _lit(target)
                body.append(f"{indent}emit(({EV_BRANCH}, {pc}, {target}, "
                            f"{clock}))")
                body.append(f"{indent}emit(({EV_BLOCK}, {target}, 0, "
                            f"{clock}))")
                body.append(f"{indent}return {target}")
        elif kind is ins.Jump:
            self.write_back()
            target = _lit(instr.target)
            body.append(f"emit(({EV_BLOCK}, {target}, 0, {clock}))")
            body.append(f"return {target}")
        elif kind is ins.Call or kind is ins.Ret:
            translation = self.translation
            if kind is ins.Call:
                seg.callee = translation.functions[instr.name]
                seg.callee_block = seg.callee.entry_block.id
                seg.fn_index = translation.fn_index[instr.name]
            else:
                seg.fn_index = translation.fn_index[instr.fn_name]
            self.write_back()
            body.append("return None")
        else:  # pragma: no cover - exhaustive opcode list
            raise MiniCRuntimeError(f"unknown opcode {instr.opcode}",
                                    instr.pc, instr.line, instr.col,
                                    instr.fn_name)

    def address(self, instr, ref: str, clock: str) -> str:
        """The effective address of a Load/Store: a literal or an
        expression set by the lines appended to the body,
        bounds-checked as the slot says."""
        body = self.body
        slot = instr.slot
        index = None if instr.index is None else self.use(instr.index)
        if type(slot) is ins.RefSlot:
            self.needs_memory = True
            body.append(f"a = refs[{_lit(slot.ref_index)}]")
            body.append("e = memory.allocations.get(a)")
            if index is None:
                body.append(f"if e is None: unsized_ref(rt, {ref}, "
                            f"{clock}, a)")
                return "a"
            body.append(f"if e is None: a = unsized_ref(rt, {ref}, "
                        f"{clock}, a + {index})")
            body.append(f"elif 0 <= {index} < e[0]: a += {index}")
            body.append(f"else: out_of_bounds(rt, {ref}, {clock}, "
                        f"{index}, e[0])")
            return "a"
        start = (_lit(slot.offset) if type(slot) is ins.GlobalSlot
                 else f"base + {_lit(slot.offset)}")
        if index is None:
            if type(slot) is ins.GlobalSlot:
                return start
            body.append(f"a = {start}")
        else:
            size = _lit(slot.size)
            body.append(f"if not 0 <= {index} < {size}: "
                        f"out_of_bounds(rt, {ref}, {clock}, {index}, "
                        f"{size})")
            body.append(f"a = {start} + {index}")
        return "a"
