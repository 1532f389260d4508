"""Basic blocks, function CFGs and the assembled program.

Block identifiers are unique across the whole program so interprocedural
tables (pc maps, construct tables) can be flat dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import instructions as ins

#: Virtual exit node id used by post-dominance analysis. `Ret` terminators
#: have an implicit edge to it.
VIRTUAL_EXIT = -1


class BasicBlock:
    """A straight-line instruction sequence ending in a terminator."""

    def __init__(self, block_id: int, label: str = ""):
        self.id = block_id
        self.label = label or f"B{block_id}"
        self.instrs: list[ins.Instr] = []

    @property
    def terminator(self) -> ins.Instr:
        return self.instrs[-1]

    def successors(self) -> list[int]:
        """Successor block ids (``VIRTUAL_EXIT`` for returns)."""
        term = self.terminator
        if isinstance(term, ins.Branch):
            if term.then_block == term.else_block:
                return [term.then_block]
            return [term.then_block, term.else_block]
        if isinstance(term, ins.Jump):
            return [term.target]
        if isinstance(term, ins.Ret):
            return [VIRTUAL_EXIT]
        raise ValueError(f"block {self.label} lacks a terminator")

    def first_pc(self) -> int:
        return self.instrs[0].pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.label}, {len(self.instrs)} instrs)"


@dataclass
class ParamInfo:
    """A formal parameter after layout."""

    name: str
    is_array: bool
    slot: ins.Slot


@dataclass
class VarInfo:
    """Layout record for one variable (used for address -> name maps)."""

    name: str
    offset: int
    size: int
    is_array: bool
    init: int | None = None


class FunctionIR:
    """One lowered function."""

    def __init__(self, name: str, returns_value: bool):
        self.name = name
        self.returns_value = returns_value
        self.params: list[ParamInfo] = []
        self.blocks: list[BasicBlock] = []
        #: Frame word count, *including* the return-value cell at offset 0.
        self.frame_size = 1
        #: Number of array-parameter binding table entries.
        self.num_refs = 0
        self.num_regs = 0
        #: Locals layout (offset 0 is the return-value cell, not listed).
        self.locals_layout: list[VarInfo] = []
        #: pc of the first instruction of the entry block; identifies the
        #: procedure construct after :meth:`ProgramIR.finalize`.
        self.entry_pc = -1
        self.line = 0
        self.col = 0

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    def block_map(self) -> dict[int, BasicBlock]:
        return {block.id: block for block in self.blocks}

    def predecessors(self) -> dict[int, list[int]]:
        """Predecessor map including ``VIRTUAL_EXIT``."""
        preds: dict[int, list[int]] = {block.id: [] for block in self.blocks}
        preds[VIRTUAL_EXIT] = []
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block.id)
        return preds


class ProgramIR:
    """The assembled program: functions, global layout, flat pc space."""

    def __init__(self, filename: str = "<input>"):
        self.filename = filename
        self.functions: dict[str, FunctionIR] = {}
        self.globals_layout: list[VarInfo] = []
        self.globals_size = 0
        #: Flat instruction table indexed by pc (after finalize()).
        self.instrs: list[ins.Instr] = []
        #: Block id -> block, across all functions.
        self.blocks_by_id: dict[int, BasicBlock] = {}
        #: Block id -> owning function name.
        self.block_fn: dict[int, str] = {}
        #: Results derived from this program (the construct table, the
        #: block translation, the static dependence report), memoized
        #: for the program's own lifetime.
        self.memo: dict[str, object] = {}

    # -- assembly -----------------------------------------------------

    def finalize(self) -> None:
        """Assign pcs, build the flat tables. Must be called exactly once
        after all functions are lowered."""
        if self.instrs:
            raise RuntimeError("ProgramIR.finalize called twice")
        pc = 0
        for fn in self.functions.values():
            for block in fn.blocks:
                if not block.instrs:
                    raise ValueError(
                        f"empty block {block.label} in {fn.name}")
                if not isinstance(block.terminator, ins.TERMINATORS):
                    raise ValueError(
                        f"block {block.label} in {fn.name} lacks terminator")
                self.blocks_by_id[block.id] = block
                self.block_fn[block.id] = fn.name
                for instr in block.instrs:
                    instr.pc = pc
                    instr.fn_name = fn.name
                    self.instrs.append(instr)
                    pc += 1
            fn.entry_pc = fn.entry_block.first_pc()

    # -- queries --------------------------------------------------------

    @property
    def main(self) -> FunctionIR:
        return self.functions["main"]

    def instr_at(self, pc: int) -> ins.Instr:
        return self.instrs[pc]

    def loc_of(self, pc: int) -> tuple[int, int]:
        """Source (line, col) of the instruction at ``pc``."""
        instr = self.instrs[pc]
        return (instr.line, instr.col)

    def fn_of(self, pc: int) -> str:
        return self.instrs[pc].fn_name

    def global_var(self, name: str) -> VarInfo:
        for info in self.globals_layout:
            if info.name == name:
                return info
        raise KeyError(name)

    def global_addr_to_name(self, addr: int) -> str | None:
        """Map a global-segment address to ``name`` or ``name[k]``."""
        for info in self.globals_layout:
            if info.offset <= addr < info.offset + info.size:
                if info.is_array:
                    return f"{info.name}[{addr - info.offset}]"
                return info.name
        return None

    def static_instruction_count(self) -> int:
        return len(self.instrs)
