"""The static construct table.

A *construct* (paper §II) is a code region considered for asynchronous
execution: a procedure, a loop, or a conditional. At the IR level:

* every function is a ``PROCEDURE`` construct, headed by its entry pc;
* every ``Branch`` instruction is a predicate heading either a ``LOOP``
  construct (if it is the canonical branch of a natural loop) or a
  ``COND`` construct, terminated at its immediate post-dominator.

For each predicate the table precomputes:

``ipostdom_block``
    the block id of the branch's immediate post-dominator (``None`` when
    it is the virtual exit — the construct then ends at procedure exit);
``region``
    every block reachable from the branch without passing through the
    post-dominator. The runtime pops a predicate's stack entry as soon as
    control enters a block outside its region, which generalizes the
    paper's rule (5) to early exits (``break`` past an unclosed ``if``,
    multi-branch loop conditions such as ``while (a && b)``, ``return``);
``loop_body``
    for canonical loop predicates, the natural loop's block set; rule (4)
    pops every predicate entry from the previous iteration before pushing
    the new one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.dominance import post_dominators
from repro.analysis.loops import find_loops
from repro.ir import instructions as ins
from repro.ir.cfg import VIRTUAL_EXIT, ProgramIR


class ConstructKind(enum.Enum):
    """What kind of region a construct covers."""

    PROCEDURE = "procedure"
    LOOP = "loop"
    COND = "cond"


@dataclass
class StaticConstruct:
    """Static description of one profiled construct."""

    pc: int
    kind: ConstructKind
    fn_name: str
    line: int
    col: int
    name: str
    hint: str | None = None
    #: Block id containing the predicate (``None`` for procedures).
    block_id: int | None = None
    ipostdom_block: int | None = None
    region: frozenset[int] | None = None
    loop_body: frozenset[int] | None = None
    #: For loops: symbolic names ("fn.var") of the loop's control
    #: variables — local scalars stored in the header or back-edge
    #: source blocks. A compiled binary keeps these in registers, so
    #: valgrind-based Alchemist never observes their dependences;
    #: reports exclude them from violation counts by default.
    induction_vars: frozenset[str] = frozenset()

    @property
    def is_loop(self) -> bool:
        return self.kind is ConstructKind.LOOP

    def describe(self) -> str:
        return f"{self.name} at line {self.line}"


class ConstructTable:
    """All static constructs of a program, plus the runtime lookup maps."""

    def __init__(self, program: ProgramIR):
        #: Construct head pc -> static construct (procedures + predicates).
        self.by_pc: dict[int, StaticConstruct] = {}
        #: Function name -> procedure construct.
        self.procedures: dict[str, StaticConstruct] = {}
        self._build(program)

    def _build(self, program: ProgramIR) -> None:
        for fn in program.functions.values():
            proc = StaticConstruct(
                pc=fn.entry_pc,
                kind=ConstructKind.PROCEDURE,
                fn_name=fn.name,
                line=fn.line,
                col=fn.col,
                name=fn.name,
            )
            self.by_pc[proc.pc] = proc
            self.procedures[fn.name] = proc

            ipdom = post_dominators(fn)
            loops = find_loops(fn)
            canonical: dict[int, object] = {}
            for loop in loops:
                if loop.canonical_branch_pc is not None:
                    canonical[loop.canonical_branch_pc] = loop

            blocks = fn.block_map()
            for block in fn.blocks:
                term = block.terminator
                if not isinstance(term, ins.Branch):
                    continue
                post = ipdom.get(block.id)
                ipostdom_block = None if post in (None, VIRTUAL_EXIT) else post
                region = _region_of(blocks, block.id, ipostdom_block)
                loop = canonical.get(term.pc)
                induction: frozenset[str] = frozenset()
                if loop is not None:
                    kind = ConstructKind.LOOP
                    name = f"loop({fn.name}:{term.line})"
                    induction = frozenset(
                        f"{fn.name}.{slot.name}" for slot in
                        loop_control_stores(blocks, block.id, loop))
                else:
                    kind = ConstructKind.COND
                    name = f"{term.hint}({fn.name}:{term.line})"
                self.by_pc[term.pc] = StaticConstruct(
                    pc=term.pc,
                    kind=kind,
                    fn_name=fn.name,
                    line=term.line,
                    col=term.col,
                    name=name,
                    hint=term.hint,
                    block_id=block.id,
                    ipostdom_block=ipostdom_block,
                    region=region,
                    loop_body=loop.body if loop is not None else None,
                    induction_vars=induction,
                )

    # -- queries -----------------------------------------------------------

    def static_count(self) -> int:
        """Number of static constructs (the paper's Table III 'Static')."""
        return len(self.by_pc)

    def predicate(self, pc: int) -> StaticConstruct:
        construct = self.by_pc[pc]
        if construct.kind is ConstructKind.PROCEDURE:
            raise KeyError(f"pc {pc} heads a procedure, not a predicate")
        return construct

    def loops(self) -> list[StaticConstruct]:
        return [c for c in self.by_pc.values() if c.is_loop]


def construct_table(program: ProgramIR) -> ConstructTable:
    """The program's construct table, built once and kept in
    ``ProgramIR.memo`` (the table holds no reference to the program)."""
    table = program.memo.get("constructs")
    if not isinstance(table, ConstructTable):
        table = program.memo["constructs"] = ConstructTable(program)
    return table


def loop_control_stores(blocks, header_block: int, loop) -> list:
    """Local scalar slots stored in a loop's *control blocks* — the
    header and the back-edge sources (a ``for`` step block, a ``while``
    body's trailing increment). Shared by the construct table (for
    induction-variable names) and the task-graph extractor (for
    induction-variable frame offsets)."""
    control_blocks = {header_block}
    control_blocks.update(src for src, _ in loop.back_edges)
    slots = []
    for block_id in control_blocks:
        for instr in blocks[block_id].instrs:
            if (isinstance(instr, ins.Store)
                    and isinstance(instr.slot, ins.LocalSlot)
                    and not instr.slot.is_array):
                slots.append(instr.slot)
    return slots


def _region_of(blocks, branch_block: int,
               ipostdom_block: int | None) -> frozenset[int]:
    """Blocks reachable from the branch without crossing its post-dominator
    (the branch's own block included; the post-dominator excluded)."""
    region = {branch_block}
    stack = [s for s in blocks[branch_block].successors()
             if s != VIRTUAL_EXIT and s != ipostdom_block]
    while stack:
        node = stack.pop()
        if node in region:
            continue
        region.add(node)
        for succ in blocks[node].successors():
            if succ != VIRTUAL_EXIT and succ != ipostdom_block:
                stack.append(succ)
    return frozenset(region)
