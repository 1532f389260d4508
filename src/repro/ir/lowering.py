"""AST -> CFG lowering.

The lowering is syntax-directed and produces the canonical loop shapes the
construct analysis expects:

* ``while``/``for``: a *header* block evaluates the condition and ends in
  the loop `Branch`; the back edge targets the header.
* ``do-while``: the body block is the back-edge target; the condition
  block (back-edge source) ends in the loop `Branch`.
* ``if``/``&&``/``||``/``?:`` always create an explicit join block, so a
  non-loop predicate's immediate post-dominator is its join (or, when an
  arm breaks/continues/returns, a block further out — exactly the irregular
  control flow the paper's post-dominance treatment exists for).

Short-circuit operators and the ternary operator lower to branches, so
they are profiled constructs, as in compiled C.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.errors import SemanticError
from repro.lang.parser import parse_program
from repro.ir import arith
from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock, FunctionIR, ParamInfo, ProgramIR, VarInfo

#: Builtin callables lowered to dedicated instructions.
BUILTINS = ("print", "assert", "malloc", "free")


def compile_source(source: str, filename: str = "<input>") -> ProgramIR:
    """Front-to-back convenience: lex, parse and lower ``source``."""
    return lower_program(parse_program(source, filename), filename)


def lower_program(program: ast.Program, filename: str = "<input>") -> ProgramIR:
    """Lower a parsed program to :class:`ProgramIR` (finalized)."""
    return _ProgramLowerer(program, filename).lower()


class _Signature:
    """Callee information collected before bodies are lowered."""

    def __init__(self, fn: ast.FuncDecl):
        self.name = fn.name
        self.param_is_array = [p.is_array for p in fn.params]
        self.returns_value = fn.returns_value

    def arity(self) -> int:
        return len(self.param_is_array)


class _ProgramLowerer:
    def __init__(self, program: ast.Program, filename: str):
        self.program = program
        self.filename = filename
        self.ir = ProgramIR(filename)
        self.signatures: dict[str, _Signature] = {}
        self.global_slots: dict[str, ins.GlobalSlot] = {}
        self.next_block_id = 0

    def error(self, message: str, node: ast.Node) -> SemanticError:
        return SemanticError(message, node.line, node.col, self.filename)

    def new_block_id(self) -> int:
        block_id = self.next_block_id
        self.next_block_id += 1
        return block_id

    def lower(self) -> ProgramIR:
        self._layout_globals()
        self._collect_signatures()
        for fn in self.program.functions:
            lowerer = _FunctionLowerer(self, fn)
            self.ir.functions[fn.name] = lowerer.lower()
        if "main" not in self.ir.functions:
            raise SemanticError("program has no main()", 0, 0, self.filename)
        self.ir.finalize()
        return self.ir

    def _layout_globals(self) -> None:
        offset = 1  # address 0 is reserved as NULL and never allocated
        for decl in self.program.globals:
            if decl.name in self.global_slots:
                raise self.error(f"duplicate global {decl.name!r}", decl)
            size = 1
            is_array = decl.size is not None
            if is_array:
                size = _const_eval(decl.size, self)
                if size <= 0:
                    raise self.error("array size must be positive", decl)
            init = None
            if decl.init is not None:
                if is_array:
                    raise self.error("array initializers are not supported",
                                     decl)
                init = _const_eval(decl.init, self)
            slot = ins.GlobalSlot(offset, size, decl.name, is_array,
                                  decl.is_pointer)
            self.global_slots[decl.name] = slot
            self.ir.globals_layout.append(
                VarInfo(decl.name, offset, size, is_array, init))
            offset += size
        # globals_size includes the reserved NULL word at address 0.
        self.ir.globals_size = offset

    def _collect_signatures(self) -> None:
        for fn in self.program.functions:
            if fn.name in self.signatures:
                raise self.error(f"duplicate function {fn.name!r}", fn)
            if fn.name in BUILTINS:
                raise self.error(f"{fn.name!r} is a builtin", fn)
            self.signatures[fn.name] = _Signature(fn)
        main = self.signatures.get("main")
        if main is not None and main.param_is_array:
            first = self.program.function("main")
            raise self.error("main() must take no parameters", first)


class _FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, pl: _ProgramLowerer, decl: ast.FuncDecl):
        self.pl = pl
        self.decl = decl
        self.fn = FunctionIR(decl.name, decl.returns_value)
        self.fn.line, self.fn.col = decl.line, decl.col
        self.scopes: list[dict[str, ins.Slot]] = [{}]
        self.next_offset = 1  # offset 0 is the return-value cell
        self.next_ref = 0
        self.next_reg = 0
        self.current: BasicBlock | None = None
        #: break targets — one per open loop *or* switch.
        self.break_targets: list[int] = []
        #: continue targets — one per open loop (switches are skipped).
        self.continue_targets: list[int] = []
        #: goto support: label name -> block, plus definition tracking.
        self.label_blocks: dict[str, BasicBlock] = {}
        self.defined_labels: set[str] = set()
        self.pending_gotos: list[ast.Goto] = []

    # -- plumbing -------------------------------------------------------

    def error(self, message: str, node: ast.Node) -> SemanticError:
        return self.pl.error(message, node)

    def new_reg(self) -> int:
        reg = self.next_reg
        self.next_reg += 1
        return reg

    def new_block(self, label: str) -> BasicBlock:
        block = BasicBlock(self.pl.new_block_id(),
                           f"{self.fn.name}.{label}")
        self.fn.blocks.append(block)
        return block

    def emit(self, instr: ins.Instr) -> ins.Instr:
        if self.current is None:
            # Unreachable code after break/continue/return still gets
            # lowered; it lands in a predecessor-less block.
            self.current = self.new_block("dead")
        self.current.instrs.append(instr)
        return instr

    def terminate(self, instr: ins.Instr) -> None:
        self.emit(instr)
        self.current = None

    # -- symbols ----------------------------------------------------------

    def declare_local(self, node: ast.Node, name: str, size: int,
                      is_array: bool,
                      is_pointer: bool = False) -> ins.LocalSlot:
        if name in self.scopes[-1]:
            raise self.error(f"duplicate declaration of {name!r}", node)
        slot = ins.LocalSlot(self.next_offset, size, name, is_array,
                             is_pointer)
        self.next_offset += size
        self.scopes[-1][name] = slot
        self.fn.locals_layout.append(
            VarInfo(name, slot.offset, size, is_array))
        return slot

    def lookup(self, node: ast.Node, name: str) -> ins.Slot:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        slot = self.pl.global_slots.get(name)
        if slot is not None:
            return slot
        raise self.error(f"undeclared variable {name!r}", node)

    # -- entry point -----------------------------------------------------

    def lower(self) -> FunctionIR:
        entry = self.new_block("entry")
        self.current = entry
        for param in self.decl.params:
            if param.name in self.scopes[-1]:
                raise self.error(f"duplicate parameter {param.name!r}", param)
            if param.is_array:
                slot: ins.Slot = ins.RefSlot(self.next_ref, param.name)
                self.next_ref += 1
            else:
                slot = ins.LocalSlot(self.next_offset, 1, param.name, False,
                                     param.is_pointer)
                self.fn.locals_layout.append(
                    VarInfo(param.name, slot.offset, 1, False))
                self.next_offset += 1
            self.scopes[-1][param.name] = slot
            self.fn.params.append(ParamInfo(param.name, param.is_array, slot))
        for stmt in self.decl.body.stmts:
            self.lower_stmt(stmt)
        if self.current is not None:
            self._emit_implicit_return()
        for goto in self.pending_gotos:
            if goto.name not in self.defined_labels:
                raise self.error(f"goto to undefined label {goto.name!r}",
                                 goto)
        self.fn.frame_size = self.next_offset
        self.fn.num_refs = self.next_ref
        self.fn.num_regs = self.next_reg
        return self.fn

    def _emit_implicit_return(self) -> None:
        line, col = self.decl.line, self.decl.col
        if self.decl.returns_value:
            reg = self.new_reg()
            self.emit(ins.Const(line, col, reg, 0))
            self.terminate(ins.Ret(line, col, reg))
        else:
            self.terminate(ins.Ret(line, col, None))

    # -- statements --------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.scopes.append({})
            for inner in stmt.stmts:
                self.lower_stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.VarDeclStmt):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.break_targets:
                raise self.error("break outside a loop or switch", stmt)
            self.terminate(ins.Jump(stmt.line, stmt.col,
                                    self.break_targets[-1]))
        elif isinstance(stmt, ast.Continue):
            if not self.continue_targets:
                raise self.error("continue outside a loop", stmt)
            self.terminate(ins.Jump(stmt.line, stmt.col,
                                    self.continue_targets[-1]))
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Label):
            self._lower_label(stmt)
        elif isinstance(stmt, ast.Goto):
            self._lower_goto(stmt)
        else:
            raise self.error(f"cannot lower {type(stmt).__name__}", stmt)

    def _lower_var_decl(self, stmt: ast.VarDeclStmt) -> None:
        is_array = stmt.size is not None
        size = 1
        if is_array:
            size = _const_eval(stmt.size, self.pl)
            if size <= 0:
                raise self.error("array size must be positive", stmt)
            if stmt.init is not None:
                raise self.error("array initializers are not supported", stmt)
        slot = self.declare_local(stmt, stmt.name, size, is_array,
                                  stmt.is_pointer)
        if stmt.init is not None:
            value = self.lower_expr_value(stmt.init)
            self.emit(ins.Store(stmt.line, stmt.col, slot, None, value))

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self.lower_expr_value(stmt.cond)
        then_b = self.new_block("if.then")
        else_b = self.new_block("if.else") if stmt.els is not None else None
        join = self.new_block("if.join")
        target_else = else_b.id if else_b is not None else join.id
        self.terminate(ins.Branch(stmt.line, stmt.col, cond,
                                  then_b.id, target_else, hint="if"))
        self.current = then_b
        self.lower_stmt(stmt.then)
        if self.current is not None:
            self.terminate(ins.Jump(stmt.line, stmt.col, join.id))
        if else_b is not None:
            self.current = else_b
            self.lower_stmt(stmt.els)
            if self.current is not None:
                self.terminate(ins.Jump(stmt.line, stmt.col, join.id))
        self.current = join

    def _lower_while(self, stmt: ast.While) -> None:
        header = self.new_block("while.head")
        body_b = self.new_block("while.body")
        exit_b = self.new_block("while.exit")
        self.terminate(ins.Jump(stmt.line, stmt.col, header.id))
        self.current = header
        cond = self.lower_expr_value(stmt.cond)
        self.terminate(ins.Branch(stmt.line, stmt.col, cond,
                                  body_b.id, exit_b.id, hint="while"))
        self.current = body_b
        self.break_targets.append(exit_b.id)
        self.continue_targets.append(header.id)
        self.lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.current is not None:
            self.terminate(ins.Jump(stmt.line, stmt.col, header.id))
        self.current = exit_b

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body_b = self.new_block("do.body")
        cond_b = self.new_block("do.cond")
        exit_b = self.new_block("do.exit")
        self.terminate(ins.Jump(stmt.line, stmt.col, body_b.id))
        self.current = body_b
        self.break_targets.append(exit_b.id)
        self.continue_targets.append(cond_b.id)
        self.lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.current is not None:
            self.terminate(ins.Jump(stmt.line, stmt.col, cond_b.id))
        self.current = cond_b
        cond = self.lower_expr_value(stmt.cond)
        self.terminate(ins.Branch(stmt.line, stmt.col, cond,
                                  body_b.id, exit_b.id, hint="dowhile"))
        self.current = exit_b

    def _lower_for(self, stmt: ast.For) -> None:
        self.scopes.append({})  # C99 scope for the init declaration
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.new_block("for.head")
        body_b = self.new_block("for.body")
        step_b = self.new_block("for.step")
        exit_b = self.new_block("for.exit")
        self.terminate(ins.Jump(stmt.line, stmt.col, header.id))
        self.current = header
        if stmt.cond is not None:
            cond = self.lower_expr_value(stmt.cond)
        else:
            cond = self.new_reg()
            self.emit(ins.Const(stmt.line, stmt.col, cond, 1))
        self.terminate(ins.Branch(stmt.line, stmt.col, cond,
                                  body_b.id, exit_b.id, hint="for"))
        self.current = body_b
        self.break_targets.append(exit_b.id)
        self.continue_targets.append(step_b.id)
        self.lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.current is not None:
            self.terminate(ins.Jump(stmt.line, stmt.col, step_b.id))
        self.current = step_b
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self.terminate(ins.Jump(stmt.line, stmt.col, header.id))
        self.current = exit_b
        self.scopes.pop()

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is not None:
            if not self.decl.returns_value:
                raise self.error("void function returns a value", stmt)
            reg = self.lower_expr_value(stmt.value)
            self.terminate(ins.Ret(stmt.line, stmt.col, reg))
        else:
            if self.decl.returns_value:
                raise self.error("non-void function returns no value", stmt)
            self.terminate(ins.Ret(stmt.line, stmt.col, None))

    def _lower_switch(self, stmt: ast.Switch) -> None:
        """Lower ``switch`` to a cascade of equality branches.

        Each test is a profiled non-loop predicate (hint ``switch``).
        Arm bodies are laid out in source order with explicit fall-through
        jumps, so C semantics — including a ``default:`` in the middle —
        are preserved. ``break`` jumps to the join block.
        """
        scrut = self.lower_expr_value(stmt.scrutinee)
        join = self.new_block("switch.join")
        bodies = [self.new_block(f"switch.case{i}")
                  for i in range(len(stmt.cases))]
        default_index = None
        for i, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = i
        fallback = (bodies[default_index].id if default_index is not None
                    else join.id)
        tested = [(i, case) for i, case in enumerate(stmt.cases)
                  if case.value is not None]
        seen_values: set[int] = set()
        for k, (i, case) in enumerate(tested):
            value = _const_eval(case.value, self.pl)
            if value in seen_values:
                raise self.error(f"duplicate case value {value}", case)
            seen_values.add(value)
            const_reg = self.new_reg()
            self.emit(ins.Const(case.line, case.col, const_reg, value))
            cmp_reg = self.new_reg()
            self.emit(ins.BinOp(case.line, case.col, cmp_reg, "==",
                                scrut, const_reg))
            if k + 1 < len(tested):
                next_test = self.new_block(f"switch.test{k + 1}")
                self.terminate(ins.Branch(case.line, case.col, cmp_reg,
                                          bodies[i].id, next_test.id,
                                          hint="switch"))
                self.current = next_test
            else:
                self.terminate(ins.Branch(case.line, case.col, cmp_reg,
                                          bodies[i].id, fallback,
                                          hint="switch"))
        if not tested:
            self.terminate(ins.Jump(stmt.line, stmt.col, fallback))
        self.break_targets.append(join.id)
        for i, case in enumerate(stmt.cases):
            self.current = bodies[i]
            self.scopes.append({})
            for arm_stmt in case.stmts:
                self.lower_stmt(arm_stmt)
            self.scopes.pop()
            if self.current is not None:
                target = bodies[i + 1].id if i + 1 < len(bodies) else join.id
                self.terminate(ins.Jump(case.line, case.col, target))
        self.break_targets.pop()
        self.current = join

    def _label_block(self, name: str) -> BasicBlock:
        block = self.label_blocks.get(name)
        if block is None:
            block = self.new_block(f"label.{name}")
            self.label_blocks[name] = block
        return block

    def _lower_label(self, stmt: ast.Label) -> None:
        if stmt.name in self.defined_labels:
            raise self.error(f"duplicate label {stmt.name!r}", stmt)
        self.defined_labels.add(stmt.name)
        block = self._label_block(stmt.name)
        if self.current is not None:
            self.terminate(ins.Jump(stmt.line, stmt.col, block.id))
        self.current = block

    def _lower_goto(self, stmt: ast.Goto) -> None:
        self.pending_gotos.append(stmt)
        self.terminate(ins.Jump(stmt.line, stmt.col,
                                self._label_block(stmt.name).id))

    # -- expressions -------------------------------------------------------

    def lower_expr_value(self, expr: ast.Expr) -> int:
        reg = self.lower_expr(expr)
        if reg is None:
            raise self.error("void value used in an expression", expr)
        return reg

    def lower_expr(self, expr: ast.Expr) -> int | None:
        """Lower ``expr``; returns the result register, or None for calls
        to void functions/builtins."""
        if isinstance(expr, ast.IntLit):
            reg = self.new_reg()
            self.emit(ins.Const(expr.line, expr.col, reg, expr.value))
            return reg
        if isinstance(expr, ast.VarRef):
            slot = self.lookup(expr, expr.name)
            if isinstance(slot, ins.RefSlot) or slot.is_array:
                # C array decay: an array name in value position is its
                # base address (so `p = buf;` and pointer arithmetic on
                # array names behave as in C).
                reg = self.new_reg()
                self.emit(ins.AddrOf(expr.line, expr.col, reg, slot))
                return reg
            reg = self.new_reg()
            self.emit(ins.Load(expr.line, expr.col, reg, slot, None))
            return reg
        if isinstance(expr, ast.Index):
            slot = self.lookup(expr, expr.name)
            if self._is_pointer_slot(slot):
                addr = self._pointer_element_addr(expr, slot)
                reg = self.new_reg()
                self.emit(ins.LoadInd(expr.line, expr.col, reg, addr))
                return reg
            self._check_indexable(expr, slot)
            index = self.lower_expr_value(expr.index)
            reg = self.new_reg()
            self.emit(ins.Load(expr.line, expr.col, reg, slot, index))
            return reg
        if isinstance(expr, ast.Deref):
            addr = self.lower_expr_value(expr.operand)
            reg = self.new_reg()
            self.emit(ins.LoadInd(expr.line, expr.col, reg, addr))
            return reg
        if isinstance(expr, ast.AddrOf):
            return self._lower_addr_of(expr)
        if isinstance(expr, ast.BinOp):
            lhs = self.lower_expr_value(expr.lhs)
            rhs = self.lower_expr_value(expr.rhs)
            reg = self.new_reg()
            self.emit(ins.BinOp(expr.line, expr.col, reg, expr.op, lhs, rhs))
            return reg
        if isinstance(expr, ast.UnOp):
            src = self.lower_expr_value(expr.operand)
            reg = self.new_reg()
            self.emit(ins.UnOp(expr.line, expr.col, reg, expr.op, src))
            return reg
        if isinstance(expr, ast.LogicalOp):
            return self._lower_logical(expr)
        if isinstance(expr, ast.CondExpr):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.IncDec):
            return self._lower_incdec(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        raise self.error(f"cannot lower {type(expr).__name__}", expr)

    def _check_indexable(self, expr: ast.Index, slot: ins.Slot) -> None:
        if isinstance(slot, ins.RefSlot):
            return
        if not slot.is_array:
            raise self.error(f"scalar {expr.name!r} cannot be indexed", expr)

    def _is_pointer_slot(self, slot: ins.Slot) -> bool:
        """True for declared ``int *p`` names (not arrays, not refs)."""
        return (not isinstance(slot, ins.RefSlot) and not slot.is_array
                and slot.is_pointer)

    def _pointer_element_addr(self, expr: ast.Index, slot: ins.Slot) -> int:
        """Lower ``p[i]`` address computation: read ``p``, add ``i``.

        The read of the pointer variable itself is a traced load — exactly
        what a compiled C program does, so dependences *on the pointer*
        (e.g. a pointer being rewired) are profiled distinctly from
        dependences on the pointed-to data.
        """
        base = self.new_reg()
        self.emit(ins.Load(expr.line, expr.col, base, slot, None))
        index = self.lower_expr_value(expr.index)
        addr = self.new_reg()
        self.emit(ins.BinOp(expr.line, expr.col, addr, "+", base, index))
        return addr

    def _lower_addr_of(self, expr: ast.AddrOf) -> int:
        operand = expr.operand
        if isinstance(operand, ast.Deref):
            # &*e is just e.
            return self.lower_expr_value(operand.operand)
        if isinstance(operand, ast.VarRef):
            slot = self.lookup(operand, operand.name)
            reg = self.new_reg()
            self.emit(ins.AddrOf(expr.line, expr.col, reg, slot))
            return reg
        if isinstance(operand, ast.Index):
            slot = self.lookup(operand, operand.name)
            if self._is_pointer_slot(slot):
                return self._pointer_element_addr(operand, slot)
            self._check_indexable(operand, slot)
            base = self.new_reg()
            self.emit(ins.AddrOf(expr.line, expr.col, base, slot))
            index = self.lower_expr_value(operand.index)
            addr = self.new_reg()
            self.emit(ins.BinOp(expr.line, expr.col, addr, "+", base, index))
            return addr
        raise self.error("'&' needs a variable, array element, or "
                         "dereference", expr)

    def _lower_logical(self, expr: ast.LogicalOp) -> int:
        result = self.new_reg()
        lhs = self.lower_expr_value(expr.lhs)
        rhs_b = self.new_block("sc.rhs")
        short_b = self.new_block("sc.short")
        join = self.new_block("sc.join")
        if expr.op == "&&":
            self.terminate(ins.Branch(expr.line, expr.col, lhs,
                                      rhs_b.id, short_b.id, hint="logical"))
            short_value = 0
        else:
            self.terminate(ins.Branch(expr.line, expr.col, lhs,
                                      short_b.id, rhs_b.id, hint="logical"))
            short_value = 1
        self.current = rhs_b
        rhs = self.lower_expr_value(expr.rhs)
        self.emit(ins.UnOp(expr.line, expr.col, result, "tobool", rhs))
        self.terminate(ins.Jump(expr.line, expr.col, join.id))
        self.current = short_b
        self.emit(ins.Const(expr.line, expr.col, result, short_value))
        self.terminate(ins.Jump(expr.line, expr.col, join.id))
        self.current = join
        return result

    def _lower_ternary(self, expr: ast.CondExpr) -> int:
        result = self.new_reg()
        cond = self.lower_expr_value(expr.cond)
        then_b = self.new_block("sel.then")
        else_b = self.new_block("sel.else")
        join = self.new_block("sel.join")
        self.terminate(ins.Branch(expr.line, expr.col, cond,
                                  then_b.id, else_b.id, hint="ternary"))
        self.current = then_b
        value = self.lower_expr_value(expr.then)
        self.emit(ins.Move(expr.line, expr.col, result, value))
        self.terminate(ins.Jump(expr.line, expr.col, join.id))
        self.current = else_b
        value = self.lower_expr_value(expr.els)
        self.emit(ins.Move(expr.line, expr.col, result, value))
        self.terminate(ins.Jump(expr.line, expr.col, join.id))
        self.current = join
        return result

    def _resolve_target(self, target: ast.Expr
                        ) -> tuple[ins.Slot, int | None] | int:
        """Resolve an lvalue, evaluating address subexpressions exactly
        once.

        Returns ``(slot, index register)`` for direct targets, or a bare
        register holding the word address for indirect targets (``*e``
        and ``p[i]`` through a declared pointer).
        """
        if isinstance(target, ast.VarRef):
            slot = self.lookup(target, target.name)
            if isinstance(slot, ins.RefSlot) or slot.is_array:
                raise self.error(
                    f"cannot assign to array {target.name!r}", target)
            return slot, None
        if isinstance(target, ast.Index):
            slot = self.lookup(target, target.name)
            if self._is_pointer_slot(slot):
                return self._pointer_element_addr(target, slot)
            self._check_indexable(target, slot)
            return slot, self.lower_expr_value(target.index)
        if isinstance(target, ast.Deref):
            return self.lower_expr_value(target.operand)
        raise self.error("invalid assignment target", target)

    def _target_load(self, node: ast.Expr, resolved) -> int:
        reg = self.new_reg()
        if isinstance(resolved, tuple):
            slot, index = resolved
            self.emit(ins.Load(node.line, node.col, reg, slot, index))
        else:
            self.emit(ins.LoadInd(node.line, node.col, reg, resolved))
        return reg

    def _target_store(self, node: ast.Expr, resolved, value: int) -> None:
        if isinstance(resolved, tuple):
            slot, index = resolved
            self.emit(ins.Store(node.line, node.col, slot, index, value))
        else:
            self.emit(ins.StoreInd(node.line, node.col, resolved, value))

    def _lower_assign(self, expr: ast.Assign) -> int:
        resolved = self._resolve_target(expr.target)
        if expr.op is None:
            value = self.lower_expr_value(expr.value)
            self._target_store(expr, resolved, value)
            return value
        old = self._target_load(expr, resolved)
        value = self.lower_expr_value(expr.value)
        result = self.new_reg()
        self.emit(ins.BinOp(expr.line, expr.col, result, expr.op, old, value))
        self._target_store(expr, resolved, result)
        return result

    def _lower_incdec(self, expr: ast.IncDec) -> int:
        resolved = self._resolve_target(expr.target)
        old = self._target_load(expr, resolved)
        one = self.new_reg()
        self.emit(ins.Const(expr.line, expr.col, one, 1))
        new = self.new_reg()
        op = "+" if expr.op == "++" else "-"
        self.emit(ins.BinOp(expr.line, expr.col, new, op, old, one))
        self._target_store(expr, resolved, new)
        return new if expr.is_prefix else old

    def _lower_call(self, expr: ast.Call) -> int | None:
        if expr.name == "print":
            regs = [self.lower_expr_value(a) for a in expr.args]
            self.emit(ins.Print(expr.line, expr.col, regs))
            return None
        if expr.name == "assert":
            if len(expr.args) != 1:
                raise self.error("assert takes exactly one argument", expr)
            reg = self.lower_expr_value(expr.args[0])
            self.emit(ins.AssertOp(expr.line, expr.col, reg))
            return None
        if expr.name == "malloc":
            if len(expr.args) != 1:
                raise self.error("malloc takes exactly one argument (word "
                                 "count)", expr)
            size = self.lower_expr_value(expr.args[0])
            reg = self.new_reg()
            self.emit(ins.Alloc(expr.line, expr.col, reg, size))
            return reg
        if expr.name == "free":
            if len(expr.args) != 1:
                raise self.error("free takes exactly one argument", expr)
            reg = self.lower_expr_value(expr.args[0])
            self.emit(ins.FreeOp(expr.line, expr.col, reg))
            return None
        sig = self.pl.signatures.get(expr.name)
        if sig is None:
            raise self.error(f"unknown function {expr.name!r}", expr)
        if len(expr.args) != len(sig.param_is_array):
            raise self.error(
                f"{expr.name}() expects {len(sig.param_is_array)} "
                f"argument(s), got {len(expr.args)}", expr)
        arg_regs: list[int] = []
        for arg, is_array in zip(expr.args, sig.param_is_array):
            if is_array:
                arg_regs.append(self._lower_array_arg(arg, expr.name))
            else:
                arg_regs.append(self.lower_expr_value(arg))
        dst = self.new_reg() if sig.returns_value else None
        self.emit(ins.Call(expr.line, expr.col, dst, expr.name, arg_regs))
        return dst

    def _lower_array_arg(self, arg: ast.Expr, callee: str) -> int:
        """Lower an argument bound to an ``int a[]`` parameter.

        An array name decays to its base address; any other expression
        (``&a[i]``, a pointer variable, ``malloc(n)``) is passed as a
        word address — the interior-pointer pattern of the paper's gzip
        example, ``flush_block(&window[...])``.
        """
        if isinstance(arg, ast.VarRef):
            slot = self.lookup(arg, arg.name)
            if isinstance(slot, ins.RefSlot) or slot.is_array:
                reg = self.new_reg()
                self.emit(ins.AddrOf(arg.line, arg.col, reg, slot))
                return reg
            if not slot.is_pointer:
                raise self.error(
                    f"{arg.name!r} is a scalar but {callee}() wants an "
                    "array or pointer", arg)
        return self.lower_expr_value(arg)


def _const_eval(expr: ast.Expr, pl: _ProgramLowerer) -> int:
    """Evaluate a compile-time constant expression (sizes, global inits)
    with the interpreter's arithmetic (:mod:`repro.ir.arith`)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.UnOp) and expr.op in arith.UNARY:
        return arith.UNARY[expr.op](_const_eval(expr.operand, pl))
    if isinstance(expr, ast.BinOp) and expr.op in arith.BINARY:
        lhs = _const_eval(expr.lhs, pl)
        rhs = _const_eval(expr.rhs, pl)
        if rhs == 0 and expr.op in ("/", "%"):
            raise pl.error("division by zero in a constant expression",
                           expr)
        return arith.BINARY[expr.op](lhs, rhs)
    raise pl.error("not a constant expression", expr)
