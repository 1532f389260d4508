"""The execution-indexing stack (paper §III-A, Fig. 5).

The stack state is the index of the current execution point; nodes are
pushed at procedure entries and predicates and popped at construct ends.
This implementation generalizes the paper's five rules so that compiled
control flow — multi-branch loop conditions (``while (a && b)``),
``break``/``continue`` past unclosed conditionals, early ``return`` —
is handled uniformly:

* rule 1/2 (procedures): push at entry; at exit pop every entry down to
  and including the procedure's own node (predicates whose post-dominator
  is the function exit close here);
* rule 3 (non-loop predicate): push, unless the branch jumps straight to
  the predicate's immediate post-dominator (the construct would be empty
  — this keeps instance counts meaningful, e.g. a not-taken ``if``);
* rule 4 (loop predicate): before pushing, pop every predicate entry
  whose block lies in the loop's body — the previous iteration's entry
  and anything it left open — making iterations siblings; push only if
  the branch actually enters the loop body (the final false test does
  not create an empty iteration);
* rule 5 (construct end): on entry to block ``B``, pop predicate entries
  whose *region* (blocks reachable without crossing their post-dominator)
  does not contain ``B``. When ``B`` is exactly the post-dominator this
  is the paper's rule; the region test also closes constructs abandoned
  through ``break``.

Pops stop at procedure nodes, so entries of the caller (or of an outer
recursive activation) are never touched.
"""

from __future__ import annotations

from repro.analysis.constructs import ConstructKind, ConstructTable
from repro.core.node import ConstructNode
from repro.core.pool import ConstructPool
from repro.core.profile_data import ProfileStore


class IndexingStack:
    """Maintains the current execution index and the index tree."""

    def __init__(self, table: ConstructTable, pool: ConstructPool,
                 store: ProfileStore):
        self.table = table
        self.pool = pool
        self.store = store
        self.stack: list[ConstructNode] = []
        self.max_depth = 0
        #: Optional observers called as (static, timestamp) on push and
        #: (node, timestamp) on pop, for whatever rides the stack:
        #: ``TaskGraphTracer`` and the ``BoundaryRecorder`` that
        #: ``whatif`` and ``extract_task_graphs`` attach.
        self.push_observer = None
        self.pop_observer = None

    # -- node plumbing ---------------------------------------------------------

    def top(self) -> ConstructNode | None:
        return self.stack[-1] if self.stack else None

    def depth(self) -> int:
        return len(self.stack)

    def _push(self, static, timestamp: int) -> ConstructNode:
        node = self.pool.acquire(timestamp)
        node.static = static
        node.t_enter = timestamp
        node.t_exit = 0  # reset on entry (Table I line 10)
        node.parent = self.stack[-1] if self.stack else None
        self.stack.append(node)
        if len(self.stack) > self.max_depth:
            self.max_depth = len(self.stack)
        self.store.on_construct_enter(static)
        if self.push_observer is not None:
            self.push_observer(static, timestamp)
        return node

    def _pop(self, timestamp: int) -> ConstructNode:
        node = self.stack.pop()
        node.t_exit = timestamp
        self.store.on_construct_complete(node)
        if self.pop_observer is not None:
            self.pop_observer(node, timestamp)
        self.pool.release(node)
        return node

    # -- instrumentation rules ---------------------------------------------------

    def enter_procedure(self, entry_pc: int, timestamp: int) -> None:
        """Rule 1."""
        self._push(self.table.by_pc[entry_pc], timestamp)

    def exit_procedure(self, timestamp: int) -> None:
        """Rule 2, generalized: close every construct still open in this
        activation (early returns leave predicates on the stack)."""
        while self.stack:
            node = self._pop(timestamp)
            if node.static.kind is ConstructKind.PROCEDURE:
                return
        raise RuntimeError("procedure exit with no procedure on the stack")

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        """Rules 3 and 4."""
        static = self.table.by_pc[pc]
        loop_body = static.loop_body
        if loop_body is not None:
            # Rule 4: close the previous iteration (and whatever it left
            # open) so iterations become siblings, then start the next one
            # if the branch actually re-enters the body.
            stack = self.stack
            while stack:
                node = stack[-1]
                node_static = node.static
                if (node_static.kind is ConstructKind.PROCEDURE
                        or node_static.block_id not in loop_body):
                    break
                self._pop(timestamp)
            if target_block in loop_body:
                self._push(static, timestamp)
        else:
            # Rule 3: a branch straight to the post-dominator means the
            # construct body is empty — no instance.
            if target_block != static.ipostdom_block:
                self._push(static, timestamp)

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        """Rule 5, generalized to regions."""
        stack = self.stack
        while stack:
            node = stack[-1]
            static = node.static
            if static.kind is ConstructKind.PROCEDURE:
                return
            if block_id in static.region:
                return
            self._pop(timestamp)

    # -- diagnostics ------------------------------------------------------------

    def index_of_top(self) -> list[str]:
        """The execution index of the current point (root to leaf), as
        construct names — Fig. 4's bracket notation."""
        return [node.static.name for node in self.stack]
