"""Materialized execution index trees (the paper's Fig. 4).

The profiler never stores the whole index tree — that is the point of
the construct pool — but for understanding a program (and for teaching
the technique) the full tree of a *small* run is exactly the right
picture: procedures and predicates are internal nodes, loop iterations
are siblings, and the path from the root to any node is that node's
execution index.

:class:`IndexTreeRecorder` replays the pushes and pops of the dep
block engine (:class:`~repro.core.blockdep.BlockDependence`'s
recorder), so the recorded tree reflects precisely what the profiling
rules (Fig. 5) did — including iteration-sibling placement, constructs
closed early by ``break``/``goto``, and recursion. A node budget keeps
accidental use on large runs from exhausting memory; the tree is
marked truncated instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.constructs import StaticConstruct
from repro.core.report import ProfileReport
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source

#: Default cap on recorded nodes; beyond it the tree is truncated.
DEFAULT_MAX_NODES = 100_000


@dataclass
class RecordedNode:
    """One construct instance, permanently recorded."""

    static: StaticConstruct
    t_enter: int
    t_exit: int = 0
    children: list["RecordedNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.static.name

    @property
    def duration(self) -> int:
        return self.t_exit - self.t_enter

    def walk(self):
        """Yield (depth, node) in preorder."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))


@dataclass
class IndexTree:
    """The recorded tree of one run, rooted at ``main``."""

    root: RecordedNode
    node_count: int
    truncated: bool

    def paths(self):
        """Yield the execution index (root-to-node name list, Fig. 4's
        bracket notation) of every node, preorder."""
        def visit(node, prefix):
            index = prefix + [node.name]
            yield node, index
            for child in node.children:
                yield from visit(child, index)
        yield from visit(self.root, [])

    def index_of_first(self, name: str) -> list[str] | None:
        """The index of the first instance of the named construct."""
        for node, index in self.paths():
            if node.name == name:
                return index
        return None

    def instances_of(self, name: str) -> list[RecordedNode]:
        return [node for node, _ in self.paths() if node.name == name]

    def render(self, max_depth: int | None = None,
               max_children: int = 12) -> str:
        """ASCII tree in the style of Fig. 4's index trees."""
        lines: list[str] = []
        self._render_node(self.root, "", "", lines, max_depth,
                          max_children)
        if self.truncated:
            lines.append(f"... truncated at {self.node_count} nodes")
        return "\n".join(lines)

    def _render_node(self, node: RecordedNode, lead: str, branch: str,
                     lines: list[str], max_depth: int | None,
                     max_children: int) -> None:
        lines.append(f"{lead}{branch}{node.name} "
                     f"[{node.t_enter}, {node.t_exit}]")
        child_lead = lead + ("    " if branch in ("", "`- ")
                             else "|   ")
        if max_depth is not None and max_depth <= 0:
            if node.children:
                lines.append(f"{child_lead}...")
            return
        shown = node.children[:max_children]
        hidden = len(node.children) - len(shown)
        next_depth = None if max_depth is None else max_depth - 1
        for i, child in enumerate(shown):
            last = i == len(shown) - 1 and hidden == 0
            self._render_node(child, child_lead,
                              "`- " if last else "|- ",
                              lines, next_depth, max_children)
        if hidden:
            lines.append(f"{child_lead}`- ... {hidden} more sibling(s)")


class IndexTreeRecorder:
    """Builds the tree from the block engine's pushes and pops."""

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES):
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.node_count = 0
        self.truncated = False
        self.root: RecordedNode | None = None
        self._stack: list[RecordedNode | None] = []

    def record_block(self, rows, block, etypes, a, b, bases) -> None:
        """One block's pushes and pops (``block``, a
        :class:`~repro.core.instances.BlockRows` of ``rows``), in
        stream order."""
        by_pc, pcs = rows.constructs.by_pc, rows.pc.tolist()
        for row, timestamp in zip(block.row.tolist(), block.t.tolist()):
            if row >= 0:
                self.on_push(by_pc[pcs[row]], timestamp)
            else:
                self.on_pop(timestamp)

    def on_push(self, static: StaticConstruct, timestamp: int) -> None:
        if self.node_count >= self.max_nodes:
            self.truncated = True
            self._stack.append(None)  # placeholder to keep pops paired
            return
        node = RecordedNode(static, timestamp)
        self.node_count += 1
        parent = next((n for n in reversed(self._stack) if n is not None),
                      None)
        if parent is not None:
            parent.children.append(node)
        elif self.root is None:
            self.root = node
        self._stack.append(node)

    def on_pop(self, timestamp: int) -> None:
        recorded = self._stack.pop()
        if recorded is not None:
            recorded.t_exit = timestamp

    def tree(self) -> IndexTree:
        return IndexTree(self.root, self.node_count, self.truncated)


def record_index_tree(source: str | None = None, *,
                      program: ProgramIR | None = None,
                      max_nodes: int = DEFAULT_MAX_NODES
                      ) -> tuple[IndexTree, ProfileReport]:
    """Run a program recording its full execution index tree.

    One live ``dep`` run whose block engine logs to an
    :class:`IndexTreeRecorder`. Returns ``(tree, report)`` — the report
    is the run's ordinary profile, so a single run yields both views.
    """
    recorder = IndexTreeRecorder(max_nodes)
    if program is None:
        if source is None:
            raise ValueError("need source or program")
        program = compile_source(source)
    # Imported here: the analyses import the core package.
    from repro.analyses.builtin import DependenceAnalysis
    from repro.trace.live import run_live

    dep = DependenceAnalysis()
    dep.recorder = recorder
    report = dep.report(run_live(program, [dep]))
    return recorder.tree(), report
