"""Index-tree recorder tests — the paper's Fig. 4 examples, literally,
and the recorded tree against the per-event indexing stack's."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constructs import ConstructTable
from repro.core.treedump import DEFAULT_MAX_NODES, record_index_tree
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.trace import writer
from tests.core.reference import AlchemistTracer
from tests.core.test_random_programs import (STEP_CAP, _loop_programs,
                                             _programs)


class TestFig4Examples:
    def test_example_a_procedure_nesting(self):
        """Fig. 4(a): B nested in A nested in (here) main; the index of
        a point inside B is [main, A, B]."""
        tree, _ = record_index_tree("""
        int g;
        void B() { g = 2; }
        void A() { g = 1; B(); }
        int main() { A(); return 0; }
        """)
        assert tree.index_of_first("B") == ["main", "A", "B"]
        a_nodes = tree.instances_of("A")
        assert len(a_nodes) == 1
        assert [c.name for c in a_nodes[0].children] == ["B"]

    def test_example_b_conditional_nesting(self):
        """Fig. 4(b): construct 4 is nested within construct 2, both in
        C — and the predicate itself belongs to the *enclosing*
        construct, not to the one it leads."""
        tree, _ = record_index_tree("""
        int g;
        void C(int p, int q) {
            if (p) {
                g = 3;
                if (q) { g = 4; }
            }
        }
        int main() { C(1, 1); return 0; }
        """)
        c_nodes = tree.instances_of("C")
        assert len(c_nodes) == 1
        outer_ifs = [c for c in c_nodes[0].children
                     if c.name.startswith("if")]
        assert len(outer_ifs) == 1
        inner_ifs = [c for c in outer_ifs[0].children
                     if c.name.startswith("if")]
        assert len(inner_ifs) == 1
        index = tree.index_of_first(inner_ifs[0].name)
        assert index[0] == "main" and index[1] == "C"

    def test_example_c_loop_iterations_are_siblings(self):
        """Fig. 4(c): the two iterations of the inner loop are siblings
        nested in one iteration of the outer loop; iterations of the
        outer loop are siblings nested in D."""
        tree, _ = record_index_tree("""
        int g;
        void D() {
            int i;
            int j;
            for (i = 0; i < 2; i++) {
                g += i;
                for (j = 0; j < 2; j++) { g += j; }
            }
        }
        int main() { D(); return 0; }
        """)
        d_nodes = tree.instances_of("D")
        assert len(d_nodes) == 1
        outer_iters = [c for c in d_nodes[0].children
                       if c.name.startswith("loop")]
        assert len(outer_iters) == 2  # iterations are siblings under D
        inner_of_first = [c for c in outer_iters[0].children
                          if c.name.startswith("loop")]
        assert len(inner_of_first) == 2  # inner iterations are siblings
        # The index of a point in the inner loop is [main, D, outer, inner].
        index = tree.index_of_first(inner_of_first[0].name)
        assert index[:2] == ["main", "D"]
        assert len(index) == 4


class TestTreeShape:
    def test_recursion_nests(self):
        tree, _ = record_index_tree("""
        int depth_sum;
        int f(int n) {
            depth_sum += n;
            if (n == 0) { return 0; }
            return f(n - 1);
        }
        int main() { return f(3); }
        """)
        f_nodes = tree.instances_of("f")
        assert len(f_nodes) == 4
        # Each activation is a child chain: f -> (if ->) f.
        top = f_nodes[0]
        descendants = [n for _, n in top.walk() if n.name == "f"]
        assert len(descendants) == 4  # itself + 3 nested activations

    def test_timestamps_nest(self):
        tree, _ = record_index_tree("""
        int g;
        void leaf() { g++; }
        int main() {
            int i;
            for (i = 0; i < 3; i++) { leaf(); }
            return 0;
        }
        """)
        for _, node in tree.root.walk():
            for child in node.children:
                assert node.t_enter <= child.t_enter
                assert child.t_exit <= node.t_exit or node.t_exit == 0

    def test_goto_loop_is_classified_as_loop_with_sibling_iterations(self):
        """A backward goto forms a natural loop in the CFG, so the
        `if (i < 3) goto top;` predicate is a *loop* predicate: its
        iterations are recorded as siblings (rule 4), exactly as for a
        `while` — hand-rolled goto loops are parallelization candidates
        too."""
        tree, _ = record_index_tree("""
        int g;
        int main() {
            int i = 0;
            top:
            g += i;
            i++;
            if (i < 3) { goto top; }
            return g;
        }
        """)
        loops = [n for n in tree.root.children
                 if n.name.startswith("loop")]
        assert len(loops) == 2  # two taken back edges -> two iterations
        assert all(not n.children for n in loops)

    def test_render_contains_structure(self):
        tree, _ = record_index_tree("""
        int g;
        void work() { g++; }
        int main() { work(); work(); return 0; }
        """)
        text = tree.render()
        assert "main" in text
        assert text.count("work") == 2
        assert "|-" in text or "`-" in text

    def test_render_depth_limit(self):
        tree, _ = record_index_tree("""
        int g;
        void inner() { g++; }
        void outer() { inner(); }
        int main() { outer(); return 0; }
        """)
        shallow = tree.render(max_depth=1)
        assert "outer" in shallow
        assert "inner" not in shallow

    def test_depth_cut_keeps_later_siblings_bar(self):
        """A depth-cut node's ``...`` sits under its children's lead,
        so the bar of its later siblings runs through it."""
        tree, _ = record_index_tree("""
        int g;
        void inner() { g++; }
        void outer() { inner(); }
        int main() { outer(); outer(); return 0; }
        """)
        lines = tree.render(max_depth=1).splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("    |- outer"))
        assert lines[first + 1] == "    |   ..."
        assert lines[first + 2].startswith("    `- outer")
        assert lines[first + 3] == "        ..."

    def test_truncation_budget(self):
        tree, _ = record_index_tree("""
        int g;
        int main() {
            int i;
            for (i = 0; i < 100; i++) { g += i; }
            return 0;
        }
        """, max_nodes=10)
        assert tree.truncated
        assert tree.node_count == 10
        assert "truncated" in tree.render()

    def test_profile_collected_alongside(self):
        tree, report = record_index_tree("""
        int g;
        void work() { g++; }
        int main() { work(); return g; }
        """)
        names = {p.static.name for p in report.store.profiles.values()}
        assert "work" in names
        assert report.exit_value == 1

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="max_nodes must be >= 1"):
            record_index_tree("int main() { return 0; }",
                              max_nodes=budget)

    def test_switch_cases_appear(self):
        tree, _ = record_index_tree("""
        int g;
        int main() {
            int i;
            for (i = 0; i < 3; i++) {
                switch (i) {
                    case 0: g += 1; break;
                    case 1: g += 2; break;
                    default: g += 3;
                }
            }
            return g;
        }
        """)
        switches = [n for _, n in tree.root.walk()
                    if n.name.startswith("switch")]
        assert switches


#: Recursion (with a return out of the predicate), a goto loop, and a
#: break and a continue that close a switch and loop iterations early.
FIXED = [
    """
    int g;
    int f(int n) {
        g += n;
        if (n < 2) { return n; }
        return f(n - 1) + f(n - 2);
    }
    int main() { print(f(5)); return 0; }
    """,
    """
    int g;
    int main() {
        int i = 0;
        top:
        g += i;
        i++;
        if (i < 4) { if (i % 2) { goto top; } g--; goto top; }
        return g;
    }
    """,
    """
    int g[8];
    int main() {
        int s = 0;
        for (int i = 0; i < 6; i++) {
            for (int j = 0; j < 5; j++) {
                if (j == i) { break; }
                if (j % 2) { continue; }
                switch (j) { case 0: s += 1; break; default: s += g[j]; }
            }
            g[i] = s;
        }
        return s;
    }
    """,
]


def _frozen(node) -> tuple:
    """A recorded tree as nested ``(name, Tenter, Texit, children)``."""
    return (node.name, node.t_enter, node.t_exit,
            tuple(_frozen(child) for child in node.children))


def _reference_tree(program, max_nodes: int):
    """The tree the per-event ``IndexingStack``'s push and pop
    observers describe, frozen as :func:`_frozen`, with its node count
    and whether the budget cut it; ``None`` when the run does not
    complete."""
    tracer = AlchemistTracer(ConstructTable(program))
    recorded: list = []  # [name, Tenter, Texit, children] per node
    open_nodes: list = []  # a recorded node, or None past the budget
    cut = []

    def push(static, timestamp):
        if len(recorded) >= max_nodes:
            cut.append(True)
            open_nodes.append(None)
            return
        node = [static.name, timestamp, 0, []]
        parents = [n for n in open_nodes if n is not None]
        if parents:
            parents[-1][3].append(node)
        recorded.append(node)
        open_nodes.append(node)

    def pop(_node, timestamp):
        node = open_nodes.pop()
        if node is not None:
            node[2] = timestamp

    tracer.stack.push_observer = push
    tracer.stack.pop_observer = pop
    try:
        Interpreter(program, tracer, max_steps=STEP_CAP).run()
    except (MiniCRuntimeError, StepLimitExceeded):
        return None

    def freeze(node):
        return (node[0], node[1], node[2],
                tuple(freeze(child) for child in node[3]))

    return freeze(recorded[0]), len(recorded), bool(cut)


def _recorded(program, max_nodes: int, block_events: int) -> tuple:
    """``record_index_tree``'s tree, frozen, with its node count and
    truncation, from a live run cut into ``block_events``-event
    blocks."""
    with mock.patch.object(writer, "LIVE_BLOCK_EVENTS", block_events):
        tree, _ = record_index_tree(program=program, max_nodes=max_nodes)
    return _frozen(tree.root), tree.node_count, tree.truncated


class TestTreeParity:
    """``record_index_tree`` (the block engine's pushes and pops, across
    blocks and the instance table's compaction) builds the tree the
    per-event indexing stack's observers describe: names, timestamps,
    sibling order, node count and truncation."""

    @given(st.one_of(_programs.map(pretty_print), _loop_programs(),
                     st.sampled_from(FIXED)),
           st.one_of(st.integers(1, 40), st.just(DEFAULT_MAX_NODES)),
           st.sampled_from([7, 64, 8192]))
    @settings(max_examples=40, deadline=None)
    def test_same_tree_as_the_indexing_stack(self, source, max_nodes,
                                              block_events):
        try:
            program = compile_source(source)
        except SemanticError:
            return
        expected = _reference_tree(program, max_nodes)
        if expected is None:
            return
        assert _recorded(program, max_nodes, block_events) == expected

    @pytest.mark.parametrize("source", FIXED)
    @pytest.mark.parametrize("max_nodes", [1, 7, DEFAULT_MAX_NODES])
    @pytest.mark.parametrize("block_events", [7, 8192])
    def test_fixed_programs(self, source, max_nodes, block_events):
        program = compile_source(source)
        assert _recorded(program, max_nodes, block_events) \
            == _reference_tree(program, max_nodes)
