"""Execution indexing tests, including the paper's Fig. 4 examples.

The paper's index of an execution point is the path from the root of the
index tree to the point. We capture it by recording the indexing stack at
writes to a designated ``probe`` global.
"""

from repro.analysis.constructs import ConstructTable
from repro.ir.lowering import compile_source
from repro.runtime.interpreter import Interpreter
from tests.core.reference import AlchemistTracer


class IndexRecorder(AlchemistTracer):
    """Records the execution index at every write to global ``probe``."""

    def __init__(self, table, program):
        super().__init__(table)
        self.probe_addr = program.global_var("probe").offset
        self.indices: list[tuple[int, list[str]]] = []
        self.push_count = 0
        self.pop_count = 0
        self._orig_push = self.stack._push
        self._orig_pop = self.stack._pop
        self.stack._push = self._counting_push
        self.stack._pop = self._counting_pop

    def _counting_push(self, static, timestamp):
        self.push_count += 1
        return self._orig_push(static, timestamp)

    def _counting_pop(self, timestamp):
        self.pop_count += 1
        return self._orig_pop(timestamp)

    def on_write(self, addr, pc, timestamp):
        if addr == self.probe_addr:
            value = self.memory.read(addr) if self.memory else None
            self.indices.append((value, list(self.stack.index_of_top())))
        super().on_write(addr, pc, timestamp)


def record(source: str):
    program = compile_source(source)
    table = ConstructTable(program)
    tracer = IndexRecorder(table, program)
    Interpreter(program, tracer).run()
    return tracer


class TestFig4Examples:
    def test_a_procedure_nesting(self):
        """Fig. 4(a): statement inside B called from A has index [A, B]."""
        tracer = record("""
        int probe;
        void B() { probe = 2; }
        void A() { probe = 1; B(); }
        int main() { A(); return 0; }
        """)
        by_value = {v: idx for v, idx in tracer.indices}
        assert by_value[1] == ["main", "A"]
        assert by_value[2] == ["main", "A", "B"]

    def test_b_conditional_nesting(self):
        """Fig. 4(b): nested ifs produce nested index entries; the
        predicate itself is nested in the enclosing construct."""
        tracer = record("""
        int probe;
        void C(int a, int b) {
            if (a) {
                probe = 3;
                if (b)
                    probe = 4;
            }
        }
        int main() { C(1, 1); C(1, 0); C(0, 1); return 0; }
        """)
        indices = tracer.indices
        # First call: probe=3 inside outer if, probe=4 inside both.
        assert indices[0][0] == 3
        assert len(indices[0][1]) == 3  # [main, C, if]
        assert indices[1][0] == 4
        assert len(indices[1][1]) == 4  # [main, C, if, if]
        # Second call: only probe=3.
        assert indices[2][0] == 3 and len(indices) == 3

    def test_c_loop_iterations_are_siblings(self):
        """Fig. 4(c): the second instance of the inner statement has
        index [D, 2, 4]; iterations never nest."""
        tracer = record("""
        int probe;
        void D() {
            int i = 0;
            while (i < 2) {
                probe = 5;
                int j = 0;
                while (j < 2) {
                    probe = 4;
                    j++;
                }
                i++;
            }
        }
        int main() { D(); return 0; }
        """)
        for value, index in tracer.indices:
            if value == 5:
                assert len(index) == 3  # [main, D, outer-iteration]
            else:
                assert len(index) == 4  # [main, D, outer, inner]
        # Depth never grows with iteration count: all instances of the
        # same statement have identical index length.
        lengths = {v: {len(ix)} for v, ix in tracer.indices}
        assert all(len(s) == 1 for s in lengths.values())


class TestStackDiscipline:
    def test_balanced_push_pop(self):
        tracer = record("""
        int probe;
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) continue;
                if (i > 12) break;
                s += i;
                probe = s;
            }
            do { s--; } while (s > 40 && s % 2 == 0);
            return s;
        }
        int main() {
            int total = 0;
            for (int k = 0; k < 4; k++) total += work(k * 5);
            probe = total;
            return 0;
        }
        """)
        assert tracer.push_count == tracer.pop_count
        assert tracer.stack.depth() == 0

    def test_balanced_with_early_returns(self):
        tracer = record("""
        int probe;
        int f(int n) {
            while (1) {
                if (n > 5) return n;
                n++;
                probe = n;
            }
        }
        int main() { probe = f(0); return 0; }
        """)
        assert tracer.push_count == tracer.pop_count
        assert tracer.stack.depth() == 0

    def test_multibranch_loop_condition_does_not_leak(self):
        """`while (a && b)` compiles to two predicates; the stack must not
        grow with iteration count (the generalized rule 4 sweep)."""
        tracer = record("""
        int probe;
        int main() {
            int a = 1000;
            int b = 2000;
            while (a > 0 && b > 0) { a--; b -= 2; probe = a; }
            return a + b;
        }
        """)
        assert tracer.push_count == tracer.pop_count
        assert tracer.stack.max_depth <= 5

    def test_break_past_open_if_does_not_leak(self):
        tracer = record("""
        int probe;
        int main() {
            int leaked = 0;
            for (int round = 0; round < 50; round++) {
                for (int i = 0; i < 20; i++) {
                    if (i % 2 == 0) continue;
                    if (i == 7) break;
                    probe = i;
                }
                leaked++;
            }
            return leaked;
        }
        """)
        assert tracer.push_count == tracer.pop_count
        assert tracer.stack.max_depth <= 6

    def test_loop_instance_counts_match_iterations(self):
        tracer = record("""
        int probe;
        int main() {
            for (int i = 0; i < 7; i++) { probe = i; }
            int j = 0;
            while (j < 5) { j++; }
            do { j--; } while (j > 2);
            return j;
        }
        """)
        store = tracer.store
        by_name = {p.static.name: p for p in store.profiles.values()}
        loops = {name: p.instances for name, p in by_name.items()
                 if p.static.is_loop}
        # for: 7 iterations; while: 5. The do-while body runs 3 times but
        # its construct spans condition-to-condition (the paper's rule 4
        # pushes at the predicate, which bottom-tested loops reach at the
        # END of each body pass), giving N-1 = 2 instances.
        assert sorted(loops.values()) == [2, 5, 7]

    def test_untaken_if_creates_no_instance(self):
        tracer = record("""
        int probe;
        int main() {
            int x = 0;
            if (x) { probe = 1; }
            probe = 2;
            return 0;
        }
        """)
        conds = [p for p in tracer.store.profiles.values()
                 if p.static.kind.value == "cond"]
        assert conds == []

    def test_recursion_counts_outermost_only(self):
        tracer = record("""
        int probe;
        int fact(int n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
        }
        int main() { probe = fact(6); probe = fact(3); return 0; }
        """)
        fact = next(p for p in tracer.store.profiles.values()
                    if p.static.name == "fact")
        # Two top-level calls; inner recursive instances do not aggregate.
        assert fact.instances == 2
        total = tracer.final_time
        assert fact.total_duration < total
