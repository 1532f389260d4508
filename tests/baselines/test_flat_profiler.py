"""Flat-baseline tests: the §III 'traditional profiling' strawman."""

from repro.analyses.builtin import FlatDependenceAnalysis
from repro.core.profile_data import DepKind
from repro.runtime.interpreter import run_source
from repro.trace.live import TeeTracer
from tests.baselines.test_context_profiler import CASES, four_case_source


def profile_flat(source: str):
    """Run the registered ``flat`` analysis live over ``source``."""
    analysis = FlatDependenceAnalysis()
    run_source(source, tracer=TeeTracer([analysis]))
    return analysis.profile


class TestBasics:
    def test_raw_edge_recorded_with_min_tdep(self):
        profile = profile_flat("""
        int g;
        int main() {
            g = 1;
            int pad = 0;
            int a = g;
            print(a + pad);
            return 0;
        }
        """)
        raw = [e for e in profile.edges.values() if e.kind is DepKind.RAW]
        assert raw
        assert min(e.min_tdep for e in raw) >= 1

    def test_war_and_waw_recorded(self):
        profile = profile_flat("""
        int g;
        int main() {
            g = 1;
            int a = g;
            g = 2;
            print(a);
            return 0;
        }
        """)
        kinds = {e.kind for e in profile.edges.values()}
        assert DepKind.WAR in kinds
        assert DepKind.WAW in kinds

    def test_min_tdep_shrinks_with_repeats(self):
        profile = profile_flat("""
        int g;
        int sink;
        int main() {
            g = 5;
            int i;
            for (i = 0; i < 10; i++) { sink += g; }
            return 0;
        }
        """)
        raw = [e for e in profile.edges.values() if e.kind is DepKind.RAW]
        counts = {e.count for e in raw}
        assert max(counts) >= 10 or len(raw) > 1

    def test_frame_hygiene(self):
        profile = profile_flat("""
        int f(int n) { int local = n; return local * 2; }
        int sink;
        int main() {
            for (int i = 0; i < 6; i++) sink += f(i);
            return 0;
        }
        """)
        waw = [e for e in profile.edges_between("f", "f")
               if e.kind is DepKind.WAW]
        assert waw == []

    def test_edges_between_by_function(self):
        profile = profile_flat("""
        int g;
        void writer() { g = 7; }
        int reader() { return g; }
        int main() { writer(); return reader(); }
        """)
        edges = profile.edges_between("writer", "reader")
        assert any(e.kind is DepKind.RAW for e in edges)


class TestPaperArgument:
    """All four §III-B dependence placements collapse to one static
    signature under flat profiling — just as they do under context-
    sensitive profiling — while Alchemist separates all four (see
    TestContextPrecision in tests/core/test_profile_integration.py)."""

    def test_all_four_cases_have_identical_signatures(self):
        signatures = {}
        for name, (body_a, body_b) in CASES.items():
            profile = profile_flat(four_case_source(body_a, body_b))
            signatures[name] = profile.attribution_signature("A", "B")
        assert all(sig for sig in signatures.values())
        baseline = signatures["same_j"]
        for name, signature in signatures.items():
            assert signature == baseline, name

    def test_flat_cannot_see_loop_structure(self):
        """The flat profile of the cross_j case is a single A->B static
        edge; nothing in it distinguishes 'within one iteration' from
        'across iterations'."""
        body_a, body_b = CASES["cross_j"]
        profile = profile_flat(four_case_source(body_a, body_b))
        raw = [e for e in profile.edges_between("A", "B")
               if e.kind is DepKind.RAW]
        assert len({(e.head_pc, e.tail_pc) for e in raw}) == 1
