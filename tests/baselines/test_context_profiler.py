"""Context-sensitive baseline tests — including the paper's §III-B
indistinguishability argument."""

from repro.analyses.builtin import ContextDependenceAnalysis
from repro.core.profile_data import DepKind
from repro.runtime.interpreter import run_source
from repro.trace.live import TeeTracer


def profile_with_contexts(source: str):
    """Run the registered ``context`` analysis live over ``source``."""
    analysis = ContextDependenceAnalysis()
    run_source(source, tracer=TeeTracer([analysis]))
    return analysis.profile


def four_case_source(body_a: str, body_b: str) -> str:
    """The paper's F/A/B example with a configurable dependence."""
    return f"""
    int buf[64];
    void A(int round, int i, int j) {{ {body_a} }}
    int B(int round, int i, int j) {{ {body_b} }}
    int sink;
    int F(int round) {{
        int acc = 0;
        for (int i = 0; i < 3; i++) {{
            for (int j = 0; j < 3; j++) {{
                A(round, i, j);
                acc += B(round, i, j);
            }}
        }}
        return acc;
    }}
    int main() {{
        sink = F(0);
        sink += F(1);
        return 0;
    }}
    """


CASES = {
    "same_j": ("buf[j] = i;", "return buf[j];"),
    "cross_j": ("if (j < 2) buf[j + 1] = i;", "return buf[j];"),
    "cross_i": ("if (j == 0 && i < 2) buf[10 + i + 1] = i;",
                "return buf[10 + i];"),
    "cross_f": ("if (round == 0) buf[20 + i] = 1;",
                "return round == 1 ? buf[20 + i] : 0;"),
}


class TestBasics:
    def test_contexts_attributed(self):
        profile = profile_with_contexts("""
        int g;
        void leaf() { g = g + 1; }
        void mid() { leaf(); }
        int main() { mid(); mid(); return g; }
        """)
        raw = [e for e in profile.edges.values()
               if e.kind is DepKind.RAW and e.head_context]
        contexts = {e.head_context for e in raw}
        assert ("main", "mid", "leaf") in contexts

    def test_min_tdep_tracked(self):
        profile = profile_with_contexts("""
        int g;
        int main() {
            g = 1;
            int a = g;
            int b = g + a;
            print(b);
            return 0;
        }
        """)
        raw = [e for e in profile.edges.values() if e.kind is DepKind.RAW]
        assert raw and min(e.min_tdep for e in raw) >= 1

    def test_frame_hygiene(self):
        profile = profile_with_contexts("""
        int f(int n) { int local = n; return local * 2; }
        int sink;
        int main() {
            for (int i = 0; i < 6; i++) sink += f(i);
            return 0;
        }
        """)
        # No cross-call WAW on the reused stack slot for `local`.
        waw = [e for e in profile.edges.values()
               if e.kind is DepKind.WAW
               and e.head_context and e.head_context[-1] == "f"
               and e.tail_context and e.tail_context[-1] == "f"]
        assert waw == []


class TestPaperArgument:
    """§III-B: all four dependence placements produce the same calling
    contexts, so context sensitivity cannot locate the parallelism —
    while Alchemist's index tree distinguishes them (covered by
    TestContextPrecision in the core integration tests)."""

    def test_all_four_cases_have_identical_signatures(self):
        signatures = {}
        for name, (body_a, body_b) in CASES.items():
            profile = profile_with_contexts(four_case_source(body_a,
                                                             body_b))
            signatures[name] = profile.attribution_signature("A", "B")
        assert all(sig for sig in signatures.values())
        baseline = signatures["same_j"]
        for name, signature in signatures.items():
            assert signature == baseline, name

    def test_edges_exist_in_each_case(self):
        for name, (body_a, body_b) in CASES.items():
            profile = profile_with_contexts(four_case_source(body_a,
                                                             body_b))
            edges = profile.edges_between("A", "B")
            raw = [e for e in edges if e.kind is DepKind.RAW]
            assert raw, name
