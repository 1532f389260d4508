"""§III-B baseline comparison: flat vs. context-sensitive vs. Alchemist.

The paper's "Inadequacy of Context Sensitivity" argument, rendered as
an artifact. Four variants of

    F() { for (i...) for (j...) { A(); B(); } }

place the A-to-B dependence (1) within one j-iteration, (2) across
j-iterations, (3) across i-iterations, (4) across calls to F. A
profiler is useful for parallelization only if it can tell these apart
— case 1 means both loops parallelize; case 2 only the i-loop; case 3
neither loop but F-calls do; case 4 nothing inside F.

Flat and context-sensitive attribution produce the *same* signature
for all four; Alchemist's execution-index walk attributes the edge to
a different construct in each.

A second bench compares profiling cost: what the index tree's extra
precision costs over the cheaper attributions, on the same workload.
"""

import time

from repro.analyses.builtin import (ContextDependenceAnalysis,
                                    FlatDependenceAnalysis)
from repro.core.alchemist import Alchemist
from repro.core.profile_data import DepKind
from repro.ir import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import NullTracer
from repro.trace.live import TeeTracer
from repro.workloads import get

from conftest import emit


def live_profile(analysis_cls, program):
    """Run a baseline analysis live over ``program``; its profile."""
    analysis = analysis_cls()
    Interpreter(program, TeeTracer([analysis])).run()
    return analysis.profile


def four_case_source(body_a: str, body_b: str) -> str:
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


CASES = [
    ("same_j", "buf[j] = i;", "return buf[j];",
     "both loops parallelize"),
    ("cross_j", "if (j < 2) buf[j + 1] = i;", "return buf[j];",
     "i-loop parallelizes, j-loop does not"),
    ("cross_i", "if (j == 0 && i < 2) buf[10 + i + 1] = i;",
     "return buf[10 + i];",
     "neither loop; calls to F still can"),
    ("cross_f", "if (round == 0) buf[20 + i] = 1;",
     "return round == 1 ? buf[20 + i] : 0;",
     "nothing inside F parallelizes"),
]


def alchemist_attribution(source: str) -> str:
    """The innermost construct whose profile carries the buf edge —
    Alchemist's answer to 'what does this dependence cross?'."""
    report = Alchemist().profile(source)
    loops = sorted((v for v in report.constructs()
                    if v.static.is_loop and v.fn_name == "F"),
                   key=lambda v: -v.total_duration)
    outer, inner = loops[0], loops[1]
    f_proc = next(v for v in report.constructs() if v.name == "F")
    a_proc = next(v for v in report.constructs() if v.name == "A")

    def has_buf(view):
        return any(e.var_hint.startswith("buf")
                   for e in view.edges(DepKind.RAW))

    if has_buf(f_proc):
        return "crosses calls to F"
    if has_buf(outer):
        return "crosses the i-loop"
    if has_buf(inner):
        return "crosses the j-loop"
    if has_buf(a_proc):
        return "intra-j (A boundary only)"
    return "none"


def test_context_inadequacy(benchmark):
    """Table: identical baseline signatures, distinct Alchemist answers."""

    def run():
        rows = []
        flat_signatures = []
        ctx_signatures = []
        for name, body_a, body_b, meaning in CASES:
            source = four_case_source(body_a, body_b)
            program = compile_source(source)
            flat_signatures.append(
                frozenset(live_profile(FlatDependenceAnalysis, program)
                          .attribution_signature("A", "B")))
            ctx_signatures.append(
                frozenset(live_profile(ContextDependenceAnalysis, program)
                          .attribution_signature("A", "B")))
            rows.append((name, meaning, alchemist_attribution(source)))
        return rows, flat_signatures, ctx_signatures

    rows, flat_sigs, ctx_sigs = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    # The baselines collapse all four cases onto one signature...
    assert len(set(flat_sigs)) == 1
    assert len(set(ctx_sigs)) == 1
    # ...Alchemist gives four different answers.
    answers = [answer for _, _, answer in rows]
    assert len(set(answers)) == 4, answers

    lines = [
        "SIII-B: four dependence placements, one calling context",
        "(paper: 'context sensitivity is not sufficient in general')",
        "",
        f"{'variant':9s} {'flat':>10s} {'ctx-sens':>10s}  "
        f"Alchemist attribution",
    ]
    for name, meaning, answer in rows:
        lines.append(f"{name:9s} {'same sig':>10s} {'same sig':>10s}  "
                     f"{answer}")
        lines.append(f"{'':9s} {'':>10s} {'':>10s}  -> {meaning}")
    emit("baselines_context", "\n".join(lines))


def test_profiler_cost_comparison(benchmark):
    """What index precision costs: wall time of null / flat / context /
    Alchemist tracers on the same workload."""
    program = compile_source(get("gzip", 0.5).source)

    def timed(runner):
        start = time.perf_counter()
        runner()
        return time.perf_counter() - start

    def run():
        return {
            "null": timed(lambda: Interpreter(program, NullTracer()).run()),
            "flat": timed(
                lambda: live_profile(FlatDependenceAnalysis, program)),
            "context": timed(
                lambda: live_profile(ContextDependenceAnalysis, program)),
            "alchemist": timed(
                lambda: Alchemist().profile(program=program)),
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Profiler cost on gzip (scale 0.5), one run each",
             f"{'tracer':>10s} {'seconds':>9s} {'x over null':>12s}"]
    for name, seconds in times.items():
        lines.append(f"{name:>10s} {seconds:9.3f} "
                     f"{seconds / times['null']:12.1f}")
    emit("baselines_cost", "\n".join(lines))
    # Shape check only: every profiler costs more than the bare run.
    assert times["alchemist"] > times["null"]
