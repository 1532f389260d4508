"""Unit tests for the static dependence pass and its three fusion points."""

import pytest

from repro.api import Session
from repro.core.advisor import Advisor, Verdict
from repro.core.profile_data import DepKind
from repro.ir import compile_source
from repro.staticdep import (StaticDepReport, StaticVerdict,
                             analyze_program, report_for)
from repro.telemetry import Telemetry
from repro.workloads import TABLE3_ORDER, get

ACC_LOOP = """
int acc;
int main() {
  int i;
  for (i = 0; i < 50; i = i + 1) {
    acc = acc + i;
  }
  return acc;
}
"""

DISJOINT_ARRAYS = """
int a[16];
int b[16];
int main() {
  int i;
  for (i = 0; i < 16; i = i + 1) {
    a[i] = i;
  }
  for (i = 0; i < 16; i = i + 1) {
    b[i] = a[i] + 1;
  }
  return b[3];
}
"""

ALIASED_POINTERS = """
int data[8];
int main() {
  int *p;
  int *q;
  int i;
  p = &data[0];
  q = p;
  for (i = 0; i < 8; i = i + 1) {
    *(q + i) = *(p + i) + 1;
  }
  return data[7];
}
"""

RECURSIVE = """
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(8); }
"""


def _static(source):
    return StaticDepReport(compile_source(source))


def _loop_pc(report, fn="main"):
    loops = [c for c in report.table.by_pc.values()
             if c.kind.value == "loop" and c.fn_name == fn]
    assert loops, "expected a loop construct"
    return loops[0].pc


class TestStaticClasses:
    def test_global_scalar_raw_is_must(self):
        static = _static(ACC_LOOP)
        pc = _loop_pc(static)
        raw = {c.var: c.verdict for c in static.raw_classes(pc)}
        assert raw == {"acc": StaticVerdict.MUST_DEP}

    def test_induction_variable_is_filtered(self):
        static = _static(ACC_LOOP)
        pc = _loop_pc(static)
        all_raw = [c for c in static.classes[pc] if c.kind is DepKind.RAW]
        assert any(c.var == "main.i" and c.induction for c in all_raw)
        assert all(c.var != "main.i" for c in static.raw_classes(pc))

    def test_disjoint_arrays_prove_independent_loops(self):
        static = _static(DISJOINT_ARRAYS)
        loops = sorted(c.pc for c in static.table.by_pc.values()
                       if c.kind.value == "loop")
        first, second = loops
        # The first loop only writes `a` (plus its own counter):
        # no loop-carried flow dependence survives the induction filter.
        assert static.construct_verdict(first) == "independent"
        # The second reads `a` but writes only `b`: RAW needs a write.
        assert static.construct_verdict(second) == "independent"

    def test_aliased_pointers_stay_may(self):
        static = _static(ALIASED_POINTERS)
        pc = _loop_pc(static)
        raw = {c.var: c.verdict for c in static.raw_classes(pc)}
        assert raw.get("data") is StaticVerdict.MAY_DEP

    def test_recursive_locals_never_must(self):
        static = _static(RECURSIVE)
        assert "fib" in static.recursive
        for classes in static.classes.values():
            for cls in classes:
                if cls.var.startswith("fib.") or cls.var == "retval(fib)":
                    assert cls.verdict is not StaticVerdict.MUST_DEP


class TestClassifyEdge:
    def test_disjoint_pcs_are_independent(self):
        static = _static(DISJOINT_ARRAYS)
        program = static.program
        writes_a = [pc for pc, locs in static.model.writes.items()
                    if any(l.label() == "a" for l in locs)]
        writes_b = [pc for pc, locs in static.model.writes.items()
                    if any(l.label() == "b" for l in locs)]
        assert writes_a and writes_b
        verdict = static.classify_edge(
            program.main.entry_pc, writes_a[0], writes_b[0], DepKind.WAW)
        assert verdict is StaticVerdict.PROVEN_INDEPENDENT

    def test_same_global_scalar_is_must(self):
        static = _static(ACC_LOOP)
        program = static.program
        acc_writes = [pc for pc, locs in static.model.writes.items()
                      if any(l.label() == "acc" for l in locs)]
        acc_reads = [pc for pc, locs in static.model.reads.items()
                     if any(l.label() == "acc" for l in locs)]
        verdict = static.classify_edge(
            program.main.entry_pc, acc_writes[0], acc_reads[0], DepKind.RAW)
        assert verdict is StaticVerdict.MUST_DEP

    def test_head_outside_construct_is_independent(self):
        static = _static(DISJOINT_ARRAYS)
        loops = sorted(c.pc for c in static.table.by_pc.values()
                       if c.kind.value == "loop")
        first, second = loops
        # A pc inside the second loop can never be the head of an edge
        # attributed to the first loop.
        inside_second = static.inside_pcs[second] - static.inside_pcs[first]
        head = sorted(pc for pc in inside_second
                      if pc in static.model.writes)[0]
        verdict = static.classify_edge(first, head, head, DepKind.WAW)
        assert verdict is StaticVerdict.PROVEN_INDEPENDENT


class TestScreen:
    @pytest.mark.parametrize("workload", TABLE3_ORDER)
    def test_all_workloads_screen_with_zero_execution(self, workload):
        with Session() as session:
            static = session.static_report(get(workload, 0.25).source,
                                           filename=workload)
            rows = static.screen_rows()
            assert rows, f"{workload}: no constructs screened"
            assert len(rows) == static.table.static_count()
            assert all(r["verdict"] in
                       ("independent", "may-dep", "must-dep")
                       for r in rows)
            # Zero execution: the static pass must not run or record.
            assert session.stats.records == 0
            assert session.stats.live_runs == 0
            assert session.stats.replay_passes == 0

    def test_ranking_puts_independent_first(self):
        static = _static(DISJOINT_ARRAYS)
        rows = static.screen_rows()
        ranks = [row["verdict"] for row in rows]
        order = {"independent": 0, "may-dep": 1, "must-dep": 2}
        assert ranks == sorted(ranks, key=order.__getitem__)

    def test_to_dict_is_deterministic_and_path_free(self):
        import json

        first = _static(DISJOINT_ARRAYS).to_dict()
        second = _static(DISJOINT_ARRAYS).to_dict()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert "filename" not in json.dumps(first)

    def test_session_caches_by_digest(self):
        with Session() as session:
            one = session.static_report(ACC_LOOP)
            two = session.static_report(ACC_LOOP)
            assert one is two

    def test_telemetry_span_emitted(self):
        tm = Telemetry()
        with tm.span("root"):
            analyze_program(compile_source(ACC_LOOP), tm)
        assert tm.find_spans("static.analyze")


class TestFusion:
    def test_full_trace_fusion_reports_no_contradictions(self):
        with Session() as session:
            result = session.analyze(ACC_LOOP, ("dep",))["dep"]
        fusion = result.data["static"]
        assert set(fusion) == {"edges_checked", "confirmed_must",
                               "possible_may", "contradictions",
                               "constructs"}
        assert fusion["contradictions"] == 0
        assert fusion["confirmed_must"] > 0
        assert "Static fusion:" in result.text

    def test_fuse_span_emitted(self):
        tm = Telemetry()
        with Session(telemetry=tm) as session:
            session.analyze(ACC_LOOP, ("dep",))
        assert tm.find_spans("static.fuse")


class TestAdvisorConfidence:
    def _report(self, source):
        with Session() as session:
            result = session.analyze(source, ("dep",))["dep"]
        return result.payload

    def test_dynamic_only_without_static_report(self):
        report = self._report(ACC_LOOP)
        recs = Advisor(report).recommend(5)
        assert recs
        assert all(r.confidence == "dynamic-only" for r in recs)

    def test_must_confident_blocked(self):
        report = self._report(ACC_LOOP)
        static = report_for(report.program)
        recs = Advisor(report, static_report=static).recommend(5)
        blocked = [r for r in recs if r.verdict is Verdict.BLOCKED]
        assert blocked, "the acc loop must be dynamically BLOCKED"
        # Every blocking edge is on the global scalar `acc` — statically
        # certain, so the BLOCKED verdict is must-confident.
        assert all(r.confidence == "must" for r in blocked)

    def test_must_confident_ready_when_no_static_raw(self):
        report = self._report(DISJOINT_ARRAYS)
        static = report_for(report.program)
        recs = Advisor(report, static_report=static).recommend(10)
        loops = [r for r in recs if r.view.kind.value == "loop"]
        assert loops
        for rec in loops:
            if not static.raw_classes(rec.view.pc):
                assert rec.confidence == "must"

    def test_confidence_in_summary_and_describe(self):
        report = self._report(ACC_LOOP)
        static = report_for(report.program)
        rec = Advisor(report, static_report=static).recommend(1)[0]
        assert rec.summary()["confidence"] in ("must", "may")
        assert "confidence:" in rec.describe()

    def test_whatif_surfaces_confidence(self):
        with Session() as session:
            result = session.advise(DISJOINT_ARRAYS, workers=(2, 4))
        for entry in result.data["candidates"] + result.data["skipped"]:
            assert entry["confidence"] in ("must", "may")
        assert "confidence]" in result.text


def test_memoized_report_does_not_pin_its_program():
    """The memo must not outlive the program: every profiled run
    compiles a fresh program, so a pinned one leaks per run."""
    import gc
    import weakref

    program = compile_source(ACC_LOOP)
    assert report_for(program) is report_for(program)
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None
