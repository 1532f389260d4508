"""Task-graph extraction tests."""

import tracemalloc

import pytest

from repro.analysis.constructs import ConstructTable
from repro.ir import compile_source
from repro.parallel.estimator import (EstimatorError, estimate_speedup,
                                      find_construct)
from repro.parallel.taskgraph import (LiveSource, TraceSource,
                                      extract_task_graphs,
                                      induction_offsets_of)
from repro.runtime.tracing import Tracer
from repro.telemetry import Telemetry
from repro.trace.writer import record_program
from repro.workloads import get, names
from tests.parallel.reference import TaskGraphTracer

INDEPENDENT = """
int results[64];
int work(int seed) {
    int acc = seed;
    for (int i = 0; i < 150; i++) acc = (acc * 31 + i) % 65521;
    return acc;
}
int main() {
    for (int f = 0; f < 12; f++) {
        results[f] = work(f);
    }
    int sum = 0;
    for (int f = 0; f < 12; f++) sum += results[f];
    print(sum);
    return 0;
}
"""
INDEPENDENT_LOOP_LINE = 9

CHAINED = """
int state;
int work(int seed) {
    int acc = seed;
    for (int i = 0; i < 150; i++) acc = (acc * 31 + i) % 65521;
    return acc;
}
int main() {
    for (int f = 0; f < 12; f++) {
        state = work(state);
    }
    print(state);
    return 0;
}
"""


class TestExtraction:
    def test_iteration_tasks_partition_the_run(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        assert len(graph.tasks) == 12
        assert len(graph.serial) == 13
        covered = graph.task_time + graph.serial_time
        assert covered == graph.total_time
        for earlier, later in zip(graph.tasks, graph.tasks[1:]):
            assert earlier.end <= later.start

    def test_independent_iterations_have_no_task_deps(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        assert graph.task_deps == set()

    def test_epilogue_joins_on_producing_tasks(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        epilogue = len(graph.tasks)
        # The summation loop reads every results[f].
        assert graph.joins.get(epilogue) == set(range(12))

    def test_chained_iterations_form_a_chain(self):
        program = compile_source(CHAINED)
        pc = find_construct(program, line=9)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        chain = {(k, k + 1) for k in range(11)}
        assert chain <= graph.task_deps

    def test_procedure_target_instances_are_calls(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, fn_name="work")
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        assert len(graph.tasks) == 12

    def test_induction_detection_for_for_loop(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        offsets = induction_offsets_of(program, pc)
        assert len(offsets) == 1  # the loop variable f

    def test_induction_detection_for_while_loop(self):
        program = compile_source("""
        int a[16];
        int main() {
            int i = 0;
            while (i < 16) { a[i] = i; i++; }
            return a[3];
        }
        """)
        pc = find_construct(program, line=5)
        offsets = induction_offsets_of(program, pc)
        assert len(offsets) == 1

    def test_private_vars_break_chains(self):
        source = """
        int counter;
        int a[16];
        int main() {
            for (int i = 0; i < 16; i++) {
                counter++;
                a[i] = counter * 2;
            }
            print(counter);
            return 0;
        }
        """
        slow = estimate_speedup(source, line=5, workers=4)
        fast = estimate_speedup(source, line=5, workers=4,
                                private_vars=("counter",))
        assert slow.speedup == pytest.approx(1.0, abs=0.05)
        assert fast.speedup > 1.5


class TestEstimator:
    def test_near_linear_for_independent(self):
        result = estimate_speedup(INDEPENDENT, line=INDEPENDENT_LOOP_LINE,
                                  workers=4)
        assert result.speedup > 3.0

    def test_no_speedup_for_chain(self):
        result = estimate_speedup(CHAINED, line=9, workers=4)
        assert result.speedup == pytest.approx(1.0, abs=0.02)

    def test_more_workers_never_hurt(self):
        speeds = [estimate_speedup(INDEPENDENT,
                                   line=INDEPENDENT_LOOP_LINE,
                                   workers=w).speedup
                  for w in (1, 2, 4)]
        assert speeds == sorted(speeds)
        assert speeds[0] == pytest.approx(1.0, abs=0.02)

    def test_find_construct_prefers_loop(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        table_pc = find_construct(program, pc=pc)
        assert table_pc == pc

    def test_find_construct_unknown_line(self):
        program = compile_source(INDEPENDENT)
        with pytest.raises(EstimatorError,
                           match=r"no construct at line 9999.*lines "
                                 r"heading constructs"):
            find_construct(program, line=9999)

    def test_describe(self):
        result = estimate_speedup(INDEPENDENT, line=INDEPENDENT_LOOP_LINE,
                                  workers=4)
        text = result.describe()
        assert "T_seq" in text and "workers" in text


class _TagHazards(Tracer):
    """Access timestamps, and how many accesses touch a cell that a
    free cleared since the cell's previous access."""

    def __init__(self):
        self.times = []
        self.freed = set()
        self.reused = 0

    def _access(self, addr, timestamp):
        self.times.append(timestamp)
        if addr in self.freed:
            self.freed.discard(addr)
            self.reused += 1

    def on_read(self, addr, pc, timestamp):
        self._access(addr, timestamp)

    def on_write(self, addr, pc, timestamp):
        self._access(addr, timestamp)

    def on_frame_free(self, lo, hi):
        self.freed.update(range(lo, hi))


@pytest.mark.parametrize("workload", names(include_extra=True))
def test_kernel_matches_per_event_tracer(workload, tmp_path):
    """Every bundled program, every construct head as the target: the
    index pass + kernel builds exactly the graphs one
    ``TaskGraphTracer`` per head builds, from a replayed trace and
    from a live run. The runs cover both tagging hazards: accesses
    that share a timestamp with an instance boundary (a return-value
    write just before the EXIT, at its timestamp; the caller's read
    comes one tick later), which only event-position tagging puts on
    the right side, and stack cells reused across calls, which need
    the clear epochs."""
    source = get(workload, 0.1).source
    program = compile_source(source, workload)
    table = ConstructTable(program)
    heads = sorted(table.by_pc)
    tracers = [TaskGraphTracer(table, pc, frozenset(),
                               induction_offsets_of(program, pc))
               for pc in heads]
    hazards = _TagHazards()
    LiveSource(program).drive(tracers + [hazards])
    reference = {pc: tracer.graph() for pc, tracer in zip(heads, tracers)}

    path = str(tmp_path / "prog.trace")
    record_program(program, path, source=source)
    assert extract_task_graphs(TraceSource(path, program), heads) \
        == reference
    assert extract_task_graphs(LiveSource(program), heads) == reference

    boundaries = {t for graph in reference.values()
                  for task in graph.tasks for t in (task.start, task.end)}
    assert any(t in boundaries for t in hazards.times)
    assert hazards.reused


def test_extraction_spans_and_counts(tmp_path):
    source = get("gzip", 0.1).source
    program = compile_source(source, "gzip")
    path = str(tmp_path / "gzip.trace")
    record_program(program, path, source=source)
    tm = Telemetry()
    with tm.span("advisor.extract"):
        extract_task_graphs(TraceSource(path, program),
                            sorted(ConstructTable(program).by_pc),
                            telemetry=tm)
    hazards = _TagHazards()
    frees = []
    hazards.on_frame_free = lambda lo, hi: frees.append((lo, hi))
    LiveSource(program).drive([hazards])
    (parent,) = tm.find_spans("advisor.extract")
    assert [child.name for child in parent.children] == [
        "advisor.extract.index", "advisor.extract.kernel"]
    for child in parent.children:
        assert child.attrs["accesses"] == len(hazards.times)
        assert child.attrs["frees"] == len(frees)


#: Traced peak of one extraction per recorded access: bzip2 at scale
#: 1 (169 109 accesses), every construct head (19) as a candidate.
#: Measured 141 B/access, most of it the returned graphs (two loops
#: with 12 121 tasks each); the bound leaves about 50 % headroom. One
#: leftover int64 copy per candidate alone would add 8 B/access x 19.
PEAK_BYTES_PER_ACCESS = 210


def test_extraction_memory_per_access(tmp_path):
    source = get("bzip2", 1.0).source
    program = compile_source(source, "bzip2")
    path = str(tmp_path / "bzip2.trace")
    record_program(program, path, source=source)
    heads = sorted(ConstructTable(program).by_pc)
    tm = Telemetry()
    tracemalloc.start()
    try:
        extract_task_graphs(TraceSource(path, program), heads,
                            telemetry=tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    accesses = tm.find_spans("advisor.extract.index")[0].attrs["accesses"]
    assert accesses == 169_109
    assert peak / accesses < PEAK_BYTES_PER_ACCESS, peak / accesses


@pytest.mark.parametrize("module", ["repro.parallel",
                                    "repro.parallel.taskgraph",
                                    "repro.analyses.whatif"])
def test_imports_first_in_a_fresh_interpreter(module):
    """The task-graph module and the trace package import each other
    (through the analyses); either side may be imported first."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
