"""Task-graph extraction tests."""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.constructs import ConstructTable
from repro.ir import compile_source
from repro.parallel.estimator import (EstimatorError, estimate_speedup,
                                      find_construct)
from repro.parallel.taskgraph import (IndexLog, LiveSource, TraceSource,
                                      count_at_or_before,
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
        assert graph.task_count == 12
        assert len(graph.serial) == 13
        covered = graph.task_time + graph.serial_time
        assert covered == graph.total_time
        assert (graph.end[:-1] <= graph.start[1:]).all()

    def test_independent_iterations_have_no_task_deps(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        assert graph.task_deps.shape == (0, 2)

    def test_epilogue_joins_on_producing_tasks(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, line=INDEPENDENT_LOOP_LINE)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        epilogue = graph.task_count
        # The summation loop reads every results[f].
        tasks, segments = graph.joins.T
        assert tasks[segments == epilogue].tolist() == list(range(12))

    def test_chained_iterations_form_a_chain(self):
        program = compile_source(CHAINED)
        pc = find_construct(program, line=9)
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        chain = {(k, k + 1) for k in range(11)}
        assert chain <= set(map(tuple, graph.task_deps.tolist()))

    def test_procedure_target_instances_are_calls(self):
        program = compile_source(INDEPENDENT)
        pc = find_construct(program, fn_name="work")
        graph = extract_task_graphs(LiveSource(program), {pc: ()})[pc]
        assert graph.task_count == 12

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
                  for column in (graph.start, graph.end)
                  for t in column.tolist()}
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


#: A recursive call runs the loop first and writes the caller's
#: induction variable through a pointer in each of its iterations.
#: The caller's cell is skipped only in the caller's own instances, so
#: its group keeps the callee-instance writes, which depend on each
#: other: the kernel must pair that group again without the skipped
#: accesses instead of reusing the pairs it shares across candidates.
POINTER_TO_INDUCTION = """
int f(int depth, int *p) {
    int i;
    int s = 0;
    if (depth > 0) {
        f(depth - 1, &i);
    }
    for (i = 0; i < 4; i++) {
        s = s + i;
        if (depth == 0) {
            *p = s;
        }
    }
    return s;
}
int main() {
    int x;
    print(f(1, &x));
    return 0;
}
"""


def test_skip_window_keeps_the_other_accesses_of_its_group():
    program = compile_source(POINTER_TO_INDUCTION)
    table = ConstructTable(program)
    (pc,) = [c.pc for c in table.by_pc.values() if c.is_loop]
    induction = induction_offsets_of(program, pc)
    assert induction
    tracer = TaskGraphTracer(table, pc, frozenset(), induction)
    LiveSource(program).drive([tracer])
    reference = tracer.graph()
    assert len(reference.anti_task_deps)
    assert extract_task_graphs(LiveSource(program), [pc])[pc] == reference


def _random_log(rng) -> IndexLog:
    """Pushes and pops of two constructs (pc 7 nests in itself) at
    non-decreasing event positions that often repeat, so instances
    holding no access and boundaries sharing a position are common."""
    accesses = int(rng.integers(0, 12))
    pcs, at = [], []
    depth = {7: 0, 9: 0}
    position = 0
    for _ in range(int(rng.integers(0, 24))):
        position = min(accesses, position + int(rng.choice([0, 0, 1, 2])))
        pc = int(rng.choice([7, 7, 9]))
        if depth[pc] and rng.random() < 0.5:
            depth[pc] -= 1
            pcs.append(~pc)
        else:
            depth[pc] += 1
            pcs.append(pc)
        at.append(position)
    rows = len(pcs)
    return IndexLog(pcs=np.array(pcs, np.int64),
                    at=np.array(at, np.int64),
                    times=np.arange(rows, dtype=np.int64),
                    bases=np.zeros(sum(pc >= 0 for pc in pcs), np.int64),
                    addr=np.zeros(accesses, np.int64),
                    write=np.zeros(accesses, bool),
                    frees=np.empty((0, 3), np.int64))


def test_tag_lookup_matches_searchsorted():
    """The two lookups (event position -> log-row rank, shared by all
    candidates, then row rank -> the candidate's tag) give every event
    position the tag the boundaries' ``searchsorted(..., side="right")``
    gives it: an access at a boundary's own position is after it, and
    repeated boundaries (an instance with no access, an end and the
    next start together) are all counted."""
    rng = np.random.default_rng(20090314)
    seen = {"empty instance": 0, "repeated bound": 0, "access at bound": 0}
    for _ in range(3000):
        log = _random_log(rng)
        rank = count_at_or_before(log.at, log.accesses)
        for pc in (7, 9):
            starts, ends = log.outermost(pc)
            bounds = np.empty(len(starts) + len(ends), np.int64)
            bounds[0::2] = log.at[starts]
            bounds[1::2] = log.at[ends]
            positions = np.arange(log.accesses + 1)
            expected = np.searchsorted(bounds, positions, side="right")
            assert log.tags(starts, ends)[rank].tolist() == \
                expected.tolist(), (bounds, log.accesses)
            seen["empty instance"] += int(
                (log.at[starts[:len(ends)]] == log.at[ends]).any())
            seen["repeated bound"] += int((np.diff(bounds) == 0).any())
            seen["access at bound"] += int(
                (bounds < log.accesses).any())
    assert all(seen.values()), seen


#: Traced peak of one extraction per recorded access: bzip2 at scale
#: 1 (169 109 accesses), every construct head (19) as a candidate.
#: Measured 81 B/access (141 when each task was an object); the bound
#: leaves about 50 % headroom. One leftover int64 copy per candidate
#: alone would add 8 B/access x 19.
PEAK_BYTES_PER_ACCESS = 125


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
