"""Regression tests for the estimator/CLI bug cluster (PR 5 satellites)
plus the trace-grounded estimation path."""

import pytest

from repro.analysis.constructs import ConstructKind
from repro.ir import compile_source
from repro.parallel.estimator import (_KIND_ORDER, _KIND_ORDER_DEFAULT,
                                      EstimatorError, estimate_speedup,
                                      find_construct, simulate_speedup)
from repro.parallel.simulator import FutureSimulator, ScheduleResult
from repro.parallel.taskgraph import TaskGraph

SOURCE = """
int results[8];
int work(int seed) {
    int acc = seed;
    for (int i = 0; i < 40; i++) acc = (acc * 31 + i) % 65521;
    return acc;
}
int never_called(int x) { return x + 1; }
int main() {
    for (int f = 0; f < 8; f++) results[f] = work(f);
    int sum = 0;
    for (int f = 0; f < 8; f++) sum += results[f];
    print(sum);
    return 0;
}
"""
LOOP_LINE = 10


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


class TestFindConstructErrors:
    """Bare ``KeyError('name')`` used to escape to the CLI and print as
    the quoted key; every resolution failure is now an
    :class:`EstimatorError` naming the valid alternatives."""

    def test_unknown_procedure_lists_known_ones(self, program):
        with pytest.raises(EstimatorError) as excinfo:
            find_construct(program, fn_name="nope")
        message = str(excinfo.value)
        assert "no procedure named 'nope'" in message
        assert "work" in message and "main" in message

    def test_unknown_pc_lists_construct_heads(self, program):
        with pytest.raises(EstimatorError, match=r"pc 999999 heads no "
                                                 r"construct.*heads"):
            find_construct(program, pc=999999)

    def test_unknown_line_lists_lines(self, program):
        with pytest.raises(EstimatorError,
                           match=r"no construct at line 424242"):
            find_construct(program, line=424242)

    def test_errors_are_value_errors_not_key_errors(self, program):
        """The CLI prints str(exc): a KeyError would render with
        quotes; ValueError subclasses render the message itself."""
        with pytest.raises(ValueError):
            find_construct(program, fn_name="nope")
        try:
            find_construct(program, fn_name="nope")
        except Exception as exc:
            assert not isinstance(exc, KeyError)
            assert not str(exc).startswith("'")

    def test_every_construct_kind_has_a_sort_rank(self):
        """A ConstructKind added later must not KeyError the line
        tie-break; unknown kinds rank last via the .get fallback."""
        assert set(_KIND_ORDER) == set(ConstructKind)
        assert _KIND_ORDER.get(object(), _KIND_ORDER_DEFAULT) \
            == _KIND_ORDER_DEFAULT
        assert all(rank < _KIND_ORDER_DEFAULT
                   for rank in _KIND_ORDER.values())

    def test_no_location_at_all(self, program):
        with pytest.raises(EstimatorError, match="need source"):
            estimate_speedup()


class TestUnknownPrivateGlobal:
    def test_unknown_global_names_the_known_ones(self, program):
        with pytest.raises(ValueError) as excinfo:
            estimate_speedup(program=program, line=LOOP_LINE,
                             private_vars=("missing_var",))
        message = str(excinfo.value)
        assert "no global variable named 'missing_var'" in message
        assert "results" in message


class TestZeroInstances:
    """An empty task graph used to report x1.00; it is now an explicit
    error in the estimator and a 0.0 from the raw schedule result."""

    def test_never_executed_procedure_is_an_error(self, program):
        with pytest.raises(EstimatorError,
                           match="'never_called' executed no instances"):
            estimate_speedup(program=program, fn_name="never_called")

    def test_simulate_speedup_rejects_empty_graph(self):
        graph = TaskGraph(target_pc=0, total_time=0)
        with pytest.raises(EstimatorError, match="no instances"):
            simulate_speedup(graph, target_name="ghost")

    def test_schedule_result_zero_makespan_is_not_1x(self):
        result = ScheduleResult(workers=4, t_seq=0, makespan=0)
        assert result.speedup == 0.0

    def test_empty_graph_schedules_to_zero_speedup(self):
        graph = TaskGraph(target_pc=0, total_time=0)
        result = FutureSimulator(4).schedule(graph)
        assert result.makespan == 0
        assert result.speedup == 0.0


class TestTraceGroundedEstimation:
    """The refactor's core contract: a replayed trace and a live run
    produce identical speedup predictions — no re-execution needed."""

    def test_trace_equals_live(self, tmp_path):
        from repro.trace.writer import record_source

        path = str(tmp_path / "est.trace")
        record_source(SOURCE, path)
        live = estimate_speedup(SOURCE, line=LOOP_LINE, workers=4)
        replayed = estimate_speedup(trace=path, line=LOOP_LINE,
                                    workers=4)
        assert replayed.t_seq == live.t_seq
        assert replayed.t_par == live.t_par
        assert replayed.speedup == live.speedup
        assert replayed.graph == live.graph

    def test_trace_with_private_vars(self, tmp_path):
        from repro.trace.writer import record_source

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
        path = str(tmp_path / "priv.trace")
        record_source(source, path)
        live = estimate_speedup(source, line=5, workers=4,
                                private_vars=("counter",))
        replayed = estimate_speedup(trace=path, line=5, workers=4,
                                    private_vars=("counter",))
        assert replayed.speedup == live.speedup
        assert replayed.speedup > 1.5

    def test_corrupt_trace_is_a_trace_error(self, tmp_path):
        from repro.trace.events import TraceError
        from repro.trace.writer import record_source

        path = tmp_path / "corrupt.trace"
        record_source(SOURCE, str(path))
        raw = bytearray(path.read_bytes())
        # Flip a byte inside the embedded source so the digest check
        # trips (the header text region sits past the fixed fields).
        raw[200] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError):
            estimate_speedup(trace=str(path), line=LOOP_LINE)


class TestMultiTargetExtraction:
    def test_one_pass_matches_individual_passes(self, program):
        from repro.parallel.taskgraph import (LiveSource,
                                              extract_task_graphs)

        loop_pc = find_construct(program, line=LOOP_LINE)
        work_pc = find_construct(program, fn_name="work")
        combined = extract_task_graphs(LiveSource(program),
                                       [loop_pc, work_pc])
        for pc in (loop_pc, work_pc):
            single = extract_task_graphs(LiveSource(program),
                                         {pc: ()})[pc]
            multi = combined[pc]
            assert multi.total_time == single.total_time
            assert multi == single

    def test_empty_target_set(self, program):
        from repro.parallel.taskgraph import (LiveSource,
                                              extract_task_graphs)

        assert extract_task_graphs(LiveSource(program), []) == {}
