"""Task-graph extraction tests."""

import pytest

from repro.ir import compile_source
from repro.parallel.estimator import (EstimatorError, estimate_speedup,
                                      find_construct)
from repro.parallel.taskgraph import (LiveSource, extract_task_graphs,
                                      induction_offsets_of)

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
