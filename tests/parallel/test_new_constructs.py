"""Futures simulation over the newer construct kinds: goto-built
loops and heap-carried workloads."""

import pytest

from repro.ir import compile_source
from repro.parallel import estimate_speedup

GOTO_LOOP = """int results[8];
int work(int seed) {
    int acc = seed;
    int i;
    for (i = 0; i < 120; i++) { acc = (acc * 31 + i) % 10007; }
    return acc;
}
int main() {
    int t = 0;
    again:
    results[t] = work(t);
    t++;
    if (t < 8) { goto again; }
    return 0;
}
"""

HEAP_PIPELINE = """int results[8];
int checksum;
int process(int *p, int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        p[i] = (p[i] * p[i] + 13) % 10007;
        acc = (acc + p[i]) % 10007;
    }
    return acc;
}
int main() {
    int pkt;
    for (pkt = 0; pkt < 8; pkt++) {
        int *p = malloc(16);
        int i;
        for (i = 0; i < 16; i++) { p[i] = pkt * 16 + i; }
        results[pkt] = process(p, 16);
        checksum = (checksum + results[pkt]) % 65521;
        free(p);
    }
    return checksum;
}
"""

SERIAL_HEAP = """int out;
int main() {
    int *acc = malloc(1);
    acc[0] = 1;
    int i;
    for (i = 0; i < 12; i++) {
        int *next = malloc(1);
        next[0] = (acc[0] * 31 + i) % 10007;
        free(acc);
        acc = next;
    }
    out = acc[0];
    free(acc);
    return out;
}
"""


def line_of(source: str, marker: str) -> int:
    return next(i for i, text in enumerate(source.splitlines(), start=1)
                if marker in text)


class TestGotoLoopSimulation:
    def test_goto_loop_parallelizes(self):
        """A hand-rolled goto loop is a natural loop in the CFG, so its
        iterations become simulation tasks like any loop's.

        The shape is bottom-tested (do-while-like): the first body pass
        runs before the predicate ever executes, so rule 4 creates
        N - 1 = 7 iteration instances for 8 body passes — the first
        pass belongs to the enclosing construct.
        """
        program = compile_source(GOTO_LOOP)
        line = line_of(GOTO_LOOP, "if (t < 8)")
        result = estimate_speedup(program=program, line=line, workers=4)
        assert result.graph.task_count == 7
        assert result.speedup > 2.0

    def test_worker_monotonicity(self):
        program = compile_source(GOTO_LOOP)
        line = line_of(GOTO_LOOP, "if (t < 8)")
        speedups = [
            estimate_speedup(program=program, line=line, workers=k).speedup
            for k in (1, 2, 4)
        ]
        assert speedups[0] <= speedups[1] + 1e-9
        assert speedups[1] <= speedups[2] + 1e-9
        assert speedups[0] == pytest.approx(1.0, abs=0.05)


class TestHeapWorkloadSimulation:
    def test_independent_packets_parallelize_with_privatization(self):
        program = compile_source(HEAP_PIPELINE)
        line = line_of(HEAP_PIPELINE, "for (pkt = 0")
        result = estimate_speedup(program=program, line=line, workers=4,
                                  private_vars=("checksum",))
        assert result.speedup > 2.0

    def test_serial_heap_chain_does_not_parallelize(self):
        """Each iteration reads the block the previous one wrote: the
        RAW chain through the heap must serialize the schedule."""
        program = compile_source(SERIAL_HEAP)
        line = line_of(SERIAL_HEAP, "for (i = 0; i < 12")
        result = estimate_speedup(program=program, line=line, workers=4)
        assert result.speedup < 1.3
