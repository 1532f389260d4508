"""Microbenchmarks of the profiler's building blocks.

Not a paper table; these quantify where Alchemist's 166-712x slowdown
comes from (dependence detection + indexing, per §IV-A) on this
substrate.
"""

import numpy as np

from repro.analysis.constructs import ConstructTable
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.pool import ConstructPool
from repro.core.shadow import ShadowArrays
from repro.ir import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import EV_READ, EV_WRITE, NullTracer

LOOPY = """
int a[256];
int main() {
    int acc = 0;
    for (int r = 0; r < 40; r++) {
        for (int i = 0; i < 256; i++) {
            a[i] = (a[i] + i * r) % 9973;
        }
        for (int i = 1; i < 256; i++) {
            acc = (acc + a[i] - a[i - 1]) % 65521;
        }
    }
    print(acc);
    return 0;
}
"""


def test_interpreter_throughput(benchmark):
    """Baseline instructions/second with a null tracer."""
    program = compile_source(LOOPY)

    def run():
        interp = Interpreter(program, NullTracer())
        interp.run()
        return interp.time

    instructions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert instructions > 100_000


def test_profiled_throughput(benchmark):
    """Instructions/second under the full profiler (a live run of the
    dep block engine)."""
    program = compile_source(LOOPY)
    alch = Alchemist()

    def run():
        return alch.profile(program=program).stats.instructions

    instructions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert instructions > 100_000


def test_profiled_raw_only_throughput(benchmark):
    """RAW-only tracking (WAR/WAW disabled) — the cheaper mode."""
    program = compile_source(LOOPY)
    alch = Alchemist(ProfileOptions(track_war_waw=False))

    def run():
        return alch.profile(program=program).stats.instructions

    instructions = benchmark.pedantic(run, rounds=3, iterations=1)
    assert instructions > 100_000


def test_pool_acquire_release(benchmark):
    """Pool recycle cost (Table I's inner loop).

    The clock must keep advancing across benchmark rounds: pool nodes
    retire only once they have been dead longer than their duration, so
    a clock that restarted would make every node permanently
    unretireable and the free-list scan quadratic in round count.
    """
    pool = ConstructPool(1024)
    state = {"clock": 0}

    def cycle():
        clock = state["clock"]
        nodes = []
        for i in range(256):
            clock += 3
            node = pool.acquire(clock)
            node.t_enter, node.t_exit = clock, 0
            nodes.append(node)
        for node in nodes:
            clock += 1
            node.t_exit = clock
            pool.release(node)
        # Jump past every node's retirement horizon before the next
        # round so recycling (not growth) is what gets measured.
        state["clock"] = clock + 8 * 256
        return clock

    benchmark(cycle)


def test_shadow_read_write(benchmark):
    """Shadow-memory cost (the dominant per-instruction work): the pair
    kernel over one block of 1024 alternating reads and writes of 128
    cells by 32 pcs."""
    t = np.arange(1024, dtype=np.int64)
    etypes = np.where(t & 1, EV_WRITE, EV_READ)

    def block():
        _rows, head, _tail, _kind = ShadowArrays().step(etypes, t & 127,
                                                        t & 31, t)
        return len(head)

    assert benchmark(block) > 0


def test_construct_table_build(benchmark):
    """Static analysis cost (dominators + loops + regions)."""
    program = compile_source(LOOPY)
    table = benchmark(lambda: ConstructTable(program))
    assert table.static_count() > 3
