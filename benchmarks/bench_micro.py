"""Microbenchmarks of the profiler's building blocks.

Not a paper table; these quantify where Alchemist's 166-712x slowdown
comes from (dependence detection + indexing, per §IV-A) on this
substrate.
"""

from repro.analysis.constructs import ConstructTable
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.node import ConstructNode
from repro.core.pool import ConstructPool
from repro.core.shadow import ShadowMemory
from repro.ir import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import NullTracer

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
    """Shadow-memory event cost (the dominant per-instruction work)."""
    shadow = ShadowMemory()
    node = ConstructNode()

    def events():
        hits = 0
        for t in range(1024):
            addr = t & 127
            if t & 1:
                waw, wars = shadow.on_write(addr, t & 31, node, t)
                hits += waw is not None
            else:
                hits += shadow.on_read(addr, t & 31, node, t) is not None
        return hits

    benchmark(events)


def test_construct_table_build(benchmark):
    """Static analysis cost (dominators + loops + regions)."""
    program = compile_source(LOOPY)
    table = benchmark(lambda: ConstructTable(program))
    assert table.static_count() > 3
