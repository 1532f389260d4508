"""Using the substrate directly: write your own tracer.

Run with::

    python examples/custom_tracer.py

Alchemist is one client of the interpreter's tracing interface; this
example builds another — a tiny memory-access heat map plus an
execution-index sampler — to show how the pieces compose (useful when
prototyping a different profiler on the same substrate). The
interpreter emits records; hooked tracers like these get their hooks
from the record→hook adapter as each record is emitted, so the heat
map names addresses from the interpreter's own memory at hook time.
"""

from collections import Counter

from repro.analysis.constructs import ConstructTable
from repro.core.tracer import AlchemistTracer
from repro.ir import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import Tracer

SOURCE = """
int grid[128];
void smooth(int rounds) {
    for (int r = 0; r < rounds; r++) {
        for (int i = 1; i < 127; i++) {
            grid[i] = (grid[i - 1] + grid[i] * 2 + grid[i + 1]) / 4;
        }
    }
}
int main() {
    for (int i = 0; i < 128; i++) {
        grid[i] = (i * 37) % 100;
    }
    smooth(6);
    print(grid[64]);
    return 0;
}
"""


class HeatMapTracer(Tracer):
    """Counts reads/writes per symbol."""

    def __init__(self) -> None:
        self.reads: Counter = Counter()
        self.writes: Counter = Counter()
        self._memory = None

    def on_start(self, program, memory) -> None:
        self._memory = memory

    def on_read(self, addr, pc, timestamp) -> None:
        self.reads[self._memory.addr_to_name(addr).split("[")[0]] += 1

    def on_write(self, addr, pc, timestamp) -> None:
        self.writes[self._memory.addr_to_name(addr).split("[")[0]] += 1


class IndexSampler(AlchemistTracer):
    """Samples the execution index every N instructions — the paper's
    Fig. 4 index paths, live."""

    def __init__(self, table, every=2000):
        super().__init__(table)
        self.every = every
        self.samples: list[str] = []
        self._window = 0

    def on_block_enter(self, block_id, timestamp):
        super().on_block_enter(block_id, timestamp)
        # Block entries rarely land on a multiple of ``every``: sample
        # at the first one of each new window.
        if timestamp // self.every != self._window:
            self._window = timestamp // self.every
            self.samples.append(" > ".join(self.stack.index_of_top()))


def main() -> None:
    program = compile_source(SOURCE)

    heat = HeatMapTracer()
    Interpreter(program, heat).run()
    print("=== Memory heat map ===")
    for name, count in heat.reads.most_common(5):
        print(f"reads  {name:12s} {count:6d}")
    for name, count in heat.writes.most_common(5):
        print(f"writes {name:12s} {count:6d}")

    sampler = IndexSampler(ConstructTable(program))
    Interpreter(program, sampler).run()
    print()
    print("=== Execution index samples (Fig. 4 paths) ===")
    for sample in sampler.samples[:8]:
        print(f"[{sample}]")


if __name__ == "__main__":
    main()
