"""Using the substrate directly: write your own tracer.

Run with::

    python examples/custom_tracer.py

Alchemist is one client of the interpreter's tracing interface; this
example builds another — a tiny memory-access heat map — to show how
the pieces compose (useful when prototyping a different profiler on
the same substrate), then samples the execution index from the index
tree the profiler records. The interpreter emits records; a hooked
tracer like the heat map gets its hooks from the record→hook adapter
as each record is emitted, so it names addresses from the
interpreter's own memory at hook time.
"""

from collections import Counter

from repro.core.treedump import IndexTree, record_index_tree
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


def index_samples(tree: IndexTree, every: int = 2000) -> list[str]:
    """The execution index every ``every`` instructions — the paper's
    Fig. 4 index paths. Construct entries rarely land on a multiple of
    ``every``: sample at the first one of each new window (the tree's
    preorder is entry order)."""
    samples, window = [], 0
    for node, index in tree.paths():
        if node.t_enter // every != window:
            window = node.t_enter // every
            samples.append(" > ".join(index))
    return samples


def main() -> None:
    program = compile_source(SOURCE)

    heat = HeatMapTracer()
    Interpreter(program, heat).run()
    print("=== Memory heat map ===")
    for name, count in heat.reads.most_common(5):
        print(f"reads  {name:12s} {count:6d}")
    for name, count in heat.writes.most_common(5):
        print(f"writes {name:12s} {count:6d}")

    tree, _report = record_index_tree(program=program)
    print()
    print("=== Execution index samples (Fig. 4 paths) ===")
    for sample in index_samples(tree)[:8]:
        print(f"[{sample}]")


if __name__ == "__main__":
    main()
