"""Live runs feed block consumers through the replay dispatch loop.

One interpreter run carries both kinds of consumer: a hook-only plugin
gets per-event hooks from the record→hook adapter and reads the
interpreter's own memory values, while every bundled analysis gets whole blocks from the
live tap through the same dispatch loop replay uses — so their results
equal a replay of the recording. A block consumer handed straight to
the interpreter would get nothing, so the interpreter refuses it, and
``LiveSource`` routes even a single tracer through the tee. The
``live`` span and the live ``AnalysisContext`` count what the tap fed.
"""

from __future__ import annotations

import sys

import pytest

from repro.analyses import Analysis, AnalysisResult, register, unregister
from repro.analyses.builtin import CountingAnalysis, DependenceAnalysis
from repro.api import Session
from repro.ir.lowering import compile_source
from repro.parallel.taskgraph import LiveSource
from repro.runtime.interpreter import Interpreter, run_source
from repro.runtime.memory import Memory
from repro.telemetry import Telemetry
from repro.trace import writer
from repro.trace.live import TeeTracer
from repro.trace.writer import record_source

#: Calls, nested loops and heap recycling, long enough that the tap
#: cuts several blocks (the block size is patched down below).
SOURCE = """
int squares[8];
int total;

int stir(int v) {
    total = (total * 17 + v) % 9973;
    return total;
}

int main() {
    for (int round = 0; round < 6; round++) {
        int *block = malloc(8);
        for (int i = 0; i < 8; i++) {
            squares[i] = i * i + round;
            block[i] = stir(squares[i]);
        }
        free(block);
    }
    print(total);
    return 0;
}
"""

BUNDLED = ["context", "counts", "dep", "flat", "hot", "locality",
           "whatif"]


class _WrittenValues(Analysis):
    """Hook-only plugin: the value each write stored into ``squares``,
    read from the interpreter's memory at the hook, and the event count
    its ``finish`` saw."""

    name = "written-values"

    def __init__(self):
        self.values: list[int] = []

    def on_start(self, program, memory):
        self.memory = memory
        info = program.global_var("squares")
        self.cells = range(info.offset, info.offset + info.size)

    def on_write(self, addr, pc, timestamp):
        if addr in self.cells:
            self.values.append(self.memory.cells[addr])

    def finish(self, ctx):
        return AnalysisResult(analysis=self.name,
                              data={"values": list(self.values),
                                    "events": ctx.events}, text="")


@pytest.fixture
def values_plugin():
    register(_WrittenValues)
    yield
    unregister(_WrittenValues.name)


@pytest.fixture
def small_blocks(monkeypatch):
    """A tap block of 64 events, so the run spans many blocks."""
    monkeypatch.setattr(writer, "LIVE_BLOCK_EVENTS", 64)


def test_one_run_feeds_blocks_and_hooks(values_plugin, small_blocks,
                                        tmp_path):
    names = ["written-values", *BUNDLED]
    tm = Telemetry()
    with Session(cache_dir=str(tmp_path), telemetry=tm) as session:
        report = session.analyze(SOURCE, names, mode="live")
        session.record(SOURCE)
        replayed = session.analyze(SOURCE, BUNDLED)
    assert set(report.modes.values()) == {"live"}
    assert set(replayed.modes.values()) == {"replay"}
    expected = [i * i + r for r in range(6) for i in range(8)]
    assert report["written-values"].data["values"] == expected
    for name in BUNDLED:
        assert report[name].to_dict() == replayed[name].to_dict(), name
        assert report[name].text == replayed[name].text, name

    events = record_source(SOURCE, tmp_path / "count.trace").events
    assert report["written-values"].data["events"] == events
    (span,) = tm.find_spans("live")
    assert span.attrs["events"] == events
    assert span.attrs["blocks"] == -(-events // 64)


def test_no_block_consumer_counts_nothing(values_plugin, tmp_path):
    """A live run of hook-only plugins has no tap: nothing is recorded
    and the context's event count is ``None``."""
    with Session(cache_dir=str(tmp_path)) as session:
        report = session.analyze(SOURCE, ["written-values"], mode="live")
    assert report["written-values"].data["events"] is None


def test_hook_only_tee_has_no_tap():
    """Without a block consumer nothing is recorded: hooked tracers
    ride the record→hook adapter alone, with no record list."""
    plugin = _WrittenValues()
    tee = TeeTracer([plugin])
    program = compile_source(SOURCE)
    Interpreter(program, tee).run()
    assert tee.tap is None
    assert len(plugin.values) == 48
    sink = TeeTracer([_WrittenValues()]).sink(program, Memory(program))
    assert sink.flush_every == sys.maxsize  # nothing to flush


@pytest.mark.parametrize("analysis", [DependenceAnalysis,
                                      CountingAnalysis])
def test_block_consumer_is_refused_where_no_block_reaches_it(analysis):
    """The interpreter hands over records, not blocks, so a block
    consumer handed to it would silently get nothing."""
    with pytest.raises(TypeError, match="TeeTracer"):
        Interpreter(compile_source(SOURCE), analysis())
    with pytest.raises(TypeError, match="whole event blocks"):
        run_source(SOURCE, tracer=analysis())


def test_live_source_feeds_a_single_block_consumer(tmp_path):
    counts = CountingAnalysis()
    LiveSource(compile_source(SOURCE)).drive([counts])
    with Session(cache_dir=str(tmp_path)) as session:
        session.record(SOURCE)
        replayed = session.analyze(SOURCE, ["counts"])
    assert replayed.modes["counts"] == "replay"
    assert counts.counts == replayed["counts"].data
    assert counts.counts["reads"] > 0


def test_a_finished_run_frees_its_consumers_by_reference_count():
    """A live run's sink holds the tap and, through it, every block
    consumer; once the run finishes nothing keeps them, so they go
    with the run, not at the next full collection."""
    import gc
    import weakref

    from repro.trace.live import run_live

    program = compile_source(SOURCE)
    consumer = CountingAnalysis()
    gone = weakref.ref(consumer)
    gc.disable()
    try:
        run_live(program, [consumer])
        del consumer
        assert gone() is None
    finally:
        gc.enable()


class _BlockOnly(Analysis):
    """A plugin that declares nothing but ``consume_batch``: it takes
    whole blocks, and the read hook it also defines never fires."""

    name = "block-only"

    def __init__(self):
        self.blocks = 0
        self.events = 0
        self.hooked = 0

    def consume_batch(self, batch):
        self.blocks += 1
        self.events += len(batch)

    def on_read(self, addr, pc, timestamp):
        self.hooked += 1

    def finish(self, ctx):
        return AnalysisResult(analysis=self.name,
                              data={"events": self.events}, text="")


@pytest.mark.parametrize("mode", ["live", "replay"])
def test_consume_batch_alone_takes_blocks(small_blocks, tmp_path, mode):
    from repro.trace.live import run_live
    from repro.trace.replay import replay_with

    program = compile_source(SOURCE)
    path = str(tmp_path / "block-only.trace")
    events = record_source(SOURCE, path).events
    plugin = _BlockOnly()
    if mode == "live":
        ctx = run_live(program, [plugin])
    else:
        ctx = replay_with(path, [plugin], program).context
    assert plugin.hooked == 0
    assert plugin.blocks
    assert plugin.events == ctx.events == events
