"""Replayed dep over whole blocks: the hazards of profiling a block at
a time, one hand-written case each, and its bounded state.

Block replay runs the indexing rules over a whole decoded block, takes
the block's pairs from the pair kernel and walks Table II over arrays
(:class:`~repro.core.blockdep.BlockDependence`), after the replay
engine has already moved memory past the block. Each case below would
go wrong if any of that leaked, and checks the block path against the
per-event hooks of a live ``AlchemistTracer`` store for store:

* a name is resolved at the tail's event, not at the block's end — the
  return-value cell read right after the callee's EXIT, a heap block
  recycled under a new ``heap#N`` name, a local of a frame that came
  and went inside the block, and a segment's deferred pair (against a
  live per-event run's pairs that cross the segment's seam);
* at one write, the WAR edges go in their reader pcs' first-read order
  since the last write, then the WAW edge — also when the reads were
  carried in from earlier blocks.

The instance table keeps only the rows the shadow, the open stack and
their ancestors still reference, so dep's state does not grow with the
length of the run.
"""

import gc
import os
import tracemalloc

import numpy as np
import pytest

from repro.analyses import make_analyses
from repro.analysis.constructs import ConstructTable
from repro.core.profile_data import DepKind
from repro.ir.lowering import compile_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import Tracer
from repro.trace.parallel import run_segment
from repro.trace.reader import TraceReader
from repro.trace.replay import replay_with
from repro.trace.shards import plan_shards
from repro.trace.writer import record_source
from repro.workloads import get
from tests.core.reference import AlchemistTracer, ShadowMemory
from tests.core.test_random_programs import (_report_digest,
                                             _tracer_digest,
                                             record_small_blocks)


def _replayed_against_live(source: str, tmp_path, small: bool):
    """Record ``source`` (into 96-byte blocks with ``small``, else the
    default), replay dep over the blocks and assert it equals the live
    tracer store for store; returns the replayed engine and program."""
    program = compile_source(source)
    path = str(tmp_path / "hazard.trace")
    live = AlchemistTracer(ConstructTable(program))
    if small:
        assert record_small_blocks(program, source, path, [live])
    else:
        from repro.runtime.interpreter import Interpreter
        from repro.trace.live import TeeTracer
        from repro.trace.writer import TraceWriter

        writer = TraceWriter(path, source)
        interp = Interpreter(program, TeeTracer([writer, live]))
        writer.close(interp.run(), interp.output)
        with TraceReader(path) as reader:
            assert len(list(reader.batches())) == 1
    analyses = make_analyses(["dep"])
    outcome = replay_with(path, analyses, program)
    engine = analyses[0].engine
    assert _report_digest(outcome.reports["dep"].payload) \
        == _tracer_digest(live)
    assert engine.updates == live.profiler.updates
    return engine, program


def _names(engine) -> set:
    return {edge.var_hint for profile in engine.store.profiles.values()
            for edge in profile.edges.values()}


RETVAL = """
int f(int n) {
    int r = n * 2;
    return r;
}
int main() {
    int s = f(3);
    print(s);
    return 0;
}
"""

RECYCLED = """
int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        int *p = malloc(2);
        if (i >= 0) {
            p[0] = i;
        }
        s = s + p[0];
        free(p);
    }
    print(s);
    return 0;
}
"""

TRANSIENT_FRAME = """
int g(int n) {
    int x = 0;
    for (int i = 0; i < n; i++) {
        x = x + i;
    }
    return x;
}
int h(int n) {
    int y = n + 1;
    int z = y * 2;
    return z;
}
int main() {
    int s = g(4);
    s = s + h(s);
    print(s);
    return 0;
}
"""

WAR_ORDER = """
int x;
int r1() {
    return x;
}
int r2() {
    return x + 1;
}
int main() {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        x = i;
        s = s + r2();
        s = s + r1();
    }
    print(s);
    return 0;
}
"""


class TestNamesAtTheTail:
    """A new edge is named as of its first observation, inside a block
    whose end state names the address differently."""

    def test_retval_read_after_exit_in_one_block(self, tmp_path):
        engine, _ = _replayed_against_live(RETVAL, tmp_path, small=False)
        assert "retval(f)" in _names(engine)

    def test_heap_block_recycled_in_one_block(self, tmp_path):
        engine, _ = _replayed_against_live(RECYCLED, tmp_path,
                                           small=False)
        names = _names(engine)
        assert "heap#1[0]" in names
        assert not any(name.startswith(("heap#2", "heap#3", "heap+"))
                       for name in names)

    def test_local_of_frame_entered_and_exited_in_one_block(self,
                                                            tmp_path):
        engine, _ = _replayed_against_live(TRANSIENT_FRAME, tmp_path,
                                           small=False)
        assert "g.x" in _names(engine)


@pytest.mark.parametrize("small", [False, True])
def test_war_edges_in_first_read_order_then_waw(tmp_path, small):
    """At ``x = i`` the reads since the last write came from r2, then
    r1 — the reverse of their pc order — so the loop's edges on that
    tail go WAR from r2, WAR from r1, then WAW; with 96-byte blocks the
    reads are carried in from earlier blocks."""
    engine, program = _replayed_against_live(WAR_ORDER, tmp_path, small)
    order = []
    for profile in engine.store.profiles.values():
        tails = {key[1] for key, edge in profile.edges.items()
                 if edge.var_hint == "x" and key[2] is DepKind.WAW}
        order += [(program.fn_of(key[0]), key[2])
                  for key in profile.edges
                  if key[1] in tails and key[2] is not DepKind.RAW]
    assert order == [("r2", DepKind.WAR), ("r1", DepKind.WAR),
                     ("main", DepKind.WAW)]
    reader_pcs = {program.fn_of(pc): pc for profile
                  in engine.store.profiles.values()
                  for pc, _tail, kind in profile.edges
                  if kind is DepKind.WAR}
    assert reader_pcs["r1"] < reader_pcs["r2"]


class _PairLog(Tracer):
    """Every dependence pair of a live run as the per-event shadow
    reports them: ``(head position, tail position, (kind, addr, head
    pc, head t, tail pc, tail t, the address's name at the tail))``.
    A position counts the trace records before the event."""

    def __init__(self) -> None:
        self.shadow = ShadowMemory()
        self.memory = None
        self.at = 0
        self.pairs: list[tuple] = []

    def on_start(self, program, memory) -> None:
        self.memory = memory

    def _tick(self, *_args) -> None:
        self.at += 1

    on_enter_function = on_exit_function = on_block_enter = _tick
    on_branch = on_heap_alloc = _tick

    def _pair(self, kind, addr, head, pc, t) -> None:
        head_pc, head_at, head_t = head
        self.pairs.append((head_at, self.at, (
            kind, addr, head_pc, head_t, pc, t,
            self.memory.addr_to_name(addr))))

    def on_read(self, addr, pc, t) -> None:
        write = self.shadow.on_read(addr, pc, self.at, t)
        if write is not None:
            self._pair(DepKind.RAW, addr, write, pc, t)
        self.at += 1

    def on_write(self, addr, pc, t) -> None:
        write, reads = self.shadow.on_write(addr, pc, self.at, t)
        for read_pc, (read_at, read_t) in reads.items():
            self._pair(DepKind.WAR, addr, (read_pc, read_at, read_t), pc, t)
        if write is not None:
            self._pair(DepKind.WAW, addr, write, pc, t)
        self.at += 1

    def on_frame_free(self, lo, hi) -> None:
        self.shadow.clear_range(lo, hi)
        self.at += 1


def test_segment_defers_with_names_at_the_tail(tmp_path):
    """A seam inside ``g``: pairs whose head precedes it are deferred,
    each named at its tail — ``g``'s locals, though ``g`` and then ``h``
    return before the block ends. Every segment's deferred pairs are
    exactly a live per-event run's pairs whose head comes before the
    segment's seam and whose tail lies in the segment, in stream
    order."""
    source = TRANSIENT_FRAME.replace(
        "int s = g(4);\n    s = s + h(s);",
        "int s = 0;\n    for (int k = 0; k < 6; k++) {\n"
        "        s = s + g(5);\n        s = s + h(k);\n    }")
    path = str(tmp_path / "seams.trace")
    events = record_source(source, path).events
    log = _PairLog()
    Interpreter(compile_source(source), log).run()
    assert log.at == events - 1  # every record but FINISH
    plan = plan_shards(path, 7, interval=max(1, events // 12))
    assert plan.is_parallel
    names = []
    for segment in plan.segments:
        start = segment.checkpoint.index
        end = segment.end_index if segment.end_index is not None else events
        result = run_segment({
            "path": path, "ordinal": segment.ordinal,
            "checkpoint": segment.checkpoint.to_payload(),
            "end_index": segment.end_index, "analyses": ["dep"],
            "options": None, "columnar": True})
        deferred = result["exports"]["dep"]["deferred"]
        assert deferred == [pair for head, tail, pair in log.pairs
                            if head < start <= tail < end]
        names += [pair[-1] for pair in deferred]
    assert any(name.startswith("g.") for name in names)


# -- bounded state -------------------------------------------------------

def _reachable(rows, shadow) -> int:
    """Rows reachable from the shadow's payloads and the open stack
    through parent links, counted independently of ``compact``."""
    seen = set()
    todo = [int(r) for r in np.concatenate((shadow.writes[3],
                                            shadow.reads[3])) if r >= 0]
    todo += rows.stack + rows.pinned
    while todo:
        row = todo.pop()
        if row not in seen:
            seen.add(row)
            if rows.parent[row] >= 0:
                todo.append(int(rows.parent[row]))
    return len(seen)


@pytest.mark.parametrize("scale", [0.5, 1.0])
def test_instance_rows_bounded_by_references(tmp_path, scale):
    """After bzip2, the table holds exactly the rows the shadow and the
    open stack reach — at most the referenced rows times the index
    depth — and not one per dynamic instance."""
    workload = get("bzip2", scale)
    path = str(tmp_path / "bzip2.trace")
    record_source(workload.source, path, filename=workload.name)
    analyses = make_analyses(["dep"])
    replay_with(path, analyses)
    engine = analyses[0].engine
    rows, shadow = engine.rows, engine.shadow
    referenced = len(np.unique(np.concatenate(
        (shadow.writes[3], shadow.reads[3])))) + len(rows.stack)
    assert len(rows) == _reachable(rows, shadow)
    assert len(rows) <= referenced * rows.max_depth
    assert len(rows) * 10 < engine.store.dynamic_instances


LOOP = """
int g[8];
int main() {
    int s = 0;
    for (int i = 0; i < TRIPS; i++) {
        g[i % 8] = g[(i + 3) % 8] + s;
        if (i % 3 == 0) {
            s = s + g[i % 8];
        }
    }
    print(s);
    return 0;
}
"""


def _retained_bytes(tmp_path, trips: int) -> int:
    """Traced memory dep's replay state holds after a loop of ``trips``
    iterations over the same eight cells."""
    source = LOOP.replace("TRIPS", str(trips))
    path = str(tmp_path / f"loop{trips}.trace")
    record_source(source, path)
    program = compile_source(source)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        analyses = make_analyses(["dep"])
        outcome = replay_with(path, analyses, program)
        del outcome
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    os.remove(path)
    assert analyses[0].engine is not None
    return retained


def test_state_does_not_grow_with_run_length(tmp_path):
    """Ten times the iterations over the same cells retain the same
    memory, up to a small constant: dep's state is O(distinct)."""
    short = _retained_bytes(tmp_path, 2_000)
    long = _retained_bytes(tmp_path, 20_000)
    assert long - short < 16 * 1024, (short, long)
