"""The interpreter's record stream against a per-event oracle.

The interpreter emits every event as one ``(etype, a, b, t)`` record;
recorders take them through a list and cut int64 blocks at flushes.
:class:`HookOracle` is the per-event mapping from tracer hooks to
records the recorders once implemented hook by hook — ENTER and EXIT
name their function by its index in the program's function table,
FREE rides the clock of the record before it — and it reaches the
interpreter through the record→hook adapter. On the bundled programs
and on random ones (recursion, goto, malloc/free) the blocks a
recorder takes must hold exactly the oracle's records, in blocks of
exactly ``LIVE_BLOCK_EVENTS`` records but the last, which ends with
the one FINISH — also when the block size is patched down to 64, so
runs span many blocks and flushes.

Replay serves hooked consumers through the same adapter, from decoded
records: replayed from a recorded trace, the oracle must see the hook
stream of a live run, and each hook the same memory (names of the
accessed cells, the frame depth at calls, the heap after ALLOC and
FREE).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                   EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                   EV_WRITE, TRACER_HOOKS, Tracer)
from repro.trace import writer
from repro.trace.live import TeeTracer
from repro.trace.reader import TraceReader
from repro.trace.replay import ReplayEngine
from repro.trace.writer import EventRecorder, record_source
from repro.workloads import get, names
from tests.core.test_random_programs import (STEP_CAP, _loop_programs,
                                             _programs)


class HookOracle(Tracer):
    """Hook → record, one event at a time."""

    def on_start(self, program, memory):
        self.fn_index = {name: i for i, name in
                         enumerate(program.functions)}
        self.records: list[tuple[int, int, int, int]] = []
        self.last_time = 0

    def _emit(self, etype, a, b, timestamp):
        self.records.append((etype, a, b, timestamp))
        self.last_time = timestamp

    def on_enter_function(self, fn_name, entry_pc, timestamp):
        self._emit(EV_ENTER, self.fn_index[fn_name], entry_pc, timestamp)

    def on_exit_function(self, fn_name, timestamp):
        self._emit(EV_EXIT, self.fn_index[fn_name], 0, timestamp)

    def on_block_enter(self, block_id, timestamp):
        self._emit(EV_BLOCK, block_id, 0, timestamp)

    def on_branch(self, pc, target_block, timestamp):
        self._emit(EV_BRANCH, pc, target_block, timestamp)

    def on_read(self, addr, pc, timestamp):
        self._emit(EV_READ, addr, pc, timestamp)

    def on_write(self, addr, pc, timestamp):
        self._emit(EV_WRITE, addr, pc, timestamp)

    def on_heap_alloc(self, base, size, timestamp):
        self._emit(EV_ALLOC, base, size, timestamp)

    def on_frame_free(self, lo, hi):
        self._emit(EV_FREE, lo, hi - lo, self.last_time)

    def on_finish(self, timestamp):
        self._emit(EV_FINISH, 0, 0, timestamp)


class MemoryOracle(HookOracle):
    """The oracle's records, plus what each hook sees of memory."""

    def on_start(self, program, memory):
        super().on_start(program, memory)
        self.memory = memory
        self.seen: list = []

    def on_enter_function(self, fn_name, entry_pc, timestamp):
        super().on_enter_function(fn_name, entry_pc, timestamp)
        self.seen.append(len(self.memory.frames))

    def on_exit_function(self, fn_name, timestamp):
        super().on_exit_function(fn_name, timestamp)
        self.seen.append(len(self.memory.frames))

    def on_read(self, addr, pc, timestamp):
        super().on_read(addr, pc, timestamp)
        self.seen.append(self.memory.addr_to_name(addr))

    def on_write(self, addr, pc, timestamp):
        super().on_write(addr, pc, timestamp)
        self.seen.append(self.memory.addr_to_name(addr))

    def on_heap_alloc(self, base, size, timestamp):
        super().on_heap_alloc(base, size, timestamp)
        self.seen.append(self.memory.addr_to_name(base))

    def on_frame_free(self, lo, hi):
        super().on_frame_free(lo, hi)
        self.seen.append(self.memory.addr_to_name(lo))


class Blocks(EventRecorder):
    """Keeps every block it takes."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def _deliver(self, batch):
        self.batches.append(batch)

    def records(self) -> list[tuple[int, int, int, int]]:
        return [row for batch in self.batches for row in batch.rows()]


#: Recursion that unwinds many frames between block entries, gotos,
#: and a heap block per level freed on the way back.
RECURSIVE = """
int total;
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int walk(int n) {
    int *p = malloc(n + 1);
    int k = 0;
again:
    p[k] = n + k;
    k = k + 1;
    if (k <= n) { goto again; }
    int s = 0;
    if (n > 0) { s = walk(n - 1); }
    total = total + p[n];
    free(p);
    return s + k;
}
int main() {
    print(fib(%d));
    print(walk(%d));
    print(total);
    return 0;
}
"""


@pytest.fixture(params=[8192, 64], ids=["default", "small_blocks"])
def block_size(request, monkeypatch):
    """The recorders' block size: the default, and 64 records, so a
    run spans many blocks."""
    if request.param != writer.LIVE_BLOCK_EVENTS:
        monkeypatch.setattr(writer, "LIVE_BLOCK_EVENTS", request.param)
    return request.param


def _check_stream(program, size: int) -> None:
    """The recorder's blocks == the oracle's records, on one run
    feeding both (a shared emit) and on runs of each alone (the list's
    extend; the adapter)."""
    shared, oracle = Blocks(), HookOracle()
    Interpreter(program, TeeTracer([shared, oracle])).run()
    records = shared.records()
    assert records == oracle.records
    alone = Blocks()
    Interpreter(program, alone).run()
    assert alone.records() == records
    solo = HookOracle()
    Interpreter(program, solo).run()
    assert solo.records == records

    sizes = [len(batch) for batch in alone.batches]
    assert all(n == size for n in sizes[:-1]), sizes
    assert 0 < sizes[-1] <= size
    assert [r[0] for r in records].count(EV_FINISH) == 1
    assert records[-1][0] == EV_FINISH
    assert alone.events == len(records)
    assert alone.final_time == records[-1][3]


def _runs(program) -> bool:
    try:
        Interpreter(program, max_steps=STEP_CAP).run()
    except (MiniCRuntimeError, StepLimitExceeded):
        return False
    return True


@pytest.mark.parametrize("name", names(include_extra=True))
def test_bundled_programs(name, block_size):
    program = compile_source(get(name, 0.1).source)
    shared, oracle = Blocks(), HookOracle()
    Interpreter(program, TeeTracer([shared, oracle])).run()
    records = shared.records()
    assert records == oracle.records
    sizes = [len(batch) for batch in shared.batches]
    assert all(n == block_size for n in sizes[:-1])
    assert records[-1][0] == EV_FINISH
    assert [r[0] for r in records].count(EV_FINISH) == 1


@pytest.mark.parametrize("depths", [(1, 0), (12, 20), (16, 200)])
def test_recursion_goto_and_heap(depths, block_size):
    _check_stream(compile_source(RECURSIVE % depths), block_size)


@given(source=st.one_of(_programs.map(pretty_print), _loop_programs()))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_programs(source, block_size):
    try:
        program = compile_source(source)
    except SemanticError:
        return
    if _runs(program):
        _check_stream(program, block_size)


@pytest.mark.parametrize("name", names(include_extra=True))
def test_replay_serves_the_live_hook_stream(name, tmp_path):
    source = get(name, 0.1).source
    live = MemoryOracle()
    Interpreter(compile_source(source), live).run()
    path = str(tmp_path / "run.trace")
    record_source(source, path)
    replayed = MemoryOracle()
    with TraceReader(path) as reader:
        ReplayEngine(reader).run([replayed])
    assert replayed.records == live.records
    assert replayed.seen == live.seen


def test_the_adapter_serves_every_hook():
    """The oracle overrides every tracer hook, so the stream equality
    above covers each hook the adapter must call."""
    assert {name for name in TRACER_HOOKS
            if name in vars(HookOracle)} == set(TRACER_HOOKS)
