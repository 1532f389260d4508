"""The block-level dependence-pair kernel (``ShadowArrays.step``).

* Pair for pair, the kernel reports what the per-event
  :class:`ShadowMemory` reports — kind, address, head pc/time/payload,
  tail pc/time — and carries the same state out of every block. This
  is checked on random programs recorded into many small trace blocks
  (frees, calls, state carried across blocks, frees of carried
  addresses the block never touches), starting from a seeded
  :data:`BOUNDARY_ID` state, and on synthetic event streams; the
  carried state also writes the per-event shadow's checkpoint rows and
  frontier.
* Flat and context, which consume whole blocks through the kernel,
  agree live (the per-event hooks), in replay with either decoder and
  in parallel at 2 and 7 jobs on those many-block traces.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import make_analyses
from repro.analyses.base import AnalysisContext
from repro.core.shadow import (BOUNDARY_ID, PAIR_KINDS, ShadowArrays,
                               group_pairs)
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.trace.live import TeeTracer
from repro.trace.columnar import EventBatch
from repro.trace.events import EV_FREE, EV_READ, EV_WRITE
from repro.trace.parallel import parallel_replay
from repro.trace.reader import TraceReader
from repro.trace.replay import replay_with
from repro.trace.writer import TraceWriter
from repro.workloads import get
from tests.core.reference import ShadowMemory
from tests.core.test_random_programs import STEP_CAP, _loop_programs
from tests.core.test_shadow import (BOUNDARY, seed_shadow, shadow_entries,
                                    shadow_frontier)
from tests.lang.test_pretty import _programs

#: Small enough that even a fuzzed program spans several blocks.
BLOCK_BYTES = 96

NAMES = ["flat", "context"]

_sources = st.one_of(_programs.map(pretty_print), _loop_programs())


def _record(source: str, path: str, analyses=()):
    """Record ``source`` into blocks of :data:`BLOCK_BYTES`, feeding
    ``analyses`` live on the same run; returns their finish context,
    or ``None`` when the program does not run to completion."""
    try:
        program = compile_source(source)
    except SemanticError:
        return None
    writer = TraceWriter(path, source, block_bytes=BLOCK_BYTES)
    interp = Interpreter(program, TeeTracer([writer, *analyses]),
                         max_steps=STEP_CAP)
    try:
        exit_value = interp.run()
    except (MiniCRuntimeError, StepLimitExceeded):
        writer.abort()
        return None
    writer.close(exit_value, interp.output)
    return AnalysisContext(program=program, memory=interp.memory,
                           final_time=interp.time, mode="live")


def _batches(path: str) -> list:
    with TraceReader(path) as reader:
        return list(reader.batches())


def _reference(shadow: ShadowMemory, rows, first: int) -> list:
    """The per-event shadow's pairs over ``rows``; an access's payload
    is its event position."""
    pairs = []
    for position, (etype, a, b, t) in enumerate(rows, first):
        if etype == EV_READ:
            write = shadow.on_read(a, b, position, t)
            if write is not None:
                pairs.append(("RAW", a, write[0], write[2], write[1], b, t))
        elif etype == EV_WRITE:
            write, reads = shadow.on_write(a, b, position, t)
            for pc, (payload, read_t) in reads.items():
                pairs.append(("WAR", a, pc, read_t, payload, b, t))
            if write is not None:
                pairs.append(("WAW", a, write[0], write[2], write[1], b, t))
        elif etype == EV_FREE:
            shadow.clear_range(a, a + b)
    return sorted(pairs, key=_order)


def _kernel(state: ShadowArrays, batch: EventBatch, first: int) -> list:
    etypes, a, b, t = batch.arrays()
    rows, head, tail, kind = state.step(
        etypes, a, b, t, np.arange(first, first + len(batch)))
    addr, pc, ts, payload = (col.tolist() for col in rows)
    return sorted(((PAIR_KINDS[k].value, addr[h], pc[h], ts[h],
                    BOUNDARY if payload[h] == BOUNDARY_ID else payload[h],
                    pc[tl], ts[tl])
                   for h, tl, k in zip(head.tolist(), tail.tolist(),
                                       kind.tolist())), key=_order)


def _order(pair: tuple) -> tuple:
    payload = pair[4]
    return pair[:4] + (-1 if payload is BOUNDARY else payload,) + pair[5:]


def _decode(payload: int):
    return BOUNDARY if payload == BOUNDARY_ID else payload


def _check_stream(batches: list, seed_at: int) -> int:
    """Replay ``batches`` through the kernel and the per-event shadow
    from a BOUNDARY seed at event ``seed_at``, block by block; returns
    how many blocks freed carried addresses they never accessed."""
    prefix = ShadowMemory()
    position = 0
    rest = []
    for batch in batches:
        cut = min(max(seed_at - position, 0), len(batch))
        _reference(prefix, batch.slice(0, cut).rows(), position)
        if cut < len(batch):
            rest.append((position + cut, batch.slice(cut, len(batch))))
        position += len(batch)
    reference = seed_shadow(prefix.snapshot())
    state = ShadowArrays.seed(prefix.snapshot())
    untouched_frees = 0
    for first, batch in rest:
        before = set(reference.entries)
        touched = {a for etype, a, _b, _t in batch.rows()
                   if etype in (EV_READ, EV_WRITE)}
        freed = {addr for etype, lo, size, _t in batch.rows()
                 if etype == EV_FREE for addr in range(lo, lo + size)}
        untouched_frees += bool((before - touched) & freed)
        expected = _reference(reference, batch.rows(), first)
        assert _kernel(state, batch, first) == expected
        assert shadow_entries(state, _decode) == reference.entries
        assert state.snapshot() == reference.snapshot()
        assert state.frontier() == shadow_frontier(reference)
    return untouched_frees


class TestKernelMatchesShadow:
    """Kernel pairs == per-event shadow pairs, block by block."""

    @given(_sources, st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_random_programs(self, source, seed_fraction):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            if _record(source, path) is None:
                return
            batches = _batches(path)
            events = sum(len(batch) for batch in batches)
            _check_stream(batches, int(events * seed_fraction))

    def test_heap_workload_frees_untouched_carried_cells(self, tmp_path):
        """A many-block heap program from mid-trace: frees of carried
        addresses that the freeing block never accesses do occur, and
        the kernel matches the shadow through them."""
        path = str(tmp_path / "lisp.trace")
        assert _record(get("lisp-cons", 0.1).source, path) is not None
        batches = _batches(path)
        assert len(batches) > 50
        events = sum(len(batch) for batch in batches)
        assert _check_stream(batches, events // 3) > 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_synthetic_streams(self, data):
        """Random reads, writes and (overlapping, empty, untouched)
        frees over a few addresses, cut into random blocks."""
        draw = data.draw
        rows = []
        t = 0
        for _ in range(draw(st.integers(0, 60))):
            t += draw(st.integers(0, 2))
            etype = draw(st.sampled_from((EV_READ, EV_WRITE, EV_READ,
                                          EV_WRITE, EV_FREE)))
            if etype == EV_FREE:
                rows.append((etype, draw(st.integers(0, 12)),
                             draw(st.integers(0, 5)), t))
            else:
                rows.append((etype, draw(st.integers(0, 9)),
                             draw(st.integers(0, 3)), t))
        cuts = sorted(draw(st.lists(st.integers(0, len(rows)),
                                    max_size=6)))
        batches = []
        for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
            columns = [[row[k] for row in rows[lo:hi]] for k in range(4)]
            batches.append(EventBatch.from_lists(*columns))
        _check_stream(batches, draw(st.integers(0, len(rows))))


class TestGroupPairs:
    """``group_pairs`` == a dict fold, both with a mixed-radix key and
    when the columns' ranges are too wide for one int64 key."""

    @given(st.lists(st.tuples(st.sampled_from((0, 1, 2, 1 << 40,
                                               -(1 << 40))),
                              st.integers(0, 3), st.integers(0, 50)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_dict_fold(self, rows):
        expected = {}
        for x, y, tdep in rows:
            low, count = expected.get((x, y), (tdep, 0))
            expected[(x, y)] = (min(low, tdep), count + 1)
        columns = tuple(np.array([row[k] for row in rows], dtype=np.int64)
                        for k in range(2))
        for wide in (False, True):
            # Squaring the first column's span overflows the key.
            cols = columns + (columns[0],) if wide else columns
            keys, minima, counts = group_pairs(
                cols, np.array([row[2] for row in rows], dtype=np.int64))
            assert {(x, y): (low, count) for x, y, low, count
                    in zip(keys[0], keys[1], minima, counts)} == expected


def _reports(reports) -> dict:
    return {name: (reports[name].to_dict(), reports[name].text)
            for name in NAMES}


class TestManyBlockTraces:
    """Flat and context on traces of many small blocks: live ==
    replay with the columnar and the scalar decoder == parallel at 2
    and 7 jobs."""

    @given(_sources)
    @settings(max_examples=20, deadline=None)
    def test_every_path_agrees(self, source):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            live = make_analyses(NAMES)
            ctx = _record(source, path, live)
            if ctx is None:
                return
            batches = _batches(path)
            events = sum(len(batch) for batch in batches)
            expected = _reports({a.name: a.finish(ctx) for a in live})
            for columnar in (True, False):
                outcome = replay_with(path, make_analyses(NAMES),
                                      columnar=columnar)
                assert _reports(outcome.reports) == expected
            for jobs in (2, 7):
                outcome = parallel_replay(path, NAMES, jobs=jobs,
                                          interval=max(1, events // 6))
                assert outcome.mode == "parallel", outcome.fallback_reason
                assert _reports(outcome.reports) == expected
