"""The instance table's transition table == the per-event indexing stack.

:class:`~repro.core.instances.InstanceTable` memoises the five rules
as transitions over interned static stacks and assigns rows after each
block in numpy. :class:`~tests.core.reference.IndexingStack` applies the
rules one event at a time. On random programs with recursion, goto,
early returns and breaks, cut into blocks at random sizes and replayed
from a random seam with a seeded stack, both must produce the same
rows (pc, parent, Tenter, Texit, exit position), the same per-block
pushes and pops and payloads, and the same profiles (durations,
instances, creation order).

The memo is bounded: with :data:`~repro.core.instances.MEMO_CAP` forced
tiny it starts afresh over and over, never holds more interned states
or transitions than the cap, and dep's store does not change. A
transition that raises is never memoised, and a failing block leaves
the table as it was before the block, even when the memo was reset in
it, so the error comes from the same event every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import make_analyses
from repro.analysis.constructs import ConstructTable
from repro.core import instances
from repro.core.instances import NO_ROW, OPEN, InstanceTable
from repro.core.pool import ConstructPool
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import EV_BLOCK, EV_BRANCH, EV_ENTER, EV_EXIT
from repro.trace.replay import replay_with
from repro.trace.writer import EventRecorder, record_source
from repro.workloads import get
from tests.core.reference import IndexingStack, ProfileStore
from tests.core.test_random_programs import (STEP_CAP, _loop_programs,
                                             _report_digest)
from tests.lang.test_pretty import _programs
from tests.runtime.test_block_translation import _call_programs

#: Recursion inside loops and conditionals, early returns from inside a
#: loop, a break, and a goto out of nested constructs.
RECURSIVE = """
int g[8];
int rec(int n) {{
    int s = 0;
    for (int i = 0; i < {trips}; i++) {{
        if (n > 0 && (n + i) % {mod} == 0) {{ s = s + rec(n - 1); }}
        if (i == {early}) {{ return s + i; }}
        g[i % 8] = s;
    }}
    while (s > {floor}) {{
        s = s - {step};
        if (s % 3 == 0) {{ break; }}
    }}
    if (n <= 1) {{ goto done; }}
    if (s % 2 == {parity}) {{
        while (s < 100) {{
            s = s + rec(n - 2) + 1;
            if (s > {floor}) {{ goto done; }}
        }}
    }}
done:
    return s;
}}
int main() {{
    int t = 0;
    for (int k = 0; k < {outer}; k++) {{ t = t + rec({depth} + k); }}
    print(t);
    return 0;
}}
"""


@st.composite
def _recursive_programs(draw) -> str:
    return RECURSIVE.format(
        trips=draw(st.integers(1, 4)), mod=draw(st.integers(1, 3)),
        early=draw(st.integers(0, 5)), floor=draw(st.integers(0, 9)),
        step=draw(st.integers(1, 4)), parity=draw(st.integers(0, 1)),
        outer=draw(st.integers(1, 3)), depth=draw(st.integers(0, 6)))


_SOURCES = st.one_of(_recursive_programs(), _call_programs(),
                     _programs.map(pretty_print), _loop_programs())


class _Columns(EventRecorder):
    """A run's records as four int64 columns."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def _deliver(self, batch):
        self.batches.append(batch.arrays())

    def columns(self) -> tuple:
        return tuple(np.concatenate(column)
                     for column in zip(*self.batches))


def _columns(source: str):
    """The program and its records, or ``None`` when it does not
    compile or run to completion."""
    try:
        program = compile_source(source)
    except SemanticError:
        return None
    recorder = _Columns()
    try:
        Interpreter(program, recorder, max_steps=STEP_CAP).run()
    except (MiniCRuntimeError, StepLimitExceeded):
        return None
    return program, recorder.columns()


class _Reference:
    """``IndexingStack`` fed one event at a time, its instances
    numbered as rows in push order, with each block's pushes and pops
    and each event's payload logged like :class:`BlockRows`."""

    def __init__(self, table: ConstructTable, seed=()):
        self.store = ProfileStore()
        self.stack = IndexingStack(table, ConstructPool(), self.store)
        self.rows: list[list[int]] = []
        self._row_of: dict[int, int] = {}
        self.log: list[tuple[int, int, int]] = []
        self.position = 0
        self._block_start = 0
        self.stack.push_observer = self._pushed
        self.stack.pop_observer = self._popped
        for pc, t in seed:
            self.stack._push(table.by_pc[pc], t)
        self.store.dynamic_instances = 0
        self.log.clear()

    def _pushed(self, static, t):
        node = self.stack.stack[-1]
        parent = (self._row_of[id(node.parent)]
                  if node.parent is not None else -1)
        row = len(self.rows)
        self._row_of[id(node)] = row
        self.rows.append([static.pc, parent, t, 0, OPEN])
        self.log.append((row, self.position - self._block_start, t))

    def _popped(self, node, t):
        row = self._row_of[id(node)]
        self.rows[row][3] = t
        self.rows[row][4] = self.position
        self.log.append((~row, self.position - self._block_start, t))

    def open_rows(self) -> list[int]:
        return [self._row_of[id(node)] for node in self.stack.stack]

    def block(self, etypes, a, b, t) -> tuple:
        """Feed one block; its payloads and log, as BlockRows fields."""
        self.log = []
        self._block_start = self.position
        payload = []
        stack = self.stack
        for etype, x, y, time in zip(etypes.tolist(), a.tolist(),
                                     b.tolist(), t.tolist()):
            if etype == EV_ENTER:
                stack.enter_procedure(y, time)
            elif etype == EV_EXIT:
                stack.exit_procedure(time)
            elif etype == EV_BLOCK:
                stack.on_block_enter(x, time)
            elif etype == EV_BRANCH:
                stack.on_branch(x, y, time)
            payload.append(self._row_of[id(stack.stack[-1])]
                           if stack.stack else NO_ROW)
            self.position += 1
        log = np.array(self.log, dtype=np.int64).reshape(-1, 3)
        return (payload, log[:, 0].tolist(), log[:, 1].tolist(),
                log[:, 2].tolist())


def _cuts(draw, length: int) -> list[int]:
    """Block boundaries 0 < ... < length at random sizes (1 to 300)."""
    cuts, at = [], 0
    while at < length:
        at = min(length, at + draw(st.integers(1, 300)))
        cuts.append(at)
    return cuts


def _profiles(store) -> list:
    return [(pc, p.total_duration, p.instances, p.max_duration)
            for pc, p in store.profiles.items()]


def _assert_same(table: ConstructTable, columns, seam: int, cuts,
                 compact: bool) -> None:
    """Replay ``columns`` from event ``seam`` (the reference's stack
    there seeds the table) through both indexers, blocks ending at
    ``cuts``."""
    etypes, a, b, t = columns
    warm = _Reference(table)
    warm.block(etypes[:seam], a[:seam], b[:seam], t[:seam])
    seed = [(warm.rows[row][0], warm.rows[row][2])
            for row in warm.open_rows()]
    reference = _Reference(table, seed)
    rows = InstanceTable(table, ProfileStore())
    rows.seed(seed)
    start = seam
    for end in cuts:
        block = rows.index(etypes[start:end], a[start:end], b[start:end],
                           t[start:end], start - seam)
        rows.create_profiles({})
        expected = reference.block(etypes[start:end], a[start:end],
                                   b[start:end], t[start:end])
        if compact:
            # Row numbers shift with compaction: compare what the rows
            # hold, through the payloads and the push/pop log.
            payload, signed, at, times = expected
            assert [rows.pc[row] if row >= 0 else row
                    for row in block.payload.tolist()] == [
                reference.rows[row][0] if row >= 0 else row
                for row in payload]
            assert (block.row >= 0).tolist() == [r >= 0 for r in signed]
            assert [block.at.tolist(), block.t.tolist()] == [at, times]
            rows.compact(block.payload)
        else:
            assert [block.payload.tolist(), block.row.tolist(),
                    block.at.tolist(), block.t.tolist()] == list(expected)
            assert block.payload.dtype == block.row.dtype == np.int64
            assert rows.stack == reference.open_rows()
        assert rows.pc[rows.stack].tolist() == [
            node.static.pc for node in reference.stack.stack]
        assert _profiles(rows.store) == _profiles(reference.store)
        start = end
    assert rows.store.dynamic_instances == reference.store.dynamic_instances
    assert rows.max_depth == reference.stack.max_depth
    if not compact:
        columns = (rows.pc, rows.parent, rows.t_enter, rows.t_exit,
                   rows.exit_at)
        assert [column.tolist() for column in columns] == [
            [row[i] for row in reference.rows] for i in range(5)]


@given(source=_SOURCES, data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_matches_the_indexing_stack(source, data):
    run = _columns(source)
    if run is None:
        return
    program, columns = run
    events = len(columns[0])
    seam = data.draw(st.sampled_from([0, data.draw(
        st.integers(0, events - 1))]))
    cuts = _cuts(data.draw, events - seam)
    _assert_same(ConstructTable(program), columns, seam,
                 [seam + cut for cut in cuts], data.draw(st.booleans()))


@given(source=_SOURCES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_operands_no_construct_names(source, data):
    """BLOCK ids and BRANCH targets rewritten to ids at and past the
    last one a construct names, which share a memo key: the rules treat
    them alike, so the table still equals the indexing stack."""
    run = _columns(source)
    if run is None:
        return
    program, (etypes, a, b, t) = run
    table = ConstructTable(program)
    end = InstanceTable(table, ProfileStore())._block_end
    a, b = a.copy(), b.copy()
    ids = st.sampled_from([0, end - 2, end - 1, end, end + 1, 2 ** 32 - 1])
    for i in np.flatnonzero((etypes == EV_BLOCK) | (etypes == EV_BRANCH)):
        if data.draw(st.booleans()):
            column = a if etypes[i] == EV_BLOCK else b
            column[i] = max(0, data.draw(ids))
    _assert_same(table, (etypes, a, b, t), 0,
                 _cuts(data.draw, len(etypes)), False)


@pytest.mark.parametrize("name", ["lisp-cons", "130.li"])
@pytest.mark.parametrize("cap", [2, 7])
def test_tiny_memo_cap_on_deep_recursion(name, cap, monkeypatch):
    """Resets past a tiny cap, keeping the current stack: the rows
    still equal the indexing stack's, block by block, and the memo
    never holds more than the cap."""
    source = get(name, 0.25).source
    program, columns = _columns(source)
    seen = _watch_memo(monkeypatch, cap)
    events = len(columns[0])
    _assert_same(ConstructTable(program), columns, 0,
                 list(range(997, events, 997)) + [events], False)
    assert seen["resets"] > 10
    assert seen["states"] <= cap


def _watch_memo(monkeypatch, cap: int) -> dict:
    """Force :data:`MEMO_CAP` to ``cap`` and check, at every state the
    memo interns and every transition it learns, that it holds no more
    than the cap."""
    monkeypatch.setattr(instances, "MEMO_CAP", cap)
    seen = {"resets": 0, "states": 0}
    intern, learn, start = (InstanceTable._intern_state,
                            InstanceTable._learn, InstanceTable._start_memo)

    def interning(self, up, static):
        state = intern(self, up, static)
        assert len(self._intern) <= cap
        seen["states"] = max(seen["states"], len(self._intern))
        return state

    def learning(self, *args):
        found = learn(self, *args)
        assert self._transitions <= cap
        return found

    def starting(self, statics):
        seen["resets"] += 1
        start(self, statics)

    monkeypatch.setattr(InstanceTable, "_intern_state", interning)
    monkeypatch.setattr(InstanceTable, "_learn", learning)
    monkeypatch.setattr(InstanceTable, "_start_memo", starting)
    return seen


@pytest.mark.parametrize("name", ["lisp-cons", "130.li"])
def test_dep_store_does_not_depend_on_the_cap(name, tmp_path,
                                              monkeypatch):
    path = str(tmp_path / f"{name}.trace")
    record_source(get(name, 0.25).source, path)

    def dep() -> tuple:
        analyses = make_analyses(["dep"])
        outcome = replay_with(path, analyses)
        return _report_digest(outcome.reports["dep"].payload)

    uncapped = dep()
    seen = _watch_memo(monkeypatch, 3)
    assert dep() == uncapped
    assert seen["resets"] > 10


def _bad_exit(program) -> tuple:
    """``program``'s records with one EXIT too many after main's, then
    more records; and the position of the bad EXIT."""
    recorder = _Columns()
    Interpreter(program, recorder).run()
    etypes, a, b, t = recorder.columns()
    last = int(np.flatnonzero(etypes == EV_EXIT)[-1])
    bad = last + 1
    return tuple(np.insert(column, bad, value) for column, value in (
        (etypes, EV_EXIT), (a, 0), (b, 0), (t, t[last]))), bad


@pytest.mark.parametrize("cap", [None, 2])
def test_error_raises_at_the_same_event_every_time(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(instances, "MEMO_CAP", cap)
    program = compile_source(get("lisp-cons", 0.05).source)
    table = ConstructTable(program)
    (etypes, a, b, t), bad = _bad_exit(program)

    def raises(end: int) -> bool:
        rows = InstanceTable(table, ProfileStore())
        try:
            for start in range(0, end, 64):
                stop = min(end, start + 64)
                rows.index(etypes[start:stop], a[start:stop],
                           b[start:stop], t[start:stop], start)
        except RuntimeError as error:
            assert "procedure exit with no procedure" in str(error)
            return True
        return False

    assert not raises(bad)
    assert raises(bad + 1)
    reference = _Reference(table)
    with pytest.raises(RuntimeError, match="procedure exit with no"):
        reference.block(etypes[:bad + 1], a[:bad + 1], b[:bad + 1],
                        t[:bad + 1])
    assert reference.position == bad
    # Indexing the failing block again on the same table raises again:
    # the error was not memoised, and the table kept its state.
    rows = InstanceTable(table, ProfileStore())
    rows.index(etypes[:bad - 3], a[:bad - 3], b[:bad - 3], t[:bad - 3], 0)
    for _ in range(3):
        with pytest.raises(RuntimeError, match="procedure exit with no"):
            rows.index(etypes[bad - 3:], a[bad - 3:], b[bad - 3:],
                       t[bad - 3:], bad - 3)


def test_an_error_after_a_memo_reset_keeps_the_start_state(monkeypatch):
    """A block that fills the memo and then raises leaves the table in
    its state before the block: indexing its valid part afterwards
    gives what a fresh table gives, and the error comes from the same
    event again."""
    program = compile_source(get("lisp-cons", 0.05).source)
    table = ConstructTable(program)
    (etypes, a, b, t), bad = _bad_exit(program)
    start = bad - 3

    def prefix() -> InstanceTable:
        rows = InstanceTable(table, ProfileStore())
        rows.index(etypes[:start], a[:start], b[:start], t[:start], 0)
        return rows

    def valid_part(rows: InstanceTable) -> tuple:
        block = rows.index(etypes[start:bad], a[start:bad], b[start:bad],
                           t[start:bad], start)
        return [column.tolist() for column in block], rows.stack

    reference = prefix()
    expected = valid_part(reference)
    rows = prefix()
    # The memo reaches the cap at the bad EXIT, whose stack is not the
    # block's start stack.
    assert rows.stack != expected[1]
    seen = _watch_memo(monkeypatch, reference._transitions)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="procedure exit with no"):
            rows.index(etypes[start:bad + 1], a[start:bad + 1],
                       b[start:bad + 1], t[start:bad + 1], start)
    assert seen["resets"]
    assert valid_part(rows) == expected


def test_unknown_construct_pc_raises_every_time():
    """A BRANCH at a pc no construct heads raises ``KeyError`` with the
    pc, every time it is met."""
    program = compile_source(get("lisp-cons", 0.05).source)
    table = ConstructTable(program)
    rows = InstanceTable(table, ProfileStore())
    bogus = max(table.by_pc) + 10
    for pc in (bogus, bogus + 1, 2 ** 32 - 1, bogus):
        with pytest.raises(KeyError, match=str(pc)):
            rows.index(np.array([EV_BRANCH]), np.array([pc]),
                       np.array([0]), np.array([1]), 0)
