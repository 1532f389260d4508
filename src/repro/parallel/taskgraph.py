"""Task-graph extraction from a profiled sequential run.

Pick a construct (typically a loop — its instances are iterations, per
the paper's rule 4, or a procedure — its instances are calls). The run
is partitioned into

    serial[0] task[0] serial[1] task[1] ... task[n-1] serial[n]

where ``task[k]`` is the k-th outermost instance of the chosen
construct and the serial pieces are everything in between (prologue,
per-iteration glue, epilogue). Memory accesses are tagged with the
segment they occur in; dependences between different tags become
edges:

* task -> task (RAW): the later task cannot start before the earlier
  finishes;
* task -> serial (RAW): the serial segment joins on the task (the
  paper's "join the future at the first conflicting read");
* WAR/WAW edges are collected separately — they vanish under the
  paper's privatization transformations and are only enforced in the
  no-privatization ablation.

Extraction is one index pass plus one numpy kernel per candidate. A
:class:`BoundaryRecorder` writes an :class:`IndexLog`: every construct
push and pop with its event position (the number of accesses before
it), its timestamp and, at a push, the frame base, plus the access
columns (address, is-write) and the frees. Each block of events
arrives in one :meth:`BoundaryRecorder.record_block` call from the
:class:`~repro.core.instances.InstanceTable` that indexed it. The
pass is ``whatif``'s own dependence-profile pass, so ``advise`` reads
its events once; standalone :func:`extract_task_graphs` runs the same
row pass without a profile over a live run (:class:`LiveSource`,
whose tap hands the pass blocks) or a recorded trace
(:class:`TraceSource`). A
candidate's outermost instances are the log rows where its depth goes
0→1 and 1→0. :func:`task_graphs` then sorts the accesses by address
once and derives every graph from arrays:

* **event-position tagging** — an access's tag is the number of
  instance boundaries before its event position (even: serial
  segment, odd: task), so an access that shares a timestamp with a
  boundary lands on the right side of it (a callee's return-value
  write at its EXIT's timestamp, just before the EXIT). Tags are
  looked up, not searched: every access's log-row rank is counted
  once, and a candidate's tag is a table over the ranks
  (:meth:`IndexLog.tags`);
* **clear epochs** — a frame or heap free forgets the freed cells'
  history, so accesses pair only within one (address, epoch) group;
* **per-instance induction skip windows** — the loop's induction
  cells are ``base + offset`` for the frame base at the start of
  instance k, skipped from that start until the next one; privatized
  globals are skipped everywhere.

Within a group a read pairs with the previous write (RAW) and with the
next write (WAR), and a write with the previous write (WAW). The pairs
do not depend on the candidate, so they are found once; a candidate
that skips accesses pairs again only the groups it skips in.
The tests hold the kernel to a per-event reference, one indexing
tracer and tag shadow per candidate (``tests/parallel/reference.py``).
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.analysis.constructs import ConstructTable, construct_table
from repro.core.blockdep import push_bases, replay_names
from repro.core.instances import BlockRows, InstanceTable
from repro.core.profile_data import ProfileStore
from repro.core.shadow import concat_ranges, free_keys, mark_clear_epochs
from repro.ir.cfg import ProgramIR
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.memory import Memory, MemoryNames
from repro.runtime.tracing import Tracer
from repro.telemetry import as_telemetry

@dataclass(eq=False)
class TaskGraph:
    """Everything the simulator needs, as columns.

    Task k (the k-th outermost instance) runs from ``start[k]`` to
    ``end[k]``; ``serial[k]`` is the instruction count before task k
    and ``serial[n]`` the epilogue, derived from the two. Edges are
    ``(m, 2)`` int64 arrays of distinct rows in ascending order:
    ``task_deps`` rows are (earlier task, later task) RAW precedences,
    ``joins`` rows (task, serial segment) — the segment joins on the
    task before it may run. The ``anti_`` counterparts are the WAR/WAW
    edges, enforced only without privatization. Any sequence converts.
    """

    target_pc: int
    total_time: int
    start: np.ndarray = ()
    end: np.ndarray = ()
    task_deps: np.ndarray = ()
    joins: np.ndarray = ()
    anti_task_deps: np.ndarray = ()
    anti_joins: np.ndarray = ()
    serial: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, np.int64)
        self.end = np.asarray(self.end, np.int64)
        for name in ("task_deps", "joins", "anti_task_deps", "anti_joins"):
            setattr(self, name,
                    np.asarray(getattr(self, name), np.int64).reshape(-1, 2))
        self.serial = (np.append(self.start, self.total_time)
                       - np.concatenate(([0], self.end)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return all(np.array_equal(getattr(self, column.name),
                                  getattr(other, column.name))
                   for column in fields(self))

    @property
    def task_count(self) -> int:
        return len(self.start)

    @property
    def task_time(self) -> int:
        return int((self.end - self.start).sum())

    @property
    def serial_time(self) -> int:
        return int(self.serial.sum())

    def parallel_fraction(self) -> float:
        return self.task_time / self.total_time if self.total_time else 0.0


def induction_offsets_of(program: ProgramIR, target_pc: int) -> frozenset[int]:
    """Frame offsets of the target loop's induction variables.

    A local scalar stored in one of the loop's *control blocks* — the
    header or a back-edge source (the ``for`` step block, a ``while``
    body's trailing increment) — is loop control: a compiled binary
    keeps it in a register and iteration distribution rewrites it
    per-thread, so its accesses must not serialize the task graph.
    Returns the empty set for non-loop targets.
    """
    from repro.analysis.constructs import loop_control_stores
    from repro.analysis.loops import find_loops  # local import: cycle-free

    table = construct_table(program)
    static = table.by_pc[target_pc]
    if not static.is_loop:
        return frozenset()
    fn = program.functions[static.fn_name]
    loop = next((l for l in find_loops(fn)
                 if l.canonical_branch_pc == target_pc), None)
    if loop is None:
        return frozenset()
    slots = loop_control_stores(fn.block_map(), static.block_id, loop)
    return frozenset(slot.offset for slot in slots)


def resolve_private_globals(program: ProgramIR,
                            names: tuple[str, ...]) -> frozenset[int]:
    """Addresses of privatized global variables (whole arrays included)."""
    addrs: set[int] = set()
    for name in names:
        try:
            info = program.global_var(name)
        except KeyError:
            known = ", ".join(v.name for v in program.globals_layout) \
                or "none"
            raise ValueError(
                f"no global variable named {name!r} to privatize "
                f"(known globals: {known})") from None
        addrs.update(range(info.offset, info.offset + info.size))
    return frozenset(addrs)


# ---------------------------------------------------------------------------
# The index log: one pass's record of what extraction reads
# ---------------------------------------------------------------------------

@dataclass
class IndexLog:
    """What task-graph extraction reads from one pass over the events:
    per construct push or pop (in stream order) its head pc (``~pc``
    for a pop), event position (accesses before it) and timestamp; the
    frame base at each push; the access columns (an access's index is
    its event position); and the ``(position, lo, hi)`` frees."""

    pcs: np.ndarray
    at: np.ndarray
    times: np.ndarray
    bases: np.ndarray
    addr: np.ndarray
    write: np.ndarray
    frees: np.ndarray

    @property
    def accesses(self) -> int:
        return len(self.addr)

    @classmethod
    def concat(cls, parts: list["IndexLog"]) -> "IndexLog":
        """The logs of consecutive stream segments as one log: positions
        shift by the accesses of the segments before. A seeded segment
        logs no push for the constructs open at its seam but does log
        their pops, so the result is the log of one serial pass."""
        offset = 0
        shifted = []
        for part in parts:
            shifted.append(replace(part, at=part.at + offset,
                                   frees=part.frees + (offset, 0, 0)))
            offset += part.accesses
        return cls(*(np.concatenate([getattr(part, column.name)
                                     for part in shifted])
                     for column in fields(cls)))

    def outermost(self, pc: int) -> tuple[np.ndarray, np.ndarray]:
        """Log rows that start and end ``pc``'s outermost instances: a
        push taking its depth from 0 to 1, and a pop taking it from 1
        to 0. An instance still open at the end has no end row."""
        rows = np.flatnonzero((self.pcs == pc) | (self.pcs == ~pc))
        push = self.pcs[rows] >= 0
        depth = np.cumsum(np.where(push, 1, -1))
        return rows[push & (depth == 1)], rows[~push & (depth == 0)]

    def tags(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The tag of an access by its row rank (how many log rows come
        at or before its event position, :func:`count_at_or_before`):
        entry r counts the instance boundaries that :meth:`outermost`
        found among the first r rows. Rows are in stream order, so that
        is the number of boundaries at or before the access. Even means
        serial segment tag // 2, odd means task tag // 2."""
        tags = np.zeros(len(self.pcs) + 1, np.int32)
        tags[starts + 1] = 1
        tags[ends + 1] = 1
        return np.cumsum(tags, out=tags)


class BoundaryRecorder:
    """Records an :class:`IndexLog` block by block from the
    :class:`InstanceTable` that indexed each block. It keeps the
    running access count, so every row gets its exact event position
    (an EXIT shares its timestamp with the return-value write before
    it)."""

    def __init__(self) -> None:
        self.accesses = 0
        self._pcs = array("q")
        self._at = array("q")
        self._times = array("q")
        self._bases = array("q")
        self._frees: list[tuple[int, int, int]] = []
        self._addrs = array("q")
        self._writes = bytearray()

    def record_block(self, rows: InstanceTable, block: BlockRows,
                     etypes: np.ndarray, a: np.ndarray, b: np.ndarray,
                     bases: np.ndarray) -> None:
        """Log one block that ``rows`` indexed (``block``), with the
        frame base at each of its pushes."""
        from repro.trace.events import EV_FREE, EV_READ, EV_WRITE

        write = etypes == EV_WRITE
        access = write | (etypes == EV_READ)
        # Accesses before each event (the count at a non-access).
        before = np.cumsum(access) + self.accesses
        signed = block.row
        pushed = block.pushes
        pcs = rows.pc[np.where(pushed, signed, ~signed)]
        for column, values in ((self._pcs, np.where(pushed, pcs, ~pcs)),
                               (self._at, before[block.at]),
                               (self._times, block.t), (self._bases, bases),
                               (self._addrs, a[access])):
            column.frombytes(values.astype(np.int64).tobytes())
        self._writes += write[access].tobytes()
        free = np.flatnonzero(etypes == EV_FREE)
        self._frees.extend(zip(before[free].tolist(), a[free].tolist(),
                               (a[free] + b[free]).tolist()))
        self.accesses += int(np.count_nonzero(access))

    def take(self) -> IndexLog:
        """The log, which ends the recording: the columns are handed
        over without a copy, so the recorder keeps none."""
        log = IndexLog(
            pcs=np.frombuffer(self._pcs, np.int64),
            at=np.frombuffer(self._at, np.int64),
            times=np.frombuffer(self._times, np.int64),
            bases=np.frombuffer(self._bases, np.int64),
            addr=np.frombuffer(self._addrs, np.int64),
            write=np.frombuffer(self._writes, bool),
            frees=np.array(self._frees, dtype=np.int64).reshape(-1, 3))
        del self._pcs, self._at, self._times, self._bases, self._addrs, \
            self._writes
        return log


class _IndexPass(Tracer):
    """Standalone extraction's pass: a :class:`BoundaryRecorder` on an
    :class:`InstanceTable` of its own (the rules ``dep`` runs), which
    no dependence profile rides, fed whole blocks."""

    def __init__(self, table: ConstructTable):
        self.recorder = BoundaryRecorder()
        self._rows = InstanceTable(table, ProfileStore())
        self._seen = 0
        self.final_time = 0

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        self._names = MemoryNames(memory)

    def consume_batch(self, batch) -> None:
        from repro.trace.events import EV_FINISH

        etypes, a, b, t = batch.arrays()
        rows = self._rows
        block = rows.index(etypes, a, b, t, self._seen)
        rows.create_profiles({})
        _, calls, bases = replay_names(self._names, etypes, a, b, [])
        self.recorder.record_block(rows, block, etypes, a, b,
                                   push_bases(block, calls, bases))
        rows.compact()
        self._seen += len(etypes)
        if len(etypes) and etypes[-1] == EV_FINISH:
            self.final_time = int(t[-1])


# ---------------------------------------------------------------------------
# The per-candidate kernel
# ---------------------------------------------------------------------------

class _Pairs(NamedTuple):
    """Dependent access pairs that a boundary may split: the source's
    index in sorted order (which tells its group) and both ends' row
    ranks (which give their tags)."""

    src: np.ndarray
    src_row: np.ndarray
    dst_row: np.ndarray


class _AccessOrder:
    """The work every candidate shares: the accesses stably sorted by
    address (so in event order within an address), with their event
    positions, their (address, clear epoch) group numbers and their
    row ranks, and the pairs within each group (:func:`_pairs`). The
    distinct addresses (``cells``) and where each one's accesses start
    (``cell_start``) replace a per-access address column."""

    def __init__(self, log: IndexLog):
        addr, write = log.addr, log.write
        log.addr = log.write = None
        order = np.argsort(addr, kind="stable")
        addr = addr[order]
        self.write = write[order]
        del write
        #: Event position of each sorted access.
        self.at = (order.astype(np.int32) if len(order) < 1 << 31
                   else order)
        del order
        n = len(addr)
        first = np.flatnonzero(addr[1:] != addr[:-1]) + 1
        self.cell_start = np.concatenate(([0], first, [n])) if n \
            else np.zeros(1, np.int64)
        self.cells = addr[self.cell_start[:-1]]
        del addr, first
        new_group = np.zeros(n, dtype=bool)
        new_group[self.cell_start[:-1]] = True
        if len(log.frees):
            span = n + 1  # positions run 0..accesses
            mark_clear_epochs(new_group, self.cell_start, self.at,
                              free_keys(self.cells, log.frees, span),
                              span)
        self.group = np.cumsum(new_group, dtype=np.int32)
        del new_group
        #: Log rows at or before each access's event position: every
        #: candidate's tag of the access is a function of this rank.
        self.row = count_at_or_before(log.at, n)[self.at]
        raw, anti = _pairs(self.write, self.group)
        self.pairs = self._split(*raw), self._split(*anti)

    def _split(self, src: np.ndarray, dst: np.ndarray) -> _Pairs:
        """The index pairs ``(src, dst)`` that a log row separates; no
        candidate's boundary splits the others."""
        src_row, dst_row = self.row[src], self.row[dst]
        split = src_row != dst_row
        return _Pairs(src[split], src_row[split], dst_row[split])

    def ranges(self, cells: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(first, stop)`` sorted-order index ranges of the accesses
        to each of ``cells`` that was accessed at all, and which of
        ``cells`` those were (as a mask)."""
        rank = np.searchsorted(self.cells, cells)
        found = rank < len(self.cells)
        found[found] = self.cells[rank[found]] == cells[found]
        rank = rank[found]
        return self.cell_start[rank], self.cell_start[rank + 1], found

    def kept_pairs(self, drop: np.ndarray) -> tuple[_Pairs, _Pairs]:
        """:attr:`pairs` with the accesses in ``drop`` left out. Pairs
        never cross a group, so only the groups holding a dropped
        access are paired again; every other group keeps its shared
        pairs."""
        hit = np.zeros(int(self.group[-1]) + 1, dtype=bool)
        hit[self.group[drop]] = True
        touched = hit[self.group]
        redo = np.flatnonzero(touched & ~drop).astype(self.at.dtype)
        kept = []
        for shared, (src, dst) in zip(self.pairs, _pairs(self.write[redo],
                                                         self.group[redo])):
            again = self._split(redo[src], redo[dst])
            keep = ~touched[shared.src]
            kept.append(_Pairs(*(np.concatenate((column[keep], more))
                                 for column, more in zip(shared, again))))
        return kept[0], kept[1]


def _pairs(write: np.ndarray, group: np.ndarray
           ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The RAW and the anti ``(src, dst)`` index pairs of accesses
    within a group: a read pairs with the previous write (RAW) and the
    next write (WAR), a write with the previous write (WAW); WAW and
    WAR are the anti pairs."""
    m = len(write)
    if m < 2:
        empty = np.empty(0, np.int32)
        return (empty, empty), (empty, empty)
    index = np.arange(m, dtype=np.int32)
    # Access i + 1's previous write (-1: none).
    prev = np.where(write, index, -1)
    np.maximum.accumulate(prev, out=prev)
    prev = prev[:-1]
    pair = prev >= 0
    np.maximum(prev, 0, out=prev)
    pair &= group[prev] == group[1:]
    raw = pair & ~write[1:]
    pair &= write[1:]
    raw_dst = np.flatnonzero(raw).astype(np.int32) + 1
    waw_dst = np.flatnonzero(pair).astype(np.int32) + 1
    raw_src, waw_src = prev[raw_dst - 1], prev[waw_dst - 1]
    del prev, pair, raw
    # Access i's next write (m: none).
    following = np.where(write, index, m)
    del index
    np.minimum.accumulate(following[::-1], out=following[::-1])
    following = following[1:]
    war = (following < m) & ~write[:-1]
    np.minimum(following, m - 1, out=following)
    war &= group[following] == group[:-1]
    war_src = np.flatnonzero(war).astype(np.int32)
    return (raw_src, raw_dst), (np.concatenate((waw_src, war_src)),
                                np.concatenate((waw_dst,
                                                following[war_src])))


def _candidate_graph(pc: int, order: _AccessOrder, log: IndexLog,
                     skip: frozenset[int], induction: frozenset[int],
                     total: int) -> TaskGraph:
    starts, ends = log.outermost(pc)
    graph = TaskGraph(target_pc=pc, total_time=total,
                      start=log.times[starts[:len(ends)]],
                      end=log.times[ends])
    if not len(starts) or not len(order.at):
        return graph  # every access is serial[0]: nothing crosses
    tags = log.tags(starts, ends)
    # The frame base at each start: the induction cells' anchor.
    bases = log.bases[np.cumsum(log.pcs >= 0)[starts] - 1]
    drop = _skipped(order, tags, bases, skip, induction)
    raw, anti = order.pairs if drop is None else order.kept_pairs(drop)
    span = len(starts) + len(ends) + 1
    graph.task_deps, graph.joins = _edges(tags, raw, span)
    graph.anti_task_deps, graph.anti_joins = _edges(tags, anti, span)
    return graph


def count_at_or_before(bounds: np.ndarray, accesses: int) -> np.ndarray:
    """For each event position (0..``accesses``), how many of
    ``bounds`` (ascending, repeats allowed) lie at or before it: an
    access at a bound's own position comes after that bound."""
    return np.cumsum(np.bincount(bounds, minlength=accesses + 1),
                     dtype=np.int32)


def _skipped(order: _AccessOrder, tags: np.ndarray, bases: np.ndarray,
             skip: frozenset[int],
             induction: frozenset[int]) -> np.ndarray | None:
    """Accesses the candidate ignores (sorted order), or ``None``:
    privatized globals throughout, and instance k's induction cells
    (``bases[k]`` + offset) from its start until the next instance
    starts."""
    drop = None
    if skip:
        first, stop, _ = order.ranges(np.array(sorted(skip), np.int64))
        if len(first):
            mark = np.zeros(len(order.at) + 1, dtype=np.int32)
            np.add.at(mark, first, 1)
            np.add.at(mark, stop, -1)
            drop = np.cumsum(mark[:-1], dtype=np.int32) > 0
    if induction and len(bases):
        offsets = np.array(sorted(induction), dtype=np.int64)
        cells = np.unique(np.add.outer(np.unique(bases), offsets))
        first, stop, found = order.ranges(cells)
        if len(first):
            sizes = stop - first
            at = concat_ranges(first, sizes)
            # -1: before any instance
            window = (tags[order.row[at]].astype(np.int64) - 1) // 2
            hit = (window >= 0) & np.isin(
                np.repeat(cells[found], sizes)
                - bases[np.maximum(window, 0)], offsets)
            if hit.any():
                if drop is None:
                    drop = np.zeros(len(order.at), dtype=bool)
                drop[at[hit]] = True
    return drop


def _edges(tags: np.ndarray, pairs: _Pairs,
           span: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(task edges, joins)`` of dependent access pairs: only
    pairs whose source is a task and whose tags differ constrain the
    schedule. Pairs are in event order, so a source tag never exceeds
    its destination's, and the keys ``src_tag * span + dst_tag`` sort
    the rows as the graph keeps them."""
    src_tag, dst_tag = tags[pairs.src_row], tags[pairs.dst_row]
    keep = (src_tag != dst_tag) & ((src_tag & 1) == 1)
    keys = np.unique(src_tag[keep].astype(np.int64) * span
                     + dst_tag[keep])
    task = (keys // span - 1) // 2
    dst_tag = keys % span
    into_task = (dst_tag & 1) == 1
    into_serial = ~into_task
    return (np.column_stack((task[into_task],
                             (dst_tag[into_task] - 1) // 2)),
            np.column_stack((task[into_serial], dst_tag[into_serial] // 2)))


# ---------------------------------------------------------------------------
# Event sources: where the hook stream comes from
# ---------------------------------------------------------------------------

class LiveSource:
    """Event source that executes ``program`` under the interpreter;
    every tracer rides the live tee, so block consumers get blocks."""

    def __init__(self, program: ProgramIR,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.program = program
        self.max_steps = max_steps

    def drive(self, tracers: list[Tracer]) -> None:
        from repro.trace.live import TeeTracer

        Interpreter(self.program, TeeTracer(tracers), self.max_steps).run()


class TraceSource:
    """Event source that replays a recorded trace — no re-execution.

    The program is recompiled once from the digest-checked source
    embedded in the trace header unless the caller already has it.
    Every tracer observes the exact hook stream the recording captured,
    so graphs extracted here equal the live ones event for event.
    """

    def __init__(self, path: str | os.PathLike,
                 program: ProgramIR | None = None):
        self.path = os.fspath(path)
        if program is None:
            from repro.trace.reader import TraceReader
            from repro.trace.replay import ReplayEngine

            with TraceReader(self.path) as reader:
                program = ReplayEngine(reader).program
        self.program = program

    def drive(self, tracers: list[Tracer]) -> None:
        from repro.trace.reader import TraceReader
        from repro.trace.replay import ReplayEngine

        with TraceReader(self.path) as reader:
            ReplayEngine(reader, self.program).run(tracers)


def candidate_specs(program: ProgramIR,
                    targets: Mapping[int, tuple[str, ...]],
                    auto_induction: bool = True
                    ) -> dict[int, tuple[frozenset[int], frozenset[int]]]:
    """Each candidate's privatized global addresses and, with
    ``auto_induction``, its loop's induction offsets."""
    return {pc: (resolve_private_globals(program, tuple(private_vars)),
                 induction_offsets_of(program, pc) if auto_induction
                 else frozenset())
            for pc, private_vars in targets.items()}


def task_graphs(log: IndexLog,
                specs: Mapping[int, tuple[frozenset[int], frozenset[int]]],
                total: int, telemetry=None) -> dict[int, TaskGraph]:
    """Every candidate's graph from one pass's log: the accesses are
    sorted by address once, then each graph is one array kernel (the
    ``advisor.extract.kernel`` span). The sort takes the log's access
    columns over, so their memory is freed once sorted."""
    tm = as_telemetry(telemetry)
    with tm.span("advisor.extract.kernel", accesses=log.accesses,
                 frees=len(log.frees)):
        order = _AccessOrder(log)
        return {pc: _candidate_graph(pc, order, log, skip, induction,
                                     total)
                for pc, (skip, induction) in specs.items()}


def extract_task_graphs(source: "LiveSource | TraceSource",
                        targets: Mapping[int, tuple[str, ...]]
                                 | Iterable[int],
                        auto_induction: bool = True,
                        telemetry=None) -> dict[int, TaskGraph]:
    """Extract task graphs for several candidate constructs in ONE pass.

    ``targets`` maps construct head pc -> globals to privatize for that
    candidate (an iterable of pcs means no privatization). One
    :class:`BoundaryRecorder` on a profile-less instance table logs
    the event stream for all of them. With an enabled ``telemetry`` the
    pass and the kernels are the ``advisor.extract.index`` and
    ``advisor.extract.kernel`` spans.
    """
    if not isinstance(targets, Mapping):
        targets = {pc: () for pc in targets}
    if not targets:
        return {}
    program = source.program
    table = construct_table(program)
    for pc in targets:
        if pc not in table.by_pc:
            raise KeyError(f"pc {pc} is not a construct head")
    specs = candidate_specs(program, targets, auto_induction)
    index = _IndexPass(table)
    tm = as_telemetry(telemetry)
    with tm.span("advisor.extract.index", candidates=len(specs)) as span:
        source.drive([index])
        log = index.recorder.take()
        span.set(accesses=log.accesses, frees=len(log.frees))
    return task_graphs(log, specs, index.final_time, tm)
