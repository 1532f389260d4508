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

Extraction is one shared index pass plus one numpy kernel per
candidate. :class:`TaskGraphCollector` rides one event stream — a live
interpreter run (:class:`LiveSource`) or a recorded trace replayed
without re-execution (:class:`TraceSource`) — through a single
:class:`~repro.core.indexing.IndexingStack` for every candidate at
once. It records, once for all candidates, the access columns
(address, is-write) and the frees, and per candidate the
outermost-instance boundaries (timestamps, plus the frame base at each
start). An access's event position is its index in the access stream;
boundaries and frees are stamped with theirs, the number of accesses
before them. :func:`extract_task_graphs` then sorts the accesses by
address once and derives every graph from arrays:

* **event-position tagging** — an access's tag is the number of
  instance boundaries before its event position (even: serial
  segment, odd: task), so an access that shares a timestamp with a
  boundary lands on the right side of it (a callee's return-value
  write just before its EXIT, the caller's read just after);
* **clear epochs** — a frame or heap free forgets the freed cells'
  history, so accesses pair only within one (address, epoch) group;
* **per-instance induction skip windows** — the loop's induction
  cells are ``base + offset`` for the frame base at the start of
  instance k, skipped from that start until the next one; privatized
  globals are skipped everywhere.

Within a group a read pairs with the previous write (RAW) and with the
next write (WAR), and a write with the previous write (WAW).
:class:`TaskGraphTracer` is the per-event reference the kernel is
tested against: one full tracer and tag shadow per candidate.
"""

from __future__ import annotations

import functools
import os
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.constructs import ConstructTable
from repro.core.indexing import IndexingStack
from repro.core.pool import NodeAllocator
from repro.core.shadow import concat_ranges, free_keys, mark_clear_epochs
from repro.core.tracer import AlchemistTracer
from repro.ir.cfg import ProgramIR
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import Memory
from repro.runtime.tracing import TeeTracer, Tracer
from repro.telemetry import as_telemetry

#: Tag for "currently in serial segment k": encoded as -(k + 1).
def _serial_tag(segment: int) -> int:
    return -(segment + 1)


def _is_serial(tag: int) -> bool:
    return tag < 0


def _segment_of(tag: int) -> int:
    return -tag - 1


@dataclass
class TaskNode:
    """One instance of the parallelized construct."""

    index: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class TaskGraph:
    """Everything the simulator needs."""

    target_pc: int
    total_time: int
    tasks: list[TaskNode] = field(default_factory=list)
    #: serial[k] is the instruction count before task k; serial[n] is the
    #: epilogue. len(serial) == len(tasks) + 1.
    serial: list[int] = field(default_factory=list)
    #: (earlier task, later task) RAW precedence edges.
    task_deps: set[tuple[int, int]] = field(default_factory=set)
    #: serial segment k joins on these tasks before it may run.
    joins: dict[int, set[int]] = field(default_factory=dict)
    #: WAR/WAW counterparts, enforced only without privatization.
    anti_task_deps: set[tuple[int, int]] = field(default_factory=set)
    anti_joins: dict[int, set[int]] = field(default_factory=dict)

    @property
    def task_time(self) -> int:
        return sum(t.duration for t in self.tasks)

    @property
    def serial_time(self) -> int:
        return sum(self.serial)

    def parallel_fraction(self) -> float:
        return self.task_time / self.total_time if self.total_time else 0.0


class TaskGraphTracer(AlchemistTracer):
    """Tags every memory access with its task/serial segment and records
    cross-tag dependences. Reuses the Alchemist indexing machinery to
    delimit construct instances; the expensive per-construct dependence
    profiling is replaced by the cheaper tag shadow."""

    def __init__(self, table: ConstructTable, target_pc: int,
                 skip_global_addrs: frozenset[int] = frozenset(),
                 induction_offsets: frozenset[int] = frozenset()):
        super().__init__(table)
        if target_pc not in table.by_pc:
            raise KeyError(f"pc {target_pc} is not a construct head")
        self.target_pc = target_pc
        #: Privatized globals: accesses to them constrain nothing (the
        #: paper's per-thread copies of ivec / errors / sample counters).
        self.skip_global_addrs = skip_global_addrs
        #: Frame offsets of the loop's induction variables. A compiled
        #: loop keeps these in registers, and iteration distribution
        #: rewrites them per-thread; either way they don't serialize.
        self.induction_offsets = induction_offsets
        self._skip_addrs: set[int] = set(skip_global_addrs)
        self.tasks: list[TaskNode] = []
        self.task_deps: set[tuple[int, int]] = set()
        self.joins: dict[int, set[int]] = {}
        self.anti_task_deps: set[tuple[int, int]] = set()
        self.anti_joins: dict[int, set[int]] = {}
        self._target_depth = 0
        self._current = _serial_tag(0)
        self._open_start = 0
        # addr -> [write_tag, {read tags}]
        self._tag_shadow: dict[int, list] = {}
        self.stack.push_observer = self._on_push
        self.stack.pop_observer = self._on_pop

    # -- instance boundaries ----------------------------------------------

    def _on_push(self, static, timestamp: int) -> None:
        if static.pc != self.target_pc:
            return
        self._target_depth += 1
        if self._target_depth == 1:
            self._current = len(self.tasks)
            self._open_start = timestamp
            if self.induction_offsets and self.memory is not None:
                frames = self.memory.frames
                if frames:
                    base = frames[-1].base
                    self._skip_addrs = set(self.skip_global_addrs)
                    self._skip_addrs.update(
                        base + off for off in self.induction_offsets)

    def _on_pop(self, node, timestamp: int) -> None:
        if node.static.pc != self.target_pc:
            return
        self._target_depth -= 1
        if self._target_depth == 0:
            index = len(self.tasks)
            self.tasks.append(TaskNode(index, self._open_start, timestamp))
            self._current = _serial_tag(index + 1)

    # -- tagged dependence tracking ------------------------------------------

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        if addr in self._skip_addrs:
            return
        cur = self._current
        entry = self._tag_shadow.get(addr)
        if entry is None:
            self._tag_shadow[addr] = [None, {cur}]
            return
        writer = entry[0]
        if writer is not None and writer != cur:
            self._record(writer, cur, anti=False)
        entry[1].add(cur)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        if addr in self._skip_addrs:
            return
        cur = self._current
        entry = self._tag_shadow.get(addr)
        if entry is None:
            self._tag_shadow[addr] = [cur, set()]
            return
        writer, readers = entry
        for reader in readers:
            if reader != cur:
                self._record(reader, cur, anti=True)
        if writer is not None and writer != cur:
            self._record(writer, cur, anti=True)
        entry[0] = cur
        entry[1] = set()

    def _record(self, src_tag: int, dst_tag: int, anti: bool) -> None:
        """A dependence from code tagged ``src_tag`` to ``dst_tag``."""
        deps = self.anti_task_deps if anti else self.task_deps
        joins = self.anti_joins if anti else self.joins
        if _is_serial(src_tag):
            # Serial code runs on the main thread in program order; a
            # dependence out of it is satisfied by construction.
            return
        if _is_serial(dst_tag):
            joins.setdefault(_segment_of(dst_tag), set()).add(src_tag)
        elif src_tag < dst_tag:
            deps.add((src_tag, dst_tag))

    def on_frame_free(self, lo: int, hi: int) -> None:
        super().on_frame_free(lo, hi)
        shadow = self._tag_shadow
        if hi - lo < len(shadow):
            for addr in range(lo, hi):
                shadow.pop(addr, None)
        else:
            for addr in [a for a in shadow if lo <= a < hi]:
                del shadow[addr]

    # -- result ---------------------------------------------------------------

    def graph(self) -> TaskGraph:
        total = self.final_time
        serial = []
        prev_end = 0
        for task in self.tasks:
            serial.append(task.start - prev_end)
            prev_end = task.end
        serial.append(total - prev_end)
        return TaskGraph(
            target_pc=self.target_pc,
            total_time=total,
            tasks=list(self.tasks),
            serial=serial,
            task_deps=set(self.task_deps),
            joins={k: set(v) for k, v in self.joins.items()},
            anti_task_deps=set(self.anti_task_deps),
            anti_joins={k: set(v) for k, v in self.anti_joins.items()},
        )


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

    table = ConstructTable(program)
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
# The shared index pass
# ---------------------------------------------------------------------------

class _Instances:
    """One candidate's outermost instances, as the index pass saw them.

    Boundaries are stamped twice: with the timestamp (the task's
    extent) and with the number of accesses before them (where the
    kernel splits the access stream). An instance still open when the
    stream ends has a start and no end; it tags the accesses after its
    start but is not a task.
    """

    __slots__ = ("depth", "start_at", "end_at", "start_t", "end_t",
                 "bases")

    def __init__(self) -> None:
        self.depth = 0
        self.start_at = array("q")
        self.end_at = array("q")
        self.start_t = array("q")
        self.end_t = array("q")
        #: Frame base at each start: the induction cells' anchor.
        self.bases = array("q")


class _NoProfile:
    """The stack's profile store, stubbed: instance boundaries are all
    the collector needs from the stack."""

    def on_construct_enter(self, static) -> None:
        pass

    def on_construct_complete(self, node) -> None:
        pass


class TaskGraphCollector(Tracer):
    """The one extraction pass shared by every candidate construct.

    A single :class:`IndexingStack` delimits the outermost instances of
    all target pcs; memory accesses are recorded once as columns, and
    every instance boundary and free is stamped with its *event
    position* in the access stream — the number of accesses before it
    — which orders it against the accesses even where they share a
    timestamp (a callee's return-value write comes before its EXIT,
    the caller's read after it).

    ``consume_batch`` is the replay fast path (``batch_kind = "span"``):
    a memory-quiet span's BLOCK/BRANCH rows go to the stack and its
    accesses are copied out as arrays. The per-event hooks serve live
    runs and ``columnar=False`` replay.
    """

    batch_kind = "span"

    def __init__(self, table: ConstructTable, targets: Iterable[int]):
        self.instances: dict[int, _Instances] = {}
        for pc in targets:
            if pc not in table.by_pc:
                raise KeyError(f"pc {pc} is not a construct head")
            self.instances[pc] = _Instances()
        self.stack = stack = IndexingStack(table, NodeAllocator(),
                                           _NoProfile())
        stack.push_observer = self._on_push
        stack.pop_observer = self._on_pop
        # BRANCH/BLOCK hooks go straight to the stack.
        self.on_branch = stack.on_branch
        self.on_block_enter = stack.on_block_enter
        self.memory: Memory | None = None
        self.final_time = 0
        #: ``(accesses before it, lo, hi)`` of every frame or heap free.
        self.frees: list[tuple[int, int, int]] = []
        self.accesses = 0
        self._addrs: list[int] = []
        self._writes: list[bool] = []
        self._addr_chunks: list[np.ndarray] = []
        self._write_chunks: list[np.ndarray] = []

    # -- instance boundaries ----------------------------------------------

    def _on_push(self, static, timestamp: int) -> None:
        inst = self.instances.get(static.pc)
        if inst is None:
            return
        inst.depth += 1
        if inst.depth == 1:
            inst.start_at.append(self.accesses)
            inst.start_t.append(timestamp)
            inst.bases.append(self.memory.frames[-1].base)

    def _on_pop(self, node, timestamp: int) -> None:
        inst = self.instances.get(node.static.pc)
        if inst is None:
            return
        inst.depth -= 1
        if inst.depth == 0:
            inst.end_at.append(self.accesses)
            inst.end_t.append(timestamp)

    # -- per-event hooks ----------------------------------------------------

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        self.memory = memory

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self.stack.enter_procedure(entry_pc, timestamp)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self.stack.exit_procedure(timestamp)

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        self._addrs.append(addr)
        self._writes.append(False)
        self.accesses += 1

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        self._addrs.append(addr)
        self._writes.append(True)
        self.accesses += 1

    def on_frame_free(self, lo: int, hi: int) -> None:
        self.frees.append((self.accesses, lo, hi))

    def on_finish(self, timestamp: int) -> None:
        self.final_time = timestamp

    # -- replay fast path ---------------------------------------------------

    def consume_batch(self, batch) -> None:
        """One memory-quiet span: accesses leave as arrays, and only
        BLOCK/BRANCH rows reach Python, each with the count of accesses
        before it."""
        from repro.trace.events import EV_BRANCH, EV_WRITE

        etypes = batch.etypes
        if not isinstance(etypes, np.ndarray):
            self._consume_rows(batch)
            return
        control_lut, access_lut = _event_luts()
        access = np.flatnonzero(access_lut[etypes])
        control = np.flatnonzero(control_lut[etypes])
        seen = self.accesses
        if control.size:
            on_branch = self.on_branch
            on_block = self.on_block_enter
            for before, etype, a, b, t in zip(
                    (np.searchsorted(access, control) + seen).tolist(),
                    etypes[control].tolist(), batch.a[control].tolist(),
                    batch.b[control].tolist(), batch.t[control].tolist()):
                self.accesses = before
                if etype == EV_BRANCH:
                    on_branch(a, b, t)
                else:
                    on_block(a, t)
        if access.size:
            if self._addrs:
                self._flush()
            self._addr_chunks.append(batch.a[access])
            self._write_chunks.append(etypes[access] == EV_WRITE)
        self.accesses = seen + access.size

    def _consume_rows(self, batch) -> None:
        """Scalar-decoded spans take the per-event hooks."""
        from repro.trace.events import EV_BLOCK, EV_BRANCH, EV_READ, EV_WRITE

        for etype, a, b, t in batch.rows():
            if etype == EV_READ:
                self.on_read(a, b, t)
            elif etype == EV_WRITE:
                self.on_write(a, b, t)
            elif etype == EV_BLOCK:
                self.on_block_enter(a, t)
            elif etype == EV_BRANCH:
                self.on_branch(a, b, t)

    # -- the access columns -------------------------------------------------

    def _flush(self) -> None:
        """Move the hook-path lists into a chunk (keeps event order)."""
        try:
            addrs = np.array(self._addrs, dtype=np.int64)
        except OverflowError:
            from repro.trace.events import TraceError

            raise TraceError("memory access address beyond int64 "
                             "(corrupt trace)") from None
        self._addr_chunks.append(addrs)
        self._write_chunks.append(np.array(self._writes, dtype=bool))
        self._addrs, self._writes = [], []

    def take_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(addr, is_write)`` of every access in event order — the
        index into them is the access's event position. Hands the
        recorded chunks over, so the collector keeps no copy."""
        if self._addrs:
            self._flush()
        if not self._addr_chunks:
            return np.empty(0, np.int64), np.empty(0, bool)
        addr = np.concatenate(self._addr_chunks)
        self._addr_chunks = []
        write = np.concatenate(self._write_chunks)
        self._write_chunks = []
        return addr, write


@functools.cache
def _event_luts() -> tuple[np.ndarray, np.ndarray]:
    """BLOCK/BRANCH and READ/WRITE lookup tables over event codes
    (built on first use: ``repro.trace`` imports the analyses, which
    import this module)."""
    from repro.trace.events import EV_BLOCK, EV_BRANCH, EV_READ, EV_WRITE

    control = np.zeros(256, dtype=bool)
    control[[EV_BLOCK, EV_BRANCH]] = True
    access = np.zeros(256, dtype=bool)
    access[[EV_READ, EV_WRITE]] = True
    return control, access


# ---------------------------------------------------------------------------
# The per-candidate kernel
# ---------------------------------------------------------------------------

class _AccessOrder:
    """The work every candidate shares: the accesses stably sorted by
    address (so in event order within an address), with their event
    positions and their (address, clear epoch) group numbers. The
    distinct addresses (``cells``) and where each one's accesses start
    (``cell_start``) replace a per-access address column."""

    def __init__(self, collector: TaskGraphCollector):
        addr, write = collector.take_columns()
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
        if collector.frees:
            span = n + 1  # positions run 0..accesses
            mark_clear_epochs(new_group, self.cell_start, self.at,
                              free_keys(self.cells,
                                        np.array(collector.frees,
                                                 dtype=np.int64), span),
                              span)
        self.group = np.cumsum(new_group, dtype=np.int32)

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


def _candidate_graph(pc: int, order: _AccessOrder, inst: _Instances,
                     skip: frozenset[int], induction: frozenset[int],
                     total: int) -> TaskGraph:
    tasks = [TaskNode(index, start, end) for index, (start, end)
             in enumerate(zip(inst.start_t, inst.end_t))]
    serial = []
    prev_end = 0
    for task in tasks:
        serial.append(task.start - prev_end)
        prev_end = task.end
    serial.append(total - prev_end)
    graph = TaskGraph(target_pc=pc, total_time=total, tasks=tasks,
                      serial=serial)
    if not inst.start_at or not len(order.at):
        return graph  # every access is serial[0]: nothing crosses
    bounds = np.empty(len(inst.start_at) + len(inst.end_at), np.int64)
    bounds[0::2] = inst.start_at
    bounds[1::2] = inst.end_at
    # Boundaries at or before an access's event position: even means
    # serial segment tag // 2, odd means task tag // 2.
    tag = np.searchsorted(bounds, order.at, side="right").astype(np.int32)
    write, group = order.write, order.group
    drop = _skipped(order, tag, inst, skip, induction)
    if drop is not None:
        keep = ~drop
        tag, write, group = tag[keep], write[keep], group[keep]
    _fold_edges(graph, tag, write, group, len(bounds) + 1)
    return graph


def _skipped(order: _AccessOrder, tag: np.ndarray, inst: _Instances,
             skip: frozenset[int],
             induction: frozenset[int]) -> np.ndarray | None:
    """Accesses the candidate ignores (sorted order), or ``None``:
    privatized globals throughout, and instance k's induction cells
    from its start until the next instance starts."""
    drop = None
    if skip:
        first, stop, _ = order.ranges(np.array(sorted(skip), np.int64))
        if len(first):
            mark = np.zeros(len(tag) + 1, dtype=np.int32)
            np.add.at(mark, first, 1)
            np.add.at(mark, stop, -1)
            drop = np.cumsum(mark[:-1], dtype=np.int32) > 0
    if induction and len(inst.bases):
        offsets = np.array(sorted(induction), dtype=np.int64)
        bases = np.asarray(inst.bases)
        cells = np.unique(np.add.outer(np.unique(bases), offsets))
        first, stop, found = order.ranges(cells)
        if len(first):
            sizes = stop - first
            at = concat_ranges(first, sizes)
            window = (tag[at].astype(np.int64) - 1) // 2  # -1: before any
            hit = (window >= 0) & np.isin(
                np.repeat(cells[found], sizes)
                - bases[np.maximum(window, 0)], offsets)
            if hit.any():
                if drop is None:
                    drop = np.zeros(len(tag), dtype=bool)
                drop[at[hit]] = True
    return drop


def _fold_edges(graph: TaskGraph, tag: np.ndarray, write: np.ndarray,
                group: np.ndarray, span: int) -> None:
    """RAW/WAR/WAW pairs within each group -> the graph's edge sets.

    A read pairs with the previous write (RAW) and the next write
    (WAR), a write with the previous write (WAW); only pairs whose
    source is a task and whose tags differ constrain the schedule.
    """
    m = len(tag)
    if m < 2:
        return

    def keys(src_tags, dst_tags):
        return src_tags.astype(np.int64) * span + dst_tags

    index = np.arange(m, dtype=np.int32)
    # Access i + 1's previous write (-1: none), as a view.
    prev = np.where(write, index, -1)
    np.maximum.accumulate(prev, out=prev)
    prev = prev[:-1]
    later_tag, later_write = tag[1:], write[1:]
    pair = prev >= 0
    np.maximum(prev, 0, out=prev)
    pair &= group[prev] == group[1:]
    src = tag[prev]
    del prev
    pair &= (src != later_tag) & ((src & 1) == 1)
    raw = pair & ~later_write
    pair &= later_write
    raw_keys = keys(src[raw], later_tag[raw])
    anti_keys = [keys(src[pair], later_tag[pair])]
    del src, raw, pair

    # Access i's next write (m: none), as a view.
    following = np.where(write, index, m)
    del index
    np.minimum.accumulate(following[::-1], out=following[::-1])
    following = following[1:]
    earlier_tag = tag[:-1]
    war = (following < m) & ~write[:-1] & ((earlier_tag & 1) == 1)
    np.minimum(following, m - 1, out=following)
    war &= group[following] == group[:-1]
    dst = tag[following]
    del following
    war &= dst != earlier_tag
    anti_keys.append(keys(earlier_tag[war], dst[war]))

    _add_edges(np.unique(raw_keys), span, graph.task_deps, graph.joins)
    _add_edges(np.unique(np.concatenate(anti_keys)), span,
               graph.anti_task_deps, graph.anti_joins)


def _add_edges(keys: np.ndarray, span: int, deps: set,
               joins: dict[int, set[int]]) -> None:
    """Decode ``src_tag * span + dst_tag`` keys into task edges and
    serial-segment joins."""
    if not len(keys):
        return
    task = (keys // span - 1) // 2
    dst = keys % span
    into_task = (dst & 1) == 1
    deps.update(zip(task[into_task].tolist(),
                    ((dst[into_task] - 1) // 2).tolist()))
    into_serial = ~into_task
    for segment, src in zip((dst[into_serial] // 2).tolist(),
                            task[into_serial].tolist()):
        joins.setdefault(segment, set()).add(src)


# ---------------------------------------------------------------------------
# Event sources: where the hook stream comes from
# ---------------------------------------------------------------------------

class LiveSource:
    """Event source that executes ``program`` under the interpreter."""

    def __init__(self, program: ProgramIR, max_steps: int | None = None):
        self.program = program
        self.max_steps = max_steps

    def drive(self, tracers: list[Tracer]) -> None:
        tracer = tracers[0] if len(tracers) == 1 else TeeTracer(tracers)
        if self.max_steps is None:
            Interpreter(self.program, tracer).run()
        else:
            Interpreter(self.program, tracer, self.max_steps).run()


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
            from repro.ir.lowering import compile_source
            from repro.trace.events import source_digest
            from repro.trace.reader import TraceReader

            with TraceReader(self.path) as reader:
                header = reader.header
            if source_digest(header.source) != header.digest:
                from repro.trace.events import TraceError

                raise TraceError(
                    f"{self.path}: embedded source does not match the "
                    "header digest (corrupt trace)")
            program = compile_source(header.source, header.filename)
        self.program = program

    def drive(self, tracers: list[Tracer]) -> None:
        from repro.trace.reader import TraceReader
        from repro.trace.replay import ReplayEngine

        with TraceReader(self.path) as reader:
            ReplayEngine(reader, self.program).run(tracers)


def extract_task_graphs(source: "LiveSource | TraceSource",
                        targets: Mapping[int, tuple[str, ...]]
                                 | Iterable[int],
                        auto_induction: bool = True,
                        telemetry=None) -> dict[int, TaskGraph]:
    """Extract task graphs for several candidate constructs in ONE pass.

    ``targets`` maps construct head pc -> globals to privatize for that
    candidate (an iterable of pcs means no privatization). One
    :class:`TaskGraphCollector` rides the event stream for all of
    them, so the sweep costs one execution or one replay regardless of
    how many candidates are assessed; each graph is then one array
    kernel over the shared access columns. With an enabled
    ``telemetry`` the pass and the kernels are the
    ``advisor.extract.index`` and ``advisor.extract.kernel`` spans.
    """
    if not isinstance(targets, Mapping):
        targets = {pc: () for pc in targets}
    if not targets:
        return {}
    program = source.program
    table = ConstructTable(program)
    specs = {pc: (resolve_private_globals(program, tuple(private_vars)),
                  induction_offsets_of(program, pc) if auto_induction
                  else frozenset())
             for pc, private_vars in targets.items()}
    collector = TaskGraphCollector(table, specs)
    tm = as_telemetry(telemetry)
    with tm.span("advisor.extract.index", candidates=len(specs)) as span:
        source.drive([collector])
        counts = {"accesses": collector.accesses,
                  "frees": len(collector.frees)}
        span.set(**counts)
    with tm.span("advisor.extract.kernel", **counts):
        order = _AccessOrder(collector)
        return {pc: _candidate_graph(pc, order, collector.instances[pc],
                                     skip, induction,
                                     collector.final_time)
                for pc, (skip, induction) in specs.items()}

