"""Task-graph extraction one hooked event at a time: the oracle of the
task-graph kernel.

:class:`TaskGraphTracer` rides the per-event indexing stack of
:class:`~tests.core.reference.AlchemistTracer` to delimit the chosen
construct's instances and tags every access with its task or serial
segment in a tag shadow of its own; a dependence between different
tags becomes a task edge or a join. One tracer per candidate, where the
kernel (:func:`repro.parallel.taskgraph.task_graphs`) derives every
candidate's graph from one pass's log.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.constructs import ConstructTable
from repro.parallel.taskgraph import TaskGraph
from tests.core.reference import AlchemistTracer


def edge_rows(pairs) -> np.ndarray:
    """``pairs`` as a task graph keeps its edges: distinct ``(m, 2)``
    int64 rows in ascending order."""
    return np.array(sorted(set(pairs)), np.int64).reshape(-1, 2)


#: Tag for "currently in serial segment k": encoded as -(k + 1).
def _serial_tag(segment: int) -> int:
    return -(segment + 1)


def _is_serial(tag: int) -> bool:
    return tag < 0


def _segment_of(tag: int) -> int:
    return -tag - 1


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
        #: (start, end) of each finished outermost instance.
        self.tasks: list[tuple[int, int]] = []
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
            self.tasks.append((self._open_start, timestamp))
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
        return TaskGraph(
            target_pc=self.target_pc,
            total_time=self.final_time,
            start=[start for start, _ in self.tasks],
            end=[end for _, end in self.tasks],
            task_deps=edge_rows(self.task_deps),
            joins=edge_rows(join_rows(self.joins)),
            anti_task_deps=edge_rows(self.anti_task_deps),
            anti_joins=edge_rows(join_rows(self.anti_joins)),
        )


def join_rows(joins: dict[int, set[int]]) -> list[tuple[int, int]]:
    """``{segment: tasks}`` as (task, segment) edge rows."""
    return [(task, segment) for segment, tasks in joins.items()
            for task in tasks]
