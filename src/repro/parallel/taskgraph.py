"""Task-graph extraction from a profiled sequential run.

Pick a construct (typically a loop — its instances are iterations, per
the paper's rule 4, or a procedure — its instances are calls). Drive
one event stream through :class:`TaskGraphTracer` — a live interpreter
run (:class:`LiveSource`) or a recorded trace replayed without
re-execution (:class:`TraceSource`); the two produce identical graphs
because the tracer only consumes hook events. The run is partitioned
into

    serial[0] task[0] serial[1] task[1] ... task[n-1] serial[n]

where ``task[k]`` is the k-th instance of the chosen construct and the
serial pieces are everything in between (prologue, per-iteration glue,
epilogue). Memory accesses are tagged with the segment they occur in;
dependences between different tags become edges:

* task -> task (RAW): the later task cannot start before the earlier
  finishes;
* task -> serial (RAW): the serial segment joins on the task (the
  paper's "join the future at the first conflicting read");
* WAR/WAW edges are collected separately — they vanish under the
  paper's privatization transformations and are only enforced in the
  no-privatization ablation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.constructs import ConstructTable
from repro.core.tracer import AlchemistTracer
from repro.ir.cfg import ProgramIR
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import TeeTracer, Tracer

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
                        auto_induction: bool = True
                        ) -> dict[int, TaskGraph]:
    """Extract task graphs for several candidate constructs in ONE pass.

    ``targets`` maps construct head pc -> globals to privatize for that
    candidate (an iterable of pcs means no privatization). Each target
    gets its own :class:`TaskGraphTracer`; all of them ride the same
    event stream, so the cost of the sweep is one execution or one
    replay regardless of how many candidates are assessed.
    """
    if not isinstance(targets, Mapping):
        targets = {pc: () for pc in targets}
    program = source.program
    table = ConstructTable(program)
    tracers: dict[int, TaskGraphTracer] = {}
    for pc, private_vars in targets.items():
        skip = resolve_private_globals(program, tuple(private_vars))
        induction = (induction_offsets_of(program, pc)
                     if auto_induction else frozenset())
        tracers[pc] = TaskGraphTracer(table, pc, skip, induction)
    if tracers:
        source.drive(list(tracers.values()))
    return {pc: tracer.graph() for pc, tracer in tracers.items()}
