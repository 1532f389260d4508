"""High-level speedup estimation: pick a construct, simulate, report.

This is the programmatic face of the paper's §IV-B.2 "parallelization
experience": choose the construct the profile recommends, apply the
privatization transformations, and measure the speedup on K workers.
The event stream can come from a live execution or a recorded trace
(:class:`~repro.parallel.taskgraph.TraceSource`) — the predicted
speedups are identical because extraction is a pure function of the
hook stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.constructs import ConstructKind, construct_table
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.parallel.simulator import FutureSimulator, ScheduleResult
from repro.parallel.taskgraph import (LiveSource, TaskGraph, TraceSource,
                                      extract_task_graphs)


class EstimatorError(ValueError):
    """A user-facing estimation failure: unknown construct/procedure,
    nothing to schedule. A ``ValueError`` subclass so pre-existing
    callers catching ``ValueError`` keep working."""


#: Tie-break when several constructs head the same line: loops first
#: (the paper names parallelized regions "the loop on line 489").
#: ``.get`` with the fallback keeps a future ConstructKind from
#: crashing the sort — unknown kinds rank last instead.
_KIND_ORDER = {ConstructKind.LOOP: 0, ConstructKind.PROCEDURE: 1,
               ConstructKind.COND: 2}
_KIND_ORDER_DEFAULT = len(_KIND_ORDER)


@dataclass
class SpeedupResult:
    """Everything Table V reports about one parallelization."""

    target_name: str
    target_pc: int
    workers: int
    graph: TaskGraph
    schedule: ScheduleResult

    @property
    def t_seq(self) -> int:
        return self.schedule.t_seq

    @property
    def t_par(self) -> int:
        return self.schedule.makespan

    @property
    def speedup(self) -> float:
        return self.schedule.speedup

    def describe(self) -> str:
        return (f"{self.target_name}: T_seq={self.t_seq} "
                f"T_par={self.t_par} x{self.speedup:.2f} "
                f"({self.graph.task_count} tasks on "
                f"{self.workers} workers)")


def find_construct(program: ProgramIR, *, line: int | None = None,
                   fn_name: str | None = None,
                   pc: int | None = None) -> int:
    """Resolve a construct head pc from a source location.

    Loops are preferred over conditionals at the same line, mirroring how
    the paper names parallelized regions ("the loop on line 489").
    Raises :class:`EstimatorError` (never a bare ``KeyError``) with the
    valid alternatives listed when the location resolves to nothing.
    """
    table = construct_table(program)
    if pc is not None:
        if pc not in table.by_pc:
            heads = ", ".join(str(p) for p in sorted(table.by_pc)[:12])
            raise EstimatorError(
                f"pc {pc} heads no construct (construct heads: {heads}"
                f"{', ...' if len(table.by_pc) > 12 else ''})")
        return pc
    if fn_name is not None and line is None:
        try:
            return table.procedures[fn_name].pc
        except KeyError:
            known = ", ".join(sorted(table.procedures))
            raise EstimatorError(
                f"no procedure named {fn_name!r} (known procedures: "
                f"{known})") from None
    candidates = [c for c in table.by_pc.values()
                  if c.line == line
                  and (fn_name is None or c.fn_name == fn_name)]
    if not candidates:
        lines = sorted({c.line for c in table.by_pc.values()})
        shown = ", ".join(str(l) for l in lines[:16])
        raise EstimatorError(
            f"no construct at line {line} (lines heading constructs: "
            f"{shown}{', ...' if len(lines) > 16 else ''})")
    candidates.sort(key=lambda c: _KIND_ORDER.get(c.kind,
                                                  _KIND_ORDER_DEFAULT))
    return candidates[0].pc


def simulate_speedup(graph: TaskGraph, *, target_name: str,
                     workers: int = 4, privatize: bool = True,
                     spawn_overhead: int = 0) -> SpeedupResult:
    """Schedule an already-extracted task graph on ``workers`` workers.

    Raises :class:`EstimatorError` when the graph holds no task — a
    construct that executed no instances has nothing to schedule, and
    reporting "x1.00" for it would be a silent lie.
    """
    if not graph.task_count:
        raise EstimatorError(
            f"construct {target_name!r} executed no instances — "
            "nothing to schedule (pick a construct the profiled run "
            "actually entered)")
    sim = FutureSimulator(workers, privatize, spawn_overhead)
    return SpeedupResult(
        target_name=target_name,
        target_pc=graph.target_pc,
        workers=workers,
        graph=graph,
        schedule=sim.schedule(graph),
    )


def estimate_speedup(source: str | None = None, *,
                     program: ProgramIR | None = None,
                     trace: str | None = None,
                     line: int | None = None,
                     fn_name: str | None = None,
                     pc: int | None = None,
                     workers: int = 4,
                     privatize: bool = True,
                     private_vars: tuple[str, ...] = (),
                     auto_induction: bool = True,
                     spawn_overhead: int = 0) -> SpeedupResult:
    """Simulate parallelizing the construct at ``line``/``fn_name``/``pc``.

    Returns the predicted speedup of running its instances as futures on
    ``workers`` workers. The event stream comes from ``trace`` (a
    recorded trace file, replayed — no re-execution) when given,
    otherwise from one live run of ``program``/``source``. ``privatize``
    drops WAR/WAW constraints (the paper's private copies);
    ``private_vars`` names globals whose RAW chains the transformation
    also breaks (per-thread copies that are recomputed or reduced, like
    AES-CTR's ``ivec``); ``auto_induction`` exempts the loop's own
    control variables, which compiled code keeps in registers.
    """
    if trace is not None:
        event_source = TraceSource(trace, program)
        program = event_source.program
    else:
        if program is None:
            if source is None:
                raise EstimatorError("need source, program or trace")
            program = compile_source(source)
        event_source = LiveSource(program)
    target = find_construct(program, line=line, fn_name=fn_name, pc=pc)
    graphs = extract_task_graphs(
        event_source, {target: tuple(private_vars)},
        auto_induction=auto_induction)
    table = construct_table(program)
    return simulate_speedup(graphs[target],
                            target_name=table.by_pc[target].name,
                            workers=workers, privatize=privatize,
                            spawn_overhead=spawn_overhead)
