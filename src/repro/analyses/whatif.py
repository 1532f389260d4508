"""The what-if advisor: Table V as a first-class analysis.

``whatif`` closes the paper's profile-to-decision loop (§IV-B) on the
unified analysis protocol: one event stream builds the dependence
profile, the :class:`~repro.core.advisor.Advisor` turns it into ranked
candidate constructs with required privatizations, and every
non-blocked candidate is swept through the
:class:`~repro.parallel.simulator.FutureSimulator` across a set of
worker counts. The result is a JSON-able ranking of "parallelize this,
privatize that, expect roughly x3.5 on 4 workers" answers.

The task graphs come from the same single pass as the profile:
candidates are only known once the profile exists, so a
:class:`~repro.parallel.taskgraph.BoundaryRecorder` logs every
construct's pushes and pops, plus the access and free columns, from
the instance rows dep's block engine writes — whether the blocks come
from a trace or a live run's tap. After the advisor ranks the candidates,
:func:`~repro.parallel.taskgraph.task_graphs` builds each one's graph
from that log with a numpy kernel. Nothing is replayed or executed a
second time, live or from a recording.

The profiling pass is inherited wholesale from
:class:`~repro.analyses.builtin.DependenceAnalysis` — including its
segment protocol, so ``whatif`` runs under sharded parallel
replay: workers merge the dependence profile exactly as ``dep`` does,
each segment's log joins the others by position offset, and the sweep
happens once after the fold. Results are a pure function
of the event stream, so live, serial-replay and parallel-replay runs
produce identical output — the registry parity tests cover ``whatif``
like every other plugin.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any

from repro.analyses.base import (AnalysisContext, AnalysisResult,
                                 OptionSpec, register)
from repro.analyses.builtin import DependenceAnalysis
from repro.core.advisor import Advisor, Recommendation, Verdict
from repro.core.report import ProfileReport
from repro.ir.cfg import ProgramIR
from repro.parallel.simulator import FutureSimulator
from repro.parallel.taskgraph import (BoundaryRecorder, IndexLog,
                                      candidate_specs, task_graphs)

#: Worker counts swept when the caller does not choose (Table V runs
#: on 4 workers; the sweep shows where scaling saturates).
DEFAULT_WORKERS = "2,4,8,16"


def parse_worker_counts(spec: str) -> tuple[int, ...]:
    """``"2,4,8"`` -> ``(2, 4, 8)``; rejects empties, non-positives and
    duplicates with messages naming the offender."""
    counts: list[int] = []
    parts = [p.strip() for p in str(spec).split(",")]
    if not any(parts):
        raise ValueError("workers: need at least one worker count")
    for part in parts:
        if not part:
            raise ValueError(
                f"workers: empty entry in {spec!r} (use e.g. '2,4,8')")
        try:
            count = int(part)
        except ValueError:
            raise ValueError(
                f"workers: {part!r} is not an integer") from None
        if count < 1:
            raise ValueError(
                f"workers: counts must be >= 1, got {count}")
        if count in counts:
            raise ValueError(f"workers: duplicate count {count}")
        counts.append(count)
    return tuple(counts)


def _private_globals(program: ProgramIR,
                     rec: Recommendation) -> tuple[str, ...]:
    """The advisor's privatization list restricted to program globals.

    Privatized *locals* need no RAW exemption — each spawned instance
    owns a fresh frame already — so only global names feed the
    extraction's skip set (the paper's per-thread ``ivec`` copies).
    """
    names = []
    for name in rec.privatize:
        try:
            program.global_var(name)
        except KeyError:
            continue
        names.append(name)
    return tuple(names)


@register
class WhatIfAnalysis(DependenceAnalysis):
    """Predicted futures-parallelization speedups per candidate
    construct, grounded in the profiled event stream. A block consumer
    (inherited from ``dep``), live and on replay; the tests hold its
    graphs to a per-event task-graph tracer on the interpreter."""

    name = "whatif"
    description = ("what-if advisor: predicted futures speedup per "
                   "candidate construct (Table V sweep)")
    options = (
        OptionSpec("workers", str, DEFAULT_WORKERS,
                   "comma-separated worker counts to sweep"),
        OptionSpec("top", int, 8,
                   "candidate constructs taken from the advisor"),
    )

    def __init__(self, workers: str = DEFAULT_WORKERS, top: int = 8):
        super().__init__()  # full WAR/WAW profile — the advisor needs it
        self.worker_counts = parse_worker_counts(workers)
        if top < 1:
            raise ValueError(f"top must be >= 1, got {top}")
        self.top = top

    def _sweep_options(self) -> dict[str, Any]:
        return {"workers": list(self.worker_counts), "top": self.top}

    # -- the one pass ------------------------------------------------------

    def on_start(self, program: ProgramIR, memory, construct_stack=(),
                 shadow=()) -> None:
        """Dep's block engine, logging to a fresh recorder."""
        self.recorder = BoundaryRecorder()
        super().on_start(program, memory, construct_stack, shadow)

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        report = super().finish(ctx).payload
        return _advise(report, ctx, self.worker_counts, self.top,
                       self.recorder.take())

    # -- segment protocol -------------------------------------------------
    #
    # The profile folds exactly as `dep`'s; each segment's index log
    # and the sweep options ride in its state so the classmethod merge
    # can rebuild them (segment workers run in other processes — `self`
    # is long gone by merge time).
    #
    # A segment ships its log compressed and the merge inflates it:
    # megabytes unpickled on the pool's result thread stay in that
    # thread's malloc arena and raise the parent's peak RSS. The merge
    # pops each compressed log as it inflates it, so none outlives its
    # join.

    def export_segment(self, ctx: AnalysisContext) -> dict:
        state = super().export_segment(ctx)
        state["whatif"] = self._sweep_options()
        log = pickle.dumps(self.recorder.take(), pickle.HIGHEST_PROTOCOL)
        state["index"] = zlib.compress(log, 1)
        return state

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        sweep = states[0]["whatif"]
        report = super().merge_segments(states, ctx).payload
        return _advise(report, ctx, tuple(sweep["workers"]),
                       sweep["top"],
                       IndexLog.concat([
                           pickle.loads(zlib.decompress(state.pop("index")))
                           for state in states]))


# ---------------------------------------------------------------------------
# The sweep itself — shared by finish() and merge_segments()
# ---------------------------------------------------------------------------

def _advise(report: ProfileReport, ctx: AnalysisContext,
            worker_counts: tuple[int, ...], top: int,
            log: IndexLog) -> AnalysisResult:
    """Advisor candidates × worker counts -> the ranked what-if result."""
    from repro.staticdep import report_for

    static = report_for(ctx.program, getattr(ctx, "telemetry", None))
    recommendations = Advisor(report, static_report=static).recommend(top)

    skipped: list[dict[str, Any]] = []
    simulate: list[Recommendation] = []
    entry_pc = ctx.program.main.entry_pc
    for rec in recommendations:
        if rec.view.pc == entry_pc:
            # ``main`` spans the entire run: there is no caller left to
            # spawn it from, so a sweep would report a vacuous x1.00 at
            # every worker count.
            entry = rec.summary()
            entry["reason"] = ("the entry procedure is the whole run — "
                               "there is nothing to spawn it from")
            skipped.append(entry)
        elif rec.verdict is Verdict.BLOCKED:
            entry = rec.summary()
            entry["reason"] = rec.blocked_reason
            skipped.append(entry)
        else:
            simulate.append(rec)

    from repro.telemetry import as_telemetry

    tm = as_telemetry(getattr(ctx, "telemetry", None))
    targets = {rec.view.pc: _private_globals(ctx.program, rec)
               for rec in simulate}
    with tm.span("advisor.extract", candidates=len(targets)):
        graphs = (task_graphs(log, candidate_specs(ctx.program, targets),
                              ctx.final_time, tm)
                  if targets else {})

    candidates: list[dict[str, Any]] = []
    with tm.span("advisor.sweep", candidates=len(simulate),
                 workers=list(worker_counts)) as span:
        schedules = 0
        for rec in simulate:
            graph = graphs[rec.view.pc]
            entry = rec.summary()
            entry["privatized_globals"] = list(targets[rec.view.pc])
            if not graph.task_count:
                entry["reason"] = ("construct executed no instances — "
                                   "nothing to schedule")
                skipped.append(entry)
                continue
            entry["tasks"] = graph.task_count
            entry["parallel_fraction"] = round(
                graph.parallel_fraction(), 6)
            sweep: dict[str, Any] = {}
            best: dict[str, Any] | None = None
            points, runs = FutureSimulator().sweep(graph, worker_counts)
            schedules += runs
            for workers in worker_counts:
                schedule = points[workers]
                point = {
                    "speedup": round(schedule.speedup, 4),
                    "t_seq": schedule.t_seq,
                    "t_par": schedule.makespan,
                    "join_stall": schedule.join_stall,
                }
                sweep[str(workers)] = point
                if best is None or point["speedup"] > best["speedup"]:
                    best = dict(point, workers=workers)
            entry["speedups"] = sweep
            entry["best"] = best
            candidates.append(entry)
        span.set(schedules=schedules)
    tm.count("advisor.candidates_swept", len(candidates))

    # Rank by payoff: best predicted speedup first; ties fall back to
    # the advisor's ordering (already verdict-then-size) and finally
    # the pc so the order is total and mode-independent.
    advisor_rank = {rec.view.pc: index
                    for index, rec in enumerate(simulate)}
    candidates.sort(key=lambda c: (-c["best"]["speedup"],
                                   advisor_rank[c["pc"]], c["pc"]))
    data: dict[str, Any] = {
        "workers": list(worker_counts),
        "total_instructions": ctx.final_time,
        "candidates": candidates,
        "skipped": skipped,
        "best": ({"name": candidates[0]["name"],
                  "pc": candidates[0]["pc"],
                  "line": candidates[0]["line"],
                  **candidates[0]["best"]}
                 if candidates else None),
    }
    return AnalysisResult(analysis=WhatIfAnalysis.name, data=data,
                          text=_render(data), payload=report)


def _render(data: dict[str, Any]) -> str:
    counts = ", ".join(str(w) for w in data["workers"])
    lines = [f"What-if advisor: {len(data['candidates'])} "
             f"candidate(s) swept over {{{counts}}} worker(s)"]
    for rank, entry in enumerate(data["candidates"], start=1):
        private = (" privatize: " + ", ".join(entry["privatize"])
                   if entry["privatize"] else "")
        confidence = entry.get("confidence", "dynamic-only")
        lines.append(
            f"{rank:2d}. {entry['name']} (line {entry['line']}, "
            f"{entry['kind']}) [{entry['verdict']}, "
            f"{confidence} confidence]{private}")
        sweep = "  ".join(
            f"x{w}={entry['speedups'][str(w)]['speedup']:.2f}"
            for w in data["workers"])
        best = entry["best"]
        lines.append(
            f"    {sweep}  best x{best['workers']}: "
            f"{best['speedup']:.2f} (T_seq={best['t_seq']} "
            f"T_par={best['t_par']}, {entry['tasks']} task(s), "
            f"parallel fraction {entry['parallel_fraction']:.2f})")
    if not data["candidates"]:
        lines.append("  (no simulatable candidates — every construct "
                     "is blocked, below the size threshold, or never "
                     "ran)")
    if data["skipped"]:
        lines.append("skipped:")
        for entry in data["skipped"]:
            lines.append(f"  {entry['name']} (line {entry['line']}) "
                         f"[{entry['verdict']}]: {entry['reason']}")
    return "\n".join(lines)
