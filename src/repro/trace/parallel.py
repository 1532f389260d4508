"""Parallel sharded replay: fan trace segments across a process pool.

Serial replay walks the whole event stream through every analysis in
one process, so wall-clock scales with trace length no matter how many
cores the box has. This driver splits a checkpointed trace into
independently replayable segments (:mod:`repro.trace.shards`), runs
the full registered-analysis set over each segment in a worker
process — each worker seeks straight to its seam, reconstructs memory
and decoder state from the checkpoint, and replays only its slice —
then hands each analysis's per-segment exports, in trace order, to
its :meth:`~repro.analyses.base.Analysis.merge_segments`. The merged
results are bit-identical to a serial pass (the differential parity
suite asserts ``to_dict()`` equality for every registered analysis on
every bundled workload).

Fallbacks are graceful and explicit: a trace with no usable seams, a
single-job request, or an analysis that does not implement the segment
protocol all degrade to one serial pass, reported in
:attr:`ParallelOutcome.mode`.

When serial is still faster: segment workers pay a fork, a program
compile, checkpoint reconstruction, and a pickled export each, so tiny
traces (fewer than ~100k events) or near-free analyses (``counts``)
rarely gain; a gain needs long traces with expensive analyses and
idle cores. On a 2-vCPU shared host the perfbench ledger row
``trace.parallel.speedup_vs_serial`` measured 0.56-0.92 at 2 jobs, so
today serial wins there (see ``docs/parallel-replay.md``).
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
from dataclasses import dataclass, field
from typing import Iterable

from repro.analyses import (Analysis, AnalysisContext, AnalysisResult,
                            get_analysis, make_analyses, parse_spec)
from repro.analyses.base import SegmentSeed
from repro.ir.cfg import ProgramIR
from repro.trace.events import TraceError
from repro.trace.reader import TraceReader
from repro.trace.replay import (ReplayOutcome, check_functions,
                                dispatch_batches, replay_with)
from repro.trace.shards import (Checkpoint, ShardPlan, compiled_program,
                                plan_shards, restore_memory,
                                snapshot_memory)
from repro.util import effective_cpus


def unsupported_analyses(names: Iterable[str]) -> list[str]:
    """Requested analyses that cannot run under sharded replay: those
    that do not override :meth:`Analysis.export_segment`."""
    return [name for name in parse_spec(names)
            if get_analysis(name).export_segment
            is Analysis.export_segment]


def run_segment(job: dict) -> dict:
    """Worker entry point: replay one segment, export partial states.

    Top-level so it pickles; ``job`` is a plain dict (path, checkpoint
    payload, end index, analysis names/options, flags). With
    ``job["telemetry"]`` the worker builds its own :class:`Telemetry`
    and ships the span tree + counters back for the coordinator to
    stitch; without it the NULL path still times the segment (the
    ``seconds``/``cpu_seconds`` fields are span-derived either way).
    """
    from repro.telemetry import NULL_TELEMETRY, Telemetry

    tm = Telemetry() if job.get("telemetry") else NULL_TELEMETRY
    # Entered/exited by hand: the whole body is the span, and the
    # result dict needs the span's timings after exit.
    seg_span = tm.span("segment", ordinal=job["ordinal"])
    seg_span.__enter__()
    try:
        for module in job.get("plugin_modules", ()):
            import importlib

            importlib.import_module(module)
        path = job["path"]
        checkpoint = Checkpoint.from_payload(job["checkpoint"])
        budget = (None if job["end_index"] is None
                  else job["end_index"] - checkpoint.index)
        with TraceReader(path) as reader:
            consumed, exports, memory_snapshot = _replay_segment(
                job, reader, checkpoint, budget, tm)
    finally:
        seg_span.__exit__(None, None, None)
    seg_span.set(events=consumed, start_index=checkpoint.index)
    tm.count("trace.events_decoded", consumed)
    return {
        "ordinal": job["ordinal"],
        "exports": exports,
        "events": consumed,
        "memory": memory_snapshot,
        # Span-derived wall time; CPU time is the honest per-segment
        # cost when workers contend for cores (wall time on an
        # oversubscribed box includes the scheduler's time-slicing,
        # which is not the segment's work).
        "seconds": seg_span.wall_seconds,
        "cpu_seconds": seg_span.cpu_seconds,
        "spans": tm.export_spans(),
        "counters": dict(tm.counters) if tm.enabled else None,
    }


def _replay_segment(job: dict, reader: TraceReader,
                    checkpoint: Checkpoint, budget: int | None,
                    tm) -> tuple[int, dict, dict | None]:
    """Restore state at the seam and replay one segment's events."""
    path = job["path"]
    header = reader.header
    with tm.span("segment.restore"):
        program = compiled_program(path, header)
        check_functions(program, header)
        memory = restore_memory(program, header, checkpoint)
        seed = SegmentSeed(
            shadow=checkpoint.shadow,
            construct_stack=[tuple(entry)
                             for entry in checkpoint.cstack],
            call_stack=[header.functions[i]
                        for i in checkpoint.frames],
        )
        analyses = make_analyses(job["analyses"], job.get("options"))
        for analysis in analyses:
            analysis.begin_segment(program, memory, seed)

    replay_span = tm.span("segment.replay")
    replay_span.__enter__()
    try:
        # Decoding resumes at the seam with the per-type delta state
        # reseeded from the checkpoint; dispatch is the serial loop.
        final_time, consumed = dispatch_batches(
            reader.batches_from(checkpoint.offset,
                                checkpoint.decoder_state(),
                                columnar=job["columnar"]),
            analyses, memory, budget=budget, segment=True)
    finally:
        replay_span.__exit__(None, None, None)
    replay_span.set(events=consumed)
    if budget is not None and consumed < budget:
        raise TraceError(
            f"{path}: segment at event {checkpoint.index} ended "
            f"after {consumed} of {budget} events (truncated "
            "trace?)")

    ctx = AnalysisContext(program=program, memory=memory,
                          final_time=final_time, mode="replay",
                          telemetry=tm)
    exports = {analysis.name: analysis.export_segment(ctx)
               for analysis in analyses}
    memory_snapshot = (snapshot_memory(memory, header).to_payload()
                       if job["end_index"] is None else None)
    return consumed, exports, memory_snapshot


@dataclass
class ParallelOutcome:
    """All results of one (possibly parallel) replay pass."""

    reports: dict[str, AnalysisResult]
    context: AnalysisContext
    plan: ShardPlan
    jobs: int
    #: "parallel" or "serial" (fallback; ``fallback_reason`` says why).
    mode: str
    fallback_reason: str = ""
    wall_seconds: float = 0.0
    segment_seconds: list[float] = field(default_factory=list)
    #: Per-segment worker CPU time (excludes time-slicing waits when
    #: workers outnumber cores; what capacity planning should use).
    segment_cpu_seconds: list[float] = field(default_factory=list)
    #: Parent-side merge time (the serial tail of the run).
    merge_seconds: float = 0.0

    results = ReplayOutcome.results
    describe = ReplayOutcome.describe


def parallel_replay(path: str | os.PathLike,
                    analyses: Iterable[str] | str = ("dep",),
                    jobs: int | None = None,
                    options: dict | None = None,
                    interval: int | None = None,
                    plugin_modules: tuple[str, ...] = (),
                    allow_scan: bool = True,
                    telemetry=None,
                    columnar: bool = True,
                    program: ProgramIR | None = None) -> ParallelOutcome:
    """Replay ``path`` through the named analyses across ``jobs``
    workers; falls back to one serial pass when sharding cannot help
    (and says so in the outcome).

    ``interval`` asks for seams that many events apart (default: the
    trace's existing ``.ckpt`` sidecar at any interval, else a scan at
    the default interval); ``plugin_modules`` are imported
    in each worker before analyses resolve (the registry of a spawned
    process only knows the builtins). With an enabled ``telemetry``
    the coordinator opens a ``replay.parallel`` span and stitches each
    worker's ``segment`` span tree (and counters) under it.
    ``columnar=False`` decodes every segment with the scalar reference
    decoder. ``jobs`` of None or 0
    means one worker per usable CPU (:func:`repro.util.effective_cpus`).
    A caller that already compiled the trace's source passes it as
    ``program``, as to :func:`~repro.trace.replay.replay_with`, and the
    plan, the merge and a serial fallback use it instead of compiling
    their own.
    """
    from repro.telemetry import as_telemetry

    path = os.fspath(path)
    if program is not None:
        with TraceReader(path) as reader:
            compiled_program(path, reader.header, program)
    names = parse_spec(analyses)
    if jobs is None or jobs <= 0:
        jobs = effective_cpus()
    tm = as_telemetry(telemetry)
    coord = tm.span("replay.parallel", trace=path, jobs=jobs,
                    analyses=list(names))
    coord.__enter__()
    # `finally` still runs on the early-return fallback paths, so the
    # coordinator span brackets the whole call either way.
    try:
        start = _time.perf_counter()
        unsupported = unsupported_analyses(names)
        if unsupported:
            plan = ShardPlan(path=path, segments=[],
                             source="serial")
            coord.set(mode="serial")
            return _serial_fallback(
                path, names, options, plan, jobs, start,
                "analysis without segment support: "
                + ", ".join(unsupported), tm, columnar)
        with tm.span("replay.plan"):
            plan = plan_shards(path, jobs, interval=interval,
                               allow_scan=allow_scan)
        coord.set(segments=len(plan.segments), seams=plan.source)
        if not plan.is_parallel:
            coord.set(mode="serial")
            return _serial_fallback(path, names, options, plan, jobs,
                                    start,
                                    "no usable shard seams"
                                    if jobs > 1 else "jobs=1", tm,
                                    columnar)

        coord.set(mode="parallel")
        workers = min(jobs, len(plan.segments))
        jobs_payload = [{
            "path": path,
            "ordinal": segment.ordinal,
            "checkpoint": segment.checkpoint.to_payload(),
            "end_index": segment.end_index,
            "analyses": names,
            "options": options,
            "plugin_modules": plugin_modules,
            "telemetry": tm.enabled,
            "columnar": columnar,
        } for segment in plan.segments]
        if workers == 1:
            results = [run_segment(job) for job in jobs_payload]
        else:
            with multiprocessing.Pool(processes=workers) as pool:
                results = pool.map(run_segment, jobs_payload,
                                   chunksize=1)
        results.sort(key=lambda r: r["ordinal"])
        for result in results:
            tm.attach(result.get("spans"))
            tm.merge_counters(result.get("counters"))
        if tm.enabled:
            busy = sum(r["seconds"] for r in results)
            tm.gauge("parallel.workers", workers)
            tm.gauge("parallel.segments", len(results))

        with TraceReader(path) as reader:
            header = reader.header
            footer = reader.read_footer()
            program = compiled_program(path, header)
        final_memory = restore_memory(
            program, header,
            Checkpoint.from_payload(results[-1]["memory"]))
        wall = _time.perf_counter() - start
        ctx = AnalysisContext(
            program=program,
            memory=final_memory,
            final_time=footer.final_time,
            exit_value=footer.exit_value,
            output=[tuple(v) for v in footer.output],
            events=footer.events,
            wall_seconds=wall,
            mode="replay",
            telemetry=tm,
        )
        with tm.span("replay.merge", analyses=list(names)) as merge_span:
            reports: dict[str, AnalysisResult] = {}
            for name in names:
                reports[name] = get_analysis(name).merge_segments(
                    [result["exports"][name] for result in results], ctx)
        merge_seconds = merge_span.wall_seconds
        wall = _time.perf_counter() - start
        ctx.wall_seconds = wall
        if tm.enabled:
            # Pool utilization: worker busy-time over the wall-clock
            # capacity the pool had open (1.0 = perfectly packed).
            tm.gauge("parallel.pool_utilization",
                     round(busy / (wall * workers), 4) if wall else 0.0)
            from repro.telemetry import get_logger

            get_logger(__name__).info(
                "parallel replay merged", extra={
                    "trace": path, "segments": len(results),
                    "jobs": workers,
                    "merge_seconds": round(merge_seconds, 6),
                    "wall_seconds": round(wall, 6)})
        return ParallelOutcome(
            reports=reports, context=ctx, plan=plan, jobs=workers,
            mode="parallel", wall_seconds=wall,
            segment_seconds=[r["seconds"] for r in results],
            segment_cpu_seconds=[r["cpu_seconds"] for r in results],
            merge_seconds=merge_seconds)
    finally:
        coord.__exit__(None, None, None)


def _serial_fallback(path: str, names: list[str], options: dict | None,
                     plan: ShardPlan, jobs: int, start: float,
                     reason: str, telemetry=None,
                     columnar: bool = True) -> ParallelOutcome:
    instances = make_analyses(names, options)
    with TraceReader(path) as reader:
        program = compiled_program(path, reader.header)
    outcome = replay_with(path, instances, program, telemetry=telemetry,
                          columnar=columnar)
    wall = _time.perf_counter() - start
    outcome.context.wall_seconds = wall
    return ParallelOutcome(
        reports=outcome.reports, context=outcome.context, plan=plan,
        jobs=1, mode="serial", fallback_reason=reason,
        wall_seconds=wall)
