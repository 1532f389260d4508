"""Batch record/replay: many workloads, many analyses, many processes.

The driver fans jobs out over a ``multiprocessing`` pool and returns
results in deterministic (submission) order regardless of completion
order — each job is pure (workload name + scale in, summary dict out),
so parallel and serial execution produce identical payloads.

Job payloads are plain dicts of JSON-able values rather than live
``ProfileReport`` objects: workers run in separate processes, and a
compact summary both pickles cheaply and diffs nicely across runs.

``workers=0`` (or 1) runs jobs inline in the calling process — handy
for tests and for platforms where process spawn cost would swamp the
tiny bundled workloads.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
from dataclasses import dataclass, field
from typing import Any

from repro.trace.replay import replay_trace
from repro.trace.writer import record_source
from repro.util import effective_cpus

#: Default analyses a batch replay runs.
DEFAULT_ANALYSES = ("dep", "locality", "hot")


@dataclass(frozen=True)
class BatchJob:
    """One unit of batch work.

    ``kind`` is ``"record"`` (run the workload, write ``trace_path``)
    or ``"replay"`` (stream ``trace_path`` through ``analyses``).
    """

    kind: str
    name: str
    trace_path: str
    workload: str = ""
    scale: float = 1.0
    analyses: tuple[str, ...] = DEFAULT_ANALYSES
    #: Modules imported in the worker before resolving ``analyses`` —
    #: how user plugins reach the registry of a freshly *spawned*
    #: process (fork-start platforms inherit the parent registry, spawn
    #: platforms re-import only the builtins).
    plugin_modules: tuple[str, ...] = ()
    #: Per-analysis options for replay jobs, as nested (name, value)
    #: pairs so the job stays hashable: e.g.
    #: ``(("whatif", (("workers", "2,4"), ("top", 3))),)``. Validated
    #: against each plugin's OptionSpec schema in the worker.
    options: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = ()
    #: Collect telemetry in the worker and ship the span tree back on
    #: the result (set by the driver when its own telemetry is on).
    telemetry: bool = False


@dataclass
class BatchResult:
    """Outcome of one job, in submission order."""

    job: BatchJob
    ok: bool
    seconds: float
    payload: dict[str, Any] = field(default_factory=dict)
    error: str = ""
    #: Worker span tree / counters (only when the job asked for
    #: telemetry); the driver stitches these under its ``batch`` span.
    spans: dict[str, Any] | None = None
    counters: dict[str, int] | None = None


def run_job(job: BatchJob) -> BatchResult:
    """Execute one job (also the worker entry point — must stay
    importable at module top level for pickling)."""
    from repro.telemetry import NULL_TELEMETRY, Telemetry

    tm = Telemetry() if job.telemetry else NULL_TELEMETRY
    span = tm.span(f"batch.{job.kind}", workload=job.name)
    span.__enter__()
    try:
        if job.plugin_modules:
            import importlib

            for module in job.plugin_modules:
                importlib.import_module(module)
        if job.kind == "record":
            from repro.workloads import get

            workload = get(job.workload or job.name, job.scale)
            result = record_source(
                workload.source, job.trace_path, filename=workload.name,
                telemetry=tm)
            payload = {
                "trace": result.path,
                "events": result.events,
                "trace_bytes": result.trace_bytes,
                "final_time": result.final_time,
                "exit_value": result.exit_value,
            }
        elif job.kind == "replay":
            # Analyses resolve through the shared registry; every
            # AnalysisResult.data is JSON-able, hence picklable. A
            # result with no data dict falls back to its raw payload.
            if job.options:
                from repro.analyses import make_analyses
                from repro.trace.replay import replay_with

                option_map = {name: dict(pairs)
                              for name, pairs in job.options}
                consumers = make_analyses(job.analyses, option_map)
                outcome = replay_with(job.trace_path, consumers,
                                      telemetry=tm)
            else:
                outcome = replay_trace(job.trace_path, job.analyses,
                                       telemetry=tm)
            payload = {
                name: (report.data if report.data
                       or report.payload is None else report.payload)
                for name, report in outcome.reports.items()
            }
        else:
            raise ValueError(f"unknown batch job kind {job.kind!r}")
    except Exception as exc:  # worker errors travel as data, not crashes
        span.__exit__(type(exc), exc, None)
        return BatchResult(job=job, ok=False,
                           seconds=span.wall_seconds,
                           error=f"{type(exc).__name__}: {exc}",
                           spans=tm.export_spans(),
                           counters=dict(tm.counters) if tm.enabled
                           else None)
    span.__exit__(None, None, None)
    return BatchResult(job=job, ok=True,
                       seconds=span.wall_seconds,
                       payload=payload,
                       spans=tm.export_spans(),
                       counters=dict(tm.counters) if tm.enabled else None)


def run_batch(jobs: list[BatchJob],
              workers: int | None = None) -> list[BatchResult]:
    """Run ``jobs`` over a process pool; results in submission order.

    ``workers=None`` sizes the pool to ``min(len(jobs),
    effective_cpus())``;
    ``workers<=1`` runs serially in-process.
    """
    if workers is None:
        workers = min(len(jobs), effective_cpus())
    if workers <= 1 or len(jobs) <= 1:
        return [run_job(job) for job in jobs]
    with multiprocessing.Pool(processes=min(workers, len(jobs))) as pool:
        # pool.map preserves submission order by construction.
        return pool.map(run_job, jobs)


@dataclass
class BatchReport:
    """Record phase + replay phase over a set of workloads."""

    records: list[BatchResult]
    replays: list[BatchResult]
    workers: int
    wall_seconds: float

    def by_name(self) -> dict[str, dict[str, Any]]:
        """Deterministically ordered {workload: {record, replay}}."""
        merged: dict[str, dict[str, Any]] = {}
        for result in self.records:
            merged.setdefault(result.job.name, {})["record"] = result
        for result in self.replays:
            merged.setdefault(result.job.name, {})["replay"] = result
        return merged

    def failures(self) -> list[BatchResult]:
        """Every failed job (record or replay), in submission order —
        the batch driver's exit code and failure summary hang off
        this, so a worker error can never be silently swallowed into
        a partial-results report."""
        return [result for result in self.records + self.replays
                if not result.ok]

    def describe(self) -> str:
        lines = [f"batch: {len(self.records)} workload(s), "
                 f"{self.workers} worker(s), "
                 f"{self.wall_seconds:.2f}s wall"]
        for name, phases in self.by_name().items():
            record = phases.get("record")
            replay = phases.get("replay")
            parts = [f"  {name:12s}"]
            if record is not None:
                if record.ok:
                    parts.append(f"recorded {record.payload['events']} "
                                 f"events ({record.payload['trace_bytes']}"
                                 f" B) in {record.seconds:.2f}s")
                else:
                    parts.append(f"record FAILED: {record.error}")
            if replay is not None:
                if replay.ok:
                    parts.append(f"; replayed "
                                 f"{','.join(replay.job.analyses)} "
                                 f"in {replay.seconds:.2f}s")
                else:
                    parts.append(f"; replay FAILED: {replay.error}")
            lines.append("".join(parts))
        failures = self.failures()
        if failures:
            lines.append(f"FAILED ({len(failures)} job(s)):")
            for result in failures:
                what = (result.job.trace_path if result.job.kind == "replay"
                        else result.job.name)
                lines.append(f"  {result.job.kind} {what}: {result.error}")
        return "\n".join(lines)


def freeze_options(options: dict | None
                   ) -> tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]:
    """Nested {analysis: {option: value}} dict -> the hashable tuple
    shape :class:`BatchJob.options` carries across process boundaries."""
    if not options:
        return ()
    return tuple(sorted(
        (name, tuple(sorted(opts.items())))
        for name, opts in options.items()))


def record_replay_many(workload_names: list[str], out_dir: str,
                       analyses: tuple[str, ...] = DEFAULT_ANALYSES,
                       workers: int | None = None,
                       scale: float = 1.0,
                       plugin_modules: tuple[str, ...] = (),
                       options: dict | None = None,
                       telemetry=None) -> BatchReport:
    """Record every workload, then replay every trace, both in parallel.

    The two phases are separated by a barrier (a replay needs its trace
    on disk); within each phase jobs run concurrently. Pass the modules
    that ``@register`` your custom analyses via ``plugin_modules`` so
    spawned workers can resolve them too. ``options`` carries
    per-analysis options into every replay job
    (``{"whatif": {"workers": "2,4"}}``). With an enabled ``telemetry``
    every worker collects its own spans, stitched back under the
    driver's ``batch`` span in submission order.
    """
    from repro.telemetry import as_telemetry

    tm = as_telemetry(telemetry)
    os.makedirs(out_dir, exist_ok=True)
    start = _time.perf_counter()
    frozen = freeze_options(options)
    record_jobs = [
        BatchJob(kind="record", name=name, workload=name, scale=scale,
                 trace_path=os.path.join(out_dir, f"{name}.trace"),
                 telemetry=tm.enabled)
        for name in workload_names
    ]
    with tm.span("batch", workloads=list(workload_names),
                 analyses=list(analyses)) as span:
        records = run_batch(record_jobs, workers)
        replay_jobs = [
            BatchJob(kind="replay", name=job.name,
                     trace_path=job.trace_path,
                     analyses=tuple(analyses),
                     plugin_modules=tuple(plugin_modules),
                     options=frozen, telemetry=tm.enabled)
            for job, result in zip(record_jobs, records) if result.ok
        ]
        replays = run_batch(replay_jobs, workers)
        for result in records + replays:
            tm.attach(result.spans)
            tm.merge_counters(result.counters)
    effective = workers if workers is not None else min(
        len(record_jobs), effective_cpus())
    wall = _time.perf_counter() - start
    if tm.enabled:
        span.set(jobs=len(records) + len(replays), workers=effective)
        from repro.telemetry import get_logger

        get_logger(__name__).info(
            "batch finished", extra={
                "workloads": len(record_jobs), "workers": effective,
                "failures": sum(1 for r in records + replays if not r.ok),
                "wall_seconds": round(wall, 6)})
    return BatchReport(records=records, replays=replays,
                       workers=effective,
                       wall_seconds=wall)
