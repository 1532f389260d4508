"""Experiment drivers behind every table and figure."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.profile_data import DepKind
from repro.core.report import ConflictCounts, Fig6Row, ProfileReport
from repro.ir.lowering import compile_source
from repro.parallel.estimator import SpeedupResult, estimate_speedup
from repro.util import atomic_write_json, effective_cpus
from repro.workloads import all_workloads, get
from repro.workloads.base import Workload


@dataclass
class WorkloadRun:
    """One profiled workload plus its baseline timing."""

    workload: Workload
    report: ProfileReport

    @property
    def slowdown(self) -> float | None:
        return self.report.stats.slowdown


def profile_workload(workload: Workload, *, measure_baseline: bool = True,
                     track_war_waw: bool = True) -> WorkloadRun:
    """Profile one workload (optionally timing the uninstrumented run)."""
    options = ProfileOptions(track_war_waw=track_war_waw,
                             measure_baseline=measure_baseline)
    report = Alchemist(options).profile(workload.source)
    return WorkloadRun(workload, report)


# ---------------------------------------------------------------------------
# Table III — benchmarks, construct counts, runtimes
# ---------------------------------------------------------------------------

@dataclass
class Table3Row:
    """One measured row next to the paper's."""

    name: str
    loc: int
    static: int
    dynamic: int
    orig_seconds: float
    prof_seconds: float
    paper_loc: str
    paper_static: int
    paper_dynamic: int
    paper_orig: float
    paper_prof: float

    @property
    def slowdown(self) -> float:
        if self.orig_seconds <= 0:
            return float("nan")
        return self.prof_seconds / self.orig_seconds

    @property
    def paper_slowdown(self) -> float:
        return self.paper_prof / self.paper_orig


def table3_rows(scale: float = 1.0,
                names: list[str] | None = None) -> list[Table3Row]:
    """Measure the Table III columns for every workload."""
    rows = []
    workloads = (all_workloads(scale) if names is None
                 else [get(n, scale) for n in names])
    for workload in workloads:
        run = profile_workload(workload, measure_baseline=True)
        stats = run.report.stats
        paper = workload.paper
        rows.append(Table3Row(
            name=workload.name,
            loc=workload.loc,
            static=stats.static_constructs,
            dynamic=stats.dynamic_instances,
            orig_seconds=stats.baseline_seconds or 0.0,
            prof_seconds=stats.wall_seconds,
            paper_loc=paper.loc,
            paper_static=paper.static_constructs,
            paper_dynamic=paper.dynamic_constructs,
            paper_orig=paper.orig_seconds,
            paper_prof=paper.prof_seconds,
        ))
    return rows


# ---------------------------------------------------------------------------
# Table IV — conflicts at the parallelized locations
# ---------------------------------------------------------------------------

@dataclass
class Table4Row:
    name: str
    location: str
    raw: int
    waw: int
    war: int
    paper_raw: int
    paper_waw: int
    paper_war: int


#: Workloads appearing in the paper's Table IV.
TABLE4_WORKLOADS = ["bzip2", "ogg", "aes", "par2"]


def table4_rows(scale: float = 1.0) -> list[Table4Row]:
    """Violating static dependence counts at each parallelized location."""
    rows = []
    for name in TABLE4_WORKLOADS:
        workload = get(name, scale)
        run = profile_workload(workload, measure_baseline=False)
        for target, line in workload.target_lines():
            counts: ConflictCounts = run.report.location_conflicts(line)
            rows.append(Table4Row(
                name=workload.name,
                location=counts.location,
                raw=counts.raw,
                waw=counts.waw,
                war=counts.war,
                paper_raw=target.paper_raw,
                paper_waw=target.paper_waw,
                paper_war=target.paper_war,
            ))
    return rows


# ---------------------------------------------------------------------------
# Table V — parallelization speedups
# ---------------------------------------------------------------------------

@dataclass
class Table5Row:
    name: str
    t_seq: int
    t_par: int
    speedup: float
    paper_seq: float
    paper_par: float
    paper_speedup: float
    result: SpeedupResult


#: Workloads appearing in the paper's Table V.
TABLE5_WORKLOADS = ["bzip2", "ogg", "par2", "aes"]


def table5_rows(scale: float = 1.0, workers: int = 4,
                privatize: bool = True) -> list[Table5Row]:
    """Simulated speedups for the paper's four parallelized programs."""
    rows = []
    for name in TABLE5_WORKLOADS:
        workload = get(name, scale)
        target, line = workload.primary_target()
        program = compile_source(workload.source)
        private = target.private_vars if privatize else ()
        result = estimate_speedup(program=program, line=line,
                                  workers=workers, privatize=privatize,
                                  private_vars=private)
        paper = workload.paper_speedup
        rows.append(Table5Row(
            name=workload.name,
            t_seq=result.t_seq,
            t_par=result.t_par,
            speedup=result.speedup,
            paper_seq=paper.seq_seconds,
            paper_par=paper.par_seconds,
            paper_speedup=paper.speedup,
            result=result,
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 2 / Fig. 3 — the gzip profile listing
# ---------------------------------------------------------------------------

def gzip_profile_listing(scale: float = 1.0) -> tuple[ProfileReport, str]:
    """The gzip profile in the paper's Fig. 2/3 presentation."""
    from repro.bench.figures import render_profile_listing

    workload = get("gzip", scale)
    run = profile_workload(workload, measure_baseline=False)
    return run.report, render_profile_listing(run.report)


# ---------------------------------------------------------------------------
# Fig. 6 — size vs. violating static RAW dependences
# ---------------------------------------------------------------------------

@dataclass
class Fig6Panel:
    title: str
    rows: list[Fig6Row]
    note: str = ""


def fig6_data(scale: float = 1.0, top: int = 12) -> dict[str, Fig6Panel]:
    """All four Fig. 6 panels plus the Delaunay observation."""
    panels: dict[str, Fig6Panel] = {}

    gzip_run = profile_workload(get("gzip", scale), measure_baseline=False)
    report = gzip_run.report
    panels["a"] = Fig6Panel(
        title="Fig 6(a) gzip",
        rows=report.fig6_series(top),
    )
    # Fig 6(b): remove the parallelized C1 and every construct with one
    # instance per C1 instance, then look again.
    c1 = report.fig6_series(1)[0].view.pc
    removed = {c1} | report.nested_singletons(c1)
    panels["b"] = Fig6Panel(
        title="Fig 6(b) gzip after removing C1 and nested singletons",
        rows=report.fig6_series(top, exclude=removed),
        note=f"removed {len(removed)} construct(s)",
    )

    parser_run = profile_workload(get("197.parser", scale),
                                  measure_baseline=False)
    panels["c"] = Fig6Panel(
        title="Fig 6(c) 197.parser",
        rows=parser_run.report.fig6_series(top),
        note="C1/C2 (dictionary) are I/O bound despite low violations",
    )

    lisp_run = profile_workload(get("130.li", scale),
                                measure_baseline=False)
    panels["d"] = Fig6Panel(
        title="Fig 6(d) 130.lisp",
        rows=lisp_run.report.fig6_series(top),
        note="C1=xlload (initial call + one per batch iteration)",
    )

    delaunay_run = profile_workload(get("delaunay", scale),
                                    measure_baseline=False)
    refine = max((v for v in delaunay_run.report.constructs()
                  if v.static.is_loop),
                 key=lambda v: v.total_duration)
    panels["delaunay"] = Fig6Panel(
        title="Delaunay (negative control, §IV-B.1)",
        rows=delaunay_run.report.fig6_series(top),
        note=(f"hottest loop carries "
              f"{refine.violating_count(DepKind.RAW)} violating static "
              "RAW dependences"),
    )
    return panels


# ---------------------------------------------------------------------------
# Trace subsystem — replay-vs-rerun speedup (BENCH_trace.json)
# ---------------------------------------------------------------------------

@dataclass
class TraceBenchRow:
    """One workload's record-once-replay-many comparison.

    ``live_seconds`` is the honest baseline: one *live instrumented run
    per analysis* (the dependence profiler via ``Alchemist.profile``,
    the other consumers attached directly to an interpreter run — every
    consumer doubles as a live tracer). ``record + replay`` answers the
    same N questions with a single execution.
    """

    name: str
    analyses: tuple[str, ...]
    live_seconds: float
    record_seconds: float
    replay_seconds: float
    events: int
    trace_bytes: int

    @property
    def replay_total(self) -> float:
        return self.record_seconds + self.replay_seconds

    @property
    def speedup(self) -> float:
        if self.replay_total <= 0:
            return float("nan")
        return self.live_seconds / self.replay_total


def trace_bench_rows(names: list[str] | None = None, scale: float = 0.5,
                     analyses: tuple[str, ...] = ("dep", "locality", "hot"),
                     repeats: int = 1) -> list[TraceBenchRow]:
    """Measure record+replay vs. N live instrumented runs per workload.

    ``repeats`` > 1 keeps the minimum of several timings per side,
    damping scheduler noise on small workloads.
    """
    import os
    import tempfile

    from repro.analyses import make_analyses
    from repro.runtime.interpreter import run_source
    from repro.trace.replay import replay_trace
    from repro.trace.writer import record_source

    from repro.workloads import names as workload_names

    rows = []
    for name in (names if names is not None else workload_names()):
        workload = get(name, scale)
        source = workload.source

        # Untimed warmup: both sides touch the same code paths once, so
        # first-measurement effects (imports, allocator growth) don't
        # land on whichever side happens to run first.
        with tempfile.TemporaryDirectory() as tmp:
            warm = os.path.join(tmp, "warm.trace")
            record_source(source, warm)
            replay_trace(warm, analyses)
        Alchemist().profile(source)

        live_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for analysis in analyses:
                if analysis == "dep":
                    Alchemist().profile(source)
                else:
                    # Registered analyses double as live tracers.
                    run_source(source, tracer=make_analyses([analysis])[0])
            live_best = min(live_best, time.perf_counter() - start)

        record_best = float("inf")
        replay_best = float("inf")
        events = trace_bytes = 0
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{name}.trace")
            for _ in range(repeats):
                start = time.perf_counter()
                recorded = record_source(source, path)
                record_best = min(record_best,
                                  time.perf_counter() - start)
                events, trace_bytes = recorded.events, recorded.trace_bytes
                start = time.perf_counter()
                replay_trace(path, analyses)
                replay_best = min(replay_best,
                                  time.perf_counter() - start)
        rows.append(TraceBenchRow(
            name=name, analyses=tuple(analyses), live_seconds=live_best,
            record_seconds=record_best, replay_seconds=replay_best,
            events=events, trace_bytes=trace_bytes))
    return rows


def trace_bench(names: list[str] | None = None, scale: float = 0.5,
                analyses: tuple[str, ...] = ("dep", "locality", "hot"),
                out_path: str | None = "BENCH_trace.json",
                repeats: int = 2) -> dict:
    """The BENCH_trace.json artifact: per-workload rows plus totals."""
    rows = trace_bench_rows(names, scale, analyses, repeats)
    live = sum(r.live_seconds for r in rows)
    rec = sum(r.record_seconds for r in rows)
    rep = sum(r.replay_seconds for r in rows)
    data = {
        "bench": "trace_replay_vs_rerun",
        "scale": scale,
        "analyses": list(analyses),
        "repeats": repeats,
        "rows": [dict(asdict(r), speedup=r.speedup) for r in rows],
        "total": {
            "live_seconds": live,
            "record_seconds": rec,
            "replay_seconds": rep,
            "speedup": live / (rec + rep) if rec + rep > 0 else float("nan"),
        },
        "columnar": trace_decode_bench(names, scale=max(scale, 1.0),
                                       repeats=max(repeats, 3),
                                       out_path=None),
    }
    if out_path:
        atomic_write_json(out_path, data)
    return data


# ---------------------------------------------------------------------------
# Columnar batch decode — replay-core speedup (folded into BENCH_trace.json)
# ---------------------------------------------------------------------------

@dataclass
class DecodeBenchRow:
    """One workload's serial replay core, scalar vs columnar decode.

    Both sides replay the same pre-recorded trace through the same
    consumer with the program pre-compiled, so the only difference is
    the decode + dispatch path: the scalar reference (``columnar=False``:
    per-record decode, per-event hooks) against vectorized decode and
    batch dispatch (``columnar=True``).
    """

    name: str
    analyses: tuple[str, ...]
    events: int
    scalar_seconds: float
    batch_seconds: float

    @property
    def speedup(self) -> float:
        if self.batch_seconds <= 0:
            return float("nan")
        return self.scalar_seconds / self.batch_seconds

    @property
    def batch_events_per_sec(self) -> float:
        if self.batch_seconds <= 0:
            return float("nan")
        return self.events / self.batch_seconds


def trace_decode_bench_rows(names: list[str] | None = None,
                            scale: float = 1.0,
                            analyses: tuple[str, ...] = ("counts",),
                            repeats: int = 3) -> list[DecodeBenchRow]:
    """Time serial replay with the columnar path off, then on.

    The trace is recorded once per workload and the program compiled
    outside the timed region; each side keeps the minimum of
    ``repeats`` runs. ``counts`` is the default probe because it is
    the cheapest consumer — the measurement is then dominated by the
    replay core itself rather than analysis bookkeeping.
    """
    import os
    import tempfile

    from repro.ir.lowering import compile_source
    from repro.trace.replay import replay_trace
    from repro.trace.writer import record_source
    from repro.workloads import names as workload_names

    rows = []
    for name in (names if names is not None else workload_names()):
        workload = get(name, scale)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{name}.trace")
            recorded = record_source(workload.source, path)
            program = compile_source(workload.source)
            # Warm both paths before timing either.
            replay_trace(path, analyses, program, columnar=True)
            replay_trace(path, analyses, program, columnar=False)
            timings = {}
            for label, columnar in (("scalar", False), ("batch", True)):
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    replay_trace(path, analyses, program, columnar=columnar)
                    best = min(best, time.perf_counter() - start)
                timings[label] = best
        rows.append(DecodeBenchRow(
            name=name, analyses=tuple(analyses), events=recorded.events,
            scalar_seconds=timings["scalar"],
            batch_seconds=timings["batch"]))
    return rows


def trace_decode_bench(names: list[str] | None = None, scale: float = 1.0,
                       analyses: tuple[str, ...] = ("counts",),
                       repeats: int = 3,
                       out_path: str | None = None) -> dict:
    """Batch-vs-scalar replay-core comparison (the columnar section of
    BENCH_trace.json, or a standalone artifact when ``out_path`` is
    given)."""
    rows = trace_decode_bench_rows(names, scale, analyses, repeats)
    scalar = sum(r.scalar_seconds for r in rows)
    batch = sum(r.batch_seconds for r in rows)
    data = {
        "bench": "trace_columnar_vs_scalar",
        "scale": scale,
        "analyses": list(analyses),
        "repeats": repeats,
        "rows": [dict(asdict(r), speedup=r.speedup) for r in rows],
        "total": {
            "scalar_seconds": scalar,
            "batch_seconds": batch,
            "events": sum(r.events for r in rows),
            "speedup": scalar / batch if batch > 0 else float("nan"),
        },
    }
    if out_path:
        atomic_write_json(out_path, data)
    return data


# ---------------------------------------------------------------------------
# Parallel sharded replay — speedup artifact (BENCH_parallel.json)
# ---------------------------------------------------------------------------

def _makespan(durations: list[float], jobs: int) -> float:
    """Longest-processing-time schedule of segment times over ``jobs``
    workers — the wall clock the pool achieves once every worker has a
    core to itself."""
    bins = [0.0] * max(1, jobs)
    for duration in sorted(durations, reverse=True):
        index = bins.index(min(bins))
        bins[index] += duration
    return max(bins)


def parallel_bench(names: list[str] | None = None, scale: float = 2.0,
                   analyses: tuple[str, ...] = ("dep", "locality", "hot"),
                   jobs: int = 4, repeats: int = 2,
                   out_path: str | None = "BENCH_parallel.json") -> dict:
    """Measure sharded parallel replay against one serial pass.

    Per workload: record once, prebuild its seams, time the serial replay
    and the ``jobs``-worker parallel replay (minimum over ``repeats``),
    verify the merged results equal serial bit-for-bit, and report two
    speedups:

    * ``measured_wall_speedup`` — serial / parallel wall on *this*
      box. Only meaningful with at least ``jobs`` idle cores; on the
      single-core CI runners it hovers near 1x by construction.
    * ``speedup`` (the headline) — serial divided by the schedule the
      measured per-segment times achieve on ``jobs`` workers (an LPT
      makespan) plus the measured parent-side merge. This is the wall
      clock a ``jobs``-core box gets, derived entirely from measured
      work, not from a model of it.
    """
    import os
    import tempfile

    from repro.trace.parallel import parallel_replay
    from repro.trace.replay import replay_trace
    from repro.trace.shards import load_or_build_checkpoints
    from repro.trace.writer import record_source

    from repro.workloads import names as workload_names

    rows = []
    for name in (names if names is not None else workload_names()):
        workload = get(name, scale)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{name}.trace")
            recorded = record_source(workload.source, path)
            # Seams sized to the now-known event count, about four
            # per worker, prebuilt into the trace's sidecar.
            checkpoints = load_or_build_checkpoints(
                path, max(1000, recorded.events // (jobs * 4)))

            serial_best = float("inf")
            serial_outcome = None
            for _ in range(repeats):
                start = time.perf_counter()
                serial_outcome = replay_trace(path, analyses)
                serial_best = min(serial_best,
                                  time.perf_counter() - start)

            parallel_best = float("inf")
            outcome = None
            for _ in range(repeats):
                start = time.perf_counter()
                candidate = parallel_replay(path, analyses, jobs=jobs)
                elapsed = time.perf_counter() - start
                if elapsed < parallel_best:
                    parallel_best = elapsed
                    outcome = candidate

            identical = all(
                outcome.reports[a].to_dict() ==
                serial_outcome.reports[a].to_dict()
                for a in analyses)
            scheduled = (_makespan(outcome.segment_cpu_seconds, jobs)
                         + outcome.merge_seconds)
            rows.append({
                "name": name,
                "events": recorded.events,
                "trace_bytes": recorded.trace_bytes,
                "checkpoints": len(checkpoints),
                "segments": len(outcome.plan.segments),
                "mode": outcome.mode,
                "results_identical_to_serial": identical,
                "serial_seconds": serial_best,
                "parallel_wall_seconds": parallel_best,
                "segment_seconds": outcome.segment_seconds,
                "segment_cpu_seconds": outcome.segment_cpu_seconds,
                "merge_seconds": outcome.merge_seconds,
                "scheduled_seconds": scheduled,
                "measured_wall_speedup": (serial_best / parallel_best
                                          if parallel_best > 0
                                          else float("nan")),
                "speedup": (serial_best / scheduled
                            if scheduled > 0 else float("nan")),
            })
    meeting = [r["name"] for r in rows if r["speedup"] >= 2.0]
    data = {
        "bench": "parallel_sharded_replay",
        "scale": scale,
        "analyses": list(analyses),
        "jobs": jobs,
        "repeats": repeats,
        "bench_cpus": effective_cpus(),
        "note": ("'speedup' schedules the measured per-segment worker "
                 "CPU times over the requested jobs (LPT makespan) "
                 "plus the measured merge — the wall clock of a box "
                 "with that many idle cores; 'measured_wall_speedup' "
                 "is the raw wall ratio on bench_cpus cores (near 1x "
                 "when bench_cpus < jobs, by construction)."),
        "rows": rows,
        "summary": {
            "workloads_at_2x": meeting,
            "target_met": len(meeting) >= 4,
            "all_results_identical": all(
                r["results_identical_to_serial"] for r in rows),
        },
    }
    if out_path:
        atomic_write_json(out_path, data)
    return data
