"""The traced run: a per-layer ledger measured from outside.

Each layer is timed by calling its public functions from here, one
program at a time, and summing over the workload's programs. Nothing
inside ``src/`` is instrumented. Where a layer has no entry point of
its own, its self time is a difference of two calls that differ only
by that layer (e.g. encoding = a record without checkpoint seams minus
a plain interpretation). Times are host-normalised like the end-to-end
ones (``hostclock.py``). Calls under :data:`CHEAP_S` run three times
and the fastest counts, so small differences are not swamped by
interference; longer calls run once, which keeps the traced run well
inside its time limit. A small difference can still read slightly
below zero, which means "within noise".

Memory per analysis is the growth of the process's peak resident set
during a single-analysis replay (Linux: the peak is reset through
``/proc/self/clear_refs`` before the call). It is measured on the timed
call itself; ``tracemalloc`` would slow these replays 6-20x.
"""

from __future__ import annotations

import gc
import os
import re
import subprocess
import sys

from repro.analyses.builtin import profile_summary
from repro.core.alchemist import Alchemist
from repro.ir.lowering import compile_source
from repro.parallel.simulator import FutureSimulator
from repro.parallel.taskgraph import TraceSource, extract_task_graphs
from repro.runtime.interpreter import run_source
from repro.runtime.tracing import NullTracer
from repro.staticdep import analyze_program, fuse_profile, report_for
from repro.telemetry import Telemetry
from repro.trace.parallel import parallel_replay
from repro.trace.reader import TraceReader
from repro.trace.replay import replay_trace
from repro.trace.shards import build_checkpoints, plan_shards
from repro.trace.writer import record_program

from hostclock import timed
from workloads import Round

#: Calls faster than this run three times, slower ones once.
CHEAP_S = 0.2
#: Analyses whose consume time and peak memory the ledger reports.
LEDGER_ANALYSES = ("dep", "locality", "hot", "context", "whatif")
#: Jobs for the parallel-replay probe (the workloads' 2-job setting).
JOBS = 2

#: Every per-layer metric: (name, unit, better). BENCHMARK.json lists
#: the same names; the self-test checks the two agree.
PER_LAYER = [
    ("ir.compile_s", "s", "lower"),
    ("runtime.interpret_s", "s", "lower"),
    ("runtime.events_per_s", "events/s", "higher"),
    ("trace.writer.record_s", "s", "lower"),
    ("trace.writer.encode_s", "s", "lower"),
    ("trace.writer.seams_s", "s", "lower"),
    ("trace.writer.seams", "count", "lower"),
    ("trace.writer.bytes_per_event", "B/event", "lower"),
    ("trace.columnar.decode_s", "s", "lower"),
    ("trace.columnar.events_per_s", "events/s", "higher"),
    ("trace.columnar.batched_share", "ratio", "higher"),
    ("trace.replay.core_s", "s", "lower"),
    *[(f"analyses.{name}.consume_s", "s", "lower")
      for name in LEDGER_ANALYSES],
    *[(f"analyses.{name}.peak_rss_mb", "MB", "lower")
      for name in LEDGER_ANALYSES],
    ("core.live_tracer_s", "s", "lower"),
    ("staticdep.analyze_s", "s", "lower"),
    ("staticdep.fuse_s", "s", "lower"),
    ("trace.shards.scan_s", "s", "lower"),
    ("trace.shards.plan_s", "s", "lower"),
    ("trace.parallel.wall_s", "s", "lower"),
    ("trace.parallel.segment_cpu_s", "s", "lower"),
    ("trace.parallel.merge_s", "s", "lower"),
    ("trace.parallel.segments", "count", "higher"),
    ("trace.parallel.fallbacks", "count", "lower"),
    ("trace.parallel.speedup_vs_serial", "ratio", "higher"),
    ("parallel.extract_s", "s", "lower"),
    ("parallel.simulate_s", "s", "lower"),
    ("parallel.candidates", "count", "higher"),
    ("host.effective_cpus", "cpus", "higher"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
]

#: Which end-to-end metric each layer should move, and where
#: (longest matching prefix wins).
MOVES = {
    "ir.": "setup_s, all workloads",
    "runtime.": "dep_profile_s / live_dep_s on dep-bzip2",
    "trace.writer.": "dep_profile_s on dep-bzip2; advise_s; setup_s on "
                     "replay-suite",
    "trace.columnar.": "replay_s on replay-suite",
    "trace.replay.": "replay_s on replay-suite",
    "analyses.dep.": "dep_profile_s on dep-bzip2",
    "analyses.locality.": "replay_s + peak_rss_mb on replay-suite",
    "analyses.context.": "replay_s + peak_rss_mb on replay-suite",
    "analyses.hot.": "replay_s on replay-suite",
    "analyses.whatif.": "advise_s on advise-parallel",
    "core.": "live_dep_s on dep-bzip2",
    "staticdep.": "advise_s; dep_profile_s (small)",
    "trace.shards.": "advise_s on advise-parallel",
    "trace.parallel.": "advise_s on advise-parallel",
    "parallel.": "advise_s on advise-parallel",
    "host.": "none (guard)",
    "telemetry.": "none (guard)",
}

#: How each workload's stage splits into layer self times (the shares
#: the ledger prints): metric names, or (label, derived seconds) rows.
DECOMPOSITION = {
    "dep-bzip2": ["ir.compile_s", "runtime.interpret_s",
                  "trace.writer.encode_s", "trace.writer.seams_s",
                  "trace.columnar.decode_s", "trace.replay.core_s",
                  "analyses.dep.consume_s", "staticdep.analyze_s"],
    "replay-suite": ["trace.columnar.decode_s", "trace.replay.core_s",
                     "analyses.locality.consume_s", "analyses.hot.consume_s",
                     "analyses.context.consume_s"],
    "advise-parallel": [
        "trace.shards.plan_s",
        ("trace.parallel segments + IPC",
         lambda v: (v["trace.parallel.wall_s"] - v["trace.parallel.merge_s"]
                    - v["trace.shards.plan_s"])),
        ("trace.parallel.merge_s (fold + advisor)",
         lambda v: v["trace.parallel.merge_s"]),
    ],
}


def best_of(fn, *args, **kwargs):
    """``(seconds, result)``: the fastest of three calls when one call
    is cheaper than :data:`CHEAP_S`, else that one call."""
    seconds, result = timed(fn, *args, **kwargs)
    if seconds < CHEAP_S:
        for _ in range(2):
            again, result = timed(fn, *args, **kwargs)
            seconds = min(seconds, again)
    return seconds, result


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as handle:
        return int(re.search(rf"^{field}:\s+(\d+)", handle.read(),
                             re.MULTILINE).group(1))


def with_peak_rss(fn, *args, **kwargs):
    """``(seconds, result, MiB)``: the call's host-normalised time and
    how far the process's peak resident set rose above its size before
    the call."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")  # reset the peak to the current size
    except OSError:
        pass  # no reset: the reading is the process's peak so far
    before = _status_kb("VmRSS")
    seconds, result = timed(fn, *args, **kwargs)
    return seconds, result, max(0, _status_kb("VmHWM") - before) / 1024


def decode_all(path: str) -> int:
    """Batch-decode a whole trace with no consumer; returns batches."""
    batches = 0
    with TraceReader(path) as reader:
        for _ in reader.batches():
            batches += 1
    return batches


_SPIN = ("import time\nt = time.perf_counter()\nx = 0\n"
         "for i in range(3000000):\n    x += i\n"
         "print(time.perf_counter() - t)\n")


def _spin(copies: int) -> list[float]:
    """Seconds each of ``copies`` concurrent CPU-bound processes took."""
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(copies)]
    return [float(proc.communicate()[0]) for proc in procs]


def effective_cpus() -> tuple[float, int]:
    """``(effective CPUs for two workers, scheduler affinity)``.

    ``os.cpu_count()`` can overstate what a container gets, so the
    probe times one CPU-bound process alone and then two at once: with
    two real CPUs the pair takes as long as the solo run (2.0), with
    one shared CPU twice as long (1.0).
    """
    affinity = len(os.sched_getaffinity(0))
    if affinity < 2:
        return 1.0, affinity
    solo = min(_spin(1)[0] for _ in range(2))
    pair = max(_spin(2))
    return min(2.0, 2.0 * solo / pair), affinity


def probe_program(out: Round, v: dict, program, directory: str,
                  analyses: tuple[str, ...], totals: dict) -> None:
    """Time every layer on one program; accumulate into ``v``."""
    name = program.name
    source = program.source

    seconds, compiled = best_of(compile_source, source, name)
    v["ir.compile_s"] += seconds
    out.ops += 1
    interpret_s, (_, interp) = best_of(run_source, source, NullTracer(),
                                       program=compiled)
    v["runtime.interpret_s"] += interpret_s
    out.check(f"interpret {name}",
              len(interp.output) == program.expected_outputs, "output count")

    path = os.path.join(directory, f"{name}.trace")
    out.ops += 2
    record_s, recorded = best_of(record_program, compiled, path,
                                 source=source, filename=name)
    bare = os.path.join(directory, f"{name}.noseams.trace")
    bare_s, _ = best_of(record_program, compiled, bare, source=source,
                        filename=name, checkpoint_interval=0)
    os.remove(bare)
    v["trace.writer.record_s"] += record_s
    v["trace.writer.encode_s"] += bare_s - interpret_s
    v["trace.writer.seams_s"] += record_s - bare_s
    v["trace.writer.seams"] += recorded.checkpoints
    totals["bytes"] += recorded.trace_bytes
    totals["events"] += recorded.events

    out.ops += 2
    decode_s, _ = best_of(decode_all, path)
    counts_s, _ = best_of(replay_trace, path, ("counts",), compiled)
    v["trace.columnar.decode_s"] += decode_s
    v["trace.replay.core_s"] += counts_s - decode_s
    tm = Telemetry()
    replay_trace(path, ("counts",), compiled, telemetry=tm)
    totals["batched"] += tm.counters.get("trace.blocks_batched", 0)
    totals["blocks"] += (tm.counters.get("trace.blocks_batched", 0)
                         + tm.counters.get("trace.blocks_scalar_fallback", 0))

    out.ops += 1
    seconds, static = best_of(analyze_program, compiled)
    v["staticdep.analyze_s"] += seconds
    report_for(compiled)  # later passes share the memoized report

    reports, replay_s = {}, {}
    for analysis in LEDGER_ANALYSES:
        out.ops += 1
        seconds, outcome, peak = with_peak_rss(replay_trace, path,
                                               (analysis,), compiled)
        if seconds < CHEAP_S:
            seconds = min(seconds, best_of(replay_trace, path, (analysis,),
                                           compiled)[0])
        key = f"analyses.{analysis}.peak_rss_mb"
        v[key] = max(v[key], peak)
        replay_s[analysis] = seconds
        v[f"analyses.{analysis}.consume_s"] += seconds - counts_s
        reports[analysis] = outcome.reports[analysis]
        out.check(f"replay {analysis} {name}",
                  len(outcome.context.output) == program.expected_outputs,
                  "output count")

    out.ops += 1
    seconds, _ = best_of(fuse_profile, reports["dep"].payload, static, None)
    v["staticdep.fuse_s"] += seconds

    out.ops += 1
    live_s, live = best_of(Alchemist().profile, program=compiled)
    v["core.live_tracer_s"] += live_s - interpret_s
    replayed = dict(reports["dep"].data)
    replayed.pop("static")
    out.check(f"live {name}", replayed == profile_summary(live),
              "replayed dep differs from live dep")

    out.ops += 2
    seconds, _ = best_of(build_checkpoints, path)
    v["trace.shards.scan_s"] += seconds
    seconds, _ = best_of(plan_shards, path, JOBS)
    v["trace.shards.plan_s"] += seconds

    out.ops += 1
    if len(analyses) == 1:
        serial_s, serial = replay_s[analyses[0]], {
            analyses[0]: reports[analyses[0]]}
    else:
        serial_s, outcome = best_of(replay_trace, path, analyses, compiled)
        serial = outcome.reports
    seconds, parallel = timed(parallel_replay, path, analyses, jobs=JOBS)
    # The outcome's own timings are raw wall clock; scale them by the
    # host slowdown the call was measured under.
    scale = seconds / parallel.wall_seconds
    v["trace.parallel.wall_s"] += seconds
    v["trace.parallel.segment_cpu_s"] += (sum(parallel.segment_cpu_seconds)
                                          * scale)
    v["trace.parallel.merge_s"] += parallel.merge_seconds * scale
    v["trace.parallel.segments"] += len(parallel.plan.segments)
    if parallel.mode != "parallel":
        v["trace.parallel.fallbacks"] += 1
        totals["fallback_reasons"].append(
            f"{name}: {parallel.fallback_reason}")
    totals["serial_s"] += serial_s
    out.check(f"parallel {name}",
              {a: r.to_dict() for a, r in parallel.reports.items()}
              == {a: r.to_dict() for a, r in serial.items()},
              "parallel replay differs from serial")

    whatif = reports["whatif"].data
    targets = {entry["pc"]: tuple(entry["privatized_globals"])
               for entry in whatif["candidates"]}
    out.ops += 1
    seconds, graphs = best_of(extract_task_graphs,
                              TraceSource(path, compiled), targets)
    v["parallel.extract_s"] += seconds
    v["parallel.candidates"] += len(targets)
    seconds, speedups = best_of(simulate, graphs, whatif)
    v["parallel.simulate_s"] += seconds
    out.check(f"simulate {name}",
              speedups == [entry["speedups"][str(workers)]["speedup"]
                           for entry in whatif["candidates"]
                           for workers in whatif["workers"]],
              "simulated speedups differ from the advisor's")


def simulate(graphs: dict, whatif: dict) -> list[float]:
    """Schedule every candidate's graph at every swept worker count."""
    return [round(FutureSimulator(workers).schedule(graphs[entry["pc"]])
                  .speedup, 4)
            for entry in whatif["candidates"]
            for workers in whatif["workers"]]


def run_ledger(workload, directory: str,
               cpus: float) -> tuple[dict, Round, list[str]]:
    """Probe every layer over the workload's programs; returns the
    per-layer metric values, the probe operations' tally and why any
    parallel replay fell back to serial."""
    out = Round()
    v = {name: 0.0 for name, _, _ in PER_LAYER}
    totals = {"bytes": 0, "events": 0, "batched": 0, "blocks": 0,
              "serial_s": 0.0, "fallback_reasons": []}
    for program in workload.programs:
        probe_program(out, v, program, directory, workload.analyses, totals)
    events = totals["events"]
    v["runtime.events_per_s"] = events / v["runtime.interpret_s"]
    v["trace.writer.bytes_per_event"] = totals["bytes"] / events
    v["trace.columnar.events_per_s"] = events / v["trace.columnar.decode_s"]
    v["trace.columnar.batched_share"] = (totals["batched"] / totals["blocks"]
                                         if totals["blocks"] else 0.0)
    v["trace.parallel.speedup_vs_serial"] = (totals["serial_s"]
                                             / v["trace.parallel.wall_s"])
    v["host.effective_cpus"] = cpus
    return v, out, totals["fallback_reasons"]


def moves(metric: str) -> str:
    prefix = max((p for p in MOVES if metric.startswith(p)), key=len)
    return MOVES[prefix]


def render(workload, v: dict, stage_s: float,
           fallbacks: list[str]) -> list[str]:
    """The ledger table: every layer metric with the end-to-end metric
    it should move, then the stage split into layer shares."""
    lines = [f"per-layer ledger ({workload.name}, summed over "
             f"{len(workload.programs)} program(s)):"]
    for name, unit, _ in PER_LAYER:
        lines.append(f"  {name:34s} {v[name]:14.6g} {unit:9s} "
                     f"moves: {moves(name)}")
    for reason in fallbacks:
        lines.append(f"  parallel fallback: {reason}")
    lines.append(f"{workload.stage} = {stage_s:.4f} s split by layer "
                 "(self time, share of the stage):")
    parts = [(row, v[row]) if isinstance(row, str) else (row[0], row[1](v))
             for row in DECOMPOSITION[workload.name]]
    for label, seconds in parts:
        lines.append(f"  {label:40s} {seconds:9.4f} s "
                     f"{100 * seconds / stage_s:6.1f} %")
    rest = stage_s - sum(seconds for _, seconds in parts)
    lines.append(f"  {'unattributed':40s} {rest:9.4f} s "
                 f"{100 * rest / stage_s:6.1f} %")
    label, seconds = max(parts, key=lambda item: item[1])
    lines.append(f"dominant layer on {workload.name}: {label} "
                 f"({100 * seconds / stage_s:.1f} % of {workload.stage})")
    if workload.name == "advise-parallel":
        lines.append("the merge runs the advisor; timed apart: "
                     f"parallel.extract_s {v['parallel.extract_s']:.4f} s, "
                     f"parallel.simulate_s {v['parallel.simulate_s']:.4f} s")
    return lines
