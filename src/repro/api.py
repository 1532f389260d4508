"""The unified entry point: one ``Session``, every analysis, any mode.

A :class:`Session` answers every analysis with one call::

    from repro.api import Session

    with Session() as session:
        report = session.analyze(source, ["dep", "locality", "hot"])
        print(report.to_text())
        print(report["dep"].payload.top_constructs(5))

``analyze`` resolves analyses through the shared plugin registry
(:mod:`repro.analyses`) and caches compiled IR and recorded traces on
the session, keyed by source digest. One rule decides how a call runs:
a **cold** call (no cached trace for the source) executes the program
once, and that run both records the trace and feeds every requested
analysis; a **warm** call replays the cached trace in one pass
(sharded per ``ProfileOptions.jobs``), and executes the program only
for analyses that declare ``requires_live``. ``mode="live"`` executes
without recording. Every execution feeds its analyses through a
:class:`~repro.trace.live.TeeTracer`: block consumers (every bundled
analysis) get whole blocks through the replay dispatch loop, exactly
as on a trace, and only hook-only plugins get per-event hooks, from
the record→hook adapter on the interpreter's records.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:
    from repro.staticdep.report import StaticDepReport

from repro.analyses import (Analysis, AnalysisContext, AnalysisError,
                            AnalysisResult, make_analyses, parse_spec)
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.trace.events import source_digest
from repro.trace.live import run_live

#: analyze() run modes.
MODES = ("auto", "live")


@dataclass
class SessionStats:
    """Cache behaviour of one session (observability + tests)."""

    compiles: int = 0
    compile_hits: int = 0
    records: int = 0
    record_hits: int = 0
    live_runs: int = 0
    replay_passes: int = 0
    #: Replay passes that ran as sharded parallel replays (a subset of
    #: ``replay_passes``).
    parallel_passes: int = 0


@dataclass
class SessionReport:
    """Everything one :meth:`Session.analyze` call produced."""

    filename: str
    digest: str
    results: dict[str, AnalysisResult]
    modes: dict[str, str]
    trace_path: str | None
    wall_seconds: float

    def __getitem__(self, name: str) -> AnalysisResult:
        return self.results[name]

    def __iter__(self):
        return iter(self.results.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.filename,
            "digest": self.digest,
            "mode": dict(self.modes),
            "analyses": {name: result.to_dict()
                         for name, result in self.results.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        parts = []
        for name, result in self.results.items():
            parts.append(f"== {name} ({self.modes[name]}) ==")
            parts.append(result.text)
        return "\n".join(parts)


class Session:
    """Owns compiled-IR and recorded-trace caches keyed by source digest.

    Reusable across programs and across ``analyze`` calls: the first
    question about a source records its trace in the run that answers
    it, and every later question costs one replay pass, not a
    re-execution (unless an analysis ``requires_live``). Traces live
    in ``cache_dir`` (a private temporary directory by default,
    removed on :meth:`close` / context exit).
    """

    def __init__(self, options: ProfileOptions | None = None,
                 cache_dir: str | os.PathLike | None = None,
                 telemetry=None):
        from repro.telemetry import as_telemetry

        self.options = options if options is not None else ProfileOptions()
        self.stats = SessionStats()
        #: Observability handle threaded through every stage this
        #: session drives (``repro.telemetry``); disabled by default.
        self.telemetry = as_telemetry(telemetry)
        # Programs are keyed by (digest, filename): same content under a
        # new name recompiles so reports attribute to the right file.
        # Traces are keyed by digest alone — the event stream does not
        # depend on the filename, so one recording serves every alias.
        self._programs: dict[tuple[str, str], ProgramIR] = {}
        self._traces: dict[str, str] = {}
        # Static dependence reports are execution-free, so they key on
        # the IR digest alone — any filename alias shares one report.
        self._static: dict[str, "StaticDepReport"] = {}
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._cache_dir = os.fspath(cache_dir) if cache_dir else None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop caches; remove the private trace directory if we made it."""
        self._programs.clear()
        self._traces.clear()
        self._static.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _trace_dir(self) -> str:
        if self._cache_dir is not None:
            os.makedirs(self._cache_dir, exist_ok=True)
            return self._cache_dir
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="alchemist-session-")
        return self._tmpdir.name

    # -- cached primitives --------------------------------------------------

    def compile(self, source: str, filename: str = "<input>") -> ProgramIR:
        """Compile MiniC source to IR, cached by (digest, filename)."""
        key = (source_digest(source), filename)
        cached = self._programs.get(key)
        if cached is not None:
            self.stats.compile_hits += 1
            self.telemetry.count("session.compile_cache_hits")
            return cached
        self.telemetry.count("session.compile_cache_misses")
        with self.telemetry.span("compile", file=filename):
            program = compile_source(source, filename)
        self._programs[key] = program
        self.stats.compiles += 1
        return program

    def static_report(self, source: str,
                      filename: str = "<input>") -> "StaticDepReport":
        """The static dependence report for a program — zero execution,
        no trace; cached by source digest (``alchemist screen``)."""
        from repro.staticdep import analyze_program

        digest = source_digest(source)
        cached = self._static.get(digest)
        if cached is not None:
            self.telemetry.count("session.static_cache_hits")
            return cached
        program = self.compile(source, filename)
        report = analyze_program(program, self.telemetry)
        self._static[digest] = report
        return report

    def record(self, source: str, filename: str = "<input>") -> str:
        """Record one execution into the trace cache; returns the path.

        Repeated calls for the same source (any filename) return the
        cached trace without re-running the program.
        """
        from repro.trace.writer import record_program

        digest = source_digest(source)
        cached = self._traces.get(digest)
        if cached is not None:
            self.stats.record_hits += 1
            self.telemetry.count("session.trace_cache_hits")
            return cached
        self.telemetry.count("session.trace_cache_misses")
        program = self.compile(source, filename)
        path = self._trace_path(digest)
        record_program(program, path, source=source, filename=filename,
                       max_steps=self.options.max_steps,
                       telemetry=self.telemetry)
        self._traces[digest] = path
        self.stats.records += 1
        return path

    def _trace_path(self, digest: str) -> str:
        return os.path.join(self._trace_dir(), f"{digest[:16]}.trace")

    # -- the one entry point ------------------------------------------------

    def analyze(self, source: str,
                analyses: str | Iterable[str] = ("dep",), *,
                filename: str = "<input>",
                mode: str = "auto",
                options: Mapping[str, Mapping[str, Any]] | None = None
                ) -> SessionReport:
        """Run the named analyses over ``source`` and return all results.

        ``mode="auto"`` (default): a cold call (no cached trace for this
        source) runs the program once, recording the trace while it
        feeds every analysis (all labelled ``"live"``); a warm call
        replays the cached trace and runs live only the analyses that
        declare ``requires_live``. ``mode="live"`` executes the program
        without recording. Per-analysis options ride in ``options``,
        e.g. ``{"hot": {"top": 5}}``.
        """
        if mode not in MODES:
            raise AnalysisError(
                f"unknown mode {mode!r} (known: {', '.join(MODES)})")
        requested = parse_spec(analyses)
        stray = sorted(set(options or {}) - set(requested))
        if stray:
            # A typo'd options key would otherwise be dropped silently
            # and the defaults applied.
            raise AnalysisError(
                "options given for analyses that were not requested: "
                + ", ".join(stray))
        merged = self._merge_options(options)
        instances = make_analyses(requested, merged)
        digest = source_digest(source)

        with self.telemetry.span("analyze", file=filename,
                                 analyses=list(requested),
                                 mode=mode) as span:
            # Cold: one run records the trace and feeds every analysis.
            cold = mode == "auto" and digest not in self._traces
            live = [a for a in instances
                    if cold or mode == "live" or a.requires_live]
            replayed = [a for a in instances if a not in live]
            results: dict[str, AnalysisResult] = {}
            modes: dict[str, str] = {}
            trace_path: str | None = None
            if replayed:
                program = self.compile(source, filename)
                trace_path = self.record(source, filename)
                reports, replay_mode = self._replay(trace_path, program,
                                                    replayed, merged)
                for analysis in replayed:
                    results[analysis.name] = reports[analysis.name]
                    modes[analysis.name] = replay_mode
            if live:
                if cold:
                    trace_path, live_ctx = self._record_and_run_live(
                        source, filename, live)
                else:
                    live_ctx = self._run_live(source, filename, live)
                for analysis in live:
                    with self.telemetry.span("analysis.finish",
                                             analysis=analysis.name):
                        report = analysis.finish(live_ctx)
                    results[analysis.name] = report
                    modes[analysis.name] = "live"
                self._attach_baseline(results, live)

        # Report results in request order, not execution order.
        ordered = {a.name: results[a.name] for a in instances}
        return SessionReport(
            filename=filename,
            digest=digest,
            results=ordered,
            modes={name: modes[name] for name in ordered},
            trace_path=trace_path,
            wall_seconds=span.wall_seconds,
        )

    def advise(self, source: str, *, filename: str = "<input>",
               workers: Iterable[int] | str | None = None,
               top: int | None = None,
               mode: str = "auto") -> AnalysisResult:
        """The what-if advisor over one program: rank candidate
        constructs by predicted futures speedup.

        Thin sugar over ``analyze(source, ["whatif"], ...)`` — the
        cold/warm rule and the trace cache apply, and the
        returned :class:`~repro.analyses.AnalysisResult` carries the
        ranked sweep in ``data`` plus the full ``ProfileReport`` as
        ``payload``.
        """
        options: dict[str, Any] = {}
        if workers is not None:
            if not isinstance(workers, str):
                workers = ",".join(str(w) for w in workers)
            options["workers"] = workers
        if top is not None:
            options["top"] = top
        report = self.analyze(source, ("whatif",), filename=filename,
                              mode=mode,
                              options={"whatif": options} if options
                              else None)
        return report["whatif"]

    # -- internals ----------------------------------------------------------

    def _replay(self, trace_path: str, program: ProgramIR,
                replayed: list[Analysis],
                merged_options: Mapping) -> tuple[dict, str]:
        """One replay pass over every replayed analysis.

        With ``options.jobs`` set, the pass runs as a sharded parallel
        replay — results are identical to serial, so callers only see
        the mode label and the wall clock change; one that falls back
        (an analysis without the segment protocol, no usable seams) is
        labelled ``"replay"``.
        """
        jobs = self.options.jobs
        self.stats.replay_passes += 1
        if jobs is not None and jobs != 1:
            from repro.trace.parallel import parallel_replay

            names = [analysis.name for analysis in replayed]
            outcome = parallel_replay(
                trace_path, names, jobs=jobs,
                options={name: dict(merged_options.get(name, {}))
                         for name in names},
                telemetry=self.telemetry, program=program)
            if outcome.mode == "parallel":
                self.stats.parallel_passes += 1
                return outcome.reports, "parallel"
            return outcome.reports, "replay"
        from repro.trace.replay import replay_with

        outcome = replay_with(trace_path, replayed, program,
                              telemetry=self.telemetry)
        return outcome.reports, "replay"

    def _merge_options(self, options: Mapping | None
                       ) -> dict[str, dict[str, Any]]:
        """Session-level ProfileOptions become 'dep' defaults; explicit
        per-analysis options win."""
        merged: dict[str, dict[str, Any]] = {
            "dep": {"track_war_waw": self.options.track_war_waw},
        }
        for name, opts in (options or {}).items():
            merged.setdefault(name, {}).update(opts)
        return merged

    def _run_live(self, source: str, filename: str,
                  analyses: list[Analysis],
                  recorder=None) -> AnalysisContext:
        """One interpreter run feeding every live analysis (and, when
        ``recorder`` is given, the trace writer too)."""
        ctx = run_live(self.compile(source, filename), analyses,
                       max_steps=self.options.max_steps,
                       telemetry=self.telemetry, filename=filename,
                       recorder=recorder)
        self.stats.live_runs += 1
        return ctx

    def _record_and_run_live(self, source: str, filename: str,
                             analyses: list[Analysis]
                             ) -> tuple[str, AnalysisContext]:
        """Record the trace and feed every analysis in ONE run."""
        from repro.trace.writer import TraceWriter, note_recording

        digest = source_digest(source)
        self.telemetry.count("session.trace_cache_misses")
        writer = TraceWriter(self._trace_path(digest), source, filename)
        ctx = self._run_live(source, filename, analyses, recorder=writer)
        note_recording(writer, self.telemetry, ctx.wall_seconds)
        self._traces[digest] = writer.path
        self.stats.records += 1
        return writer.path, ctx

    def _attach_baseline(self, results: dict[str, AnalysisResult],
                         live: list[Analysis]) -> None:
        """Honour ``ProfileOptions.measure_baseline`` for a live `dep`
        run, matching ``Alchemist.profile`` (Table III's Orig. column).
        The timing stays out of ``AnalysisResult.data`` by design."""
        if not self.options.measure_baseline:
            return
        for analysis in live:
            if analysis.name != "dep":
                continue
            report = results["dep"].payload
            report.stats.baseline_seconds = Alchemist(
                self.options).baseline_seconds(report.program)


def analyze(source: str, analyses: str | Iterable[str] = ("dep",),
            **kwargs) -> SessionReport:
    """One-shot convenience: ``Session().analyze(...)`` with cleanup."""
    with Session() as session:
        report = session.analyze(source, analyses, **kwargs)
    # The session-owned trace directory is gone; don't hand out a
    # dangling path.
    report.trace_path = None
    return report
