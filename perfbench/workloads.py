"""The three benchmark workloads: set-up, oracle and one timed round.

Every workload drives the public API the way a user would and checks
each result against an oracle outside the timed region:

* ``dep-bzip2`` — bzip2 at scale 1, asked one question (dep), both by
  a cold record + replay (``Session().analyze``) and live
  (``Alchemist().profile``). Oracle: replayed dep == live dep. Scale 1
  keeps a round near 1.5 s, so a run holds a dozen rounds to take the
  fastest of (at scale 2 it held four, and runs spread twice as much).
* ``replay-suite`` — all ten bundled programs at scale 1, recorded in
  set-up, replayed serially through locality, hot, counts and context
  in one pass per trace. Oracle: columnar replay == the scalar decoder
  (``columnar=False``), computed once after set-up.
* ``advise-parallel`` — the four Table V programs through a 2-job
  ``Session.advise`` plus ``Session.static_report`` (the ``screen``
  verb). Oracle: 2-job advise == serial advise, computed once after
  set-up.

Every program's printed output count is also checked against the
workload's ``expected_outputs``. A raised error or a failed oracle
counts as a failed operation; it never stops the run.
"""

from __future__ import annotations

import os
import shutil
import traceback

from repro.analyses.builtin import profile_summary
from repro.api import Session
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.ir.lowering import compile_source
from repro.staticdep import fuse_profile, report_for
from repro.telemetry import as_telemetry
from repro.trace.reader import TraceReader
from repro.trace.replay import replay_trace
from repro.trace.writer import record_program

from hostclock import timed
from seeds import Program, program_set, seeded_program

#: Analyses replay-suite runs in its single pass per trace.
REPLAY_ANALYSES = ("locality", "hot", "counts", "context")
#: Table V programs (paper §IV-B parallelization targets).
ADVISE_PROGRAMS = ["bzip2", "ogg", "par2", "aes"]
#: All bundled programs: the 8 Table III ports plus the heap programs.
SUITE_PROGRAMS = ["197.parser", "bzip2", "gzip", "130.li", "ogg", "aes",
                  "par2", "delaunay", "wordcount", "lisp-cons"]


def trace_events(path: str) -> int:
    with TraceReader(path) as reader:
        return reader.read_footer().events


class Round:
    """What one timed round did: the seconds of each timed operation
    by stage, the events it processed, and its operation tally."""

    def __init__(self):
        #: stage name -> {operation label -> seconds}
        self.seconds: dict[str, dict[str, float]] = {}
        self.events = 0
        self.ops = 0
        #: (operation label, what went wrong)
        self.failures: list[tuple[str, str]] = []

    def add(self, stage: str, label: str, seconds: float) -> None:
        self.seconds.setdefault(stage, {})[label] = seconds

    def attempt(self, label: str, fn, *args, **kwargs):
        """Run one operation; returns ``timed(fn, ...)``, or
        ``(0.0, None)`` after recording an error as a failure."""
        self.ops += 1
        try:
            return timed(fn, *args, **kwargs)
        except Exception:  # a failed operation is data, not a crash
            self.failures.append((label, traceback.format_exc(limit=3)))
            return 0.0, None

    def check(self, label: str, ok: bool, what: str) -> None:
        """Record an oracle failure for an operation already counted."""
        if not ok:
            self.failures.append((label, what))

    @property
    def failed(self) -> int:
        """Operations with at least one error or oracle failure."""
        return len({label for label, _ in self.failures})

    def stage_s(self, stage: str) -> float:
        return sum(self.seconds[stage].values())

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s(stage) for stage in self.seconds)


def _outputs_ok(program: Program, output) -> bool:
    return len(output) == program.expected_outputs


class Workload:
    """Base: ``setup`` (repeatable), ``oracle`` (once), ``round``."""

    name = ""
    #: The stage's own name; ``stage_s`` in the JSON result.
    stage = ""
    #: The analyses the stage asks for (also the parallel-replay probe's).
    analyses: tuple[str, ...] = ()
    #: How many times set-up runs per process (``setup_s`` is the median).
    setup_repeats = 3

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.programs: list[Program] = []
        self.trace_bytes = 0
        self.trace_event_count = 0
        self._setups = 0

    def fresh_dir(self) -> str:
        """A new directory for this set-up's traces (the previous
        set-up's directory is removed)."""
        self._setups += 1
        previous = os.path.join(self.workdir, f"setup{self._setups - 1}")
        shutil.rmtree(previous, ignore_errors=True)
        path = os.path.join(self.workdir, f"setup{self._setups}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def oracle(self) -> Round:
        """Reference results, computed once outside timing."""
        return Round()

    def round(self, telemetry=None) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        pass

    @property
    def trace_bytes_per_event(self) -> float:
        return self.trace_bytes / self.trace_event_count


class DepBzip2(Workload):
    """Time to a dep profile: cold record + replay vs. one live run."""

    name = "dep-bzip2"
    stage = "dep_profile_s"
    analyses = ("dep",)
    setup_repeats = 5

    def setup(self) -> None:
        program = seeded_program("bzip2", 1.0 * self.scale, self.seed)
        compile_source(program.source, program.name)
        # Warm-up: the same calls on a small bzip2 (lazy imports, numpy
        # kernels, the static pass) so round one is not an outlier.
        warm = seeded_program("bzip2", 0.25, self.seed)
        with Session() as session:
            session.analyze(warm.source, ["dep"], filename=warm.name)
        Alchemist().profile(warm.source, filename=warm.name)
        self.programs = [program]

    def round(self, telemetry=None) -> Round:
        out = Round()
        program = self.programs[0]
        with Session(telemetry=telemetry) as session:
            seconds, report = out.attempt(
                "dep-profile", session.analyze, program.source, ["dep"],
                filename=program.name)
            out.add("dep_profile_s", "dep-profile", seconds)
            if report is not None:
                # Trace size/events are read before the session (and
                # its trace directory) is closed; not timed.
                self.trace_bytes = os.path.getsize(report.trace_path)
                self.trace_event_count = trace_events(report.trace_path)
        seconds, live = out.attempt("live-dep", Alchemist().profile,
                                    program.source, filename=program.name)
        out.add("live_dep_s", "live-dep", seconds)
        # Three passes over the event stream: record, replay, live.
        out.events = 3 * self.trace_event_count
        if report is not None and live is not None:
            replayed = dict(report["dep"].data)
            static = replayed.pop("static")
            out.check("dep-profile", replayed == profile_summary(live),
                      "replayed dep differs from live dep")
            live_static, _ = fuse_profile(live, report_for(live.program),
                                          None)
            out.check("dep-profile", static == live_static,
                      "replayed static fusion differs from live")
            out.check("dep-profile",
                      _outputs_ok(program, report["dep"].payload.output),
                      "replay output count")
            out.check("live-dep", _outputs_ok(program, live.output),
                      "live output count")
        return out


class ReplaySuite(Workload):
    """Serial replay of ten stored traces through four analyses."""

    name = "replay-suite"
    stage = "replay_s"
    analyses = REPLAY_ANALYSES

    def setup(self) -> None:
        directory = self.fresh_dir()
        programs = program_set(SUITE_PROGRAMS, 1.0 * self.scale, self.seed,
                               shuffle=True)
        self.compiled = {}
        self.paths = {}
        self.trace_bytes = self.trace_event_count = 0
        for program in programs:
            compiled = compile_source(program.source, program.name)
            path = os.path.join(directory, f"{program.name}.trace")
            result = record_program(compiled, path, source=program.source,
                                    filename=program.name)
            self.compiled[program.name] = compiled
            self.paths[program.name] = path
            self.trace_bytes += result.trace_bytes
            self.trace_event_count += result.events
        # Warm-up: one replay pass over the first trace.
        first = programs[0]
        replay_trace(self.paths[first.name], REPLAY_ANALYSES,
                     self.compiled[first.name])
        self.programs = programs

    def oracle(self) -> Round:
        out = Round()
        self.expected = {}
        for program in self.programs:
            _, outcome = out.attempt(
                f"scalar-oracle {program.name}", replay_trace,
                self.paths[program.name], REPLAY_ANALYSES,
                self.compiled[program.name], columnar=False)
            if outcome is not None:
                self.expected[program.name] = {
                    name: report.to_dict()
                    for name, report in outcome.reports.items()}
        return out

    def round(self, telemetry=None) -> Round:
        out = Round()
        for program in self.programs:
            seconds, outcome = out.attempt(
                f"replay {program.name}", replay_trace,
                self.paths[program.name], REPLAY_ANALYSES,
                self.compiled[program.name], telemetry=telemetry)
            out.add("replay_s", program.name, seconds)
            if outcome is None:
                continue
            got = {name: report.to_dict()
                   for name, report in outcome.reports.items()}
            out.check(f"replay {program.name}",
                      got == self.expected.get(program.name),
                      "columnar replay differs from the scalar oracle")
            out.check(f"replay {program.name}",
                      _outputs_ok(program, outcome.context.output),
                      "output count")
        out.events = self.trace_event_count
        return out


class AdviseParallel(Workload):
    """2-job what-if advise over stored traces, plus the screen verb."""

    name = "advise-parallel"
    stage = "advise_s"
    analyses = ("whatif",)

    def setup(self) -> None:
        self.close()
        directory = self.fresh_dir()
        programs = program_set(ADVISE_PROGRAMS, 1.0 * self.scale, self.seed)
        self.session = Session(ProfileOptions(jobs=2), cache_dir=directory)
        self.trace_bytes = self.trace_event_count = 0
        for program in programs:
            path = self.session.record(program.source, program.name)
            self.trace_bytes += os.path.getsize(path)
            self.trace_event_count += trace_events(path)
        # Warm-up: the smallest program through both timed calls.
        warm = min(programs, key=lambda p: len(p.source))
        self.session.advise(warm.source, filename=warm.name)
        with Session() as screen:
            screen.static_report(warm.source, warm.name)
        self.programs = programs

    def oracle(self) -> Round:
        out = Round()
        self.expected = {}
        self.expected_screen = {}
        with Session() as serial:
            for program in self.programs:
                _, result = out.attempt(
                    f"serial-advise {program.name}", serial.advise,
                    program.source, filename=program.name)
                if result is not None:
                    self.expected[program.name] = result.to_dict()
                _, static = out.attempt(
                    f"screen-oracle {program.name}", serial.static_report,
                    program.source, program.name)
                if static is not None:
                    self.expected_screen[program.name] = static.to_dict()
        return out

    def round(self, telemetry=None) -> Round:
        out = Round()
        session = self.session
        session.telemetry = as_telemetry(telemetry)
        for program in self.programs:
            seconds, result = out.attempt(
                f"advise {program.name}", session.advise, program.source,
                filename=program.name)
            out.add("advise_s", program.name, seconds)
            if result is not None:
                out.check(f"advise {program.name}",
                          result.to_dict() == self.expected.get(program.name),
                          "2-job advise differs from serial advise")
                out.check(f"advise {program.name}",
                          _outputs_ok(program, result.payload.output),
                          "output count")
        for program in self.programs:
            with Session(telemetry=telemetry) as screen:
                seconds, static = out.attempt(
                    f"screen {program.name}", screen.static_report,
                    program.source, program.name)
            out.add("screen_s", program.name, seconds)
            if static is not None:
                out.check(f"screen {program.name}",
                          static.to_dict()
                          == self.expected_screen.get(program.name),
                          "screen report differs from the first one")
        # The profile pass and the extraction pass each read the trace.
        out.events = 2 * self.trace_event_count
        return out

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None


WORKLOADS = {cls.name: cls for cls in (DepBzip2, ReplaySuite,
                                       AdviseParallel)}
