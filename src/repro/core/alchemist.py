"""The user-facing facade: compile, run, profile.

    from repro import Alchemist, ProfileOptions

    report = Alchemist().profile(source)
    print(report.to_text())

One ``Alchemist`` instance is reusable across programs; each call to
:meth:`Alchemist.profile` performs a fresh instrumented execution: one
live run of the ``dep`` analysis's block engine
(:mod:`repro.core.blockdep`), fed as ``Session`` live runs feed it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.report import ProfileReport
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.tracing import NullTracer


@dataclass
class ProfileOptions:
    """Tuning knobs for a profiling run."""

    #: Also profile WAR/WAW dependences (paper default). Disabling gives
    #: the RAW-only ablation used in the benchmarks.
    track_war_waw: bool = True
    #: Instruction budget for the run.
    max_steps: int = DEFAULT_MAX_STEPS
    #: Also time an uninstrumented run to report the slowdown factor
    #: (Table III's Orig. column).
    measure_baseline: bool = False
    #: Parallel replay worker count for a ``Session``'s warm replays.
    #: ``None``/1 = serial; 0 = one per CPU; N > 1 = that many
    #: processes. Replayed analyses that implement the segment protocol
    #: then run as a sharded parallel pass with results identical to
    #: serial. A cold call is one run and never replays, and live runs
    #: are never parallelized (there is only one execution).
    jobs: int | None = None

    def __post_init__(self) -> None:
        # Fail at construction: a non-positive step budget would
        # surface as a run that executes nothing.
        if self.max_steps <= 0:
            raise ValueError(
                f"max_steps must be positive, got {self.max_steps}")
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")


class Alchemist:
    """Transparent dependence-distance profiler for MiniC programs."""

    def __init__(self, options: ProfileOptions | None = None):
        self.options = options if options is not None else ProfileOptions()

    # -- compilation ---------------------------------------------------------

    def compile(self, source: str,
                filename: str = "<input>") -> ProgramIR:
        """Compile MiniC source to IR (reusable across profile runs)."""
        return compile_source(source, filename)

    # -- profiling --------------------------------------------------------------

    def profile(self, source: str | None = None, *,
                program: ProgramIR | None = None,
                filename: str = "<input>") -> ProfileReport:
        """Run the program under the profiler and return the report."""
        if program is None:
            if source is None:
                raise ValueError("need source or program")
            program = self.compile(source, filename)
        # Imported here: the analyses import the core package.
        from repro.analyses.builtin import DependenceAnalysis
        from repro.trace.live import run_live

        dep = DependenceAnalysis(self.options.track_war_waw)
        report = dep.report(run_live(program, [dep],
                                     max_steps=self.options.max_steps,
                                     filename=filename))
        if self.options.measure_baseline:
            report.stats.baseline_seconds = self.baseline_seconds(program)
        return report

    def baseline_seconds(self, program: ProgramIR) -> float:
        """Wall time of an uninstrumented run (Table III 'Orig.'): a
        :class:`NullTracer` run, whose no-op ``emit`` drops each record
        the interpreter builds."""
        interp = Interpreter(program, NullTracer(), self.options.max_steps)
        start = time.perf_counter()
        interp.run()
        return time.perf_counter() - start
