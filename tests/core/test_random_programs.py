"""End-to-end fuzz: random programs through the whole stack.

The AST fuzzer from the pretty-printer tests generates arbitrary
combinations of loops, conditionals, switches, gotos, pointer
dereferences and assignments. Every generated program must *compile*
(lowering, CFG construction, dominance, construct table never crash),
and any program that runs to completion — wild pointer dereferences
and infinite loops are legitimate runtime outcomes, not failures —
must leave the profiler in a consistent state: balanced indexing
stack, zeroed nesting counters, allocator fully drained.

The same generators also pin replayed dep: block replay (the instance
table, the pair kernel and the vectorised Table II walk) with either
decoder, live profiling (the per-event hooks of ``AlchemistTracer``),
a live ``Session`` run (blocks from the live tap) and parallel
segments (plus cross-seam deferral) must all produce the same dep
profile — store for store on traces of many small blocks, down to each
construct's edge order, the names and the first observations. They pin
the locality reuse-distance kernel and the flat and context block
kernel the same way: live runs, batch replay with either decoder and
parallel segments agree, and flat and context equal their per-event
tracers. The flat, context and Alchemist detectors,
which share one shadow memory, count the same pairs of each kind. And
they pin task-graph extraction: the index pass + per-candidate kernel
builds the graphs one ``TaskGraphTracer`` per construct head builds,
from live runs and from replayed traces alike, and so do the graphs
``whatif`` builds inside its profile pass, serial, live and in
parallel segments.
"""

import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import make_analyses, whatif
from repro.analyses.base import AnalysisContext
from repro.analyses.builtin import (_context_result, _flat_result,
                                    profile_summary)
from repro.analysis.constructs import ConstructTable
from repro.api import Session
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.profile_data import DepKind
from repro.ir.lowering import compile_source, lower_program
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.parallel.taskgraph import (LiveSource, TraceSource,
                                      extract_task_graphs,
                                      induction_offsets_of,
                                      resolve_private_globals)
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.trace.live import TeeTracer
from repro.trace.parallel import parallel_replay
from repro.trace.reader import TraceReader
from repro.trace.replay import ReplayEngine, replay_with
from repro.trace.writer import TraceWriter, record_program
from repro.workloads import get
from tests.baselines.reference import ContextSensitiveTracer, FlatTracer
from tests.core.reference import AlchemistTracer
from tests.lang.test_pretty import _programs
from tests.parallel.reference import TaskGraphTracer

#: Generated programs may loop forever; cap them tightly.
STEP_CAP = 20_000


def compile_ast(program_ast):
    """Lower via the pretty-printed source so positions are realistic."""
    from repro.lang.parser import parse_program
    source = pretty_print(program_ast)
    return lower_program(parse_program(source))


class TestRandomPrograms:
    @given(_programs)
    @settings(max_examples=80, deadline=None)
    def test_every_generated_program_compiles(self, program_ast):
        try:
            program = compile_ast(program_ast)
        except SemanticError:
            # Duplicate labels / goto to undefined labels are legal
            # fuzzer outputs and legitimate compile-time rejections.
            return
        table = ConstructTable(program)
        assert table.static_count() >= 1
        # Every branch's construct has a region containing its own block.
        for construct in table.by_pc.values():
            if construct.block_id is not None:
                assert construct.block_id in construct.region

    @given(_programs)
    @settings(max_examples=60, deadline=None)
    def test_profiler_state_consistent_after_any_outcome(self,
                                                         program_ast):
        try:
            program = compile_ast(program_ast)
        except SemanticError:
            return
        table = ConstructTable(program)
        tracer = AlchemistTracer(table)
        interp = Interpreter(program, tracer, max_steps=STEP_CAP)
        try:
            interp.run()
        except (MiniCRuntimeError, StepLimitExceeded):
            # Wild pointers and endless loops are acceptable runtime
            # outcomes for random programs; state checks below only
            # apply to completed runs.
            return
        assert tracer.stack.depth() == 0
        nonzero = {pc: d for pc, d in tracer.store._nesting.items() if d}
        assert nonzero == {}
        assert tracer.pool.live_count() == 0

    @given(_programs)
    @settings(max_examples=40, deadline=None)
    def test_rerun_is_deterministic(self, program_ast):
        try:
            program = compile_ast(program_ast)
        except SemanticError:
            return

        def run_once():
            interp = Interpreter(program, max_steps=STEP_CAP)
            try:
                value = interp.run()
            except (MiniCRuntimeError, StepLimitExceeded) as exc:
                return ("error", type(exc).__name__, interp.time)
            return ("ok", value, interp.time, tuple(interp.output))

        assert run_once() == run_once()


def _dep_digest(report) -> tuple:
    """What every dep path must agree on: the profile summary plus the
    dependence counters."""
    stats = report.stats
    return (profile_summary(report), stats.raw_events, stats.war_events,
            stats.waw_events, stats.edges_profiled)


def _replayed(path, program, war_waw: bool, columnar: bool):
    """``(digest, Table II updates)`` of one serial dep replay."""
    analyses = make_analyses(["dep"], {"dep": {"track_war_waw": war_waw}})
    outcome = replay_with(path, analyses, program, columnar=columnar)
    return (_dep_digest(outcome.reports["dep"].payload),
            analyses[0].engine.updates)


def _parallel_digests(path, war_waw: bool, interval: int) -> list:
    digests = []
    for jobs in (2, 7):
        outcome = parallel_replay(
            path, ["dep"], jobs=jobs, interval=interval, columnar=True,
            options={"dep": {"track_war_waw": war_waw}})
        assert outcome.mode == "parallel", outcome.fallback_reason
        digests.append(_dep_digest(outcome.reports["dep"].payload))
    return digests


#: Loop-body statement templates for :func:`_loop_programs`: global
#: and heap array traffic at varied strides, a call that writes
#: globals, a conditional store and a nested loop, so RAW/WAR/WAW pairs
#: of every distance reach the dep walk (the AST fuzzer's programs that
#: run to completion are mostly a handful of events).
_STATEMENTS = (
    "g{a}[(i + {c}) % 16] = g{b}[(i + {d}) % 16] + s;",
    "s = s + g{a}[(i * {c}) % 16];",
    "if (i % {m} == 0) {{ g{a}[(i + {c}) % 16] = s; }}",
    "s = s + f(i + {c});",
    "for (int j = 0; j < {m}; j++) {{ "
    "g{a}[(i + j) % 16] = g{b}[(j + {c}) % 16] + 1; }}",
    "h[(i + {c}) % 8] = g{a}[i % 16] + h[(i + {d}) % 8];",
)


@st.composite
def _loop_programs(draw) -> str:
    body = []
    for template in draw(st.lists(st.sampled_from(_STATEMENTS),
                                  min_size=1, max_size=6)):
        body.append(template.format(
            a=draw(st.integers(0, 1)), b=draw(st.integers(0, 1)),
            c=draw(st.integers(0, 20)), d=draw(st.integers(0, 20)),
            m=draw(st.integers(1, 5))))
    trips = draw(st.integers(1, 30))
    return (
        "int g0[16];\nint g1[16];\n"
        "int f(int x) {\n"
        "    g0[x % 16] = g1[(x + 3) % 16] + x;\n"
        "    return g0[(x + 1) % 16];\n}\n"
        "int main() {\n    int s = 0;\n"
        f"    for (int i = 0; i < {trips}; i++) {{\n"
        "        int *h = malloc(8);\n"
        + "".join(f"        {line}\n" for line in body)
        + "        free(h);\n    }\n    print(s);\n    return 0;\n}\n")


class TestDepKernelEquivalence:
    """Block replay (either decoder) == live == parallel at 2 and 7
    jobs, on random programs, with and without WAR/WAW."""

    @given(st.one_of(_programs.map(pretty_print), _loop_programs()),
           st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_every_dep_path_agrees(self, source, war_waw):
        try:
            program = compile_source(source)
        except SemanticError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            try:
                recorded = record_program(program, path, source=source,
                                          max_steps=STEP_CAP)
            except (MiniCRuntimeError, StepLimitExceeded):
                return
            kernel = _replayed(path, program, war_waw, columnar=True)
            assert _replayed(path, program, war_waw,
                             columnar=False) == kernel

            live = AlchemistTracer(ConstructTable(program),
                                   track_war_waw=war_waw)
            Interpreter(program, live, max_steps=STEP_CAP).run()
            assert live.profiler.updates == kernel[1]
            report = Alchemist(ProfileOptions(
                track_war_waw=war_waw, max_steps=STEP_CAP)).profile(
                    program=program)
            assert _dep_digest(report) == kernel[0]
            assert _report_digest(report) == _tracer_digest(live)

            interval = max(1, recorded.events // 6)
            for digest in _parallel_digests(path, war_waw, interval):
                assert digest == kernel[0]


#: Small enough that even a fuzzed program spans several blocks.
SMALL_BLOCKS = 96


def _store_digest(store, ordered: bool = True) -> list:
    """Every profile (in ``store.profiles`` order) with its durations,
    instances and edges (in insertion order) as ``(key, min Tdep,
    count, name, first_t)``; sorted throughout unless ``ordered``."""
    profiles = []
    for pc, profile in store.profiles.items():
        edges = [((key[0], key[1], key[2].value), edge.min_tdep,
                  edge.count, edge.var_hint, edge.first_t)
                 for key, edge in profile.edges.items()]
        profiles.append((pc, profile.total_duration, profile.instances,
                         profile.max_duration,
                         edges if ordered else sorted(edges)))
    return profiles if ordered else sorted(profiles)


def _tracer_digest(tracer, ordered: bool = True) -> tuple:
    """A dep tracer's store and counters (see :func:`_store_digest`)."""
    pool = tracer.pool.stats
    events = tracer.profiler.events
    return (_store_digest(tracer.store, ordered),
            tracer.store.dynamic_instances, events[DepKind.RAW],
            events[DepKind.WAR], events[DepKind.WAW], pool.capacity,
            pool.acquires, tracer.stack.max_depth)


def _report_digest(report, ordered: bool = True) -> tuple:
    """:func:`_tracer_digest` of a finished :class:`ProfileReport`."""
    stats = report.stats
    return (_store_digest(report.store, ordered), stats.dynamic_instances,
            stats.raw_events, stats.war_events, stats.waw_events,
            stats.pool.capacity, stats.pool.acquires,
            stats.max_index_depth)


def record_small_blocks(program, source: str, path: str, live=()):
    """Record ``program`` into blocks of :data:`SMALL_BLOCKS` bytes,
    feeding the ``live`` tracers on the same run; returns the events
    recorded, or ``None`` when the program does not run to
    completion."""
    writer = TraceWriter(path, source, block_bytes=SMALL_BLOCKS)
    interp = Interpreter(program, TeeTracer([writer, *live]),
                         max_steps=STEP_CAP)
    try:
        exit_value = interp.run()
    except (MiniCRuntimeError, StepLimitExceeded):
        writer.abort()
        return None
    writer.close(exit_value, interp.output)
    return writer.events


class TestDepStoreForStore:
    """Block replay with either decoder == live ``AlchemistTracer`` ==
    ``Alchemist().profile`` == ``Session`` live dep (blocks from the
    live tap) == parallel at 2 and 7 jobs, store for store, on traces whose instances, frees and calls straddle 96-byte
    blocks: every construct's edges in dict insertion order as (key,
    min Tdep, count, name, first_t), its durations and instances, the
    profiles' order, the dependence counters, the Table II updates, the
    allocation stats and the index depth. The parallel merge rebuilds
    the store sorted, so parallel runs compare in sorted order."""

    @given(st.one_of(_programs.map(pretty_print), _loop_programs()),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_every_path_agrees(self, source, war_waw):
        try:
            program = compile_source(source)
        except SemanticError:
            return
        options = {"dep": {"track_war_waw": war_waw}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            live = AlchemistTracer(ConstructTable(program),
                                   track_war_waw=war_waw)
            events = record_small_blocks(program, source, path, [live])
            if events is None:
                return
            expected = _tracer_digest(live)
            for columnar in (True, False):
                analyses = make_analyses(["dep"], options)
                outcome = replay_with(path, analyses, program,
                                      columnar=columnar)
                assert _report_digest(outcome.reports["dep"].payload) \
                    == expected, columnar
                assert analyses[0].engine.updates == live.profiler.updates
            profile_options = ProfileOptions(track_war_waw=war_waw,
                                             max_steps=STEP_CAP)
            report = Alchemist(profile_options).profile(program=program)
            assert _report_digest(report) == expected
            with Session(profile_options, cache_dir=tmp) as session:
                live_dep = session.analyze(source, ["dep"], mode="live")
            assert _report_digest(live_dep["dep"].payload) == expected
            canonical = _tracer_digest(live, ordered=False)
            for jobs in (2, 7):
                outcome = parallel_replay(path, ["dep"], jobs=jobs,
                                          interval=max(1, events // 6),
                                          options=options)
                assert outcome.mode == "parallel", outcome.fallback_reason
                assert _report_digest(outcome.reports["dep"].payload,
                                      ordered=False) == canonical


def _reports(outcome, names) -> dict:
    return {name: (outcome.reports[name].to_dict(),
                   outcome.reports[name].text) for name in names}


class TestLocalityContextEquivalence:
    """Locality's reuse-distance kernel and the flat and context block
    kernel (and their seeded segments): a live run (blocks from the
    live tap) == batch replay with either decoder == parallel at 2 and
    7 jobs, with seams inside a trace block; and flat and context ==
    the per-event ``FlatTracer`` and ``ContextSensitiveTracer`` hooks
    on the interpreter."""

    NAMES = ["locality", "context", "flat"]

    @given(st.one_of(_programs.map(pretty_print), _loop_programs()))
    @settings(max_examples=25, deadline=None)
    def test_every_path_agrees(self, source):
        try:
            program = compile_source(source)
        except SemanticError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            try:
                recorded = record_program(program, path, source=source,
                                          max_steps=STEP_CAP)
            except (MiniCRuntimeError, StepLimitExceeded):
                return
            serial = _reports(replay_with(
                path, make_analyses(self.NAMES), program, columnar=True),
                self.NAMES)
            live = make_analyses(self.NAMES)
            interp = Interpreter(program, TeeTracer(live),
                                 max_steps=STEP_CAP)
            interp.run()
            ctx = AnalysisContext(program=program, memory=interp.memory,
                                  final_time=interp.time, mode="live")
            reports = {a.name: a.finish(ctx) for a in live}
            assert {name: (report.to_dict(), report.text)
                    for name, report in reports.items()} == serial
            flat = FlatTracer(program)
            context = ContextSensitiveTracer()
            Interpreter(program, TeeTracer([flat, context]),
                        max_steps=STEP_CAP).run()
            for name, result in (("flat", _flat_result(flat.profile)),
                                 ("context",
                                  _context_result(context.profile))):
                assert (result.to_dict(), result.text) == serial[name]
            assert _reports(replay_with(
                path, make_analyses(self.NAMES), program, columnar=False),
                self.NAMES) == serial
            interval = max(1, recorded.events // 6)
            for jobs in (2, 7):
                outcome = parallel_replay(path, self.NAMES, jobs=jobs,
                                          interval=interval,
                                          columnar=True)
                assert outcome.mode == "parallel", outcome.fallback_reason
                assert any(segment.checkpoint.codec.get("skip")
                           for segment in outcome.plan.segments)
                assert _reports(outcome, self.NAMES) == serial


class TestOneShadowOnePairStream:
    """Flat, context and Alchemist detect on the same shadow memory, so
    per kind they see the same dynamic dependences: the flat and the
    context edge counts both sum to the live profiler's event count."""

    @given(st.one_of(_programs.map(pretty_print), _loop_programs()))
    @settings(max_examples=30, deadline=None)
    def test_every_detector_counts_the_same_pairs(self, source):
        try:
            program = compile_source(source)
        except SemanticError:
            return
        flat = FlatTracer(program)
        context = ContextSensitiveTracer()
        alchemist = AlchemistTracer(ConstructTable(program))
        try:
            Interpreter(program, TeeTracer([flat, context, alchemist]),
                        max_steps=STEP_CAP).run()
        except (MiniCRuntimeError, StepLimitExceeded):
            return
        for kind in DepKind:
            flat_total = sum(edge.count
                             for edge in flat.profile.edges.values()
                             if edge.kind is kind)
            context_total = sum(edge.count
                                for edge in context.profile.edges.values()
                                if edge.kind is kind)
            assert flat_total == context_total == \
                alchemist.profiler.events[kind], kind


class _ScalarTraceSource(TraceSource):
    """Replays through the scalar reference decoder
    (``columnar=False``)."""

    def drive(self, tracers):
        with TraceReader(self.path) as reader:
            ReplayEngine(reader, self.program, columnar=False).run(tracers)


class TestTaskGraphKernelEquivalence:
    """Task-graph kernel == ``TaskGraphTracer`` for every construct
    head — without privatization, with one privatized global and with
    each loop's induction offsets — and TraceSource (with either
    decoder) == LiveSource."""

    @given(st.one_of(_programs.map(pretty_print), _loop_programs()))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_reference(self, source):
        try:
            program = compile_source(source)
        except SemanticError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            try:
                record_program(program, path, source=source,
                               max_steps=STEP_CAP)
            except (MiniCRuntimeError, StepLimitExceeded):
                return
            table = ConstructTable(program)
            heads = sorted(table.by_pc)
            configs = [((), False), ((), True)]
            if program.globals_layout:
                configs.append(((program.globals_layout[0].name,), False))
            for private, induction in configs:
                skip = resolve_private_globals(program, private)
                tracers = [TaskGraphTracer(
                    table, pc, skip,
                    induction_offsets_of(program, pc) if induction
                    else frozenset()) for pc in heads]
                LiveSource(program, STEP_CAP).drive(tracers)
                expected = {pc: tracer.graph()
                            for pc, tracer in zip(heads, tracers)}
                targets = {pc: private for pc in heads}
                for events in (TraceSource(path, program),
                               _ScalarTraceSource(path, program),
                               LiveSource(program, STEP_CAP)):
                    assert extract_task_graphs(
                        events, targets, auto_induction=induction) \
                        == expected

    #: Independent iterations calling a helper, then a blocked loop:
    #: the first loop and the helper are advise candidates, and the
    #: loop is open across most seams of a six-way split.
    STRADDLE = """
int results[16];
int chain;
int work(int seed) {
    int acc = seed;
    for (int i = 0; i < 40; i++) acc = (acc * 31 + i) % 65521;
    return acc;
}
int main() {
    for (int f = 0; f < 12; f++) {
        results[f] = work(f);
    }
    for (int g = 0; g < 12; g++) {
        chain = (chain * 7 + results[g]) % 9973;
    }
    print(chain);
    return 0;
}
"""

    @given(st.one_of(_programs.map(pretty_print), _loop_programs()))
    @settings(max_examples=12, deadline=None)
    def test_whatif_graphs_match_reference(self, source):
        self._check_whatif(source)

    def test_whatif_instances_straddle_seams(self):
        assert self._check_whatif(self.STRADDLE)

    @staticmethod
    def _check_whatif(source) -> bool:
        """whatif's in-pass graphs == one ``TaskGraphTracer`` per
        candidate with the same privatized globals and induction
        offsets, on every path; returns whether a candidate's instance
        was open at a parallel seam."""
        try:
            program = compile_source(source)
        except SemanticError:
            return False
        options = {"whatif": {"top": 64}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            try:
                recorded = record_program(program, path, source=source,
                                          max_steps=STEP_CAP)
            except (MiniCRuntimeError, StepLimitExceeded):
                return False
            serial = _whatif_graphs(lambda: replay_with(
                path, make_analyses(["whatif"], options), program))
            specs = serial.get("specs", {})
            table = ConstructTable(program)
            tracers = {pc: TaskGraphTracer(table, pc, skip, induction)
                       for pc, (skip, induction) in specs.items()}
            if tracers:
                LiveSource(program, STEP_CAP).drive(list(tracers.values()))
            assert serial.get("graphs", {}) == {
                pc: tracer.graph() for pc, tracer in tracers.items()}

            assert _whatif_graphs(lambda: replay_with(
                path, make_analyses(["whatif"], options), program,
                columnar=False)) == serial
            with Session(ProfileOptions(max_steps=STEP_CAP),
                         cache_dir=tmp) as session:
                assert _whatif_graphs(lambda: session.analyze(
                    source, ["whatif"], mode="live",
                    options=options)) == serial

            straddled = False
            interval = max(1, recorded.events // 6)
            for jobs in (2, 7):
                plans = []

                def sharded():
                    outcome = parallel_replay(path, ["whatif"], jobs=jobs,
                                              interval=interval,
                                              options=options)
                    assert outcome.mode == "parallel", \
                        outcome.fallback_reason
                    plans.append(outcome.plan)

                assert _whatif_graphs(sharded) == serial
                open_at_seams = {pc for segment in plans[0].segments[1:]
                                 for pc, _ in segment.checkpoint.cstack}
                straddled |= bool(open_at_seams & set(specs))
            return straddled


def _whatif_graphs(run) -> dict:
    """The candidate specs and task graphs ``whatif`` builds while
    ``run()`` drives it (empty when no candidate was simulated)."""
    captured: dict = {}
    build = whatif.task_graphs

    def spy(log, specs, total, telemetry=None):
        graphs = build(log, specs, total, telemetry)
        captured.update(specs=dict(specs), graphs=graphs)
        return graphs

    with mock.patch.object(whatif, "task_graphs", spy):
        run()
    return captured
