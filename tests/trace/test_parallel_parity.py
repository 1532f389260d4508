"""Differential harness: parallel sharded replay vs one serial pass.

The contract under test is exact equality — ``to_dict()`` *and*
rendered text — for every registered analysis, across worker counts
including one that does not divide the segment count, for every
trace format the reader accepts, on the vectorized and on the
reference (``columnar=False``) decode path.
Parametrization goes through the live registry, so an analysis
registered later is automatically held to the same standard
(or, by not overriding ``export_segment``, opts out of the segment
protocol, in which case the driver's serial fallback is asserted
instead).
"""

import os

import pytest

from repro.analyses import registry
from repro.trace.parallel import parallel_replay, unsupported_analyses
from repro.trace.events import TRACE_VERSION_V2
from repro.trace.reader import TraceReader
from repro.trace.replay import replay_trace
from repro.trace.shards import plan_shards
from repro.trace.writer import record_source
from repro.workloads import get

#: Worker counts: serial fallback, even split, oversubscribed, and a
#: count that does not divide the segment total.
JOB_COUNTS = (1, 2, 4, 7)

#: Trace format versions the reader accepts (v1 files are rejected).
FORMATS = (TRACE_VERSION_V2,)

#: Decoders every segment can run on: the vectorized kernel and the
#: ``columnar=False`` scalar reference loop — both feed the one
#: dispatch loop, which feeds consumers the same way either way.
DECODE_PATHS = (True, False)

#: Small but structurally rich: gzip exercises globals + arrays +
#: deep call nesting; wordcount exercises heap allocation/recycling
#: (the hard cases for checkpointed memory reconstruction).
WORKLOADS = {"gzip": 0.25, "wordcount": 0.6}

#: Events between prebuilt checkpoints — small enough that every
#: bundled trace yields well over 7 segments.
INTERVAL = 1200


def _segmented_names():
    names = sorted(registry())
    unsupported = unsupported_analyses(names)
    return [name for name in names if name not in unsupported]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """workload -> trace path, recorded once per module."""
    root = tmp_path_factory.mktemp("parity-traces")
    paths = {}
    for name, scale in WORKLOADS.items():
        path = str(root / f"{name}.trace")
        record_source(get(name, scale).source, path,
                      checkpoint_interval=INTERVAL)
        paths[name] = path
    return paths


@pytest.fixture(scope="module")
def outcomes(traces):
    """All serial and parallel outcomes, computed once; the
    per-analysis tests below only compare."""
    names = _segmented_names()
    serial = {}
    parallel = {}
    for workload, path in traces.items():
        serial[workload] = replay_trace(path, names)
        for jobs in JOB_COUNTS:
            for columnar in DECODE_PATHS:
                parallel[workload, jobs, columnar] = parallel_replay(
                    path, names, jobs=jobs, interval=INTERVAL,
                    columnar=columnar)
    return serial, parallel


def _assert_same_report(outcomes, workload, jobs, columnar, analysis):
    serial, parallel = outcomes
    expected = serial[workload].reports[analysis]
    actual = parallel[workload, jobs, columnar].reports[analysis]
    assert actual.to_dict() == expected.to_dict()
    assert actual.text == expected.text


class TestParity:
    @pytest.mark.parametrize("analysis", _segmented_names())
    @pytest.mark.parametrize("version", FORMATS)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_merged_equals_serial(self, traces, outcomes, workload,
                                  version, jobs, analysis):
        """Vectorized decode with batch dispatch in every segment."""
        with TraceReader(traces[workload]) as reader:
            assert reader.version == version
        _assert_same_report(outcomes, workload, jobs, True, analysis)

    @pytest.mark.parametrize("analysis", _segmented_names())
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_reference_path_equals_serial(self, outcomes, workload,
                                          jobs, analysis):
        """``columnar=False``: scalar block decode in every segment,
        through the same dispatch loop."""
        _assert_same_report(outcomes, workload, jobs, False, analysis)

    def test_every_bundled_analysis_supports_segments(self):
        assert not unsupported_analyses(sorted(registry()))

    def test_parallel_mode_actually_engaged(self, outcomes):
        _serial, parallel = outcomes
        for (workload, jobs, columnar), outcome in parallel.items():
            if jobs == 1:
                assert outcome.mode == "serial", (workload, columnar)
            else:
                assert outcome.mode == "parallel", (workload, jobs,
                                                    columnar)
                assert len(outcome.plan.segments) > 1

    def test_seams_fall_inside_blocks(self, traces):
        """The matrix covers seams that resume mid-block (the decoder
        skips the block's leading records)."""
        plan = plan_shards(traces["gzip"], 7, interval=INTERVAL)
        assert any(segment.checkpoint.codec.get("skip")
                   for segment in plan.segments)

    def test_nondivisible_worker_count(self, traces):
        """jobs=7 over a segment count it does not divide: every event
        is still replayed exactly once (counts analysis is a watertight
        event-conservation check)."""
        path = traces["gzip"]
        plan = plan_shards(path, 7, interval=INTERVAL)
        assert len(plan.segments) % 7 != 0
        serial = replay_trace(path, ["counts"])
        par = parallel_replay(path, ["counts"], jobs=7,
                              interval=INTERVAL)
        assert par.reports["counts"].to_dict() == \
            serial.reports["counts"].to_dict()


class TestOptionsParity:
    def test_analysis_options_reach_workers(self, traces):
        path = traces["gzip"]
        options = {"hot": {"top": 3}, "dep": {"track_war_waw": False}}
        from repro.trace.replay import replay_with
        from repro.analyses import make_analyses

        serial = replay_with(path, make_analyses(["dep", "hot"],
                                                 options))
        par = parallel_replay(path, ["dep", "hot"], jobs=3,
                              options=options, interval=INTERVAL)
        assert par.mode == "parallel"
        for name in ("dep", "hot"):
            assert par.reports[name].to_dict() == \
                serial.reports[name].to_dict()
        assert par.reports["hot"].data["top"] == 3


class TestFallbacks:
    def test_unsupported_analysis_falls_back_serially(self, traces):
        from repro.analyses import register, unregister
        from repro.analyses.base import Analysis, AnalysisResult

        class Stub(Analysis):
            name = "parity-stub"
            description = "no segment support"

            def finish(self, ctx):
                return AnalysisResult(analysis=self.name, data={},
                                      text="stub")

        register(Stub)
        try:
            path = traces["gzip"]
            outcome = parallel_replay(path, ["counts", "parity-stub"],
                                      jobs=4, interval=INTERVAL)
            assert outcome.mode == "serial"
            assert "parity-stub" in outcome.fallback_reason
            assert outcome.reports["counts"].data["reads"] > 0
        finally:
            unregister("parity-stub")

    def test_fallback_replays_the_planned_program(self, tmp_path,
                                                  monkeypatch):
        """A trace too short for a seam falls back after the plan's
        scan compiled its program; the serial pass replays that same
        program instead of compiling it again."""
        import repro.ir.lowering as lowering
        import repro.trace.replay as replay

        path = str(tmp_path / "short.trace")
        record_source(get("gzip", 0.1).source, path)
        compiles = []
        real = lowering.compile_source

        def counted(*args, **kwargs):
            compiles.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lowering, "compile_source", counted)
        monkeypatch.setattr(replay, "compile_source", counted)
        outcome = parallel_replay(path, ["counts"], jobs=2)
        assert outcome.mode == "serial"
        assert "seams" in outcome.fallback_reason
        assert len(compiles) == 1

    def test_trace_without_seams_falls_back(self, tmp_path):
        workload = get("gzip", 0.1)
        path = str(tmp_path / "noseams.trace")
        record_source(workload.source, path, checkpoint_interval=0)
        outcome = parallel_replay(path, ["counts"], jobs=4,
                                  allow_scan=False)
        assert outcome.mode == "serial"
        assert "seams" in outcome.fallback_reason
        assert not os.path.exists(path + ".ckpt")

    def test_scan_builds_seams_for_unseamed_trace(self, tmp_path):
        """A trace recorded without seams is sharded after the fact by
        the scan builder (which caches a sidecar)."""
        workload = get("gzip", 0.25)
        path = str(tmp_path / "old.trace")
        record_source(workload.source, path)
        assert not os.path.exists(path + ".ckpt")
        serial = replay_trace(path, ["dep", "locality"])
        outcome = parallel_replay(path, ["dep", "locality"], jobs=4,
                                  interval=INTERVAL)
        assert outcome.mode == "parallel"
        assert outcome.plan.source == "scan"
        assert os.path.exists(path + ".ckpt")
        for name in ("dep", "locality"):
            assert outcome.reports[name].to_dict() == \
                serial.reports[name].to_dict()
        # Second run must reuse the sidecar (same plan, same results).
        again = parallel_replay(path, ["dep"], jobs=4,
                                interval=INTERVAL)
        assert again.mode == "parallel"
        assert again.reports["dep"].to_dict() == \
            serial.reports["dep"].to_dict()

