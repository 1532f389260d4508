"""Session facade: digest-keyed caching (record at most once), one
run for a cold call, one replay pass for a warm one, live mode, and
option plumbing."""

from __future__ import annotations

import os

import pytest

from repro.analyses import (Analysis, AnalysisError, AnalysisResult,
                            register, unregister)
from repro.api import Session, analyze
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.trace.shards import load_or_build_checkpoints
from tests.conftest import reference_profile

SOURCE = """
int acc;
int main() {
    for (int i = 0; i < 40; i++) {
        acc += i % 7;
    }
    print(acc);
    return 0;
}
"""

OTHER_SOURCE = SOURCE.replace("i < 40", "i < 12")


class TestRecordOnce:
    def test_fanout_records_exactly_once(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep", "locality", "hot"])
            assert set(report.results) == {"dep", "locality", "hot"}
            assert set(report.modes.values()) == {"live"}
            assert session.stats.records == 1
            assert session.stats.live_runs == 1
            assert session.stats.replay_passes == 0

    def test_cold_call_runs_once_and_records_the_same_trace(
            self, tmp_path, monkeypatch):
        from repro.runtime.interpreter import Interpreter
        from repro.trace.writer import record_source

        executions = []
        original_run = Interpreter.run
        monkeypatch.setattr(
            Interpreter, "run",
            lambda self: (executions.append(1), original_run(self))[1])
        names = ["dep", "locality", "hot", "counts"]
        with Session(cache_dir=str(tmp_path / "cache")) as session:
            cold = session.analyze(SOURCE, names)
            assert len(executions) == 1
            assert session.stats.replay_passes == 0
            with open(cold.trace_path, "rb") as handle:
                recorded = handle.read()
            warm = session.analyze(SOURCE, names)
            assert len(executions) == 1
            assert session.stats.replay_passes == 1
        reference = tmp_path / "reference.trace"
        record_source(SOURCE, reference)
        assert recorded == reference.read_bytes()
        assert set(warm.modes.values()) == {"replay"}
        for name in names:
            assert warm[name].to_dict() == cold[name].to_dict(), name

    def test_new_question_reuses_the_recording(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            session.analyze(SOURCE, ["dep"])
            session.analyze(SOURCE, ["locality", "counts"])
            assert session.stats.records == 1
            assert session.stats.record_hits == 1
            assert session.stats.live_runs == 1
            assert session.stats.replay_passes == 1

    def test_distinct_sources_record_separately(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            session.analyze(SOURCE, ["dep"])
            session.analyze(OTHER_SOURCE, ["dep"])
            assert session.stats.records == 2

    def test_compile_cached_by_digest(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            session.analyze(SOURCE, ["dep"])
            session.analyze(SOURCE, ["locality"])
            assert session.stats.compiles == 1
            assert session.stats.compile_hits >= 1

    def test_new_filename_recompiles_but_shares_the_trace(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            a = session.analyze(SOURCE, ["dep"], filename="a.mc")
            b = session.analyze(SOURCE, ["dep"], filename="b.mc")
            # One recording serves both names...
            assert session.stats.records == 1
        # ...but each report attributes to its own file.
        assert a["dep"].payload.program.filename == "a.mc"
        assert b["dep"].payload.program.filename == "b.mc"

    def test_trace_files_land_in_cache_dir(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep"])
            assert report.trace_path is not None
            assert os.path.dirname(report.trace_path) == str(tmp_path)
            assert os.path.exists(report.trace_path)

    def test_private_tmpdir_removed_on_close(self):
        session = Session()
        report = session.analyze(SOURCE, ["dep"])
        assert os.path.exists(report.trace_path)
        session.close()
        assert not os.path.exists(report.trace_path)


class TestModes:
    def test_live_mode_never_records(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep", "counts"],
                                     mode="live")
            assert session.stats.records == 0
            assert session.stats.live_runs == 1
            assert report.trace_path is None
            assert set(report.modes.values()) == {"live"}

    def test_one_live_run_feeds_every_analysis(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            session.analyze(SOURCE, ["dep", "locality", "hot", "counts"],
                            mode="live")
            assert session.stats.live_runs == 1

    def test_unknown_mode_rejected(self):
        with Session() as session:
            for mode in ("psychic", "replay"):
                with pytest.raises(AnalysisError, match="unknown mode"):
                    session.analyze(SOURCE, ["dep"], mode=mode)

    def test_requires_live_forces_execution_in_auto(self, tmp_path,
                                                    monkeypatch):
        from repro.runtime.interpreter import Interpreter

        executions = []
        original_run = Interpreter.run
        monkeypatch.setattr(
            Interpreter, "run",
            lambda self: (executions.append(1), original_run(self))[1])

        @register
        class NeedsLive(Analysis):
            name = "needs-live-test"
            requires_live = True

            def finish(self, ctx):
                return AnalysisResult(self.name, {"mode": ctx.mode}, "x")

        try:
            with Session(cache_dir=str(tmp_path)) as session:
                names = ["needs-live-test", "counts"]
                # Cold: ONE execution records the trace and feeds both.
                cold = session.analyze(SOURCE, names)
                assert set(cold.modes.values()) == {"live"}
                assert len(executions) == 1
                # Warm: counts replays; the live-only analysis executes.
                warm = session.analyze(SOURCE, names)
                assert warm.modes["needs-live-test"] == "live"
                assert warm.modes["counts"] == "replay"
                assert session.stats.live_runs == 2
                assert session.stats.records == 1
                assert len(executions) == 2
        finally:
            unregister("needs-live-test")


class TestReportShape:
    def test_results_follow_request_order(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["hot", "dep", "counts"])
        assert list(report.results) == ["hot", "dep", "counts"]

    def test_to_dict_top_level_keys(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep", "locality"],
                                     filename="prog.mc")
        data = report.to_dict()
        assert {"file", "digest", "mode", "analyses"} <= set(data)
        assert data["file"] == "prog.mc"
        assert set(data["analyses"]) == {"dep", "locality"}
        assert data["analyses"]["dep"]["constructs"]

    def test_getitem_and_iter(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep", "counts"])
        assert report["counts"].data["reads"] > 0
        assert [r.analysis for r in report] == ["dep", "counts"]

    def test_to_text_labels_each_analysis(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep", "locality"])
        text = report.to_text()
        assert "== dep (live) ==" in text
        assert "== locality (live) ==" in text


class TestOptionPlumbing:
    def test_session_profile_options_reach_dep(self, tmp_path):
        options = ProfileOptions(track_war_waw=False)
        with Session(options, cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["dep"])
        profile_report = report["dep"].payload
        # RAW-only ablation: no WAR/WAW events were profiled.
        assert profile_report.stats.war_events == 0
        assert profile_report.stats.waw_events == 0

    def test_explicit_options_override_session_defaults(self, tmp_path):
        options = ProfileOptions(track_war_waw=False)
        with Session(options, cache_dir=str(tmp_path)) as session:
            report = session.analyze(
                SOURCE, ["dep"],
                options={"dep": {"track_war_waw": True}})
        assert report["dep"].payload.stats.waw_events > 0

    def test_hot_top_option(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["hot"],
                                     options={"hot": {"top": 2}})
        assert len(report["hot"].payload) <= 2

    def test_options_for_unrequested_analysis_rejected(self):
        with Session() as session:
            with pytest.raises(AnalysisError, match="not requested"):
                # Typo'd key ("hots") must not be silently dropped.
                session.analyze(SOURCE, ["hot"],
                                options={"hots": {"top": 5}})


class TestAgreementWithLegacyEntryPoints:
    def test_dep_payload_matches_alchemist_profile(self, tmp_path):
        """Replayed dep == ``Alchemist().profile`` == the per-event
        ``AlchemistTracer`` reference."""
        with Session(cache_dir=str(tmp_path)) as session:
            replayed = session.analyze(SOURCE, ["dep"])["dep"].payload
        rep_edges = {pc: sorted((h, t, k.value) for h, t, k in p.edges)
                     for pc, p in replayed.store.profiles.items()}
        for live in (Alchemist().profile(SOURCE), reference_profile(SOURCE)):
            assert live.exit_value == replayed.exit_value
            assert live.stats.instructions == replayed.stats.instructions
            live_edges = {pc: sorted((h, t, k.value)
                                     for h, t, k in p.edges)
                          for pc, p in live.store.profiles.items()}
            assert live_edges == rep_edges

    def test_oneshot_analyze_helper(self):
        report = analyze(SOURCE, ["counts"])
        assert report["counts"].data["reads"] > 0
        # The session tmpdir is gone; no dangling path is handed out.
        assert report.trace_path is None

    def test_measure_baseline_reaches_live_dep(self, tmp_path):
        options = ProfileOptions(measure_baseline=True)
        for mode in ("live", "auto"):  # "auto" on a cold session
            with Session(options, cache_dir=str(tmp_path / mode)) \
                    as session:
                report = session.analyze(SOURCE, ["dep"], mode=mode)
            assert report.modes["dep"] == "live"
            stats = report["dep"].payload.stats
            assert stats.baseline_seconds is not None
            assert stats.baseline_seconds > 0

    def test_counts_payload_mutation_does_not_corrupt_report(self,
                                                             tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(SOURCE, ["counts"])
        result = report["counts"]
        reads = result.to_dict()["reads"]
        result.payload["reads"] = -1
        assert result.to_dict()["reads"] == reads

    def test_acceptance_bundled_workload_records_once(self, tmp_path):
        """Acceptance criterion: dep+locality+hot over a bundled
        workload = one recording, three reports."""
        from repro.workloads import get

        workload = get("gzip", 0.25)
        with Session(cache_dir=str(tmp_path)) as session:
            report = session.analyze(workload.source,
                                     ["dep", "locality", "hot"])
            assert session.stats.records == 1
            assert session.stats.live_runs == 1
            assert session.stats.replay_passes == 0
        assert set(report.results) == {"dep", "locality", "hot"}
        assert all(r.to_dict() for r in report)


class TestSessionParallelReplay:
    def test_jobs_option_runs_parallel_with_identical_results(self):
        from repro.core.alchemist import ProfileOptions
        from repro.workloads import get

        source = get("gzip", 0.2).source
        with Session() as serial_session:
            serial = serial_session.analyze(
                source, ["dep", "locality", "hot"])
        options = ProfileOptions(jobs=3)
        with Session(options) as parallel_session:
            # Sharded replay is warm-only.
            load_or_build_checkpoints(parallel_session.record(source), 800)
            parallel = parallel_session.analyze(
                source, ["dep", "locality", "hot"])
            assert parallel_session.stats.parallel_passes == 1
        for name in ("dep", "locality", "hot"):
            assert parallel.modes[name] == "parallel"
            assert parallel[name].to_dict() == serial[name].to_dict()

    def test_prebuilt_sidecar_sets_the_seam_interval(self):
        """A session plans its shards on the trace's existing sidecar,
        at whatever interval built it (not the 50k default — one or
        two segments on a small trace)."""
        from repro.core.alchemist import ProfileOptions
        from repro.telemetry import Telemetry
        from repro.workloads import get

        source = get("gzip", 0.2).source
        with Session() as serial_session:
            serial = serial_session.analyze(source, ["dep"])
        tm = Telemetry()
        options = ProfileOptions(jobs=2)
        with Session(options, telemetry=tm) as session:
            load_or_build_checkpoints(session.record(source), 800)
            report = session.analyze(source, ["dep"])
        (coordinator,) = tm.find_spans("replay.parallel")
        assert coordinator.attrs["segments"] > 2
        assert report.modes["dep"] == "parallel"
        assert report["dep"].to_dict() == serial["dep"].to_dict()

    def test_jobs_zero_means_auto(self):
        from repro.core.alchemist import ProfileOptions

        options = ProfileOptions(jobs=0)
        with Session(options) as session:
            load_or_build_checkpoints(session.record(SOURCE), 200)
            report = session.analyze(SOURCE, ["counts"])
        assert report.modes["counts"] in ("parallel", "replay")
        # Tiny program: parallel may or may not engage depending on
        # seam density, but results must be the ordinary ones.
        assert report["counts"].data["reads"] > 0

    def test_sharded_replay_reuses_the_session_program(self, tmp_path,
                                                       monkeypatch):
        """The first 2-job advise after ``record`` plans, scans, merges
        and sweeps on the program the session compiled for the
        recording: nothing is compiled again. A trace whose header
        digest was forged still raises with a program handed over."""
        from repro.ir import lowering
        from repro.trace import replay
        from repro.trace.events import MAGIC, TraceError, pack_length
        from repro.trace.parallel import parallel_replay
        from repro.trace.reader import TraceReader
        from repro.workloads import get

        source = get("bzip2", 0.5).source
        compiles = []
        real = lowering.compile_source

        def counted(*args, **kwargs):
            compiles.append(args)
            return real(*args, **kwargs)

        with Session(ProfileOptions(jobs=2), cache_dir=str(tmp_path)) \
                as session:
            path = session.record(source, "bzip2")
            monkeypatch.setattr(lowering, "compile_source", counted)
            monkeypatch.setattr(replay, "compile_source", counted)
            report = session.analyze(source, ["whatif"], filename="bzip2")
            assert report.modes["whatif"] == "parallel"
            assert compiles == []
            program = session.compile(source, "bzip2")

        blob = open(path, "rb").read()
        with TraceReader(path) as reader:
            header = reader.header
            events_start = reader._events_start
        header.digest = "0" * 64
        forged_header = header.to_bytes()
        forged = tmp_path / "forged.trace"
        forged.write_bytes(blob[:len(MAGIC) + 2]
                           + pack_length(len(forged_header))
                           + forged_header + blob[events_start:])
        with pytest.raises(TraceError, match="digest"):
            parallel_replay(str(forged), ["counts"], jobs=2,
                            program=program)

    def test_analysis_without_segments_replays_serially(self):
        """A hook-only plugin has no segment protocol: the sharded
        replay falls back to one serial pass for the whole request."""
        from repro.workloads import get

        class Reads(Analysis):
            name = "session-reads-test"

            def __init__(self):
                self.reads = 0

            def on_read(self, addr, pc, timestamp):
                self.reads += 1

            def finish(self, ctx):
                return AnalysisResult(analysis=self.name,
                                      data={"reads": self.reads}, text="")

        register(Reads)
        try:
            source = get("gzip", 0.2).source
            with Session(ProfileOptions(jobs=2)) as session:
                load_or_build_checkpoints(session.record(source), 800)
                report = session.analyze(
                    source, ["counts", "session-reads-test"])
                assert session.stats.parallel_passes == 0
        finally:
            unregister("session-reads-test")
        assert set(report.modes.values()) == {"replay"}
        assert report["session-reads-test"].data["reads"] == \
            report["counts"].data["reads"] > 0

    def test_negative_jobs_rejected(self):
        from repro.core.alchemist import ProfileOptions

        with pytest.raises(ValueError):
            ProfileOptions(jobs=-1)
