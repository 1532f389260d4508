"""Batch driver: determinism, ordering, error isolation, parallelism."""

from __future__ import annotations

from repro.trace.batch import (BatchJob, record_replay_many, run_batch,
                               run_job)

WORKLOADS = ["gzip", "aes"]
SCALE = 0.25


class TestJobs:
    def test_record_job(self, tmp_path):
        job = BatchJob(kind="record", name="gzip", workload="gzip",
                       scale=SCALE,
                       trace_path=str(tmp_path / "gzip.trace"))
        result = run_job(job)
        assert result.ok, result.error
        assert result.payload["events"] > 0
        assert (tmp_path / "gzip.trace").exists()

    def test_replay_job_payload_shape(self, tmp_path):
        trace = str(tmp_path / "gzip.trace")
        assert run_job(BatchJob(kind="record", name="gzip",
                                workload="gzip", scale=SCALE,
                                trace_path=trace)).ok
        result = run_job(BatchJob(kind="replay", name="gzip",
                                  trace_path=trace,
                                  analyses=("dep", "locality", "hot")))
        assert result.ok, result.error
        dep = result.payload["dep"]
        assert dep["constructs"]
        assert dep["instructions"] > 0
        assert result.payload["locality"]["accesses"] > 0
        assert result.payload["hot"]

    def test_plugin_modules_reach_the_worker_registry(self, tmp_path,
                                                      monkeypatch):
        """Spawn-started workers re-import only the builtins; jobs must
        import the caller's plugin modules before resolving analyses."""
        import textwrap

        (tmp_path / "plugmod_batch_test.py").write_text(textwrap.dedent("""
            from repro.analyses import Analysis, AnalysisResult, register

            @register
            class PlugCounts(Analysis):
                name = "plug-counts-test"

                def __init__(self):
                    self.reads = 0

                def on_read(self, addr, pc, timestamp):
                    self.reads += 1

                def finish(self, ctx):
                    return AnalysisResult(self.name,
                                          {"reads": self.reads}, "ok")
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        trace = str(tmp_path / "gzip.trace")
        assert run_job(BatchJob(kind="record", name="gzip",
                                workload="gzip", scale=SCALE,
                                trace_path=trace)).ok
        from repro.analyses import unregister

        try:
            result = run_job(BatchJob(
                kind="replay", name="gzip", trace_path=trace,
                analyses=("plug-counts-test",),
                plugin_modules=("plugmod_batch_test",)))
            assert result.ok, result.error
            assert result.payload["plug-counts-test"]["reads"] > 0
        finally:
            unregister("plug-counts-test")

    def test_legacy_nondict_result_payload_preserved(self, tmp_path):
        """An analysis whose result carries no data dict but a raw
        non-dict payload (a list here, the shape legacy results had)
        keeps that payload."""
        from repro.analyses import Analysis, register, unregister
        from repro.analyses.base import AnalysisResult

        @register
        class ListPayload(Analysis):
            name = "list-payload-test"
            description = "first three read addresses"

            def __init__(self):
                self.addrs = set()

            def on_read(self, addr, pc, timestamp):
                self.addrs.add(addr)

            def finish(self, ctx):
                return AnalysisResult(analysis=self.name, data={},
                                      text="list",
                                      payload=sorted(self.addrs)[:3])

        trace = str(tmp_path / "gzip.trace")
        assert run_job(BatchJob(kind="record", name="gzip",
                                workload="gzip", scale=SCALE,
                                trace_path=trace)).ok
        try:
            result = run_job(BatchJob(kind="replay", name="gzip",
                                      trace_path=trace,
                                      analyses=("list-payload-test",)))
            assert result.ok, result.error
            payload = result.payload["list-payload-test"]
            assert isinstance(payload, list) and len(payload) == 3
        finally:
            unregister("list-payload-test")

    def test_errors_travel_as_data(self, tmp_path):
        result = run_job(BatchJob(kind="replay", name="missing",
                                  trace_path=str(tmp_path / "no.trace")))
        assert not result.ok
        assert "FileNotFoundError" in result.error

        result = run_job(BatchJob(kind="bogus", name="x", trace_path="x"))
        assert not result.ok
        assert "ValueError" in result.error


class TestBatchOrdering:
    def test_results_in_submission_order(self, tmp_path):
        jobs = [BatchJob(kind="record", name=name, workload=name,
                         scale=SCALE,
                         trace_path=str(tmp_path / f"{name}.trace"))
                for name in WORKLOADS]
        results = run_batch(jobs, workers=2)
        assert [r.job.name for r in results] == WORKLOADS
        assert all(r.ok for r in results)

    def test_parallel_equals_serial(self, tmp_path):
        parallel = record_replay_many(WORKLOADS, str(tmp_path / "par"),
                                      analyses=("dep", "hot"),
                                      workers=2, scale=SCALE)
        serial = record_replay_many(WORKLOADS, str(tmp_path / "ser"),
                                    analyses=("dep", "hot"),
                                    workers=1, scale=SCALE)
        assert [r.job.name for r in parallel.replays] \
            == [r.job.name for r in serial.replays]
        for par, ser in zip(parallel.replays, serial.replays):
            assert par.ok and ser.ok
            assert par.payload == ser.payload

    def test_failed_record_skips_replay(self, tmp_path):
        report = record_replay_many(["gzip", "not-a-workload"],
                                    str(tmp_path / "out"),
                                    analyses=("dep",),
                                    workers=1, scale=SCALE)
        assert [r.ok for r in report.records] == [True, False]
        assert "KeyError" in report.records[1].error
        # Only the successful record got a replay job.
        assert [r.job.name for r in report.replays] == ["gzip"]
        assert report.replays[0].ok

    def test_describe_mentions_failures(self, tmp_path):
        report = record_replay_many(["gzip", "not-a-workload"],
                                    str(tmp_path / "out"),
                                    analyses=("dep",),
                                    workers=1, scale=SCALE)
        text = report.describe()
        assert "FAILED" in text
        assert "gzip" in text
