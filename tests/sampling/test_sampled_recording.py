"""Sampled recording: gating, header provenance, replay, Session keys."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.core.alchemist import ProfileOptions
from repro.runtime.interpreter import run_source
from repro.runtime.tracing import CountingTracer
from repro.sampling import IntervalSampling, SampledTracer
from repro.trace import TraceReader, record_source
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                EV_WRITE)
from repro.trace.replay import replay_trace

PROG = """
int a[64];
int main() {
    int s = 0;
    for (int i = 0; i < 100; i++) {
        int *block = malloc(4);
        block[0] = i;
        a[i % 64] = block[0];
        s += a[(i + 1) % 64];
        free(block);
    }
    print(s);
    return 0;
}
"""


def counts_by_type(path):
    counts = {}
    with TraceReader(path) as reader:
        for etype, _a, _b, _t in reader.events():
            counts[etype] = counts.get(etype, 0) + 1
        return counts, reader.footer


@pytest.fixture
def traces(tmp_path):
    full = tmp_path / "full.trace"
    sampled = tmp_path / "sampled.trace"
    record_source(PROG, full)
    record_source(PROG, sampled, sampling="interval:4")
    return full, sampled


class TestSampledTrace:
    def test_memory_events_thinned_structure_kept(self, traces):
        full, sampled = traces
        fc, _ = counts_by_type(full)
        sc, _ = counts_by_type(sampled)
        memory_full = fc[EV_READ] + fc[EV_WRITE]
        memory_sampled = sc[EV_READ] + sc[EV_WRITE]
        assert memory_sampled == -(-memory_full // 4)  # ceil(n/4)
        for etype in (EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH, EV_ALLOC,
                      EV_FREE, EV_FINISH):
            assert sc.get(etype) == fc.get(etype), etype

    def test_header_and_footer_provenance(self, traces):
        _, sampled = traces
        counts, footer = counts_by_type(sampled)
        with TraceReader(sampled) as reader:
            assert reader.header.sampling == "interval:4"
        assert footer.events == sum(counts.values())

    def test_timestamps_still_absolute(self, traces):
        """Dropping events must not warp the clock of survivors."""
        full, sampled = traces
        with TraceReader(full) as reader:
            full_times = {(e, a, b, t) for e, a, b, t in reader.events()}
        with TraceReader(sampled) as reader:
            last = 0
            for event in reader.events():
                if event[0] != EV_FREE:
                    # Same event, same absolute timestamp. (FREE has no
                    # timestamp of its own — it borrows the previous
                    # *emitted* event's clock, which legitimately
                    # differs once events are dropped.)
                    assert event in full_times
                assert event[3] >= last
                last = event[3]

    def test_replay_flags_dep_as_sampled(self, traces):
        _, sampled = traces
        outcome = replay_trace(str(sampled), ("dep",))
        report = outcome.reports["dep"]
        assert report.data["sampled"] == "interval:4"
        assert "lower-confidence" in report.text
        assert report.payload.stats.sampling == "interval:4"
        assert "sampling=interval:4" in report.payload.describe_run()

    def test_full_replay_not_flagged(self, traces):
        full, _ = traces
        outcome = replay_trace(str(full), ("dep",))
        assert "sampled" not in outcome.reports["dep"].data

    def test_heap_replay_still_exact(self, traces):
        """ALLOC/FREE are never sampled, so memory reconstruction and
        symbolic names survive sampling."""
        _, sampled = traces
        outcome = replay_trace(str(sampled), ("hot",))
        names = {row.name for row in outcome.reports["hot"].payload}
        assert names  # symbolic resolution ran without divergence


class TestSampledTracerLive:
    def test_gates_only_memory_hooks(self):
        inner = CountingTracer()
        run_source(PROG, tracer=SampledTracer(IntervalSampling(4), inner))
        reference = CountingTracer()
        run_source(PROG, tracer=reference)
        assert inner.calls == reference.calls
        assert inner.branches == reference.branches
        assert inner.blocks == reference.blocks
        memory_ref = reference.reads + reference.writes
        assert inner.reads + inner.writes == -(-memory_ref // 4)

    def test_full_policy_is_transparent(self):
        from repro.sampling import FullSampling

        inner = CountingTracer()
        run_source(PROG, tracer=SampledTracer(FullSampling(), inner))
        reference = CountingTracer()
        run_source(PROG, tracer=reference)
        assert (inner.reads, inner.writes) == (reference.reads,
                                               reference.writes)


class TestSessionSamplingCache:
    def test_traces_keyed_by_sampling_config(self, tmp_path):
        full = Session(cache_dir=tmp_path / "a")
        sampled = Session(ProfileOptions(sample="interval:8"),
                          cache_dir=tmp_path / "b")
        try:
            p_full = full.record(PROG)
            p_sampled = sampled.record(PROG)
            assert p_full != p_sampled
            with TraceReader(p_full) as r:
                assert r.header.sampling == "full"
            with TraceReader(p_sampled) as r:
                assert r.header.sampling == "interval:8"
        finally:
            full.close()
            sampled.close()

    def test_same_config_hits_cache(self):
        with Session(ProfileOptions(sample="interval:8")) as session:
            first = session.record(PROG)
            second = session.record(PROG)
            assert first == second
            assert session.stats.records == 1
            assert session.stats.record_hits == 1

    def test_analyze_with_sampling_flags_results(self):
        with Session(ProfileOptions(sample="interval:8")) as session:
            report = session.analyze(PROG, ("dep", "counts"))
            assert report.modes["dep"] == "replay"
            assert report["dep"].data["sampled"] == "interval:8"

    def test_mixed_live_and_sampled_replay(self):
        """Live analyses on the recording run still see every event."""
        from repro.analyses import Analysis, AnalysisResult, register, \
            unregister

        class LiveCounter(Analysis):
            name = "livecount"
            description = "test-only"
            requires_live = True

            def __init__(self):
                self.reads = 0

            def on_read(self, addr, pc, timestamp):
                self.reads += 1

            def finish(self, ctx):
                return AnalysisResult(analysis=self.name,
                                      data={"reads": self.reads},
                                      text=str(self.reads))

        register(LiveCounter)
        try:
            with Session(ProfileOptions(sample="interval:8")) as session:
                report = session.analyze(PROG, ("livecount", "counts"))
                live_reads = report["livecount"].data["reads"]
                sampled_reads = report["counts"].data["reads"]
                assert report.modes["livecount"] == "live"
                assert report.modes["counts"] == "replay"
                assert 0 < sampled_reads < live_reads
        finally:
            unregister("livecount")

    def test_bad_spec_rejected_at_options(self):
        with pytest.raises(ValueError):
            ProfileOptions(sample="interval:zero")
