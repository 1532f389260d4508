"""Lazy shard seams: the recorder writes no seam state, the ``.ckpt``
sidecar scan is the one seam source, and traces from older recorders
(``EV_CHECKPOINT`` markers plus a footer seam table) still read and
replay identically."""

from __future__ import annotations

import json
import os
import zlib

import pytest

from repro.analyses import analysis_names
from repro.trace.codec import V2Encoder, encode_events
from repro.trace.events import EV_CHECKPOINT, EV_FINISH, TRAILER, pack_length
from repro.trace.parallel import parallel_replay
from repro.trace.reader import TraceReader
from repro.trace.replay import replay_trace
from repro.trace.shards import (SIDECAR_SUFFIX, load_or_build_checkpoints,
                                plan_shards, probe_sidecar)
from repro.trace.writer import record_source
from repro.workloads import get, names


def _events(path) -> list:
    with TraceReader(path) as reader:
        return list(reader.events())


def _assert_plain_encoder_stream(path) -> None:
    """No marker records and no block cuts of the writer's own: the event
    section is exactly the reference encoder's stream, and the footer
    follows it."""
    events = _events(path)
    assert EV_CHECKPOINT not in {etype for etype, *_ in events}
    expected = encode_events(events)
    with TraceReader(path) as reader:
        start = reader.events_start
    blob = open(path, "rb").read()
    assert blob[start:start + len(expected)] == expected
    footer_len = int.from_bytes(
        blob[-len(TRAILER) - 4:-len(TRAILER)], "little")
    assert start + len(expected) + footer_len + 4 + len(TRAILER) \
        == len(blob)


class TestWriterBytes:
    @pytest.mark.parametrize("workload", names(include_extra=True))
    def test_trace_is_the_plain_encoder_stream(self, workload, tmp_path):
        path = str(tmp_path / "w.trace")
        record_source(get(workload, 0.25).source, path)
        _assert_plain_encoder_stream(path)

    def test_full_scale_bzip2(self, tmp_path):
        """Scale 1: 30-odd writer flushes and blocks cut between them."""
        path = str(tmp_path / "bzip2.trace")
        record_source(get("bzip2", 1.0).source, path)
        _assert_plain_encoder_stream(path)

    def test_record_prebuilds_the_sidecar(self, tmp_path):
        path = str(tmp_path / "seamed.trace")
        result = record_source(get("gzip", 0.1).source, path,
                               checkpoint_interval=500)
        assert result.checkpoints == len(load_or_build_checkpoints(path))
        assert probe_sidecar(path) == {"checkpoints": result.checkpoints,
                                       "interval": 500}
        bare = str(tmp_path / "bare.trace")
        assert record_source(get("gzip", 0.1).source, bare).checkpoints == 0
        assert not os.path.exists(bare + SIDECAR_SUFFIX)

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            record_source(get("gzip", 0.1).source,
                          str(tmp_path / "x.trace"), checkpoint_interval=-1)


class TestSidecarInterval:
    def test_plan_reuses_the_sidecar_at_its_interval(self, tmp_path):
        path = str(tmp_path / "t.trace")
        record_source(get("gzip", 0.25).source, path,
                      checkpoint_interval=700)
        before = open(path + SIDECAR_SUFFIX).read()
        plan = plan_shards(path, 2, oversubscribe=100)
        assert plan.source == "scan"
        assert plan.segments[1].checkpoint.index == 700
        assert open(path + SIDECAR_SUFFIX).read() == before

    def test_explicit_interval_rebuilds(self, tmp_path):
        path = str(tmp_path / "t.trace")
        record_source(get("gzip", 0.25).source, path,
                      checkpoint_interval=700)
        plan = plan_shards(path, 2, interval=900, oversubscribe=100)
        assert plan.segments[1].checkpoint.index == 900
        assert probe_sidecar(path)["interval"] == 900

    def test_no_scan_without_sidecar_means_serial(self, tmp_path):
        path = str(tmp_path / "t.trace")
        record_source(get("gzip", 0.1).source, path)
        plan = plan_shards(path, 4, allow_scan=False)
        assert plan.source == "serial" and not plan.is_parallel


def _legacy_copy(path: str, legacy: str, every: int) -> int:
    """Rewrite ``path`` the way older recorders wrote it: an
    ``EV_CHECKPOINT`` marker sealing a block every ``every`` events and
    a seam table in the footer. Returns the number of markers."""
    with TraceReader(path) as reader:
        start = reader.events_start
        footer = reader.read_footer()
    events = _events(path)
    encoder = V2Encoder()
    stream = bytearray()
    last = markers = 0
    for index, (etype, a, b, t) in enumerate(events, 1):
        encoder.add(etype, a, b, t - last)
        last = t
        if etype != EV_FINISH and index % every == 0:
            encoder.add(EV_CHECKPOINT, markers, 0, 0)
            markers += 1
            stream += encoder.take()
        elif encoder.pending() >= encoder.flush_bytes:
            stream += encoder.take()
    stream += encoder.take()
    table = [{"index": every * (i + 1) + i, "offset": 0}
             for i in range(markers)]
    footer_blob = zlib.compress(json.dumps({
        "exit_value": footer.exit_value, "output": footer.output,
        "events": len(events) + markers, "final_time": footer.final_time,
        "checkpoints": table}).encode(), 6)
    head = open(path, "rb").read()[:start]
    with open(legacy, "wb") as handle:
        handle.write(head + bytes(stream) + footer_blob
                     + pack_length(len(footer_blob)) + TRAILER)
    return markers


class TestLegacyCheckpointTraces:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("legacy")
        path = str(root / "fresh.trace")
        record_source(get("wordcount", 0.3).source, path)
        legacy = str(root / "legacy.trace")
        assert _legacy_copy(path, legacy, 1500) > 2
        return path, legacy

    def test_markers_decode_and_are_the_only_difference(self, traces):
        path, legacy = traces
        old = _events(legacy)
        assert sum(e[0] == EV_CHECKPOINT for e in old) > 2
        assert [e for e in old if e[0] != EV_CHECKPOINT] == _events(path)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_replays_identically(self, traces, columnar):
        path, legacy = traces
        everything = analysis_names()
        fresh = replay_trace(path, everything, columnar=columnar)
        old = replay_trace(legacy, everything, columnar=columnar)
        for name in everything:
            assert old.reports[name].to_dict() == \
                fresh.reports[name].to_dict(), name

    def test_parallel_replay_scans_past_the_markers(self, traces):
        path, legacy = traces
        serial = replay_trace(path, ["dep", "locality"])
        outcome = parallel_replay(legacy, ["dep", "locality"], jobs=2,
                                  interval=2000)
        assert outcome.mode == "parallel"
        for name in ("dep", "locality"):
            assert outcome.reports[name].to_dict() == \
                serial.reports[name].to_dict()
