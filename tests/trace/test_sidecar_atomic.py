"""Atomic ``.ckpt`` sidecar publication (PR 5 satellite).

The sidecar used to be written with a plain ``open(side, "w")``: a
crash mid-dump (or a reader racing the writer) could observe a torn
JSON file, which the loader silently treats as a miss — every later
replay rescans the trace. Writes now go through
:func:`repro.util.atomic_write_json`: a temp file in the same
directory, then ``os.replace`` into place."""

import json
import os

import pytest

from repro.trace.shards import (SIDECAR_SUFFIX, _write_sidecar,
                                load_or_build_checkpoints)
from repro.trace.writer import record_source

SOURCE = """
int a[32];
int main() {
    for (int i = 0; i < 200; i++) a[i % 32] = a[(i + 1) % 32] + i;
    print(a[3]);
    return 0;
}
"""


@pytest.fixture
def trace(tmp_path):
    path = str(tmp_path / "scan.trace")
    # No prebuilt sidecar: each test builds its own.
    record_source(SOURCE, path, checkpoint_interval=0)
    return path


class TestAtomicSidecar:
    def test_sidecar_written_and_reused(self, trace):
        first = load_or_build_checkpoints(trace, interval=200)
        side = trace + SIDECAR_SUFFIX
        assert os.path.exists(side)
        with open(side) as handle:
            json.load(handle)  # complete, valid JSON on disk
        again = load_or_build_checkpoints(trace, interval=200)
        assert [c.to_payload() for c in again] == \
            [c.to_payload() for c in first]

    def test_no_temp_droppings(self, trace, tmp_path):
        load_or_build_checkpoints(trace, interval=200)
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert leftovers == []

    def test_interrupted_write_preserves_old_sidecar(self, trace,
                                                     monkeypatch):
        """A crash mid-dump must leave the previous sidecar intact:
        the temp file takes the damage, the published file never."""
        load_or_build_checkpoints(trace, interval=200)
        side = trace + SIDECAR_SUFFIX
        before = open(side).read()

        import repro.util as util

        def exploding_replace(src, dst):
            # The temp file holds the new bytes; the publish rename is
            # where the simulated crash lands.
            raise OSError("disk full")

        monkeypatch.setattr(util.os, "replace", exploding_replace)
        # Different interval -> cache miss -> rebuild + attempted write.
        checkpoints = load_or_build_checkpoints(trace, interval=120)
        assert checkpoints  # degraded to scanning, not to an error
        assert open(side).read() == before  # old sidecar untouched
        directory = os.path.dirname(side)
        assert [n for n in os.listdir(directory) if ".tmp" in n] == []

    def test_write_sidecar_failure_is_silent(self, tmp_path):
        target = str(tmp_path / "missing-dir" / "x.ckpt")
        _write_sidecar(target, {"k": 1})  # mkstemp fails: no raise
        assert not os.path.exists(target)

    def test_concurrent_reader_never_sees_torn_json(self, trace):
        """os.replace publishes whole files: any sidecar present on
        disk parses, even immediately after a rebuild."""
        for interval in (200, 150, 120):
            load_or_build_checkpoints(trace, interval=interval)
            with open(trace + SIDECAR_SUFFIX) as handle:
                data = json.load(handle)
            assert data["interval"] == interval
