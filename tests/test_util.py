"""``repro.util.effective_cpus``: scheduler affinity capped by the cgroup
CPU quota — the default worker count of every process pool."""

from __future__ import annotations

import os

import pytest

from repro import util


@pytest.fixture
def cpus(monkeypatch, tmp_path):
    """Pin the affinity set to ``n`` CPUs and the cgroup ``cpu.max``
    file to ``quota`` (None = no such file); returns the probe."""

    def probe(n: int, quota: str | None) -> int:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
        path = tmp_path / "cpu.max"
        if quota is None:
            if path.exists():
                path.unlink()
        else:
            path.write_text(quota + "\n")
        monkeypatch.setattr(util, "CGROUP_CPU_MAX", str(path))
        return util.effective_cpus()

    return probe


class TestEffectiveCpus:
    def test_affinity_without_cgroup_file(self, cpus):
        assert cpus(8, None) == 8

    def test_unlimited_quota_keeps_affinity(self, cpus):
        assert cpus(8, "max 100000") == 8

    def test_quota_caps_affinity_rounding_up(self, cpus):
        assert cpus(8, "150000 100000") == 2
        assert cpus(8, "200000 100000") == 2

    def test_affinity_caps_a_larger_quota(self, cpus):
        assert cpus(2, "400000 100000") == 2

    def test_fractional_quota_is_still_one_cpu(self, cpus):
        assert cpus(4, "50000 100000") == 1

    def test_malformed_quota_is_ignored(self, cpus):
        assert cpus(4, "garbage") == 4
        assert cpus(4, "100000 0") == 4

    def test_no_affinity_api_falls_back_to_cpu_count(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(util, "CGROUP_CPU_MAX",
                            str(tmp_path / "absent"))
        assert util.effective_cpus() == 3


def test_parallel_replay_defaults_to_effective_cpus(monkeypatch,
                                                    tmp_path):
    """``jobs=None`` sizes the pool by the usable CPUs: one usable CPU
    means one serial pass, whatever the host's core count."""
    from repro.trace import parallel
    from repro.trace.writer import record_source

    path = str(tmp_path / "t.trace")
    record_source("int main() { int x = 1; return x; }", path)
    monkeypatch.setattr(parallel, "effective_cpus", lambda: 1)
    outcome = parallel.parallel_replay(path, ["counts"], jobs=None)
    assert outcome.jobs == 1
    assert outcome.mode == "serial"
