"""The sampling trade-off on the Table III suite, measured against full
format-v2 recordings.

Every workload is recorded once at full fidelity and once under each
policy of the standard spectrum, and :func:`compare_traces` scores each
sampled trace against the full one. The headline target is a policy
that is at least ``TARGET_MIN_REDUCTION``x smaller at no more than
``TARGET_MAX_ERROR`` hot/locality error on ``TARGET_MIN_WORKLOADS``
workloads. Against v2 no policy meets it, so that assertion is a strict
xfail: it turns into a failure the day a policy does.
"""

from __future__ import annotations

import pytest

from repro.sampling.accuracy import compare_traces
from repro.trace import record_source
from repro.workloads import TABLE3_ORDER, get

SCALE = 0.1

#: From "accurate" to "hints only": the headline burst config, a denser
#: and a sparser burst, a plain interval and the aggressive 1% interval.
POLICIES = ("burst:500/1000", "burst:200/1000", "interval:10",
            "burst:1000/10000", "interval:100")

TARGET_MIN_REDUCTION = 5.0
TARGET_MAX_ERROR = 0.05
TARGET_MIN_WORKLOADS = 3


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    """(workload, policy) -> (full record, sampled record, accuracy)."""
    tmp = tmp_path_factory.mktemp("sampling-target")
    measured = {}
    for name in TABLE3_ORDER:
        source = get(name, SCALE).source
        full_path = str(tmp / f"{name}.trace")
        full = record_source(source, full_path)
        for spec in POLICIES:
            sampled_path = str(
                tmp / f"{name}-{spec.replace(':', '-').replace('/', '-')}"
                      ".trace")
            sampled = record_source(source, sampled_path, sampling=spec)
            measured[name, spec] = (
                full, sampled, compare_traces(full_path, sampled_path))
    return measured


def test_every_policy_shrinks_the_trace(cells):
    assert len(cells) == len(TABLE3_ORDER) * len(POLICIES)
    for (name, spec), (full, sampled, report) in cells.items():
        where = f"{name} {spec}"
        assert 0 < sampled.trace_bytes < full.trace_bytes, where
        assert sampled.events < full.events, where
        assert report.sampling == spec, where
        assert report.rows["hot"].metrics["count_error"] >= 0.0, where
        assert report.rows["locality"].metrics["hit_rate_error"] >= 0.0, \
            where
        assert 0.0 <= report.rows["dep"].metrics["missed_fraction"] <= 1.0, \
            where
        assert report.sampled_replay_seconds > 0.0, where
        assert any("min-distance" in flag
                   for row in report.rows.values()
                   for flag in row.flags), where


@pytest.mark.xfail(strict=True, reason=(
    "not met against format v2: at scale 0.1 the best policy within 5% "
    "hot/locality error is 2.75x smaller (ogg, burst:200/1000); "
    "interval:100 reaches 8.05x (par2) only at 0.63 locality error"))
def test_a_policy_meets_the_size_and_error_target(cells):
    meeting = {spec: [] for spec in POLICIES}
    for (name, spec), (full, sampled, report) in cells.items():
        hot = report.rows["hot"].metrics["count_error"]
        locality = report.rows["locality"].metrics["hit_rate_error"]
        if (full.trace_bytes / sampled.trace_bytes >= TARGET_MIN_REDUCTION
                and hot <= TARGET_MAX_ERROR
                and locality <= TARGET_MAX_ERROR):
            meeting[spec].append(name)
    assert any(len(names) >= TARGET_MIN_WORKLOADS
               for names in meeting.values()), meeting
