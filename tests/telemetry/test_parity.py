"""Metrics parity: enabling telemetry must change ZERO analysis output.

The whole telemetry design rests on one invariant — spans observe the
pipeline, they never steer it. This suite re-runs the golden workload
matrix with an enabled :class:`Telemetry` threaded through the Session
and diffs the rendered snapshots against the committed goldens in
``tests/golden/`` (the exact files the telemetry-off matrix in
``tests/workloads/test_golden_matrix.py`` is held to): the diff must
be empty. Each workload is recorded first, so this matrix reaches the
goldens by replay while the telemetry-off one reaches them through a
cold analyze's single recording run. A parallel-replay parity check covers the worker/stitching
path the golden matrix doesn't reach.
"""

import json
from pathlib import Path

import pytest

from repro.analyses import analysis_names
from repro.api import Session
from repro.telemetry import Telemetry
from repro.workloads import EXTRA_ORDER, TABLE3_ORDER, get

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
SCALE = 0.25  # must match tests/workloads/test_golden_matrix.py
ALL_WORKLOADS = list(TABLE3_ORDER) + list(EXTRA_ORDER)


@pytest.fixture(scope="session")
def telemetry_session():
    with Session(telemetry=Telemetry()) as s:
        yield s


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_golden_matrix_identical_with_telemetry_on(telemetry_session,
                                                   workload):
    path = GOLDEN_DIR / f"{workload.replace('.', '_')}.json"
    if not path.exists():
        pytest.skip(f"no golden snapshot for {workload!r}")
    names = analysis_names()
    source = get(workload, SCALE).source
    telemetry_session.record(source, workload)
    report = telemetry_session.analyze(source, names, filename=workload)
    assert set(report.modes.values()) == {"replay"}
    payload = {
        "workload": workload,
        "scale": SCALE,
        "analyses": {name: report[name].to_dict() for name in names},
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert rendered == path.read_text(), \
        f"telemetry changed the {workload!r} profile"


def test_session_recorded_spans_for_every_workload(telemetry_session):
    """Runs after the matrix (same session fixture): the parity run
    must actually have exercised the instrumented paths."""
    tm = telemetry_session.telemetry
    assert len(tm.find_spans("analyze")) >= len(ALL_WORKLOADS)
    assert tm.find_spans("record")
    assert tm.find_spans("replay")
    assert tm.counters["trace.events_decoded"] > 0
    # whatif's extraction: only the per-candidate kernel, over the
    # columns the profile pass recorded (no second index pass). It
    # carries that pass's access and free counts: the workload's, as
    # its golden ``counts`` report gives them.
    assert not tm.find_spans("advisor.extract.index")
    checked = 0
    for analyze in tm.find_spans("analyze"):
        workload = analyze.attrs["file"]
        for _, extract in analyze.walk():
            if extract.name != "advisor.extract" or not extract.children:
                continue
            (kernel,) = extract.children
            assert kernel.name == "advisor.extract.kernel"
            golden = GOLDEN_DIR / f"{workload.replace('.', '_')}.json"
            counts = json.loads(golden.read_text())["analyses"]["counts"]
            assert kernel.attrs["accesses"] \
                == counts["reads"] + counts["writes"] > 0
            assert kernel.attrs["frees"] == counts["frees"]
            checked += 1
    assert checked
    # The sweep runs at most one list schedule per candidate and
    # worker count, fewer once a count reaches the unbounded schedule.
    sweeps = tm.find_spans("advisor.sweep")
    for sweep in sweeps:
        attrs = sweep.attrs
        assert attrs["schedules"] <= \
            attrs["candidates"] * len(attrs["workers"]), attrs
    assert sum(sweep.attrs["schedules"] for sweep in sweeps) > 0
    assert tm.counters["trace.events_written"] > 0


def test_parallel_replay_parity_with_telemetry(tmp_path):
    """Sharded replay with telemetry on: identical analysis payloads,
    and per-segment worker spans stitched under the coordinator."""
    from repro.trace.parallel import parallel_replay
    from repro.trace.writer import record_source

    source = get("gzip", 0.25).source
    trace = str(tmp_path / "gzip.trace")
    record_source(source, trace, checkpoint_interval=2000)

    baseline = parallel_replay(trace, ("dep", "locality", "hot"),
                               jobs=1)
    tm = Telemetry()
    sharded = parallel_replay(trace, ("dep", "locality", "hot"),
                              jobs=3, telemetry=tm)
    base = {n: r.to_dict() for n, r in baseline.reports.items()}
    got = {n: r.to_dict() for n, r in sharded.reports.items()}
    assert got == base

    if sharded.mode == "parallel":
        coord = tm.find_spans("replay.parallel")
        assert len(coord) == 1
        segments = [c for c in coord[0].children if c.name == "segment"]
        assert len(segments) == len(sharded.plan.segments)
        ordinals = sorted(s.attrs["ordinal"] for s in segments)
        assert ordinals == list(range(len(segments)))

