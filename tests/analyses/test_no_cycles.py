"""Replay frees every analysis by reference counting alone.

With the cyclic collector off, an analysis instance must die as soon as
its last reference goes — after a serial replay, after a parallel
segment (what each worker runs) and after a parallel replay whose
segments run in this process. A reference cycle through an analysis
(say, a bound method of itself stored on itself) would keep its shadow
and profile alive until the cyclic collector happens to run, which
shows up as peak RSS.

The same holds for a compiled program: after a ``Session`` dep run or a
live ``Alchemist().profile``, with the static report memoised on the
program and a construct view taken from the report, the program (and
its block translation) dies once the caller drops the results.
"""

import gc
import multiprocessing
import weakref

import pytest

from repro.analyses import analysis_names, make_analyses
from repro.api import Session
from repro.core.alchemist import Alchemist
from repro.staticdep.report import report_for
from repro.trace import parallel
from repro.trace.parallel import (parallel_replay, run_segment,
                                  unsupported_analyses)
from repro.trace.replay import replay_with
from repro.trace.shards import load_or_build_checkpoints
from repro.trace.writer import record_source
from repro.workloads import get

INTERVAL = 2_000


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cycles") / "aes.trace")
    record_source(get("aes", 0.25).source, path)
    assert len(load_or_build_checkpoints(path, INTERVAL)) > 2
    return path


@pytest.fixture
def instances(monkeypatch):
    """Weak references to the analysis instances the test creates, with
    the cyclic collector off."""
    refs = []

    def tracked(*args, **kwargs):
        created = make_analyses(*args, **kwargs)
        refs.extend(weakref.ref(instance) for instance in created)
        return created

    monkeypatch.setattr(parallel, "make_analyses", tracked)
    gc.collect()
    gc.disable()
    try:
        yield refs, tracked
    finally:
        gc.enable()


def _assert_all_dead(refs):
    assert refs
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, [type(instance).__name__ for instance in alive]


def test_serial_replay(trace, instances):
    refs, tracked = instances
    outcome = replay_with(trace, tracked(analysis_names()))
    assert set(outcome.reports) == set(analysis_names())
    del outcome
    _assert_all_dead(refs)


def test_parallel_segment(trace, instances):
    checkpoints = load_or_build_checkpoints(trace, INTERVAL)
    middle = checkpoints[len(checkpoints) // 2]
    names = [name for name in analysis_names()
             if not unsupported_analyses([name])]
    result = run_segment({
        "path": trace, "ordinal": 1,
        "checkpoint": middle.to_payload(),
        "end_index": checkpoints[len(checkpoints) // 2 + 1].index,
        "analyses": names, "options": None, "columnar": True})
    assert set(result["exports"]) == set(names)
    del result
    _assert_all_dead(instances[0])


class _InlinePool:
    """``multiprocessing.Pool`` stand-in that maps in this process, so
    the segments' analysis instances are visible here."""

    def __init__(self, processes):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


def test_parallel_replay(trace, instances, monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    outcome = parallel_replay(trace, analysis_names(), jobs=2,
                              interval=INTERVAL)
    assert outcome.mode == "parallel", outcome.fallback_reason
    assert set(outcome.reports) == set(analysis_names())
    del outcome
    _assert_all_dead(instances[0])


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _touch(report):
    """Ask a dep report the questions that hang state on its program
    or on itself: the memoised static report and a construct view."""
    program = report.program
    assert report_for(program).table.static_count()
    top = report.top_constructs(1)[0]
    view = report.view(top.pc)
    assert view.size_fraction() > 0
    assert view.edge_lines() is not None
    return weakref.ref(program), weakref.ref(report_for(program))


def test_session_dep_frees_its_program(no_collector):
    """A compiled program, its static report and its block translation
    die with the last result that refers to them, without the cyclic
    collector."""
    with Session() as session:
        result = session.analyze(get("aes", 0.1).source, ["dep"])
    program, static = _touch(result["dep"].payload)
    assert program() is not None
    del result
    assert program() is None
    assert static() is None


def test_live_profile_frees_its_program(no_collector):
    report = Alchemist().profile(get("aes", 0.1).source)
    program, static = _touch(report)
    view = report.constructs()[0]
    del report
    # A view keeps its report, and so the program, alive.
    assert program() is not None
    assert view.instances > 0
    del view
    assert program() is None
    assert static() is None
