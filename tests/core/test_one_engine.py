"""One dependence engine behind every library entry point.

``Alchemist().profile``, ``record_index_tree``, ``Session`` dep and
whatif, and sharded parallel replay all run the block engine
(:class:`~repro.core.blockdep.BlockDependence`). The per-event stack —
``AlchemistTracer`` and ``DependenceProfiler``'s edge walk — is only
the reference the equivalence tests compare against, so with both made
to raise every entry point still succeeds.
"""

import pytest

from repro.api import Session
from repro.core.alchemist import Alchemist
from repro.core.profiler import DependenceProfiler
from repro.core.tracer import AlchemistTracer
from repro.core.treedump import record_index_tree
from repro.trace.parallel import parallel_replay
from repro.workloads import get


@pytest.fixture
def no_per_event_stack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the per-event dep stack ran")

    monkeypatch.setattr(AlchemistTracer, "__init__", refuse)
    monkeypatch.setattr(DependenceProfiler, "profile_edge", refuse)


def test_entry_points_run_the_block_engine(no_per_event_stack, tmp_path):
    source = get("bzip2", 0.1).source
    profile = Alchemist().profile(source)
    assert profile.stats.edges_profiled > 0

    tree, report = record_index_tree(source)
    assert tree.node_count == profile.stats.dynamic_instances
    assert report.store.profiles.keys() == profile.store.profiles.keys()

    with Session(cache_dir=str(tmp_path)) as session:
        analyzed = session.analyze(source, ["dep", "whatif"])
    assert analyzed["dep"].payload.stats.edges_profiled \
        == profile.stats.edges_profiled
    assert analyzed["whatif"].data

    outcome = parallel_replay(analyzed.trace_path, ["dep", "whatif"],
                              jobs=2, interval=2000)
    assert outcome.mode == "parallel", outcome.fallback_reason
    assert outcome.reports["dep"].data == analyzed["dep"].data
    assert outcome.reports["whatif"].data == analyzed["whatif"].data
