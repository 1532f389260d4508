"""Replay engine: live-equivalence of the dependence profile, the
extra consumers, and the live/replay symmetry of consumers."""

from __future__ import annotations

import pytest

from repro.analyses import AnalysisError, analysis_names
from repro.analyses.builtin import CountingAnalysis, LocalityAnalysis
from repro.cli import main
from repro.core.alchemist import Alchemist
from repro.core.profile_data import DepKind
from repro.runtime.interpreter import run_source
from repro.trace import TraceError, TraceReader, record_source, replay_trace
from repro.trace.codec import encode_events
from repro.trace.columnar import EventBatch
from repro.trace.events import (EV_ALLOC, EV_BRANCH, EV_ENTER, EV_EXIT,
                                EV_FREE, EV_READ, EV_WRITE, TRAILER,
                                pack_length)
from repro.trace.live import TeeTracer
from repro.trace.parallel import parallel_replay, run_segment
from repro.trace.replay import ReplayEngine
from repro.trace.shards import build_checkpoints, genesis_checkpoint
from repro.workloads import get
from tests.conftest import reference_profile

#: Workloads for the replay-vs-live equivalence criterion: an array
#: workload with rich conflicts, a cipher, and a heap-heavy extra whose
#: malloc/free recycling stresses address-name reconstruction.
EQUIVALENCE_WORKLOADS = ["gzip", "aes", "wordcount"]

#: Equivalence is asserted at reduced scale to keep the suite quick;
#: the structure (edges, names, distances) is scale-stable.
SCALE = 0.25


def profile_signature(report):
    """Everything the acceptance criterion compares, canonically keyed:
    per-construct durations/instances and per-edge distances/hints."""
    signature = {}
    for pc, profile in report.store.profiles.items():
        edges = {
            (head, tail, kind.value): (stats.min_tdep, stats.count,
                                       stats.var_hint)
            for (head, tail, kind), stats in profile.edges.items()
        }
        signature[pc] = (profile.total_duration, profile.instances,
                         profile.max_duration, edges)
    return signature


@pytest.mark.parametrize("name", EQUIVALENCE_WORKLOADS)
class TestReplayEquivalence:
    def test_dependence_profile_identical(self, name, tmp_path):
        """The per-event reference == ``Alchemist().profile`` (a live
        block run) == replay."""
        workload = get(name, SCALE)
        reference = reference_profile(workload.source)
        path = tmp_path / f"{name}.trace"
        record_source(workload.source, path)
        replayed = replay_trace(str(path), ("dep",)).results["dep"]
        for live in (reference, Alchemist().profile(workload.source)):
            assert profile_signature(live) == profile_signature(replayed)
            assert live.stats.instructions == replayed.stats.instructions
            assert (live.stats.dynamic_instances
                    == replayed.stats.dynamic_instances)
            assert live.stats.raw_events == replayed.stats.raw_events
            assert live.stats.war_events == replayed.stats.war_events
            assert live.stats.waw_events == replayed.stats.waw_events
            assert live.exit_value == replayed.exit_value
            assert live.output == replayed.output

    def test_violating_edges_identical(self, name, tmp_path):
        """The paper-facing metric (Fig. 6 / Table IV) survives replay."""
        workload = get(name, SCALE)
        live = reference_profile(workload.source)
        path = tmp_path / f"{name}.trace"
        record_source(workload.source, path)
        replayed = replay_trace(str(path), ("dep",)).results["dep"]
        for kind in DepKind:
            live_counts = {pc: p.violating_count(kind)
                           for pc, p in live.store.profiles.items()}
            replay_counts = {pc: p.violating_count(kind)
                             for pc, p in replayed.store.profiles.items()}
            assert live_counts == replay_counts


class TestMultiConsumer:
    def test_one_pass_feeds_many_analyses(self, tmp_path):
        workload = get("gzip", SCALE)
        path = tmp_path / "gzip.trace"
        record_source(workload.source, path)
        outcome = replay_trace(str(path),
                               ("dep", "locality", "hot", "counts"))
        assert set(outcome.results) == {"dep", "locality", "hot", "counts"}

        counts = outcome.results["counts"]
        locality = outcome.results["locality"]
        assert locality.accesses == counts["reads"] + counts["writes"]
        assert locality.cold_misses == locality.distinct_addresses
        assert sum(locality.histogram.values()) + locality.cold_misses \
            == locality.accesses

        hot = outcome.results["hot"]
        assert hot, "expected at least one hot address"
        assert hot[0].total >= hot[-1].total
        total_hot = sum(row.total for row in hot)
        assert total_hot <= locality.accesses

    def test_hot_addresses_name_globals(self, tmp_path):
        source = """
int counter;
int main() {
    for (int i = 0; i < 30; i++) {
        counter += i;
    }
    print(counter);
    return 0;
}
"""
        path = tmp_path / "hot.trace"
        record_source(source, path)
        hot = replay_trace(str(path), ("hot",)).results["hot"]
        names = [row.name for row in hot]
        assert "counter" in names

    def test_describe_renders(self, tmp_path):
        workload = get("aes", SCALE)
        path = tmp_path / "aes.trace"
        record_source(workload.source, path)
        outcome = replay_trace(str(path), ("dep", "locality", "hot"))
        text = outcome.describe()
        assert "Reuse-distance profile" in text
        assert "Hottest addresses" in text


def _access_batch(addrs: list[int], first: int = 0) -> EventBatch:
    """Accesses to ``addrs`` as one block: a WRITE at every third
    event position from ``first``, READs otherwise."""
    etypes = [EV_READ if (first + i) % 3 else EV_WRITE
              for i in range(len(addrs))]
    return EventBatch.from_lists(etypes, list(addrs), [0] * len(addrs),
                                 list(range(first, first + len(addrs))))


class TestLocalityExactness:
    def test_matches_bruteforce_reuse_distance(self):
        """Kernel reuse distances == brute-force distinct counting,
        fed as blocks of reads and writes cut at uneven places."""
        import random

        rng = random.Random(1234)
        accesses = [rng.randrange(60) for _ in range(2500)]
        consumer = LocalityAnalysis()
        for lo, hi in ((0, 1), (1, 700), (700, 701), (701, 2500)):
            consumer.consume_batch(_access_batch(accesses[lo:hi], lo))
        expected_hist: dict[int, int] = {}
        expected_cold = 0
        last_index: dict[int, int] = {}
        for i, addr in enumerate(accesses):
            if addr in last_index:
                distance = len(set(accesses[last_index[addr] + 1:i]))
                bucket = distance.bit_length()
                expected_hist[bucket] = expected_hist.get(bucket, 0) + 1
            else:
                expected_cold += 1
            last_index[addr] = i
        assert consumer.stats.cold_misses == expected_cold
        assert consumer.stats.histogram == expected_hist

    def test_hit_fraction_bounds(self):
        consumer = LocalityAnalysis()
        consumer.consume_batch(_access_batch([1, 2, 1, 2, 1, 2]))
        stats = consumer.stats
        assert stats.distinct_addresses == 2
        assert stats.hit_fraction(64) == 1.0
        assert 0.0 <= stats.hit_fraction(1) <= 1.0


class TestConsumerSymmetry:
    """A live run through the tee and a replay must agree."""

    @pytest.mark.parametrize("consumer_cls",
                             [CountingAnalysis, LocalityAnalysis])
    def test_live_equals_replay(self, consumer_cls, tmp_path):
        workload = get("aes", SCALE)
        live = consumer_cls()
        run_source(workload.source, tracer=TeeTracer([live]))

        path = tmp_path / "aes.trace"
        record_source(workload.source, path)
        outcome = replay_trace(str(path), (consumer_cls.name,))
        replayed = outcome.results[consumer_cls.name]

        if consumer_cls is CountingAnalysis:
            assert live.counts == replayed
        else:
            assert live.stats == replayed


class TestEngineValidation:
    def test_unknown_analysis_rejected(self, tmp_path):
        path = tmp_path / "x.trace"
        record_source("int main() { return 0; }", path)
        with pytest.raises(AnalysisError, match="unknown analysis"):
            replay_trace(str(path), ("nope",))

    def test_no_analyses_rejected(self, tmp_path):
        path = tmp_path / "x.trace"
        record_source("int main() { return 0; }", path)
        with pytest.raises(AnalysisError, match="no analyses"):
            replay_trace(str(path), "")

    def test_replay_reconstructs_heap_names(self, tmp_path):
        """Heap recycling must replay deterministically (name check)."""
        source = """
int main() {
    int total = 0;
    for (int i = 0; i < 5; i++) {
        int *p = malloc(8);
        p[3] = i;
        total += p[3];
        free(p);
    }
    print(total);
    return 0;
}
"""
        path = tmp_path / "heap.trace"
        record_source(source, path)
        replayed = replay_trace(str(path), ("dep",)).results["dep"]
        for live in (reference_profile(source), Alchemist().profile(source)):
            assert profile_signature(live) == profile_signature(replayed)

    def test_corrupt_digest_rejected(self, tmp_path):
        """A header whose digest does not match the embedded source."""
        from repro.trace.events import MAGIC, TraceHeader, pack_length

        path = tmp_path / "x.trace"
        record_source("int main() { return 0; }", path)
        blob = path.read_bytes()
        with TraceReader(str(path)) as reader:
            header = reader.header
            events_start = reader._events_start
        header.digest = "0" * 64
        new_blob = header.to_bytes()
        forged = (blob[:len(MAGIC) + 2] + pack_length(len(new_blob))
                  + new_blob + blob[events_start:])
        bad = tmp_path / "forged.trace"
        bad.write_bytes(forged)
        with pytest.raises(TraceError, match="digest"):
            replay_trace(str(bad), ("counts",))
        with pytest.raises(TraceError, match="digest"):
            parallel_replay(str(bad), ("counts",), jobs=2)

    def test_reordered_function_table_rejected(self, tmp_path):
        """ENTER indexes the program's own function table: a header
        listing the same functions in another order is a mismatch,
        on serial replay, the seam scan and a parallel segment."""
        from repro.trace.events import MAGIC, pack_length

        source = ("int twice(int v) { return v * 2; }\n"
                  "int main() { print(twice(3)); return 0; }\n")
        path = tmp_path / "x.trace"
        record_source(source, path)
        blob = path.read_bytes()
        with TraceReader(str(path)) as reader:
            header = reader.header
            events_start = reader._events_start
        assert header.functions == ["twice", "main"]
        header.functions = ["main", "twice"]
        new_blob = header.to_bytes()
        bad = tmp_path / "reordered.trace"
        bad.write_bytes(blob[:len(MAGIC) + 2] + pack_length(len(new_blob))
                        + new_blob + blob[events_start:])
        for run in (lambda: replay_trace(str(bad), ("counts",)),
                    lambda: build_checkpoints(str(bad), 10),
                    lambda: _segment(str(bad), "counts")):
            with pytest.raises(TraceError, match="source/trace mismatch"):
                run()

    def test_engine_runs_with_no_consumers(self, tmp_path):
        path = tmp_path / "x.trace"
        result = record_source("int main() { return 0; }", path)
        with TraceReader(str(path)) as reader:
            ctx = ReplayEngine(reader).run([])
        assert ctx.events == result.events
        assert ctx.final_time == result.final_time


def _edited_copy(path, out, edit):
    """Re-encode ``path``'s events through ``edit`` into ``out``, with
    the same header and an updated footer."""
    with TraceReader(str(path)) as reader:
        start = reader.events_start
        footer = reader.read_footer()
        heap_base = reader.header.heap_base
        events = list(reader.events())
    events = edit(events, heap_base)
    footer.events = len(events)
    tail = footer.to_bytes()
    out.write_bytes(path.read_bytes()[:start] + encode_events(events)
                    + tail + pack_length(len(tail)) + TRAILER)
    return str(out)


def _first(events, pred):
    return next(i for i, event in enumerate(events) if pred(event))


def _heap_free(heap_base):
    return lambda e: e[0] == EV_FREE and e[2] and e[1] >= heap_base


def _duplicate_free(events, heap_base):
    i = _first(events, _heap_free(heap_base))
    return events[:i + 1] + [events[i]] + events[i + 1:]


def _interior_free(events, heap_base):
    is_free = _heap_free(heap_base)
    i = _first(events, lambda e: is_free(e) and e[2] > 1)
    etype, a, b, t = events[i]
    return events[:i] + [(etype, a + 1, b, t)] + events[i + 1:]


def _bad_function_index(events, heap_base):
    i = _first(events, lambda e: e[0] == EV_ENTER)
    _etype, _a, b, t = events[i]
    return events[:i] + [(EV_ENTER, 999, b, t)] + events[i + 1:]


def _zero_size_alloc(events, heap_base):
    i = _first(events, lambda e: e[0] == EV_ALLOC)
    _etype, a, _b, t = events[i]
    return events[:i] + [(EV_ALLOC, a, 0, t)] + events[i + 1:]


def _stack_overflow(events, heap_base):
    i = _first(events, lambda e: e[0] == EV_ENTER)
    return events[:i + 1] + [events[i]] * 20_000 + events[i + 1:]


def _extra_exits(events, heap_base):
    i = len(events) - 1 - _first(events[::-1], lambda e: e[0] == EV_EXIT)
    return events[:i + 1] + [events[i]] * 50 + events[i + 1:]


def _access_before_enter(events, heap_base):
    _etype, a, b, _t = events[_first(events, lambda e: e[0] == EV_READ)]
    return [(EV_READ, a, b, events[0][3])] + events


def _bad_branch_pc(events, heap_base):
    i = _first(events, lambda e: e[0] == EV_BRANCH)
    _etype, _a, b, t = events[i]
    return events[:i] + [(EV_BRANCH, 99999, b, t)] + events[i + 1:]


def _bad_entry_pc(events, heap_base):
    i = _first(events, lambda e: e[0] == EV_ENTER)
    _etype, a, _b, t = events[i]
    return events[:i] + [(EV_ENTER, a, 99999, t)] + events[i + 1:]


def _read_address(value):
    """Rewrite the first READ's address to ``value``."""
    def edit(events, heap_base):
        i = _first(events, lambda e: e[0] == EV_READ)
        _etype, _a, b, t = events[i]
        return events[:i] + [(EV_READ, value, b, t)] + events[i + 1:]
    return edit


#: Corruptions replay must reject — structural events memory cannot
#: replay, a construct pc that heads no construct, an access with no
#: live frame, operands outside the 32-bit record format — and the
#: message each must raise as a TraceError.
CORRUPTIONS = {
    "duplicate-free": (_duplicate_free, "not a live heap block"),
    "interior-free": (_interior_free, "not a live heap block"),
    "bad-function-index": (_bad_function_index, "function index 999"),
    "stack-overflow": (_stack_overflow, "stack overflow"),
    "extra-exits": (_extra_exits, "EXIT with no live frame"),
    "zero-size-alloc": (_zero_size_alloc, "malloc size must be positive"),
    "access-before-enter": (_access_before_enter,
                            "access with no live frame"),
    "bad-branch-pc": (_bad_branch_pc, "BRANCH at pc 99999"),
    "bad-entry-pc": (_bad_entry_pc, "at pc 99999; its entry pc is"),
    "operand-beyond-u32": (_read_address(1 << 40),
                           "does not fit the 32-bit record format"),
    "operand-beyond-int64": (_read_address(1 << 64),
                             "does not fit the 32-bit record format"),
}


@pytest.fixture(scope="module")
def corrupt_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    clean = root / "clean.trace"
    record_source(get("lisp-cons", 0.1).source, clean)
    return {name: _edited_copy(clean, root / f"{name}.trace", edit)
            for name, (edit, _message) in CORRUPTIONS.items()}


def _segment(path, name):
    """Replay the whole trace as one parallel segment."""
    with TraceReader(path) as reader:
        start = reader.events_start
    return run_segment({
        "path": path, "ordinal": 0,
        "checkpoint": genesis_checkpoint(start).to_payload(),
        "end_index": None, "analyses": [name], "options": None,
        "columnar": True})


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestCorruptStructuralEvents:
    """Every replay path raises the same typed error: serial replay on
    both decode paths and a parallel segment, each with every
    registered analysis on its own (block and per-event consumers
    alike), the shard seam scan, and the CLI (exit 2, serial and
    parallel)."""

    @pytest.mark.parametrize("run", [
        lambda path, name: replay_trace(path, (name,), columnar=True),
        lambda path, name: replay_trace(path, (name,), columnar=False),
        _segment,
        lambda path, name: build_checkpoints(path, 997),
    ], ids=["columnar", "scalar", "segment", "scan"])
    def test_raises_trace_error(self, corrupt_traces, corruption, run):
        for name in analysis_names():
            with pytest.raises(TraceError,
                               match=CORRUPTIONS[corruption][1]):
                run(corrupt_traces[corruption], name)

    @pytest.mark.parametrize("flags", [[], ["--jobs", "2"]],
                             ids=["serial", "parallel"])
    def test_cli_replay_exits_2(self, corrupt_traces, corruption, flags,
                                capsys):
        assert main(["replay", corrupt_traces[corruption]] + flags) == 2
        assert CORRUPTIONS[corruption][1] in capsys.readouterr().err
