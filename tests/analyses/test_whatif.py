"""The what-if advisor analysis: sweep semantics, parity, and the
estimate_speedup differential contract over the bundled workloads."""

from __future__ import annotations

import json

import pytest

from repro.analyses.whatif import WhatIfAnalysis, parse_worker_counts
from repro.api import Session
from repro.ir.lowering import compile_source
from repro.parallel.estimator import estimate_speedup, simulate_speedup
from repro.parallel.taskgraph import LiveSource, extract_task_graphs
from repro.workloads import TABLE3_ORDER, get

SCALE = 0.2

#: Worker counts the smoke test sweeps (Table V uses 4).
SWEEP = (2, 4, 8, 16)

#: Loop with independent iterations + a blocked loop + a helper: every
#: verdict appears, and predicted speedups are non-trivial.
MIXED = """
int results[16];
int chain;
int work(int seed) {
    int acc = seed;
    for (int i = 0; i < 60; i++) acc = (acc * 31 + i) % 65521;
    return acc;
}
int main() {
    for (int f = 0; f < 12; f++) {
        results[f] = work(f);
    }
    for (int g = 0; g < 12; g++) {
        chain = (chain * 7 + results[g]) % 9973;
    }
    print(chain);
    return 0;
}
"""

TRIVIAL = "int main() { return 0; }"


def _advise(source, tmp_path, **kwargs):
    with Session(cache_dir=str(tmp_path)) as session:
        return session.advise(source, **kwargs)


class TestWorkerCountParsing:
    def test_parses_and_strips(self):
        assert parse_worker_counts(" 2, 4 ,8") == (2, 4, 8)

    @pytest.mark.parametrize("bad,match", [
        ("", "at least one"),
        ("2,,4", "empty entry"),
        ("2,x", "not an integer"),
        ("0,4", ">= 1"),
        ("4,4", "duplicate"),
    ])
    def test_rejects(self, bad, match):
        with pytest.raises(ValueError, match=match):
            parse_worker_counts(bad)


class TestSweepSemantics:
    def test_schema_and_ranking(self, tmp_path):
        result = _advise(MIXED, tmp_path, workers=(2, 4))
        data = result.data
        assert data["workers"] == [2, 4]
        assert data["total_instructions"] > 0
        assert data["candidates"], "MIXED has a parallelizable loop"
        for entry in data["candidates"]:
            assert set(entry["speedups"]) == {"2", "4"}
            for point in entry["speedups"].values():
                assert point["t_par"] <= point["t_seq"]
            assert entry["best"]["speedup"] == max(
                p["speedup"] for p in entry["speedups"].values())
        speeds = [c["best"]["speedup"] for c in data["candidates"]]
        assert speeds == sorted(speeds, reverse=True)
        assert data["best"]["name"] == data["candidates"][0]["name"]

    def test_blocked_constructs_skipped_with_reason(self, tmp_path):
        data = _advise(MIXED, tmp_path).data
        blocked = [e for e in data["skipped"]
                   if e["verdict"] == "blocked"]
        assert blocked, "the chain loop must be blocked"
        assert any("violating RAW" in e["reason"] for e in blocked)
        blocked_names = {e["name"] for e in blocked}
        assert blocked_names.isdisjoint(
            {c["name"] for c in data["candidates"]})

    def test_main_is_skipped_not_ranked(self, tmp_path):
        data = _advise(MIXED, tmp_path).data
        assert all(c["name"] != "main" for c in data["candidates"])
        main_entries = [e for e in data["skipped"]
                        if e["name"] == "main"]
        assert main_entries and "entry procedure" in \
            main_entries[0]["reason"]

    def test_zero_candidate_program(self, tmp_path):
        result = _advise(TRIVIAL, tmp_path)
        data = result.data
        assert data["candidates"] == []
        assert data["best"] is None
        assert "no simulatable candidates" in result.to_text()
        json.loads(result.to_json())  # stays serializable

    def test_result_is_json_clean(self, tmp_path):
        payload = json.loads(_advise(MIXED, tmp_path).to_json())
        assert payload["analysis"] == "whatif"
        # Mode-dependent fields must never leak into the data.
        flat = json.dumps(payload)
        assert "trace_path" not in flat and "wall_seconds" not in flat


class TestParityAndModes:
    def test_live_equals_replay(self, tmp_path):
        with Session(cache_dir=str(tmp_path)) as session:
            live = session.advise(MIXED, mode="live")
            session.record(MIXED)
            report = session.analyze(MIXED, ["whatif"])
        assert report.modes["whatif"] == "replay"
        assert live.to_dict() == report["whatif"].to_dict()

    def test_replay_does_not_reexecute(self, tmp_path):
        """The advisor's hot path: one recording run, then replays
        only."""
        with Session(cache_dir=str(tmp_path)) as session:
            session.advise(MIXED)
            session.advise(MIXED, workers=(3, 5))
            assert session.stats.live_runs == 1
            assert session.stats.replay_passes == 1
            assert session.stats.records == 1
            assert session.stats.record_hits >= 1

    def test_bad_options_rejected_through_session(self, tmp_path):
        from repro.analyses import AnalysisError

        with Session(cache_dir=str(tmp_path)) as session:
            with pytest.raises(AnalysisError, match="duplicate count"):
                session.advise(MIXED, workers=(4, 4))
            with pytest.raises(AnalysisError, match="top must be"):
                session.advise(MIXED, top=0)


@pytest.mark.parametrize("workload", TABLE3_ORDER)
class TestWorkloadSmoke:
    """Acceptance: every Table III workload advises from one recording
    run, and each ranked prediction equals a live simulation of the
    same construct with the same privatization list — at 4 workers
    through ``estimate_speedup``, and across the whole worker sweep
    through one live extraction plus one schedule per count."""

    def test_advise_matches_estimate_speedup(self, workload, tmp_path):
        source = get(workload, SCALE).source
        with Session(cache_dir=str(tmp_path)) as session:
            result = session.advise(source, filename=workload,
                                    workers=SWEEP)
            # Cold: one run records the trace and feeds the advisor.
            assert session.stats.live_runs == 1
            assert session.stats.records == 1
            assert session.stats.replay_passes == 0
        data = result.data
        assert data["candidates"] or data["skipped"]
        program = compile_source(source, workload)
        for entry in data["candidates"][:2]:
            direct = estimate_speedup(
                program=program, pc=entry["pc"], workers=4,
                private_vars=tuple(entry["privatized_globals"]))
            assert entry["speedups"]["4"]["speedup"] == \
                pytest.approx(round(direct.speedup, 4))
            assert entry["speedups"]["4"]["t_par"] == direct.t_par
            assert entry["speedups"]["4"]["t_seq"] == direct.t_seq
            graph = extract_task_graphs(
                LiveSource(program),
                {entry["pc"]: tuple(entry["privatized_globals"])}
            )[entry["pc"]]
            for count in SWEEP:
                live = simulate_speedup(graph, target_name=entry["name"],
                                        workers=count)
                predicted = entry["speedups"][str(count)]
                assert predicted["speedup"] == round(live.speedup, 4)
                assert predicted["t_par"] == live.t_par
                assert predicted["t_seq"] == live.t_seq


class TestBatchIntegration:
    def test_whatif_rides_the_batch_driver(self, tmp_path):
        from repro.trace.batch import record_replay_many

        report = record_replay_many(
            ["gzip"], str(tmp_path / "traces"),
            analyses=("whatif",), workers=1, scale=0.1,
            options={"whatif": {"workers": "2,4", "top": 3}})
        assert not report.failures()
        payload = report.replays[0].payload["whatif"]
        assert payload["workers"] == [2, 4]
        assert len(payload["candidates"]) <= 3


class TestOnePass:
    """Advise builds its task graphs inside the profile pass: the
    events are read once, never replayed or executed again."""

    @staticmethod
    def _counting(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_replayed_advise_dispatches_the_trace_once(self, tmp_path,
                                                       monkeypatch):
        import repro.trace.replay as replay

        with Session(cache_dir=str(tmp_path)) as session:
            session.record(MIXED)
            calls = self._counting(monkeypatch, replay,
                                   "dispatch_batches")
            result = session.advise(MIXED)
        assert result.data["candidates"]
        assert len(calls) == 1

    def test_live_advise_executes_once(self, tmp_path, monkeypatch):
        from repro.runtime.interpreter import Interpreter

        calls = self._counting(monkeypatch, Interpreter, "run")
        with Session(cache_dir=str(tmp_path)) as session:
            result = session.advise(MIXED, mode="live")
        assert result.data["candidates"]
        assert len(calls) == 1


    def test_one_segment_finalizes_to_the_serial_result(self, tmp_path):
        """The whole trace as one segment: its export merged alone
        carries its own index log."""
        from repro.trace.parallel import run_segment
        from repro.trace.replay import replay_trace
        from repro.trace.shards import plan_shards
        from repro.trace.writer import record_source

        path = str(tmp_path / "mixed.trace")
        record_source(MIXED, path)
        (segment,) = plan_shards(path, 1).segments
        result = run_segment({
            "path": path, "ordinal": 0,
            "checkpoint": segment.checkpoint.to_payload(),
            "end_index": None, "analyses": ["whatif"], "options": None,
            "columnar": True})
        serial = replay_trace(path, ["whatif"])
        finalized = WhatIfAnalysis.merge_segments(
            [result["exports"]["whatif"]], serial.context)
        assert finalized.data["candidates"]
        assert finalized.to_dict() == serial.reports["whatif"].to_dict()


class TestLiveBudget:
    def test_live_mode_respects_a_tight_step_budget(self, tmp_path):
        """A session budget that barely fits the program is enough for
        live advise: the task graphs come from the same run, so no
        second execution can trip StepLimitExceeded."""
        from repro.core.alchemist import ProfileOptions
        from repro.runtime.interpreter import Interpreter
        from repro.runtime.tracing import NullTracer

        program = compile_source(MIXED)
        interp = Interpreter(program, NullTracer())
        interp.run()
        options = ProfileOptions(max_steps=interp.time + 1)
        with Session(options, cache_dir=str(tmp_path)) as session:
            live = session.advise(MIXED, mode="live")
        with Session(cache_dir=str(tmp_path)) as session:
            replayed = session.advise(MIXED)
        assert live.to_dict() == replayed.to_dict()
