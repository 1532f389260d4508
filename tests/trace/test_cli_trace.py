"""CLI wiring for the record / replay / batch verbs."""

import json

import pytest

from repro.cli import build_parser, main

PROG = """
int a[32];
int main() {
    int s = 0;
    for (int i = 0; i < 25; i++) {
        a[i % 32] = i;
        s += a[(i + 3) % 32];
    }
    print(s);
    return 0;
}
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROG)
    return str(path)


@pytest.fixture
def trace_file(minic_file, tmp_path):
    out = str(tmp_path / "prog.trace")
    assert main(["record", minic_file, "-o", out]) == 0
    return out


class TestRecordReplayCli:
    def test_parser_wiring(self):
        parser = build_parser()
        args = parser.parse_args(["replay", "x.trace",
                                  "--analysis", "dep,hot"])
        assert args.command == "replay"
        assert args.analysis == "dep,hot"
        args = parser.parse_args(["batch", "--workers", "3"])
        assert args.workers == 3

    def test_record_default_output(self, minic_file, capsys):
        assert main(["record", minic_file]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert minic_file + ".trace" in out

    def test_replay_dep(self, trace_file, capsys):
        assert main(["replay", trace_file]) == 0
        captured = capsys.readouterr()
        assert "replayed" in captured.err  # progress header: stderr
        assert "Method main" in captured.out  # report: stdout

    def test_replay_multi_analysis(self, trace_file, capsys):
        assert main(["replay", trace_file,
                     "--analysis", "dep,locality,hot,counts"]) == 0
        out = capsys.readouterr().out
        assert "Reuse-distance profile" in out
        assert "Hottest addresses" in out
        assert "Event counts" in out

    def test_replay_unknown_analysis_fails(self, trace_file, capsys):
        assert main(["replay", trace_file, "--analysis", "nope"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_replay_missing_file_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "no.trace")
        assert main(["replay", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_truncated_trace_fails(self, trace_file, tmp_path,
                                          capsys):
        stub = tmp_path / "cut.trace"
        with open(trace_file, "rb") as handle:
            stub.write_bytes(handle.read()[:80])
        assert main(["replay", str(stub)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBatchCli:
    def test_batch_json(self, tmp_path, capsys):
        assert main(["batch", "--workloads", "gzip", "--scale", "0.25",
                     "--out-dir", str(tmp_path / "traces"),
                     "--workers", "1", "--json"]) == 0
        out = capsys.readouterr().out
        assert "batch: 1 workload(s)" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["gzip"]["record"]["ok"]
        assert payload["gzip"]["replay"]["ok"]
        assert payload["gzip"]["replay"]["payload"]["dep"]["constructs"]

    def test_batch_failure_exit_code(self, tmp_path, capsys):
        assert main(["batch", "--workloads", "definitely-not-real",
                     "--out-dir", str(tmp_path / "traces"),
                     "--workers", "1"]) == 1

    def test_batch_failure_lists_failing_jobs(self, tmp_path, capsys):
        """A worker error must surface three ways: non-zero exit, a
        FAILED section in the summary naming the job, and a one-line
        stderr count — never a silent partial-results report."""
        assert main(["batch", "--workloads", "gzip,definitely-not-real",
                     "--scale", "0.25",
                     "--out-dir", str(tmp_path / "traces"),
                     "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert "FAILED (1 job(s)):" in captured.out
        assert "record definitely-not-real" in captured.out
        assert "1 batch job(s) failed" in captured.err
        assert "definitely-not-real" in captured.err
        # The healthy workload is still reported (partial results are
        # fine — hiding the failure is not).
        assert "gzip" in captured.out

    def test_batch_failure_exit_with_json(self, tmp_path, capsys):
        assert main(["batch", "--workloads", "definitely-not-real",
                     "--out-dir", str(tmp_path / "traces"),
                     "--workers", "1", "--json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(
            captured.out[captured.out.index("{"):
                         captured.out.rindex("}") + 1])
        assert not payload["definitely-not-real"]["record"]["ok"]
        assert "failed" in captured.err

    def test_batch_bad_analysis_reports_error(self, tmp_path, capsys):
        assert main(["batch", "--workloads", "gzip", "--scale", "0.25",
                     "--out-dir", str(tmp_path / "traces"),
                     "--workers", "1", "--analysis", "dep,bogus"]) == 2
        assert "unknown analysis" in capsys.readouterr().err


class TestParallelReplayCli:
    @pytest.fixture
    def seamed_trace(self, minic_file, tmp_path):
        out = str(tmp_path / "seamed.trace")
        assert main(["record", minic_file, "-o", out,
                     "--checkpoints", "40"]) == 0
        return out

    def test_parser_wiring(self):
        args = build_parser().parse_args(
            ["replay", "x.trace", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["replay", "x.trace"]).jobs is None
        args = build_parser().parse_args(
            ["record", "f.mc", "--checkpoints", "0"])
        assert args.checkpoints == 0
        # A CLI analyze is always cold (one run), so it takes no --jobs.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["analyze", "f.mc", "--jobs", "2"])
        assert exit_info.value.code == 2

    def test_record_reports_checkpoints(self, minic_file, tmp_path,
                                        capsys):
        out = str(tmp_path / "t.trace")
        assert main(["record", minic_file, "-o", out,
                     "--checkpoints", "40"]) == 0
        assert "checkpoint(s)" in capsys.readouterr().out

    def test_info_reports_checkpoints(self, seamed_trace, capsys):
        capsys.readouterr()
        assert main(["info", seamed_trace]) == 0
        out = capsys.readouterr().out
        assert "shard seam(s), 40 events apart" in out
        assert ".ckpt sidecar" in out
        assert "checkpoint=" not in out  # no marker records are written

    def test_info_reports_sidecar_seams(self, minic_file, tmp_path,
                                        capsys):
        """Once a parallel replay (or a direct scan) caches a .ckpt
        sidecar, info reports it the same way as a prebuilt one."""
        from repro.trace.shards import load_or_build_checkpoints

        out = str(tmp_path / "lazy.trace")
        assert main(["record", minic_file, "-o", out]) == 0
        assert load_or_build_checkpoints(out, interval=200)
        capsys.readouterr()
        assert main(["info", out]) == 0
        info_out = capsys.readouterr().out
        assert "shard seam(s)" in info_out
        assert ".ckpt sidecar" in info_out

    def test_info_reports_no_seams(self, minic_file, tmp_path, capsys):
        out = str(tmp_path / "bare.trace")
        assert main(["record", minic_file, "-o", out,
                     "--checkpoints", "0"]) == 0
        capsys.readouterr()
        assert main(["info", out]) == 0
        assert "checkpoints:none" in capsys.readouterr().out

    def test_parallel_replay_matches_serial_output(self, seamed_trace,
                                                   capsys):
        capsys.readouterr()
        assert main(["replay", seamed_trace,
                     "--analysis", "dep,locality,counts"]) == 0
        serial = capsys.readouterr().out
        assert main(["replay", seamed_trace, "--jobs", "3",
                     "--analysis", "dep,locality,counts"]) == 0
        captured = capsys.readouterr()
        assert "across" in captured.err and "segment(s)" in captured.err
        # Headers live on stderr; the stdout reports must be identical.
        assert serial == captured.out

    def test_parallel_flag_falls_back_without_seams(self, minic_file,
                                                    tmp_path, capsys):
        out = str(tmp_path / "tiny.trace")
        assert main(["record", minic_file, "-o", out,
                     "--checkpoints", "0"]) == 0
        capsys.readouterr()
        # The tiny trace still parallelizes via the scan builder or
        # falls back serially; either way it must succeed and say how.
        assert main(["replay", out, "--jobs", "2",
                     "--analysis", "counts"]) == 0
        assert "analysis(es)" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, seamed_trace, capsys):
        assert main(["replay", seamed_trace, "--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_parallel_flag_is_gone(self, seamed_trace, capsys):
        """``--jobs N`` alone asks for sharded replay."""
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", seamed_trace, "--parallel"])
        assert exit_info.value.code == 2
        assert "--parallel" in capsys.readouterr().err
