"""CLI observability surface: --metrics artifacts, the stats verb,
--quiet/--verbose stream discipline, and --log-level JSON logs."""

import json

import pytest

from repro.cli import main
from repro.telemetry import validate_metrics

PROG = """
int a[32];
int main() {
    int s = 0;
    for (int i = 0; i < 40; i++) {
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


def span_names(payload):
    names = []

    def walk(node):
        names.append(node["name"])
        for child in node.get("children", ()):
            walk(child)

    for span in payload["spans"]:
        walk(span)
    return names


class TestMetricsFlag:
    def test_analyze_writes_valid_artifact(self, minic_file, tmp_path,
                                           capsys):
        metrics = str(tmp_path / "m.json")
        assert main(["analyze", minic_file, "--analysis", "dep,counts",
                     "--metrics", metrics]) == 0
        payload = validate_metrics(json.load(open(metrics)))
        assert payload["command"] == "analyze"
        assert payload["exit_code"] == 0
        assert "--metrics" in payload["argv"]
        names = span_names(payload)
        # The tree covers the whole pipeline stages of this run: a
        # cold analyze records inside its one live run.
        for stage in ("analyze", "compile", "live", "analysis.finish"):
            assert stage in names, f"missing span {stage!r}"
        assert "replay" not in names
        (live,) = [span for span in payload["spans"][0]["children"]
                   if span["name"] == "live"]
        assert live["attrs"]["recording"] is True
        assert payload["counters"]["trace.events_written"] > 0

    def test_record_artifact(self, minic_file, tmp_path):
        metrics = str(tmp_path / "m.json")
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace,
                     "--metrics", metrics]) == 0
        payload = validate_metrics(json.load(open(metrics)))
        assert payload["command"] == "record"
        assert "record" in span_names(payload)
        assert payload["counters"]["trace.bytes_written"] > 0

    def test_replay_artifact(self, minic_file, tmp_path):
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace]) == 0
        metrics = str(tmp_path / "m.json")
        assert main(["replay", trace, "--metrics", metrics]) == 0
        payload = validate_metrics(json.load(open(metrics)))
        assert "replay" in span_names(payload)
        assert payload["counters"]["trace.events_decoded"] > 0

    def test_failed_run_still_publishes_exit_code(self, tmp_path):
        metrics = str(tmp_path / "m.json")
        missing = str(tmp_path / "gone.mc")
        assert main(["analyze", missing, "--metrics", metrics]) == 2
        payload = validate_metrics(json.load(open(metrics)))
        assert payload["exit_code"] == 2

    def test_unwritable_metrics_path_does_not_fail_the_run(
            self, minic_file, tmp_path, capsys):
        metrics = str(tmp_path / "no-such-dir" / "m.json")
        assert main(["analyze", minic_file, "--analysis", "counts",
                     "--metrics", metrics]) == 0
        assert "--metrics" in capsys.readouterr().err


class TestStatsVerb:
    def test_renders_artifact(self, minic_file, tmp_path, capsys):
        metrics = str(tmp_path / "m.json")
        assert main(["analyze", minic_file, "--analysis", "dep",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "analyze" in out
        # A cold analyze's recording run counts as record throughput.
        assert "record throughput:" in out

    def test_renders_replay_throughput(self, minic_file, tmp_path,
                                       capsys):
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace]) == 0
        metrics = str(tmp_path / "m.json")
        assert main(["replay", trace, "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "trace.events_decoded" in out
        assert "replay throughput:" in out

    def test_rejects_non_json(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("not json {")
        assert main(["stats", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_rejects_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "wrong.json"
        bad.write_text(json.dumps({"schema": "other"}))
        assert main(["stats", str(bad)]) == 2
        assert "/schema" in capsys.readouterr().err

    def test_missing_file_exit2(self, capsys):
        assert main(["stats", "/nonexistent/m.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestStreamDiscipline:
    def test_quiet_record_keeps_result_on_stdout(self, minic_file,
                                                 tmp_path, capsys):
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace, "-q"]) == 0
        captured = capsys.readouterr()
        assert "recorded" in captured.out  # the result line survives
        assert captured.err == ""

    def test_quiet_replay(self, minic_file, tmp_path, capsys):
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace, "-q"]) == 0
        capsys.readouterr()
        assert main(["replay", trace, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "Method main" in captured.out
        assert captured.err == ""

    def test_quiet_and_verbose_conflict(self, minic_file, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", minic_file, "-q", "-v"])

    def test_log_level_emits_json_lines_on_stderr(self, minic_file,
                                                  tmp_path, capsys):
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace,
                     "--log-level", "debug"]) == 0
        captured = capsys.readouterr()
        logged = [json.loads(line)
                  for line in captured.err.strip().splitlines()
                  if line.startswith("{")]
        assert any(entry["msg"] == "recorded trace" for entry in logged)
        assert all(entry["logger"].startswith("alchemist")
                   for entry in logged)

    def test_env_var_controls_plain_verbs(self, minic_file, capsys,
                                          monkeypatch):
        from repro.telemetry import LOG_ENV_VAR

        monkeypatch.setenv(LOG_ENV_VAR, "info")
        assert main(["analyze", minic_file, "--analysis", "counts"]) == 0
        err = capsys.readouterr().err
        assert '"level": "info"' in err


class TestParallelMetrics:
    def test_worker_spans_under_coordinator(self, minic_file, tmp_path):
        trace = str(tmp_path / "seamed.trace")
        assert main(["record", minic_file, "-o", trace,
                     "--checkpoints", "40", "-q"]) == 0
        metrics = str(tmp_path / "m.json")
        assert main(["replay", trace, "--jobs", "2",
                     "--metrics", metrics, "-q"]) == 0
        payload = validate_metrics(json.load(open(metrics)))
        names = span_names(payload)
        assert "replay.parallel" in names or "replay" in names
        if "replay.parallel" in names:
            root = payload["spans"][0]
            kids = [c["name"] for c in root.get("children", ())]
            assert "segment" in kids
            assert "replay.merge" in kids
