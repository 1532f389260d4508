"""CLI wiring for the unified `analyze` verb, the `analyses` listing,
and the centralized file/option error handling shared by every verb."""

from __future__ import annotations

import json

import pytest

from repro.analyses import analysis_names
from repro.cli import main

PROG = """
int bins[16];
int main() {
    int s = 0;
    for (int i = 0; i < 30; i++) {
        bins[i % 16] += i;
        s += bins[(i + 2) % 16];
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


class TestAnalyzeVerb:
    def test_text_output_sections(self, minic_file, capsys):
        assert main(["analyze", minic_file,
                     "--analysis", "dep,locality,hot"]) == 0
        captured = capsys.readouterr()
        # Progress header on stderr; the report itself on stdout.
        assert "recorded and ran 3 analysis(es) in one run" \
            in captured.err
        assert "== dep (live) ==" in captured.out
        assert "== locality (live) ==" in captured.out
        assert "== hot (live) ==" in captured.out

    def test_quiet_suppresses_progress(self, minic_file, capsys):
        assert main(["analyze", minic_file, "--analysis", "dep",
                     "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "== dep (live) ==" in captured.out

    def test_json_output_shape(self, minic_file, capsys):
        assert main(["analyze", minic_file,
                     "--analysis", "dep,locality,hot", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"file", "digest", "mode", "analyses"} <= set(payload)
        assert set(payload["analyses"]) == {"dep", "locality", "hot"}
        assert payload["analyses"]["dep"]["constructs"]
        assert payload["analyses"]["locality"]["accesses"] > 0
        assert payload["analyses"]["hot"]["rows"]
        assert payload["mode"] == {"dep": "live", "locality": "live",
                                   "hot": "live"}

    def test_live_flag_skips_recording(self, minic_file, capsys):
        assert main(["analyze", minic_file, "--analysis", "dep,counts",
                     "--live", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["mode"] == {"dep": "live", "counts": "live"}

    def test_live_flag_progress_line(self, minic_file, capsys):
        assert main(["analyze", minic_file, "--analysis", "dep,counts",
                     "--live"]) == 0
        assert "ran 2 analysis(es) live" in capsys.readouterr().err

    def test_live_and_replay_json_agree(self, minic_file, capsys):
        """A recording run and a plain live run give the same results
        (recording does not perturb them); the trace's replay is held
        to them by the Session parity tests."""
        assert main(["analyze", minic_file, "--analysis", "dep,locality",
                     "--json"]) == 0
        recorded = json.loads(capsys.readouterr().out)
        assert main(["analyze", minic_file, "--analysis", "dep,locality",
                     "--live", "--json"]) == 0
        live = json.loads(capsys.readouterr().out)
        assert live["analyses"] == recorded["analyses"]

    def test_baseline_analyses_available(self, minic_file, capsys):
        assert main(["analyze", minic_file,
                     "--analysis", "flat,context"]) == 0
        out = capsys.readouterr().out
        assert "Flat dependence profile" in out
        assert "Context dependence profile" in out

    def test_unknown_analysis_fails_cleanly(self, minic_file, capsys):
        assert main(["analyze", minic_file, "--analysis", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown analysis 'nope'" in err
        assert "dep" in err and "locality" in err

    def test_dep_flags_without_dep_rejected(self, minic_file, capsys):
        assert main(["analyze", minic_file, "--analysis", "locality",
                     "--raw-only"]) == 2
        assert "not requested" in capsys.readouterr().err


class TestAnalysesVerb:
    def test_lists_every_registered_analysis(self, capsys):
        assert main(["analyses"]) == 0
        out = capsys.readouterr().out
        for name in analysis_names():
            assert name in out
        assert "track_war_waw" in out  # option schemas are shown


class TestCentralFileErrors:
    """Satellite: a missing/unreadable FILE is one line + exit 2 for
    every verb, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "{missing}"],
        ["analyze", "{missing}"],
        ["profile", "{missing}"],
        ["record", "{missing}"],
        ["tree", "{missing}"],
        ["annotate", "{missing}", "--line", "3"],
        ["speedup", "{missing}", "--line", "3"],
        ["replay", "{missing}"],
    ])
    def test_missing_file_exits_2(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "does-not-exist.mc")
        argv = [a.format(missing=missing) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_unreadable_directory_exits_2(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "analyze", "profile",
                                      "record"])
    def test_syntax_error_exits_2(self, verb, tmp_path, capsys):
        bad = tmp_path / "syntax.mc"
        bad.write_text("int main( { return 0; }")
        assert main([verb, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_runtime_trap_exits_2(self, tmp_path, capsys):
        trap = tmp_path / "trap.mc"
        trap.write_text("""
int main() {
    int zero = 0;
    return 7 / zero;
}
""")
        assert main(["analyze", str(trap), "--analysis", "dep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestOptionValidation:
    """Satellite: bad ProfileOptions fail at construction with a clear
    message, surfaced as exit 2 by the CLI."""

    def test_profile_options_reject_nonpositive_max_steps(self):
        from repro.core.alchemist import ProfileOptions

        with pytest.raises(ValueError, match="max_steps"):
            ProfileOptions(max_steps=0)

    def test_valid_options_still_construct(self):
        from repro.core.alchemist import ProfileOptions

        options = ProfileOptions(max_steps=1)
        assert options.max_steps == 1


class TestAliasVerbs:
    """`profile` and `replay` are thin aliases over the unified API and
    must keep their original presentation."""

    def test_profile_output_unchanged(self, minic_file, capsys):
        assert main(["profile", minic_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Profile:" in out
        assert "Advisor recommendations:" in out

    def test_replay_accepts_new_registry_analyses(self, minic_file,
                                                  tmp_path, capsys):
        trace = str(tmp_path / "p.trace")
        assert main(["record", minic_file, "-o", trace]) == 0
        capsys.readouterr()
        assert main(["replay", trace, "--analysis", "flat,counts"]) == 0
        out = capsys.readouterr().out
        assert "Flat dependence profile" in out
        assert "Event counts" in out
