"""CLI: the ``advise``/``bench-advise`` verbs and the ``speedup``
error-surface fixes (PR 5 satellites)."""

import json

import pytest

from repro.cli import main

SOURCE = """
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
LOOP_LINE = 10

PRIVATE_SOURCE = """
int counter;
int a[16];
int main() {
    for (int i = 0; i < 16; i++) {
        counter++;
        a[i] = counter * 2;
    }
    print(counter);
    return 0;
}
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "advise.mc"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def private_file(tmp_path):
    path = tmp_path / "private.mc"
    path.write_text(PRIVATE_SOURCE)
    return str(path)


class TestAdviseVerb:
    def test_text_output_ranks_candidates(self, minic_file, capsys):
        assert main(["advise", minic_file]) == 0
        out = capsys.readouterr().out
        assert "What-if advisor" in out
        assert "best x" in out
        assert "skipped:" in out
        assert "violating RAW" in out  # the chained loop, with reason

    def test_json_schema(self, minic_file, capsys):
        assert main(["advise", minic_file, "--workers", "2,4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"] == "whatif"
        assert payload["workers"] == [2, 4]
        assert payload["best"]["speedup"] > 1.0
        for entry in payload["candidates"]:
            assert set(entry["speedups"]) == {"2", "4"}

    def test_top_limits_candidates(self, minic_file, capsys):
        assert main(["advise", minic_file, "--top", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["candidates"]) + len(payload["skipped"]) <= 1

    @pytest.mark.parametrize("argv,fragment", [
        (["--workers", "4,4"], "duplicate"),
        (["--workers", "2,,4"], "empty entry"),
        (["--workers", "zero"], "not an integer"),
        (["--workers", "0"], ">= 1"),
        (["--top", "0"], "--top must be >= 1"),
    ])
    def test_bad_flags_exit_2(self, minic_file, capsys, argv, fragment):
        assert main(["advise", minic_file] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.mc")
        assert main(["advise", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestSpeedupErrorSurface:
    def test_unknown_line_message_is_not_a_quoted_key(self, minic_file,
                                                      capsys):
        assert main(["speedup", minic_file, "--line", "9999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no construct at line 9999")
        assert not err.startswith("error: '")

    def test_unknown_private_global_named(self, private_file, capsys):
        assert main(["speedup", private_file, "--line", "5",
                     "--private", "missing"]) == 2
        err = capsys.readouterr().err
        assert "no global variable named 'missing'" in err
        assert "counter" in err

    def test_private_names_are_stripped(self, private_file, capsys):
        """`--private "counter"` and `--private " counter "` must be
        the same request (whitespace used to silently produce a
        never-matching variable name)."""
        assert main(["speedup", private_file, "--line", "5",
                     "--private", " counter "]) == 0
        spaced = capsys.readouterr().out
        assert main(["speedup", private_file, "--line", "5",
                     "--private", "counter"]) == 0
        assert capsys.readouterr().out == spaced

    def test_private_duplicate_rejected(self, private_file, capsys):
        assert main(["speedup", private_file, "--line", "5",
                     "--private", "counter, counter"]) == 2
        assert "duplicate variable 'counter'" in capsys.readouterr().err

    def test_private_empty_entry_rejected(self, private_file, capsys):
        assert main(["speedup", private_file, "--line", "5",
                     "--private", "counter,,"]) == 2
        assert "empty variable name" in capsys.readouterr().err

    def test_zero_instance_construct_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dead.mc"
        path.write_text("""
        int helper(int x) { return x * 2; }
        int main() {
            for (int i = 0; i < 3; i = i + 1) {
                if (i > 100) { helper(i); }
            }
            return 0;
        }
        """)
        assert main(["speedup", str(path), "--line", "5"]) == 2
        err = capsys.readouterr().err
        assert "no instances" in err
        assert "x1.00" not in err


class TestBenchAdviseVerb:
    def test_writes_verified_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_advisor.json")
        assert main(["bench-advise", "--workloads", "gzip",
                     "--scale", "0.1", "--workers", "2,4",
                     "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "verified" in printed
        with open(out) as handle:
            data = json.load(handle)
        assert data["summary"]["all_verified"] is True
        (row,) = data["rows"]
        assert row["name"] == "gzip"
        assert row["predicted"] == row["simulated"]
        assert row["paper_target"]["speedups"]

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["bench-advise", "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_workers_exit_2(self, capsys):
        assert main(["bench-advise", "--workloads", "gzip",
                     "--workers", "4,4"]) == 2
        assert "duplicate" in capsys.readouterr().err
