"""CLI smoke tests (argument wiring; heavy paths are covered by the
bench/workload suites)."""

import pytest

from repro.cli import build_parser, main

HELLO = """
int main() {
    int s = 0;
    for (int i = 0; i < 10; i++) {
        s += i;
    }
    print(s);
    return 0;
}
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(HELLO)
    return str(path)


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["profile", "x.mc", "--top", "3"])
        assert args.command == "profile"
        assert args.top == 3

    def test_run(self, minic_file, capsys):
        assert main(["run", minic_file]) == 0
        out = capsys.readouterr().out
        assert "45" in out

    def test_profile(self, minic_file, capsys):
        assert main(["profile", minic_file, "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "Method main" in out
        assert "Advisor" in out

    def test_profile_raw_only(self, minic_file, capsys):
        assert main(["profile", minic_file, "--raw-only",
                     "--no-advice"]) == 0
        out = capsys.readouterr().out
        assert "Advisor" not in out

    def test_speedup(self, minic_file, capsys):
        assert main(["speedup", minic_file, "--line", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "T_seq" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "delaunay" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTreeBounds:
    """``tree``'s budget and rendering bounds are checked up front: a
    bad value is one ``error:`` line and exit 2, not a traceback or a
    quietly wrong rendering."""

    @pytest.mark.parametrize("argv, message", [
        (["--max-nodes", "0"], "--max-nodes must be >= 1, got 0"),
        (["--max-nodes", "-3"], "--max-nodes must be >= 1, got -3"),
        (["--children", "0"], "--children must be >= 1, got 0"),
        (["--children", "-1"], "--children must be >= 1, got -1"),
        (["--depth", "-1"], "--depth must be >= 0, got -1"),
    ])
    def test_bad_bound_exits_2(self, minic_file, capsys, argv, message):
        assert main(["tree", minic_file, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_smallest_bounds_render(self, minic_file, capsys):
        assert main(["tree", minic_file, "--max-nodes", "1",
                     "--children", "1", "--depth", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("main [")
        assert "truncated at 1 nodes" in captured.out
        assert "[1 construct instances; truncated]" in captured.err
