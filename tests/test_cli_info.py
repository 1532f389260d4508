"""CLI: the info verb, the retired --sample flag, and the exit-2
contract on truncated or corrupt traces (no tracebacks, one line)."""

from __future__ import annotations

import pytest

from repro.cli import main

PROG = """
int a[32];
int main() {
    int s = 0;
    for (int i = 0; i < 30; i++) {
        a[i % 32] = i;
        s += a[(i + 1) % 32];
    }
    print(s);
    return 0;
}
"""


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROG)
    return str(path)


@pytest.fixture
def trace_file(prog_file, tmp_path):
    out = str(tmp_path / "prog.trace")
    assert main(["record", prog_file, "-o", out]) == 0
    return out


class TestInfoVerb:
    def test_info_prints_header_and_counts(self, trace_file, capsys):
        assert main(["info", trace_file]) == 0
        out = capsys.readouterr().out
        assert "format:" in out and "v2" in out
        assert "digest:     sha256:" in out
        assert "sampling" not in out
        assert "read=" in out and "write=" in out and "finish=1" in out
        assert "compressed" in out

    @staticmethod
    def _assert_v1_rejected(verb, tmp_path, capsys, write_v1_trace):
        """Format v1 is retired: a v1 file is a typed version error
        (exit 2, one line), not a traceback."""
        path = str(tmp_path / "v1.trace")
        write_v1_trace(path)
        assert main([*verb, path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert ("trace schema version 1, this reader understands "
                "only 2") in captured.err
        assert "Traceback" not in captured.err

    def test_info_v1_trace(self, tmp_path, capsys, write_v1_trace):
        self._assert_v1_rejected(["info"], tmp_path, capsys,
                                 write_v1_trace)

    @pytest.mark.parametrize("verb", [["replay"],
                                      ["replay", "--jobs", "2"]],
                             ids=["replay", "replay-parallel"])
    def test_v1_trace_exits_2(self, tmp_path, capsys, write_v1_trace,
                              verb):
        self._assert_v1_rejected(verb, tmp_path, capsys, write_v1_trace)

    def test_info_before_any_seams(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["info", trace_file]) == 0
        out = capsys.readouterr().out
        assert "checkpoints:none yet — built on first parallel replay" \
            in out
        assert "checkpoint=" not in out

    def test_info_after_prebuilt_seams(self, prog_file, tmp_path, capsys):
        out_path = str(tmp_path / "seamed.trace")
        assert main(["record", prog_file, "-o", out_path,
                     "--checkpoints", "50"]) == 0
        recorded = capsys.readouterr().out
        from repro.trace.shards import probe_sidecar

        seams = probe_sidecar(out_path)["checkpoints"]
        assert seams > 0
        assert f"{seams} checkpoint(s) prebuilt" in recorded
        assert main(["info", out_path]) == 0
        out = capsys.readouterr().out
        assert (f"checkpoints:{seams} shard seam(s), 50 events apart, "
                "cached in the .ckpt sidecar") in out

    def test_info_missing_file_exit2(self, capsys):
        assert main(["info", "/nonexistent/x.trace"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb", [["record", "{prog}", "-o", "{out}"],
                                  ["analyze", "{prog}"], ["batch"]],
                         ids=["record", "analyze", "batch"])
def test_sample_flag_is_an_argparse_error(verb, prog_file, tmp_path,
                                          capsys):
    """Traces hold every event: no verb takes ``--sample`` any more, so
    the flag is an unknown argument (exit 2), not a policy spec."""
    argv = [arg.format(prog=prog_file, out=tmp_path / "x.trace")
            for arg in verb]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--sample", "interval:5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sample" in capsys.readouterr().err
    assert not (tmp_path / "x.trace").exists()


class TestCorruptTraceExit2:
    """Satellite contract: truncated/corrupt traces surface as one-line
    exit-2 errors from every verb, never struct/EOF tracebacks."""

    def _one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        return err

    @pytest.mark.parametrize("verb", ["replay", "info"])
    def test_truncated_mid_stream(self, verb, trace_file, tmp_path,
                                  capsys):
        import os

        blob = open(trace_file, "rb").read()
        bad = tmp_path / "cut.trace"
        bad.write_bytes(blob[:os.path.getsize(trace_file) // 2])
        assert main([verb, str(bad)]) == 2
        self._one_line_error(capsys)

    @pytest.mark.parametrize("verb", ["replay", "info"])
    def test_truncated_header(self, verb, trace_file, tmp_path, capsys):
        blob = open(trace_file, "rb").read()
        bad = tmp_path / "hdr.trace"
        bad.write_bytes(blob[:10])
        assert main([verb, str(bad)]) == 2
        self._one_line_error(capsys)

    @pytest.mark.parametrize("verb", ["replay", "info"])
    def test_garbage_file(self, verb, tmp_path, capsys):
        bad = tmp_path / "junk.trace"
        bad.write_bytes(b"this is not a trace at all" * 10)
        assert main([verb, str(bad)]) == 2
        err = self._one_line_error(capsys)
        assert "magic" in err

    def test_info_tolerates_unknown_event_type(self, trace_file,
                                               tmp_path, capsys):
        """info reports what is in the file; a corrupt type byte must
        not crash it with a KeyError (replay rightly rejects it)."""
        from repro.trace.codec import BLOCK_HEADER, BLOCK_HEADER_SIZE
        import zlib

        from repro.trace.reader import TraceReader

        blob = bytearray(open(trace_file, "rb").read())
        with TraceReader(trace_file) as reader:
            start = reader._events_start
        comp_len, raw_len = BLOCK_HEADER.unpack(
            bytes(blob[start:start + BLOCK_HEADER_SIZE]))
        raw = bytearray(zlib.decompress(
            bytes(blob[start + BLOCK_HEADER_SIZE:
                       start + BLOCK_HEADER_SIZE + comp_len])))
        raw[0] = 0x42  # first record's type byte
        comp = zlib.compress(bytes(raw), 6)
        bad = tmp_path / "badtype.trace"
        bad.write_bytes(bytes(blob[:start])
                        + BLOCK_HEADER.pack(len(comp), len(raw)) + comp
                        + bytes(blob[start + BLOCK_HEADER_SIZE
                                     + comp_len:]))
        assert main(["info", str(bad)]) == 0
        assert "type66=" in capsys.readouterr().out
