"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.constructs import ConstructTable
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.report import ProfileReport, RunStats
from repro.ir.lowering import compile_source
from repro.lang import ast_nodes as ast
from repro.runtime.interpreter import (DEFAULT_MAX_STEPS, Interpreter,
                                       run_source)
from tests.core.reference import AlchemistTracer


def run(source: str, **kwargs):
    """Run MiniC source; returns (exit_value, interpreter)."""
    return run_source(source, **kwargs)


def outputs(source: str) -> list[tuple[int, ...]]:
    """Run MiniC source and return its print() output."""
    _, interp = run_source(source)
    return interp.output


def profile(source: str, **options):
    """Profile MiniC source; returns the report."""
    return Alchemist(ProfileOptions(**options)).profile(source)


def reference_profile(source: str | None = None, *, program=None,
                      track_war_waw: bool = True,
                      max_steps: int = DEFAULT_MAX_STEPS) -> ProfileReport:
    """The per-event reference for ``Alchemist().profile``: an
    ``AlchemistTracer`` on the interpreter, its store and counters as a
    report (no wall times)."""
    if program is None:
        program = compile_source(source)
    table = ConstructTable(program)
    tracer = AlchemistTracer(table, track_war_waw)
    interp = Interpreter(program, tracer, max_steps)
    exit_value = interp.run()
    stats = RunStats(
        instructions=interp.time,
        dynamic_instances=tracer.store.dynamic_instances,
        static_constructs=table.static_count(),
        max_index_depth=tracer.stack.max_depth,
        raw_events=tracer.raw_events,
        war_events=tracer.war_events,
        waw_events=tracer.waw_events,
        edges_profiled=tracer.profiler.edges_profiled,
        pool=tracer.pool.stats,
    )
    return ProfileReport(program, table, tracer.store, stats, exit_value,
                         [tuple(v) for v in interp.output])


def compile_ir(source: str):
    return compile_source(source)


def ast_shape(node):
    """Structural AST summary ignoring source positions, for round-trip
    comparisons. Single-statement blocks collapse to the statement: the
    pretty-printer may brace a bare statement (dangling else), which is
    semantically identical."""
    if isinstance(node, ast.Block) and len(node.stmts) == 1:
        return ast_shape(node.stmts[0])
    if isinstance(node, ast.Node):
        fields = []
        for f in dataclasses.fields(node):
            if f.name in ("line", "col"):
                continue
            fields.append((f.name, ast_shape(getattr(node, f.name))))
        return (type(node).__name__, tuple(fields))
    if isinstance(node, list):
        return tuple(ast_shape(item) for item in node)
    return node


@pytest.fixture
def gzip_like_source() -> str:
    """Miniature of the paper's Fig. 2 gzip structure."""
    return """
int window[256];
int flag_buf[64];
int outbuf[512];
int outcnt;
int last_flags;
int bi_buf;
int bi_valid;
int input_len;

int flush_block(int buf[], int len) {
    flag_buf[last_flags] = 1;
    input_len += len;
    int k = 0;
    do {
        int flag = flag_buf[k % 8];
        if (flag) {
            if (bi_valid > 4) {
                outbuf[outcnt++] = bi_buf & 255;
                bi_buf = buf[k % len];
                bi_valid += 2;
            }
        }
        bi_valid++;
        k++;
    } while (k < len);
    last_flags = 0;
    outbuf[outcnt++] = bi_buf & 255;
    return len;
}

int main() {
    int processed = 0;
    int i = 0;
    while (i < 96) {
        window[i % 256] = i * 7 % 251;
        if (i % 32 == 31) {
            processed += flush_block(window, 32);
        }
        flag_buf[i % 64] = i & 1;
        last_flags++;
        i++;
    }
    int check = 0;
    int c = 0;
    while (c < 256) { check += window[c]; c++; }
    processed += flush_block(window, 16);
    outbuf[outcnt++] = (processed + check) & 255;
    print(processed, outcnt);
    return 0;
}
"""


@pytest.fixture
def write_v1_trace():
    """Hand-build a complete trace in the retired version-1 layout: the
    shared envelope around fixed 13-byte ``<BIII`` records (type byte,
    operands ``a``/``b``, timestamp delta)."""
    import struct

    from repro.trace.events import (EV_ENTER, EV_FINISH, MAGIC, TRAILER,
                                    TraceFooter, TraceHeader, pack_length,
                                    source_digest)

    def write(path, source: str = "int main() { return 0; }") -> None:
        header = TraceHeader(digest=source_digest(source),
                             filename="v1.mc", source=source,
                             globals_size=0, stack_limit=1 << 16,
                             heap_base=1 << 16,
                             functions=["main"]).to_bytes()
        records = (struct.pack("<BIII", EV_ENTER, 0, 0, 1)
                   + struct.pack("<BIII", EV_FINISH, 0, 0, 5))
        footer = TraceFooter(exit_value=0, events=2,
                             final_time=6).to_bytes()
        with open(path, "wb") as handle:
            handle.write(MAGIC + struct.pack("<H", 1)
                         + pack_length(len(header)) + header + records
                         + footer + pack_length(len(footer)) + TRAILER)

    return write
