"""Translated basic blocks against the instruction-at-a-time reference.

The interpreter runs each basic block as generated Python code
(:mod:`repro.runtime.blockgen`). :class:`ReferenceInterpreter` decodes
one instruction at a time. On random programs — the fuzzers of the
random-program tests plus a generator of calls with array parameters,
recursion, local arrays, heap blocks, every operator and traps — both
must produce the same record stream, output, exit value, final clock
and call count, or fail with the same error type, message, pc and
clock. The step budget is also set to every offset of a window of
consecutive instructions, so it runs out at each position inside a few
blocks: the budget error must name the same pc at the same clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import arith
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.runtime.tracing import Sink, Tracer
from tests.core.test_random_programs import (STEP_CAP, _loop_programs,
                                             _programs)
from tests.runtime.reference import ReferenceInterpreter


class Records(Tracer):
    """Keeps every record exactly as the interpreter emits it."""

    def sink(self, program, memory):
        self.records: list[tuple[int, int, int, int]] = []
        return Sink(self.records.append)


def outcome(interpreter_type, program, max_steps: int = STEP_CAP):
    """Everything a run shows: records, output, clock and calls, plus
    the exit value or the error's type, message and source position."""
    tracer = Records()
    interp = interpreter_type(program, tracer, max_steps)
    try:
        end = ("exit", interp.run())
    except MiniCRuntimeError as exc:
        end = (type(exc).__name__, exc.message, exc.pc, exc.line, exc.col,
               exc.fn_name)
    return (end, interp.time, interp.dynamic_calls, interp.output,
            tracer.records)


def assert_same(program, max_steps: int = STEP_CAP):
    expected = outcome(ReferenceInterpreter, program, max_steps)
    assert outcome(Interpreter, program, max_steps) == expected
    return expected


#: Calls with array parameters, recursion, local arrays and heap
#: blocks; each ``{op}`` is an operator, each ``{i}`` a small index
#: (possibly out of bounds), each ``{c}`` a constant (possibly zero).
CALLS = """
int g[8];
int fill(int a[], int n, int k) {{
    int i = 0;
    while (i < n) {{ a[i] = (i {op1} k) {op2} {c1}; i = i + 1; }}
    return a[{i1}];
}}
int depth(int n, int v[]) {{
    if (n <= 0) {{ return v[0]; }}
    v[0] = v[0] {op3} n;
    return depth(n - 1, v) + {c2};
}}
int main() {{
    int loc[6];
    int *p = malloc(4);
    int s = fill(loc, 6, {c3});
    s = s + fill(g, 8, {c4});
    p[{i2}] = s {op4} {c5};
    s = s + depth({d}, g) + p[{i3}];
    int *q = &g[{i4}];
    s = s + q[1] + *p + ~s + -s + !s;
    assert(s != {c6});
    free(p);
    print(s, g[1], loc[2], s << {c1}, s >> {c2});
    return s % 1000;
}}
"""

_OPS = sorted(arith.BINARY_EXPR)


@st.composite
def _call_programs(draw) -> str:
    ops = {f"op{n}": draw(st.sampled_from(_OPS)) for n in range(1, 5)}
    consts = {f"c{n}": draw(st.integers(-3, 9)) for n in range(1, 7)}
    indices = {f"i{n}": draw(st.integers(-1, 8)) for n in range(1, 5)}
    return CALLS.format(d=draw(st.integers(0, 12)), **ops, **consts,
                        **indices)


_SOURCES = st.one_of(_programs.map(pretty_print), _loop_programs(),
                     _call_programs())


@given(source=_SOURCES)
@settings(max_examples=150, deadline=None)
def test_random_programs_match_the_reference(source):
    try:
        program = compile_source(source)
    except SemanticError:
        return
    assert_same(program)


@given(source=_SOURCES, where=st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_the_budget_runs_out_at_every_offset(source, where):
    """The budget set to each of 24 consecutive clocks around a point
    of the run."""
    try:
        program = compile_source(source)
    except SemanticError:
        return
    _, final_time, *_ = assert_same(program)
    around = int(where * final_time)
    for max_steps in range(max(0, around - 12), around + 12):
        assert_same(program, max_steps)


@pytest.mark.parametrize("max_steps", range(0, 140))
def test_budget_inside_calls_and_returns(max_steps):
    """Every clock through calls, returns (with their extra tick for
    the return value's read) and loop back edges."""
    program = compile_source(CALLS.format(
        op1="+", op2="*", op3="-", op4="^", c1=2, c2=3, c3=4, c4=5, c5=6,
        c6=7, i1=1, i2=2, i3=3, i4=4, d=3))
    end, *_ = assert_same(program, max_steps)
    assert end[0] == "StepLimitExceeded"


class TestTranslationCounters:
    SOURCE = CALLS.format(op1="+", op2="*", op3="-", op4="^", c1=2, c2=3,
                          c3=4, c4=5, c5=6, c6=7, i1=1, i2=2, i3=3, i4=0,
                          d=3)

    def test_blocks_translate_once_per_program(self):
        program = compile_source(self.SOURCE)
        first = Interpreter(program)
        first.run()
        assert first.blocks_translated > 0
        assert first.translate_seconds > 0
        again = Interpreter(program)
        again.run()
        assert again.blocks_translated == 0
        assert again.translate_seconds == 0
        assert (first.checked_blocks, again.checked_blocks) == (0, 0)
        fresh = Interpreter(compile_source(self.SOURCE))
        fresh.run()
        assert fresh.blocks_translated == first.blocks_translated

    def test_a_budget_stop_runs_one_checked_stretch(self):
        interp = Interpreter(compile_source(self.SOURCE), max_steps=50)
        with pytest.raises(StepLimitExceeded):
            interp.run()
        assert interp.checked_blocks == 1
        assert interp.time == 51

    def test_record_and_live_spans_carry_the_counters(self, tmp_path):
        from repro.telemetry import Telemetry
        from repro.trace.live import run_live
        from repro.trace.writer import record_program

        tm = Telemetry()
        program = compile_source(self.SOURCE)
        record_program(program, tmp_path / "t.trace", source=self.SOURCE,
                       telemetry=tm)
        run_live(program, [], telemetry=tm)
        record, live = tm.spans
        assert (record.name, live.name) == ("record", "live")
        assert record.attrs["blocks_translated"] > 0
        assert live.attrs["blocks_translated"] == 0  # reused
        for span in (record, live):
            assert span.attrs["checked_blocks"] == 0
            assert span.attrs["translate_s"] >= 0
