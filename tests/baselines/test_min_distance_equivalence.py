"""The TEST baseline on the block engine == its per-event reference.

:func:`~repro.baselines.min_distance.profile_loop_distances` runs
:class:`~repro.baselines.min_distance.LoopDistances` on a live run's
tap: dep's instance table delimits the loop iterations, the pair
kernel pairs the accesses under loop-iteration tags. The per-event
:class:`~tests.baselines.reference.MinDistanceTracer` rides the
indexing stack and the dict shadow one hooked event at a time. On the
bundled programs, on two programs whose loop activations tell apart
only by the event that popped the last iteration, and on random ones
(recursion, goto, malloc/free, loop nests that call and free), in the
tap's blocks and in blocks of 64 events, both must report the same
loops (in first-entry order), iteration counts, minimum distances (in
first-observation order) and instruction count.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constructs import ConstructTable
from repro.baselines import profile_loop_distances
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.trace import writer
from repro.workloads import get, names
from tests.baselines.reference import MinDistanceTracer
from tests.core.test_random_programs import (STEP_CAP, _loop_programs,
                                             _programs)


#: A loop re-entered with no other loop popped in between (its calls
#: are in loop-free code), and a loop whose body recurses into it: the
#: activations tell apart only by the event that popped the last
#: iteration.
FIXED = ("""
int a[8];
void touch(int round) {
    for (int i = 0; i < 8; i++) {
        if (round == 0) { a[i] = i; } else { a[i] = a[i] + 1; }
    }
}
int main() { touch(0); touch(1); touch(2); return 0; }
""", """
int g[16];
int walk(int n) {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        g[(n + i) % 16] = g[(n + i + 1) % 16] + i;
        if (n > 0) { s = s + walk(n - 1); }
    }
    return s + g[n % 16];
}
int main() { print(walk(4)); return 0; }
""")


def _digest(profile) -> tuple:
    return ([(pc, s.name, s.iterations, list(s.min_distance.items()))
             for pc, s in profile.loops.items()], profile.instructions)


def _assert_same(program, block_events: int | None = None) -> None:
    reference = MinDistanceTracer(ConstructTable(program))
    Interpreter(program, reference).run()
    if block_events is None:
        block = profile_loop_distances(program=program)
    else:
        with mock.patch.object(writer, "LIVE_BLOCK_EVENTS", block_events):
            block = profile_loop_distances(program=program)
    assert _digest(block) == _digest(reference.result)
    assert block == reference.result


@pytest.mark.parametrize("name", names(include_extra=True))
def test_bundled_programs(name):
    _assert_same(compile_source(get(name, 0.25).source))


@pytest.mark.parametrize("source", FIXED, ids=["reentered", "recursive"])
@pytest.mark.parametrize("block_events", [None, 64], ids=["tap", "64"])
def test_fixed_programs(source, block_events):
    _assert_same(compile_source(source), block_events)


@given(source=st.one_of(_programs.map(pretty_print), _loop_programs()),
       block_events=st.sampled_from([None, 64]))
@settings(max_examples=60, deadline=None)
def test_random_programs(source, block_events):
    try:
        program = compile_source(source)
        Interpreter(program, max_steps=STEP_CAP).run()
    except (SemanticError, MiniCRuntimeError, StepLimitExceeded):
        return
    _assert_same(program, block_events)
