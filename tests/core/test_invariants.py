"""Cross-cutting runtime invariants, checked on every bundled workload.

These are the properties the paper's correctness rests on, asserted on
realistic executions rather than unit fixtures:

* the indexing stack is balanced — every pushed construct is popped by
  procedure exit or its post-dominator, across loops, switches, gotos,
  early returns, and recursion;
* recursion nesting counters return to zero, so Ttotal is aggregated
  exactly once per outermost instance (§III-B "Recursion");
* allocator accounting is conservative: every acquire is a fresh
  allocation (the GC-backed NodeAllocator never recycles, so profiles
  are a pure function of the event stream), the peak-live capacity
  never exceeds the allocation count, and every acquired node is
  released by the end of the run;
* profiled durations are sane: no construct outlasts the run, and the
  procedure profile of main covers the whole execution.
"""

import pytest

from repro.analysis.constructs import ConstructTable
from repro.ir import compile_source
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter
from repro.workloads import EXTRA_ORDER, TABLE3_ORDER, get
from tests.conftest import profile
from tests.core.reference import AlchemistTracer

ALL_WORKLOADS = TABLE3_ORDER + EXTRA_ORDER


def traced_run(source: str):
    program = compile_source(source)
    table = ConstructTable(program)
    tracer = AlchemistTracer(table)
    interp = Interpreter(program, tracer)
    interp.run()
    return program, tracer, interp


@pytest.fixture(scope="module", params=ALL_WORKLOADS)
def workload_run(request):
    workload = get(request.param, 0.5)
    return request.param, traced_run(workload.source)


class TestIndexingInvariants:
    def test_stack_balanced_at_exit(self, workload_run):
        name, (_, tracer, _) = workload_run
        assert tracer.stack.depth() == 0, name

    def test_nesting_counters_return_to_zero(self, workload_run):
        name, (_, tracer, _) = workload_run
        nonzero = {pc: depth for pc, depth
                   in tracer.store._nesting.items() if depth != 0}
        assert nonzero == {}, (name, nonzero)

    def test_dynamic_instances_match_completions(self, workload_run):
        """Every entered construct completed (balance again, counted on
        the store side this time)."""
        name, (_, tracer, _) = workload_run
        completed = sum(p.instances for p in tracer.store.profiles.values())
        # Nested recursion aggregates only outermost instances, so
        # completed <= dynamic_instances, with equality iff no recursion.
        assert 0 < completed <= tracer.store.dynamic_instances, name


class TestDurationInvariants:
    def test_no_construct_outlasts_the_run(self, workload_run):
        name, (_, tracer, interp) = workload_run
        for prof in tracer.store.profiles.values():
            assert prof.max_duration <= interp.time, (name,
                                                      prof.static.name)

    def test_main_covers_the_run(self, workload_run):
        name, (_, tracer, interp) = workload_run
        main_prof = next(p for p in tracer.store.profiles.values()
                         if p.static.name == "main")
        assert main_prof.instances == 1
        # main's duration is the run minus at most the final bookkeeping.
        assert main_prof.max_duration >= interp.time - 4

    def test_loop_durations_do_not_exceed_parent_function(self,
                                                          workload_run):
        name, (_, tracer, _) = workload_run
        by_fn = {}
        for prof in tracer.store.profiles.values():
            if prof.static.kind.value == "procedure":
                by_fn[prof.static.name] = prof.total_duration
        for prof in tracer.store.profiles.values():
            if prof.static.is_loop and prof.static.fn_name in by_fn:
                assert (prof.total_duration
                        <= by_fn[prof.static.fn_name]), (name,
                                                         prof.static.name)


class TestPoolInvariants:
    def test_every_acquire_is_a_fresh_allocation(self, workload_run):
        name, (_, tracer, _) = workload_run
        stats = tracer.pool.stats
        # The GC-backed allocator never recycles: reuse would overwrite
        # Tenter/Texit of nodes shadow memory still references, making
        # the profile depend on allocation pressure instead of on the
        # event stream alone.
        assert stats.acquires == stats.grows, name
        assert stats.reuses == 0, name
        assert 0 < stats.capacity <= stats.acquires, name

    def test_allocator_drains_back_on_completion(self, workload_run):
        """After the run the indexing stack is empty, so every acquired
        node has been released (and is reclaimable once the shadow and
        index tree drop it)."""
        name, (_, tracer, _) = workload_run
        assert tracer.pool.live_count() == 0, name


class TestFailureInjection:
    def test_runtime_error_propagates_through_profiler(self):
        with pytest.raises(MiniCRuntimeError):
            profile("int main() { int *p = 0; return *p; }")

    def test_assert_failure_propagates(self):
        with pytest.raises(MiniCRuntimeError):
            profile("int main() { assert(0); return 0; }")

    def test_step_limit_respected_under_profiling(self):
        from repro.core.alchemist import Alchemist, ProfileOptions
        alch = Alchemist(ProfileOptions(max_steps=5000))
        with pytest.raises(StepLimitExceeded):
            alch.profile("int main() { while (1) { } return 0; }")

    def test_division_by_zero_carries_location(self):
        with pytest.raises(MiniCRuntimeError) as excinfo:
            profile("int main() { int z = 0; return 5 / z; }")
        assert excinfo.value.line > 0
