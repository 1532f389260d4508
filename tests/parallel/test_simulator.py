"""Schedule simulator unit tests and invariants."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.simulator import FutureSimulator, SweepPoint
from repro.parallel.taskgraph import TaskGraph
from tests.parallel.reference import edge_rows, join_rows


def graph_of(durations, serial=None, deps=(), joins=None,
             anti_deps=(), anti_joins=None):
    start, end = [], []
    clock = 0
    serial = serial if serial is not None else [0] * (len(durations) + 1)
    for k, dur in enumerate(durations):
        clock += serial[k]
        start.append(clock)
        end.append(clock + dur)
        clock += dur
    clock += serial[len(durations)]
    graph = TaskGraph(
        target_pc=0,
        total_time=clock,
        start=start,
        end=end,
        task_deps=edge_rows(deps),
        joins=edge_rows(join_rows(joins or {})),
        anti_task_deps=edge_rows(anti_deps),
        anti_joins=edge_rows(join_rows(anti_joins or {})),
    )
    assert graph.serial.tolist() == list(serial)
    return graph


class TestBasicSchedules:
    def test_single_worker_is_sequential(self):
        graph = graph_of([100, 100, 100])
        result = FutureSimulator(1).schedule(graph)
        assert result.makespan == 300
        assert result.speedup == pytest.approx(1.0)

    def test_independent_tasks_scale(self):
        graph = graph_of([100] * 8)
        result = FutureSimulator(4).schedule(graph)
        assert result.makespan == 200
        assert result.speedup == pytest.approx(4.0)

    def test_chain_gives_no_speedup(self):
        graph = graph_of([100] * 8,
                         deps=[(k, k + 1) for k in range(7)])
        result = FutureSimulator(4).schedule(graph)
        assert result.makespan == 800

    def test_serial_prologue_bounds_speedup(self):
        # Amdahl: 400 serial + 400 parallelizable on 4 workers.
        graph = graph_of([100] * 4, serial=[400, 0, 0, 0, 0])
        result = FutureSimulator(4).schedule(graph)
        assert result.makespan == 500
        assert result.speedup == pytest.approx(800 / 500)

    def test_join_stalls_main_thread(self):
        # The epilogue joins on task 1: both tasks run concurrently while
        # the main thread blocks at the claim point.
        graph = graph_of([100, 100], joins={2: {1}})
        result = FutureSimulator(2).schedule(graph)
        assert result.makespan == 100
        assert result.join_stall == 100
        graph = graph_of([100, 100], serial=[0, 0, 50], joins={2: {1}})
        result = FutureSimulator(2).schedule(graph)
        assert result.makespan == 150

    def test_mid_serial_join(self):
        # Segment 1 (before task 1) must wait for task 0.
        graph = graph_of([100, 100], joins={1: {0}})
        result = FutureSimulator(2).schedule(graph)
        assert result.makespan == 200

    def test_anti_deps_only_without_privatization(self):
        graph = graph_of([100] * 4,
                         anti_deps=[(k, k + 1) for k in range(3)])
        with_priv = FutureSimulator(4, privatize=True).schedule(graph)
        without = FutureSimulator(4, privatize=False).schedule(graph)
        assert with_priv.makespan == 100
        assert without.makespan == 400

    def test_spawn_overhead_charged_to_main(self):
        graph = graph_of([100] * 4)
        cheap = FutureSimulator(4, spawn_overhead=0).schedule(graph)
        costly = FutureSimulator(4, spawn_overhead=10).schedule(graph)
        assert costly.makespan >= cheap.makespan + 10

    def test_empty_graph(self):
        graph = graph_of([], serial=[500])
        result = FutureSimulator(4).schedule(graph)
        assert result.makespan == 500

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            FutureSimulator(0)

    def test_sweep(self):
        graph = graph_of([100] * 8)
        results, _ = FutureSimulator(1).sweep(graph, [1, 2, 4])
        assert results[1].makespan >= results[2].makespan >= \
            results[4].makespan


durations = st.lists(st.integers(1, 200), min_size=1, max_size=16)


class TestScheduleInvariants:
    @settings(max_examples=80, deadline=None)
    @given(durations, st.integers(1, 8))
    def test_makespan_bounds(self, durs, workers):
        graph = graph_of(durs)
        result = FutureSimulator(workers).schedule(graph)
        total = sum(durs)
        assert result.makespan <= total  # never slower than sequential
        # Cannot beat the perfect distribution or the longest task.
        lower = max(max(durs), -(-total // workers))
        assert result.makespan >= lower

    @settings(max_examples=60, deadline=None)
    @given(durations)
    def test_monotone_in_workers(self, durs):
        graph = graph_of(durs)
        previous = None
        for workers in (1, 2, 4, 8):
            result = FutureSimulator(workers).schedule(graph)
            if previous is not None:
                assert result.makespan <= previous
            previous = result.makespan

    @settings(max_examples=60, deadline=None)
    @given(durations, st.data())
    def test_dependences_respected(self, durs, data):
        deps = set()
        if len(durs) >= 2:
            pair_count = data.draw(st.integers(0, min(6, len(durs) - 1)))
            for _ in range(pair_count):
                j = data.draw(st.integers(1, len(durs) - 1))
                i = data.draw(st.integers(0, j - 1))
                deps.add((i, j))
        graph = graph_of(durs, deps=deps)
        result = FutureSimulator(3).schedule(graph)
        for i, j in deps:
            assert result.task_start[j] >= result.task_finish[i]

    @settings(max_examples=40, deadline=None)
    @given(durations)
    def test_full_serialization_with_chain(self, durs):
        deps = {(k, k + 1) for k in range(len(durs) - 1)}
        graph = graph_of(durs, deps=deps)
        result = FutureSimulator(4).schedule(graph)
        assert result.makespan == sum(durs)


def _random_graph(rng):
    """A graph with RAW deps, joins, anti-edges and serial gaps, sized so
    workers are sometimes short and sometimes idle."""
    n = rng.randint(0, 14)
    durations = [rng.randint(1, 60) for _ in range(n)]
    serial = [rng.choice((0, 0, rng.randint(1, 40))) for _ in range(n + 1)]

    def edges(p):
        return [(i, j) for j in range(n) for i in range(j)
                if rng.random() < p]

    def claims(p):
        return {k: {i for i in range(k) if rng.random() < p}
                for k in range(n + 1)}
    p = rng.choice((0.0, 0.05, 0.2))
    return graph_of(durations, serial, edges(p), claims(p / 2),
                    edges(p), claims(p / 2))


def _random_cases(count=3000):
    """``count`` random graphs, each with a privatization choice and a
    spawn overhead."""
    rng = random.Random(20090314)
    for _ in range(count):
        yield (_random_graph(rng), rng.random() < 0.5,
               rng.choice((0, 0, 5)), rng)


COUNTS = [1, 2, 3, 4, 6, 8, 12, 16]


def test_sweep_matches_schedule_on_random_graphs():
    """The sweep, which stops scheduling once a count reaches the
    unbounded schedule, equals one ``schedule`` per count on every
    field it returns, keyed in the order given."""
    for graph, privatize, overhead, rng in _random_cases():
        order = rng.sample(COUNTS, len(COUNTS))
        swept, schedules = FutureSimulator(1, privatize,
                                           overhead).sweep(graph, order)
        assert list(swept) == order
        assert 1 <= schedules <= len(COUNTS)
        for workers in order:
            one = FutureSimulator(workers, privatize,
                                  overhead).schedule(graph)
            point = swept[workers]
            assert type(point) is SweepPoint
            for column in fields(SweepPoint):
                assert getattr(point, column.name) == \
                    getattr(one, column.name), (workers, column.name)


def test_more_workers_never_delay_and_unbounded_is_the_floor():
    """The settle rule's premises: every task start and finish, the
    makespan and the join stall are non-increasing in the worker
    count, and never below the unbounded schedule (a worker per task,
    computed without a heap)."""
    for graph, privatize, overhead, _ in _random_cases():
        sim = FutureSimulator(1, privatize, overhead)
        floor = sim._unbounded(sim._inputs(graph))
        every = FutureSimulator(max(graph.task_count, 1), privatize,
                                overhead).schedule(graph)
        assert floor == (every.makespan, every.join_stall)
        previous = None
        for workers in COUNTS:
            result = FutureSimulator(workers, privatize,
                                     overhead).schedule(graph)
            assert result.makespan >= floor[0]
            assert result.join_stall >= floor[1]
            if previous is not None:
                assert result.makespan <= previous.makespan
                assert result.join_stall <= previous.join_stall
                assert all(a <= b for a, b in zip(result.task_start,
                                                  previous.task_start))
                assert all(a <= b for a, b in zip(result.task_finish,
                                                  previous.task_finish))
            previous = result


def test_main_bound_graph_schedules_once():
    """bzip2's loop graphs: no edges, mostly zero serial gaps, so tasks
    wait for a worker at every count, yet the main thread's serial
    chain sets the makespan from two workers on. One list schedule
    settles the whole sweep."""
    durations = [7, 13, 5, 11] * 50
    serial = ([0] * 19 + [9]) * 10 + [5000]
    graph = graph_of(durations, serial)
    assert not len(graph.task_deps) and not len(graph.joins)
    counts = [2, 4, 8, 16]
    for workers in counts:
        result = FutureSimulator(workers).schedule(graph)
        spawn, clock = [], 0
        for k in range(len(durations)):
            clock += serial[k]
            spawn.append(clock)
        assert any(s > t for s, t in zip(result.task_start, spawn))
    swept, schedules = FutureSimulator().sweep(graph, counts)
    assert schedules == 1
    assert {point.makespan for point in swept.values()} == {sum(serial)}
