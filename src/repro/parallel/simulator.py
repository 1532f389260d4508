"""Discrete future-execution schedule simulation.

Models the paper's execution strategy (§II, Fig. 1): the main thread
runs the serial chain; at each point where the sequential program would
execute an instance of the parallelized construct, the instance is
spawned as a future onto one of K workers. A future cannot start before
its spawn point, a free worker, and its producer tasks; a serial segment
cannot run before the tasks it joins on (the claim points).

All times are in instructions, the same clock the profiler uses, so
``speedup = T_seq / makespan`` is directly comparable across runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.taskgraph import TaskGraph


@dataclass
class SweepPoint:
    """One worker count's outcome: what the advisor reads of a
    schedule."""

    workers: int
    t_seq: int
    makespan: int
    #: Instructions the main thread spent blocked on joins.
    join_stall: int = 0

    @property
    def speedup(self) -> float:
        # makespan == 0 means the schedule ran nothing (no tasks, no
        # serial work). The honest answer is 0.0, not a fabricated
        # "x1.00" — estimate_speedup refuses such graphs up front.
        return self.t_seq / self.makespan if self.makespan else 0.0


@dataclass
class ScheduleResult(SweepPoint):
    """Outcome of one simulated schedule, task by task."""

    task_start: list[int] = field(default_factory=list)
    task_finish: list[int] = field(default_factory=list)


class FutureSimulator:
    """List-scheduler over a :class:`TaskGraph`."""

    def __init__(self, workers: int = 4, privatize: bool = True,
                 spawn_overhead: int = 0):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        #: Model the paper's privatization transformations: WAR/WAW
        #: constraints disappear (each thread gets its own copy).
        self.privatize = privatize
        #: Fixed cost charged to the main thread per spawn (thread pool
        #: dispatch); 0 keeps the model purely algorithmic.
        self.spawn_overhead = spawn_overhead

    def schedule(self, graph: TaskGraph) -> ScheduleResult:
        return self._run(self._inputs(graph), self.workers)

    def sweep(self, graph: TaskGraph, worker_counts: list[int]
              ) -> tuple[dict[int, SweepPoint], int]:
        """Each worker count's :class:`SweepPoint` (keyed in the order
        given), and how many list schedules that took.

        Makespan and join stall never grow with the worker count: the
        heap of worker free times always holds the largest finishes so
        far, so a task pops a free time no later with more workers and
        every start and finish is pointwise no later. With unbounded
        workers no task waits, which bounds both from below. So counts
        run in ascending order only until a schedule reaches the
        unbounded one's (makespan, join stall); every larger count's
        point is that one's."""
        inputs = self._inputs(graph)
        bound = self._unbounded(inputs)
        points: dict[int, SweepPoint] = {}
        schedules = 0
        settled = False
        for workers in sorted(set(worker_counts)):
            if workers < 1:
                raise ValueError("need at least one worker")
            if not settled:
                result = self._run(inputs, workers)
                schedules += 1
                settled = (result.makespan, result.join_stall) == bound
            points[workers] = SweepPoint(workers, result.t_seq,
                                         result.makespan, result.join_stall)
        return {workers: points[workers]
                for workers in worker_counts}, schedules

    def _inputs(self, graph: TaskGraph) -> tuple:
        """What a schedule reads of ``graph``: task durations, each
        task's producers and each serial segment's joins (anti-edges
        added without privatization; ``None`` for a graph with no
        edges), the serial lengths and T_seq."""
        deps, joins = graph.task_deps, graph.joins
        if not self.privatize:
            deps = np.concatenate((deps, graph.anti_task_deps))
            joins = np.concatenate((joins, graph.anti_joins))
        count = graph.task_count
        producers_of = joins_of = None
        if len(deps) or len(joins):
            producers_of = [[] for _ in range(count)]
            for src, dst in deps.tolist():
                producers_of[dst].append(src)
            joins_of = [[] for _ in range(count + 1)]
            for task, segment in joins.tolist():
                joins_of[segment].append(task)
        return ((graph.end - graph.start).tolist(), producers_of, joins_of,
                graph.serial.tolist(), graph.total_time)

    def _unbounded(self, inputs: tuple) -> tuple[int, int]:
        """``(makespan, join_stall)`` with a worker for every task: each
        task starts at its spawn or its producers' finish, whichever is
        later (in numpy for a graph with no edges)."""
        durations, producers_of, _, serial, _ = inputs
        if producers_of is not None:
            result = self._run(inputs, None)
            return result.makespan, result.join_stall
        count = len(durations)
        spawn = np.cumsum(np.asarray(serial[:count], np.int64)
                          + self.spawn_overhead)
        main_clock = (int(spawn[-1]) if count else 0) + serial[count]
        if count:
            main_clock = max(main_clock, int((spawn + durations).max()))
        return main_clock, 0

    def _run(self, inputs: tuple, workers: int | None) -> ScheduleResult:
        """One schedule on ``workers`` workers (``None``: one per task,
        so no task waits and no heap is kept)."""
        durations, producers_of, joins_of, serial, t_seq = inputs
        count = len(durations)
        linked = producers_of is not None
        spawn_overhead = self.spawn_overhead
        finish = [0] * count
        start = [0] * count
        # Workers as a min-heap of free times.
        worker_free = [0] * workers if workers else None
        main_clock = 0
        join_stall = 0

        for k in range(count):
            # Serial segment k runs first; it may join on earlier tasks.
            ready = main_clock
            if linked:
                for producer in joins_of[k]:  # claim points
                    if finish[producer] > ready:
                        ready = finish[producer]
                join_stall += ready - main_clock
            main_clock = ready + serial[k]
            # Spawn task k.
            main_clock += spawn_overhead
            earliest = main_clock
            if linked:
                for producer in producers_of[k]:
                    if finish[producer] > earliest:
                        earliest = finish[producer]
            if worker_free is not None and worker_free[0] > earliest:
                earliest = worker_free[0]
            end = earliest + durations[k]
            if worker_free is not None:
                heapq.heapreplace(worker_free, end)
            start[k] = earliest
            finish[k] = end

        # Epilogue: the final serial segment, joining as required.
        ready = main_clock
        if linked:
            for producer in joins_of[count]:
                if finish[producer] > ready:
                    ready = finish[producer]
            join_stall += ready - main_clock
        main_clock = ready + serial[count]
        # The program is done when the main thread and every future are.
        makespan = max(main_clock, max(finish)) if count else main_clock

        return ScheduleResult(
            workers=workers,
            t_seq=t_seq,
            makespan=makespan,
            join_stall=join_stall,
            task_start=start,
            task_finish=finish,
        )
