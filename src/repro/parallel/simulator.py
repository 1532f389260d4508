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
from dataclasses import dataclass, field, replace

from repro.parallel.taskgraph import TaskGraph


@dataclass
class ScheduleResult:
    """Outcome of one simulated schedule."""

    workers: int
    t_seq: int
    makespan: int
    task_start: list[int] = field(default_factory=list)
    task_finish: list[int] = field(default_factory=list)
    #: Instructions the main thread spent blocked on joins.
    join_stall: int = 0

    @property
    def speedup(self) -> float:
        # makespan == 0 means the schedule ran nothing (no tasks, no
        # serial work). The honest answer is 0.0, not a fabricated
        # "x1.00" — estimate_speedup refuses such graphs up front.
        return self.t_seq / self.makespan if self.makespan else 0.0


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
        return self._run(self._inputs(graph), self.workers)[0]

    def sweep(self, graph: TaskGraph,
              worker_counts: list[int]) -> dict[int, ScheduleResult]:
        """Schedule the same graph for several worker counts (keyed in
        the order given), building the per-graph inputs once. Counts
        run in ascending order; once no task at count K waited for a
        worker, K's schedule is every larger count's too. That is
        exact: a larger count's heap of worker free times always holds
        the smaller one's entries, so no worker it pops frees later and
        every task starts as it did at K."""
        inputs = self._inputs(graph)
        results: dict[int, ScheduleResult] = {}
        settled: ScheduleResult | None = None
        for workers in sorted(set(worker_counts)):
            if workers < 1:
                raise ValueError("need at least one worker")
            if settled is None:
                result, waited = self._run(inputs, workers)
                if not waited:
                    settled = result
            else:
                result = replace(settled, workers=workers,
                                 task_start=list(settled.task_start),
                                 task_finish=list(settled.task_finish))
            results[workers] = result
        return {workers: results[workers] for workers in worker_counts}

    def _inputs(self, graph: TaskGraph) -> tuple:
        """What a schedule reads of ``graph``: task durations, each
        task's producers, each serial segment's joins (anti-edges
        added without privatization), the serial lengths and T_seq."""
        count = len(graph.tasks)
        deps = set(graph.task_deps)
        joins = {k: set(v) for k, v in graph.joins.items()}
        if not self.privatize:
            deps |= graph.anti_task_deps
            for segment, producers in graph.anti_joins.items():
                joins.setdefault(segment, set()).update(producers)
        producers_of: list[list[int]] = [[] for _ in range(count)]
        for src, dst in deps:
            producers_of[dst].append(src)
        joins_of = [tuple(joins.get(k, ())) for k in range(count + 1)]
        return ([task.duration for task in graph.tasks],
                [tuple(p) for p in producers_of], joins_of,
                graph.serial, graph.total_time)

    def _run(self, inputs: tuple,
             workers: int) -> tuple[ScheduleResult, bool]:
        """One schedule on ``workers`` workers, and whether any task
        waited for a free worker."""
        durations, producers_of, joins_of, serial, t_seq = inputs
        count = len(durations)
        spawn_overhead = self.spawn_overhead
        finish = [0] * count
        start = [0] * count
        # Workers as a min-heap of free times.
        worker_free = [0] * workers
        main_clock = 0
        join_stall = 0
        waited = False

        for k in range(count):
            # Serial segment k runs first; it may join on earlier tasks.
            ready = main_clock
            for producer in joins_of[k]:  # claim points
                if finish[producer] > ready:
                    ready = finish[producer]
            join_stall += ready - main_clock
            main_clock = ready + serial[k]
            # Spawn task k.
            main_clock += spawn_overhead
            earliest = main_clock
            for producer in producers_of[k]:
                if finish[producer] > earliest:
                    earliest = finish[producer]
            free = heapq.heappop(worker_free)
            if free > earliest:
                waited = True
                earliest = free
            end = earliest + durations[k]
            heapq.heappush(worker_free, end)
            start[k] = earliest
            finish[k] = end

        # Epilogue: the final serial segment, joining as required.
        ready = main_clock
        for producer in joins_of[count]:
            if finish[producer] > ready:
                ready = finish[producer]
        join_stall += ready - main_clock
        main_clock = ready + serial[count]
        # The program is done when the main thread and every future are.
        makespan = max([main_clock] + finish) if count else main_clock

        return ScheduleResult(
            workers=workers,
            t_seq=t_seq,
            makespan=makespan,
            task_start=start,
            task_finish=finish,
            join_stall=join_stall,
        ), waited
