"""Future-execution simulation (reproduces the paper's Table V).

The paper parallelizes constructs by hand with pthreads and measures
wall-clock speedups on a 4-core Opteron. This reproduction extracts the
*task graph* of a chosen construct from a profiled sequential run —
construct instances become tasks, code between them becomes a serial
chain, profiled dependences become precedence/join constraints — and
list-schedules it on K simulated workers. The ratio of sequential to
simulated-parallel instruction time is the predicted speedup.

WAR/WAW constraints can be dropped (``privatize=True``) to model the
paper's privatization transformations; keeping them is the ablation
showing why those transformations matter.
"""

from repro.parallel.estimator import (EstimatorError, SpeedupResult,
                                      estimate_speedup, find_construct,
                                      simulate_speedup)
from repro.parallel.simulator import (FutureSimulator, ScheduleResult,
                                      SweepPoint)
from repro.parallel.taskgraph import (LiveSource, TaskGraph, TraceSource,
                                      extract_task_graphs)

__all__ = [
    "TaskGraph",
    "LiveSource",
    "TraceSource",
    "extract_task_graphs",
    "FutureSimulator",
    "ScheduleResult",
    "SweepPoint",
    "SpeedupResult",
    "EstimatorError",
    "estimate_speedup",
    "find_construct",
    "simulate_speedup",
]
