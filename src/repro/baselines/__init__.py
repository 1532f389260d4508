"""Baseline dependence profilers the paper compares against.

* :mod:`repro.baselines.flat_profiler` — context-insensitive
  aggregation by static statement pairs, the "traditional profiling"
  strawman of §III's opening paragraph.
* :mod:`repro.baselines.context_profiler` — context-sensitive
  dependence profiling in the style the paper's §III-B criticizes
  (dependences attributed to calling contexts, as in Ammons/Ball/Larus
  and the speculative-optimization profilers [6,8]). Its failure mode
  is reproducible: the four dependence placements of the paper's
  ``F``/``A``/``B`` example are indistinguishable to it.
* :mod:`repro.baselines.min_distance` — a TEST-style profiler (Chen &
  Olukotun, CGO'03) that reports the minimum dependence distance in
  *iterations* per loop. It covers loops only; Alchemist's
  construct-vs-continuation profile subsumes it.

All three run on Alchemist's own block engine: they detect dependences
with the pair kernel of :mod:`repro.core.shadow`, a block at a time,
so they see the same pairs and differ only in how they attribute them
(the loop baseline also takes its iterations from dep's instance
table). Their per-event references — tracers on the interpreter, one
hooked event at a time — live in ``tests/baselines/reference.py``.
"""

from repro.baselines.context_profiler import ContextBlocks, ContextProfile
from repro.baselines.flat_profiler import FlatBlocks, FlatProfile
from repro.baselines.min_distance import (LoopDistanceProfile,
                                          LoopDistances,
                                          profile_loop_distances)

__all__ = [
    "ContextBlocks",
    "ContextProfile",
    "FlatBlocks",
    "FlatProfile",
    "LoopDistanceProfile",
    "LoopDistances",
    "profile_loop_distances",
]
