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

All three detect dependences on Alchemist's own
:class:`~repro.core.shadow.ShadowMemory`, so they see the same pairs
and differ only in how they attribute them.
"""

from repro.baselines.context_profiler import (ContextProfile,
                                              ContextSensitiveTracer)
from repro.baselines.flat_profiler import FlatProfile, FlatTracer
from repro.baselines.min_distance import (LoopDistanceProfile,
                                          MinDistanceTracer,
                                          profile_loop_distances)

__all__ = [
    "ContextProfile",
    "ContextSensitiveTracer",
    "FlatProfile",
    "FlatTracer",
    "LoopDistanceProfile",
    "MinDistanceTracer",
    "profile_loop_distances",
]
