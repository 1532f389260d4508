"""The Alchemist profiler (paper §III).

Module map, following the paper's structure:

* :mod:`repro.core.blockdep` — the dependence engine behind every entry
  point: :mod:`repro.core.instances` applies the indexing rules (Fig. 5)
  to a block's events as instance rows, :mod:`repro.core.shadow`'s
  block kernel pairs RAW/WAR/WAW accesses, and Table II's walk runs
  over arrays;
* :mod:`repro.core.node` / :mod:`repro.core.pool` — construct
  instance nodes and Table I's lazy-retirement pool, the paper's
  allocation discipline as an exposition. The per-event engine that
  drives them (indexing stack, dict shadow, per-edge Table II walk,
  tracer hooks) lives in ``tests/core/reference.py`` as the oracle the
  block engine is tested against;
* :mod:`repro.core.profile_data` — per-construct profiles with min-Tdep
  edges;
* :mod:`repro.core.report` / :mod:`repro.core.advisor` — ranked output
  and parallelization guidance;
* :mod:`repro.core.treedump` — materialized execution index trees
  (Fig. 4) for small runs;
* :mod:`repro.core.alchemist` — the user-facing facade.
"""

from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.advisor import Advisor, Recommendation
from repro.core.annotate import AnnotatedSource, annotate, annotate_text
from repro.core.profile_data import DepKind
from repro.core.report import ProfileReport
from repro.core.treedump import IndexTree, record_index_tree

__all__ = [
    "Alchemist",
    "ProfileOptions",
    "Advisor",
    "Recommendation",
    "DepKind",
    "ProfileReport",
    "IndexTree",
    "record_index_tree",
    "AnnotatedSource",
    "annotate",
    "annotate_text",
]
