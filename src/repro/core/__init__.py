"""The Alchemist profiler (paper §III).

Module map, following the paper's structure:

* :mod:`repro.core.blockdep` — the dependence engine behind every entry
  point: :mod:`repro.core.instances` applies the indexing rules (Fig. 5)
  to a block's events as instance rows, :mod:`repro.core.shadow`'s
  block kernel pairs RAW/WAR/WAW accesses, and Table II's walk runs
  over arrays;
* its per-event reference: :mod:`repro.core.node` / :mod:`.pool`
  (instances; Table I's lazy-retirement pool), :mod:`.indexing` (the
  indexing stack), :mod:`.profiler` (the per-edge Table II walk) and
  :mod:`.tracer`, which glues them to the tracer hooks (live, through
  the record→hook adapter);
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
