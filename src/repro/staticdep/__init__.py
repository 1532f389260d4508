"""Static dependence analysis over the MiniC IR (zero execution).

Public surface:

* :class:`StaticDepReport` — per-construct dependence classes with
  MUST_DEP / MAY_DEP / PROVEN_INDEPENDENT verdicts, plus
  ``classify_edge`` for dynamic :class:`~repro.core.profile_data.EdgeStats`
  keys;
* :func:`analyze_program` / :func:`report_for` — run (or memoize) the
  pass for a compiled :class:`~repro.ir.cfg.ProgramIR`;
* :func:`fuse_profile` — fold static verdicts into a dynamic dep
  result (each observed edge classified; contradictions counted);
* the model types: :class:`StaticVerdict`, :class:`Loc`,
  :class:`StaticClass`.
"""

from repro.staticdep.fuse import fuse_profile
from repro.staticdep.model import Loc, StaticClass, StaticVerdict
from repro.staticdep.pointsto import AccessModel
from repro.staticdep.report import StaticDepReport, analyze_program, report_for

__all__ = [
    "AccessModel",
    "Loc",
    "StaticClass",
    "StaticDepReport",
    "StaticVerdict",
    "analyze_program",
    "fuse_profile",
    "report_for",
]
