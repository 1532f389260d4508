"""Parallelization advisor: turns profiles into actionable guidance.

Implements the decision procedure of paper §II:

* a construct whose RAW dependences all satisfy ``Tdep > Tdur`` can be
  spawned as a future and joined at the first conflicting read
  (``READY``);
* violating WAR/WAW dependences call for privatization or hoisting of
  the conflicting variables (``TRANSFORM``), as the paper does for
  gzip's ``flag_buf``/``last_flags`` and bzip2's ``bzf``;
* violating RAW dependences block asynchronous execution (``BLOCKED``)
  — the Delaunay benchmark is the paper's example of a program whose
  hot constructs are all blocked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.profile_data import DepKind, EdgeStats
from repro.core.report import ConstructView, ProfileReport

if TYPE_CHECKING:
    from repro.staticdep.report import StaticDepReport

#: Confidence tiers for a recommendation, from static/dynamic agreement:
#: ``must`` — the static pass proves the dynamic verdict (every blocking
#: RAW edge is a MUST_DEP, or no loop-carried RAW class survives
#: statically); ``may`` — static analysis leaves room for the dynamic
#: picture to be incomplete (aliasing, arrays, input); ``dynamic-only``
#: — no static report was supplied.
CONFIDENCE_MUST = "must"
CONFIDENCE_MAY = "may"
CONFIDENCE_DYNAMIC = "dynamic-only"


class Verdict(enum.Enum):
    """How ready a construct is for asynchronous execution."""

    READY = "ready"           # future annotation suffices
    TRANSFORM = "transform"   # privatize WAR/WAW conflicts first
    BLOCKED = "blocked"       # violating RAW dependences remain

    def order(self) -> int:
        return {"ready": 0, "transform": 1, "blocked": 2}[self.value]


@dataclass
class Recommendation:
    """Guidance for one construct."""

    view: ConstructView
    verdict: Verdict
    score: float
    blocking_raw: list[EdgeStats] = field(default_factory=list)
    privatize: list[str] = field(default_factory=list)
    join_hints: list[EdgeStats] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    confidence: str = CONFIDENCE_DYNAMIC

    @property
    def blocked_reason(self) -> str | None:
        """Why this construct must be skipped by a what-if sweep, or
        ``None`` when it is simulatable. The what-if advisor reports
        this verbatim instead of fabricating a speedup for a construct
        the paper's transformations cannot unlock."""
        if self.verdict is not Verdict.BLOCKED:
            return None
        edges = self.blocking_raw
        sites = sorted({e.var_hint or f"pc{e.head_pc}" for e in edges})
        shown = ", ".join(sites[:4]) + (", ..." if len(sites) > 4 else "")
        return (f"{len(edges)} violating RAW edge(s) between instances "
                f"({shown}); continuation reads values produced too "
                "late")

    def summary(self) -> dict:
        """Deterministic, JSON-able digest of this recommendation."""
        return {
            "name": self.view.name,
            "pc": self.view.pc,
            "line": self.view.line,
            "fn": self.view.fn_name,
            "kind": self.view.kind.value,
            "verdict": self.verdict.value,
            "score": round(self.score, 6),
            "size_fraction": round(self.view.size_fraction(), 6),
            "instances": self.view.instances,
            "privatize": list(self.privatize),
            "blocking_raw": len(self.blocking_raw),
            "join_hints": len(self.join_hints),
            "notes": list(self.notes),
            "confidence": self.confidence,
        }

    def describe(self) -> str:
        lines = [f"{self.view.describe()} -> {self.verdict.value.upper()}"
                 f" (score {self.score:.3f})"]
        if self.blocking_raw:
            lines.append(f"  blocking RAW edges: {len(self.blocking_raw)}")
        if self.privatize:
            lines.append("  privatize: " + ", ".join(self.privatize))
        if self.join_hints:
            lines.append(f"  join before {len(self.join_hints)} "
                         "read site(s) to respect remaining RAW edges")
        if self.confidence != CONFIDENCE_DYNAMIC:
            lines.append(f"  confidence: {self.confidence} "
                         "(static dependence pass)")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


class Advisor:
    """Ranks constructs and derives the required transformations."""

    def __init__(self, report: ProfileReport,
                 min_size_fraction: float = 0.005,
                 static_report: "StaticDepReport | None" = None):
        self.report = report
        self.min_size_fraction = min_size_fraction
        self.static_report = static_report

    def recommend(self, top: int = 10) -> list[Recommendation]:
        """Ranked recommendations: parallelizable first, largest first."""
        recs = []
        for view in self.report.constructs():
            if view.size_fraction() < self.min_size_fraction:
                continue
            recs.append(self.assess(view))
        recs.sort(key=lambda r: (r.verdict.order(), -r.score))
        return recs[:top]

    def assess(self, view: ConstructView) -> Recommendation:
        """Build the recommendation for one construct.

        Violating RAW edges *between instances* block parallelization;
        violating RAW edges into the *continuation* are deferrable by
        joining the future before the conflicting read (paper §II), so
        they become join hints rather than blockers.
        """
        blocking = view.violating_internal(DepKind.RAW)
        deferrable = view.violating_continuation(DepKind.RAW)
        safe_raw = deferrable + [e for e in view.edges(DepKind.RAW)
                                 if e.min_tdep > view.tdur]
        # Order by the serially-first conflicting write (EdgeStats
        # pins first_t to the first observation), name as tie-break: a
        # total order, so serial and merged-parallel profiles — whose
        # edge dicts iterate differently — advise identically.
        first_seen: dict[str, int] = {}
        for kind in (DepKind.WAW, DepKind.WAR):
            for edge in view.violating(kind):
                hint = edge.var_hint or f"pc{edge.head_pc}"
                base = hint.split("[")[0]
                if base not in first_seen or edge.first_t < first_seen[base]:
                    first_seen[base] = edge.first_t
        privatize = sorted(first_seen, key=lambda b: (first_seen[b], b))

        if blocking:
            verdict = Verdict.BLOCKED
        elif privatize:
            verdict = Verdict.TRANSFORM
        else:
            verdict = Verdict.READY

        notes = []
        if verdict is Verdict.READY and deferrable:
            notes.append("annotate as future; join before the listed "
                         "reads to respect the remaining RAW edges")
        elif verdict is Verdict.READY and safe_raw:
            notes.append("annotate as future; all RAW distances exceed "
                         "the construct duration")
        if verdict is Verdict.TRANSFORM:
            notes.append("make private copies of the listed variables "
                         "(or hoist their updates into the continuation)")
        if verdict is Verdict.BLOCKED:
            notes.append("continuation reads values produced too late; "
                         "restructure or pick another construct")

        score = view.size_fraction() * (
            1.0 / (1.0 + len(blocking)))
        return Recommendation(
            view=view,
            verdict=verdict,
            score=score,
            blocking_raw=blocking,
            privatize=privatize,
            join_hints=safe_raw,
            notes=notes,
            confidence=self._confidence(view, verdict, blocking),
        )

    def _confidence(self, view: ConstructView, verdict: Verdict,
                    blocking: list[EdgeStats]) -> str:
        """Agreement tier between the dynamic verdict and the static
        pass. ``BLOCKED`` is *must*-confident when every blocking RAW
        edge is statically certain (MUST_DEP); ``READY``/``TRANSFORM``
        are *must*-confident when the static pass finds no loop-carried
        RAW class at all — nothing a different input could reveal.
        Anything the static pass cannot pin down stays ``may``.
        """
        static = self.static_report
        if static is None:
            return CONFIDENCE_DYNAMIC
        from repro.staticdep.model import StaticVerdict
        if verdict is Verdict.BLOCKED:
            certain = all(
                static.classify_edge(view.pc, e.head_pc, e.tail_pc,
                                     DepKind.RAW) is StaticVerdict.MUST_DEP
                for e in blocking)
            return CONFIDENCE_MUST if certain else CONFIDENCE_MAY
        if static.raw_classes(view.pc):
            return CONFIDENCE_MAY
        return CONFIDENCE_MUST
