"""Fusing the static pass into dynamic dependence results.

Called from the ``dep`` analysis's result builder (serial finish and
parallel ``merge_segments`` alike, so live, replay and parallel modes
stay byte-identical). It classifies every observed dynamic edge against
the static model. A trace holds every event, so a ``PROVEN_INDEPENDENT``
classification is a *contradiction* — the soundness oracle asserts
there are none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.profile_data import DepKind
from repro.core.report import ProfileReport

from repro.staticdep.model import StaticVerdict
from repro.staticdep.report import StaticDepReport, report_for

if TYPE_CHECKING:
    from repro.telemetry.spans import NullTelemetry, Telemetry


def _edge_key(head_pc: int, tail_pc: int, kind: DepKind) -> str:
    return f"{head_pc}->{tail_pc}:{kind.value}"


def fuse_profile(report: ProfileReport, static: StaticDepReport,
                 telemetry: "Telemetry | NullTelemetry | None" = None,
                 ) -> tuple[dict[str, object], list[str]]:
    """Classify a profile's edges statically; returns the ``static``
    payload for the analysis result plus rendered text lines."""
    from repro.telemetry import as_telemetry
    tm = as_telemetry(telemetry)
    with tm.span("static.fuse") as span:
        payload, lines = _fuse(report, static)
        span.set(edges=payload["edges_checked"],
                 contradictions=payload["contradictions"])
    return payload, lines


def _fuse(report: ProfileReport, static: StaticDepReport
          ) -> tuple[dict[str, object], list[str]]:
    constructs: dict[str, dict[str, object]] = {}
    checked = confirmed = possible = refuted = 0

    for view in report.constructs():
        edges: dict[str, str] = {}
        for (head, tail, kind), _stats in sorted(
                view.profile.edges.items(),
                key=lambda item: (item[0][0], item[0][1], item[0][2].value)):
            verdict = static.classify_edge(view.pc, head, tail, kind)
            edges[_edge_key(head, tail, kind)] = verdict.value
            checked += 1
            if verdict is StaticVerdict.MUST_DEP:
                confirmed += 1
            elif verdict is StaticVerdict.MAY_DEP:
                possible += 1
            else:
                refuted += 1
        if edges:
            constructs[str(view.pc)] = {"edges": edges}

    payload: dict[str, object] = {
        "edges_checked": checked,
        "confirmed_must": confirmed,
        "possible_may": possible,
        "contradictions": refuted,
        "constructs": constructs,
    }
    lines = [
        f"Static fusion: {checked} edge(s) checked against the static "
        f"pass; {confirmed} confirmed MUST_DEP, {possible} MAY_DEP, "
        f"{refuted} contradiction(s)."]
    return payload, lines


__all__ = ["fuse_profile", "report_for"]
