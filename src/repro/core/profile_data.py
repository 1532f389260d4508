"""Per-construct profiles: durations, instance counts, min-Tdep edges.

``PROFILE`` in the paper is an array indexed by the construct's head pc;
here it is :class:`ProfileStore`, a dict keyed the same way. Each profile
accumulates

* ``total_duration`` / ``instances`` — the paper's ``Ttotal`` and
  ``inst``, folded from outermost instances only so recursion is not
  double counted (§III-B "Recursion");
* ``max_duration`` — largest single instance, used as the construct's
  ``Tdur`` in the violation test ``Tdep > Tdur`` (a profile aggregates
  many instances; using the maximum is the conservative choice);
* ``edges`` — per static dependence edge ``(head pc, tail pc, kind)``,
  the minimum observed ``Tdep`` and a hit count. The paper keeps the
  minimum because it bounds the exploitable concurrency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.constructs import StaticConstruct


class DepKind(enum.Enum):
    """Dependence flavours (paper §I): read-after-write, write-after-read,
    write-after-write."""

    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"

    # Every edge key holds a kind, and Enum's own __hash__ is Python
    # code; members are singletons, so the C identity hash is exact.
    __hash__ = object.__hash__


@dataclass
class EdgeStats:
    """Aggregate for one static dependence edge within one construct."""

    head_pc: int
    tail_pc: int
    kind: DepKind
    min_tdep: int
    count: int = 1
    #: Symbolic name of the first conflicting address observed (reports).
    var_hint: str = ""
    #: Tail timestamp of the first observation. Never serialized; the
    #: parallel-replay merge uses it to keep ``var_hint`` at the
    #: serially-first observation when partial profiles fold (tail
    #: timestamps are unique per edge, so "smallest first_t" is exactly
    #: "observed first").
    first_t: int = 0


@dataclass
class ConstructProfile:
    """Everything profiled about one static construct."""

    static: StaticConstruct
    total_duration: int = 0
    instances: int = 0
    max_duration: int = 0
    edges: dict[tuple[int, int, DepKind], EdgeStats] = field(
        default_factory=dict)

    @property
    def pc(self) -> int:
        return self.static.pc

    @property
    def tdur(self) -> int:
        """The construct's duration for the violation test (max instance)."""
        return self.max_duration

    @property
    def mean_duration(self) -> float:
        return self.total_duration / self.instances if self.instances else 0.0

    # -- queries -------------------------------------------------------------

    def edges_of(self, kind: DepKind) -> list[EdgeStats]:
        return [e for e in self.edges.values() if e.kind is kind]

    def violating_edges(self, kind: DepKind,
                        tdur: int | None = None,
                        include_induction: bool = False
                        ) -> list[EdgeStats]:
        """Static edges failing the paper's condition ``Tdep > Tdur``.

        Edges on the loop's own control variables are excluded by
        default: a compiled binary keeps loop counters in registers, so
        the paper's valgrind-based profiler never observes them (and
        iteration-distributing transformations rewrite them anyway).
        """
        bound = self.tdur if tdur is None else tdur
        induction = self.static.induction_vars
        edges = []
        for e in self.edges_of(kind):
            if e.min_tdep > bound:
                continue
            if (not include_induction and induction
                    and e.var_hint.split("[")[0] in induction):
                continue
            edges.append(e)
        return edges

    def violating_count(self, kind: DepKind) -> int:
        return len(self.violating_edges(kind))


class ProfileStore:
    """All construct profiles of a run, keyed by head pc."""

    def __init__(self) -> None:
        self.profiles: dict[int, ConstructProfile] = {}
        #: Dynamic construct instances (the paper's Table III 'Dynamic').
        self.dynamic_instances = 0

    def get_or_create(self, static: StaticConstruct) -> ConstructProfile:
        profile = self.profiles.get(static.pc)
        if profile is None:
            profile = ConstructProfile(static)
            self.profiles[static.pc] = profile
        return profile
