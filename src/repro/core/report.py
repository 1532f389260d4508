"""Profile reports: the queryable result of an Alchemist run.

A :class:`ProfileReport` joins the static construct table with the
collected profiles and answers every question the paper's evaluation
asks:

* ranked constructs by executed instructions (Fig. 2's listing);
* violating static dependences per construct — edges failing
  ``Tdep > Tdur`` (Fig. 6's y-axis; Table IV's conflict counts);
* normalized (size, violations) series for the Fig. 6 scatter plots,
  including the paper's "remove the parallelized construct and its
  per-instance-singleton descendants" refinement step (Fig. 6(b));
* per-source-line conflict summaries (Table IV).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.analysis.callgraph import call_sites
from repro.analysis.constructs import (ConstructKind, ConstructTable,
                                       StaticConstruct)
from repro.core.pool import PoolStats
from repro.core.profile_data import (ConstructProfile, DepKind, EdgeStats,
                                     ProfileStore)
from repro.ir.cfg import ProgramIR


@dataclass
class RunStats:
    """Execution statistics reported with every profile."""

    wall_seconds: float = 0.0
    baseline_seconds: float | None = None
    instructions: int = 0
    dynamic_instances: int = 0
    static_constructs: int = 0
    max_index_depth: int = 0
    raw_events: int = 0
    war_events: int = 0
    waw_events: int = 0
    edges_profiled: int = 0
    pool: PoolStats = field(default_factory=PoolStats)

    @property
    def slowdown(self) -> float | None:
        """Profiled / baseline wall time (the paper's 166x-712x factor)."""
        if self.baseline_seconds and self.baseline_seconds > 0:
            return self.wall_seconds / self.baseline_seconds
        return None


class ConstructView:
    """One construct's profile, bound to a report for derived metrics."""

    def __init__(self, report: "ProfileReport", profile: ConstructProfile):
        self._report = report
        self.profile = profile
        self.static: StaticConstruct = profile.static

    # -- identity -------------------------------------------------------------

    @property
    def pc(self) -> int:
        return self.static.pc

    @property
    def name(self) -> str:
        return self.static.name

    @property
    def kind(self) -> ConstructKind:
        return self.static.kind

    @property
    def line(self) -> int:
        return self.static.line

    @property
    def fn_name(self) -> str:
        return self.static.fn_name

    # -- metrics ---------------------------------------------------------------

    @property
    def total_duration(self) -> int:
        return self.profile.total_duration

    @property
    def instances(self) -> int:
        return self.profile.instances

    @property
    def tdur(self) -> int:
        return self.profile.tdur

    def size_fraction(self) -> float:
        """Duration normalized to total executed instructions (Fig. 6 x)."""
        total = self._report.stats.instructions
        return self.total_duration / total if total else 0.0

    def edges(self, kind: DepKind) -> list[EdgeStats]:
        return self.profile.edges_of(kind)

    def violating(self, kind: DepKind) -> list[EdgeStats]:
        return self.profile.violating_edges(kind)

    def violating_count(self, kind: DepKind) -> int:
        return len(self.violating(kind))

    def _tail_inside(self, edge: EdgeStats) -> bool:
        """Is the edge's tail inside this construct (a cross-instance
        dependence) rather than in the continuation?

        "Inside" covers the construct's own blocks *and* any function
        whose every call site lies within them (transitively): a helper
        called only from a loop body executes as part of the loop, so a
        dependence landing in it is iteration-carried, not a
        continuation conflict.
        """
        pc_block = self._report._pc_block_map()
        block = pc_block.get(edge.tail_pc)
        if self.static.kind is ConstructKind.PROCEDURE:
            fn = self._report.program.functions[self.static.fn_name]
            region = {b.id for b in fn.blocks}
        else:
            region = set(self.static.region or frozenset())
        if block in region:
            return True
        tail_fn = self._report.program.fn_of(edge.tail_pc)
        return tail_fn in self._report._contained_functions_cached(
            self.pc, frozenset(region))

    def violating_internal(self, kind: DepKind) -> list[EdgeStats]:
        """Violating edges between instances of this construct — these
        genuinely block parallel execution of the instances."""
        return [e for e in self.violating(kind) if self._tail_inside(e)]

    def violating_continuation(self, kind: DepKind) -> list[EdgeStats]:
        """Violating edges into the continuation — handled by joining
        the future before the conflicting access (paper §II)."""
        return [e for e in self.violating(kind)
                if not self._tail_inside(e)]

    def violation_fraction(self, kind: DepKind = DepKind.RAW) -> float:
        """Violating static edges normalized to the program-wide total of
        violating edges of that kind (Fig. 6 y)."""
        total = self._report.total_violating(kind)
        return self.violating_count(kind) / total if total else 0.0

    # -- rendering ---------------------------------------------------------------

    def describe(self) -> str:
        """Fig. 2 header style: 'Method flush_block Tdur=..., inst=...'."""
        kind_word = {
            ConstructKind.PROCEDURE: "Method",
            ConstructKind.LOOP: "Loop",
            ConstructKind.COND: "Cond",
        }[self.kind]
        return (f"{kind_word} {self.name} Tdur={self.total_duration}, "
                f"inst={self.instances}")

    def edge_lines(self, kinds: tuple[DepKind, ...] = (DepKind.RAW,),
                   limit: int = 10, violating_first: bool = True
                   ) -> list[str]:
        """Fig. 2/3 edge rows: 'RAW: line 28 -> line 10 Tdep=3 [outcnt]'."""
        program = self._report.program
        selected: list[tuple[bool, EdgeStats]] = []
        for kind in kinds:
            bound = self.tdur
            for edge in self.profile.edges_of(kind):
                selected.append((edge.min_tdep <= bound, edge))
        if violating_first:
            # Total order: the tail of the key pins ties that would
            # otherwise fall back to dict insertion order, which
            # differs between a serial replay and a parallel merge.
            kind_rank = {kind: rank for rank, kind in enumerate(kinds)}
            selected.sort(key=lambda pair: (
                not pair[0], pair[1].min_tdep, kind_rank[pair[1].kind],
                pair[1].head_pc, pair[1].tail_pc))
        lines = []
        for is_violating, edge in selected[:limit]:
            head_line = program.loc_of(edge.head_pc)[0]
            tail_line = program.loc_of(edge.tail_pc)[0]
            marker = " *" if is_violating else ""
            hint = f" [{edge.var_hint}]" if edge.var_hint else ""
            lines.append(
                f"  {edge.kind.value}: line {head_line} -> line {tail_line}"
                f" Tdep={edge.min_tdep}{hint}{marker}")
        return lines


@dataclass
class Fig6Row:
    """One point of a Fig. 6 scatter: construct label, normalized size,
    normalized violating static RAW dependences."""

    label: str
    view: ConstructView
    norm_size: float
    norm_violations: float


@dataclass
class ConflictCounts:
    """Table IV row: violating static dependences at a parallelized
    location."""

    location: str
    raw: int
    waw: int
    war: int


class ProfileReport:
    """The result of one profiled execution."""

    def __init__(self, program: ProgramIR, table: ConstructTable,
                 store: ProfileStore, stats: RunStats,
                 exit_value: int = 0,
                 output: list[tuple[int, ...]] | None = None):
        self.program = program
        self.table = table
        self.store = store
        self.stats = stats
        self.exit_value = exit_value
        self.output = output if output is not None else []
        #: pc -> the view handed out for it, held weakly: a view refers
        #: to its report, so a strong cache would make each view and its
        #: report cyclic garbage.
        self._views: weakref.WeakValueDictionary[int, ConstructView] = \
            weakref.WeakValueDictionary()
        self._totals: dict[DepKind, int] = {}
        self._pc_block: dict[int, int] | None = None
        self._contained_cache: dict[int, set[str]] = {}

    # -- basic queries ------------------------------------------------------------

    def constructs(self) -> list[ConstructView]:
        """All executed constructs, largest first."""
        return sorted(self._all_views(),
                      key=lambda v: (-v.total_duration, v.pc))

    def top_constructs(self, count: int = 10,
                       kind: ConstructKind | None = None,
                       min_duration: int = 0) -> list[ConstructView]:
        views = [v for v in self.constructs()
                 if v.total_duration >= min_duration
                 and (kind is None or v.kind is kind)]
        return views[:count]

    def view(self, pc: int) -> ConstructView:
        view = self._views.get(pc)
        if view is None:
            view = self._views[pc] = ConstructView(self,
                                                   self.store.profiles[pc])
        return view

    def _all_views(self) -> list[ConstructView]:
        return [self.view(pc) for pc in self.store.profiles]

    def views_at_line(self, line: int,
                      fn_name: str | None = None) -> list[ConstructView]:
        """Constructs whose head predicate sits on a source line; loops
        first (the paper names parallelized regions by line)."""
        matches = [v for v in self._all_views()
                   if v.line == line
                   and (fn_name is None or v.fn_name == fn_name)]
        order = {ConstructKind.LOOP: 0, ConstructKind.PROCEDURE: 1,
                 ConstructKind.COND: 2}
        matches.sort(key=lambda v: (order[v.kind], -v.total_duration))
        return matches

    def total_violating(self, kind: DepKind) -> int:
        """Program-wide count of violating static edges (Fig. 6's
        normalization denominator)."""
        total = self._totals.get(kind)
        if total is None:
            total = sum(v.violating_count(kind)
                        for v in self._all_views())
            self._totals[kind] = total
        return total

    # -- Fig. 6 -------------------------------------------------------------------

    def fig6_series(self, top: int = 12,
                    exclude: set[int] | None = None,
                    include_main: bool = False) -> list[Fig6Row]:
        """The (normalized size, normalized violating static RAW) series
        for the largest constructs, labelled C1, C2, ... like Fig. 6.

        ``main`` itself is omitted by default: its normalized size is
        trivially 1.0 and it is not a parallelization candidate, so the
        paper's figures start at the largest real construct.
        """
        exclude = exclude or set()
        views = [v for v in self.constructs()
                 if v.pc not in exclude
                 and (include_main or not (
                     v.kind is ConstructKind.PROCEDURE
                     and v.fn_name == "main"))]
        rows = []
        for i, view in enumerate(views[:top], start=1):
            rows.append(Fig6Row(
                label=f"C{i}",
                view=view,
                norm_size=view.size_fraction(),
                norm_violations=view.violation_fraction(DepKind.RAW),
            ))
        return rows

    def nested_singletons(self, pc: int) -> set[int]:
        """Constructs with exactly one instance per instance of the
        construct at ``pc`` that are statically nested inside it.

        This is the paper's Fig. 6(b) refinement: once C1 is
        parallelized, such constructs are "parallelized too" and are
        removed before looking for the next candidate.
        """
        if pc not in self.store.profiles:
            return set()
        center = self.view(pc)
        static = center.static
        # Blocks belonging to the construct.
        if static.kind is ConstructKind.PROCEDURE:
            fn = self.program.functions[static.fn_name]
            region = {block.id for block in fn.blocks}
        else:
            region = set(static.region or ())
        # Functions whose every call site lies inside the region (or inside
        # a function already swallowed) execute only as part of C.
        contained_fns = self._contained_functions(region)
        pc_block = self._pc_block_map()
        nested: set[int] = set()
        for view in self._all_views():
            if view.pc == pc:
                continue
            inside = False
            if view.fn_name in contained_fns:
                inside = True
            elif view.fn_name == static.fn_name:
                block = pc_block.get(view.pc)
                inside = block in region
            if inside and view.instances == center.instances:
                nested.add(view.pc)
        return nested

    def _contained_functions_cached(self, pc: int,
                                    region: frozenset[int]) -> set[str]:
        """Per-construct cache for :meth:`_contained_functions` (the
        edge-classification path calls it once per edge)."""
        cached = self._contained_cache.get(pc)
        if cached is None:
            cached = self._contained_functions(set(region))
            self._contained_cache[pc] = cached
        return cached

    def _contained_functions(self, region: set[int]) -> set[str]:
        sites = call_sites(self.program)
        pc_block = self._pc_block_map()
        contained: set[str] = set()
        changed = True
        while changed:
            changed = False
            for fn_name, pcs in sites.items():
                if fn_name in contained or fn_name == "main":
                    continue
                def swallowed(site_pc: int) -> bool:
                    if pc_block.get(site_pc) in region:
                        return True
                    return self.program.fn_of(site_pc) in contained
                if pcs and all(swallowed(site) for site in pcs):
                    contained.add(fn_name)
                    changed = True
        return contained

    def _pc_block_map(self) -> dict[int, int]:
        if self._pc_block is None:
            mapping: dict[int, int] = {}
            for block_id, block in self.program.blocks_by_id.items():
                for instr in block.instrs:
                    mapping[instr.pc] = block_id
            self._pc_block = mapping
        return self._pc_block

    # -- Table IV --------------------------------------------------------------------

    def location_conflicts(self, line: int,
                           fn_name: str | None = None) -> ConflictCounts:
        """Violating static RAW/WAW/WAR counts for the construct at a
        source location (Table IV)."""
        views = self.views_at_line(line, fn_name)
        if not views:
            raise KeyError(f"no profiled construct at line {line}")
        view = views[0]
        where = f"{view.fn_name}:{line} ({view.name})"
        return ConflictCounts(
            location=where,
            raw=view.violating_count(DepKind.RAW),
            waw=view.violating_count(DepKind.WAW),
            war=view.violating_count(DepKind.WAR),
        )

    # -- rendering --------------------------------------------------------------------

    def to_text(self, top: int = 10, max_edges: int = 8,
                kinds: tuple[DepKind, ...] = (DepKind.RAW,)) -> str:
        """Fig. 2-style profile listing."""
        lines = [
            f"Profile: {self.stats.instructions} instructions, "
            f"{self.stats.dynamic_instances} dynamic construct instances, "
            f"{self.stats.static_constructs} static constructs",
        ]
        for i, view in enumerate(self.top_constructs(top), start=1):
            lines.append(f"{i}. {view.describe()}")
            lines.extend(view.edge_lines(kinds, max_edges))
        return "\n".join(lines)

    def describe_run(self) -> str:
        s = self.stats
        parts = [
            f"instructions={s.instructions}",
            f"dynamic_constructs={s.dynamic_instances}",
            f"static_constructs={s.static_constructs}",
            f"raw_events={s.raw_events}",
            f"war_events={s.war_events}",
            f"waw_events={s.waw_events}",
            f"pool_capacity={s.pool.capacity}",
            f"max_depth={s.max_index_depth}",
            f"wall={s.wall_seconds:.3f}s",
        ]
        if s.slowdown is not None:
            parts.append(f"slowdown={s.slowdown:.1f}x")
        return " ".join(parts)
