"""Static dependence report: per-construct classes and edge classification.

For every construct in the :class:`~repro.analysis.constructs.ConstructTable`
the report computes the set of pcs that can execute *while an instance of
the construct is live* — the construct's region blocks (the whole
function, for procedures) plus the transitive bodies of every function
called from them — and groups the traced may-accesses inside that set
into per-variable dependence classes (RAW / WAR / WAW), each carrying a
:class:`~repro.staticdep.model.StaticVerdict`.

``classify_edge`` answers the dual question for one observed dynamic
edge: given the ``(head_pc, tail_pc, kind)`` key of an
:class:`~repro.core.profile_data.EdgeStats`, is the edge certain
(``MUST_DEP``: both end points are must-alias accesses to one word),
possible (``MAY_DEP``), or impossible (``PROVEN_INDEPENDENT``: the
may-access sets are disjoint, or the head pc cannot execute inside the
construct at all)?
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.analysis.callgraph import recursive_functions
from repro.analysis.constructs import (ConstructKind, StaticConstruct,
                                       construct_table)
from repro.core.profile_data import DepKind
from repro.ir import instructions as ins
from repro.ir.cfg import ProgramIR

from repro.staticdep.model import Loc, StaticClass, StaticVerdict
from repro.staticdep.pointsto import EMPTY_LOCS, AccessModel

if TYPE_CHECKING:
    from repro.telemetry.spans import NullTelemetry, Telemetry

#: Ranking order for construct verdicts: best parallelization candidates
#: first.
_VERDICT_RANK = {"independent": 0, "may-dep": 1, "must-dep": 2}


class StaticDepReport:
    """The static pass's result for one program."""

    def __init__(self, program: ProgramIR) -> None:
        self.program = program
        self.table = construct_table(program)
        self.model = AccessModel(program)
        self.recursive: frozenset[str] = frozenset(recursive_functions(program))
        #: construct head pc -> pcs that may execute while an instance
        #: of the construct is live (region + transitive callee bodies).
        self.inside_pcs: dict[int, frozenset[int]] = {}
        #: construct head pc -> dependence classes, deterministic order.
        self.classes: dict[int, tuple[StaticClass, ...]] = {}
        self._fn_pcs: dict[str, tuple[int, ...]] = {
            fn.name: tuple(instr.pc for block in fn.blocks
                           for instr in block.instrs)
            for fn in program.functions.values()
        }
        for pc, construct in self.table.by_pc.items():
            inside = self._inside(construct)
            self.inside_pcs[pc] = inside
            self.classes[pc] = self._classes_of(construct, inside)

    # -- construction -------------------------------------------------

    def _inside(self, construct: StaticConstruct) -> frozenset[int]:
        fn = self.program.functions[construct.fn_name]
        if construct.kind is ConstructKind.PROCEDURE or construct.region is None:
            base = list(self._fn_pcs[fn.name])
        else:
            blocks = fn.block_map()
            base = [instr.pc for block_id in construct.region
                    for instr in blocks[block_id].instrs]
        pcs: set[int] = set(base)
        # Transitive closure over calls: callee bodies execute while the
        # construct instance is live, so their accesses belong to it.
        worklist = self._callees(base)
        seen: set[str] = set()
        while worklist:
            name = worklist.pop()
            if name in seen or name not in self.program.functions:
                continue
            seen.add(name)
            callee_pcs = self._fn_pcs[name]
            pcs.update(callee_pcs)
            worklist.extend(self._callees(callee_pcs))
        return frozenset(pcs)

    def _callees(self, pcs: "list[int] | tuple[int, ...]") -> list[str]:
        names: list[str] = []
        for pc in pcs:
            instr = self.program.instr_at(pc)
            if isinstance(instr, ins.Call):
                names.append(instr.name)
        return names

    def _classes_of(self, construct: StaticConstruct,
                    inside: frozenset[int]) -> tuple[StaticClass, ...]:
        readers: dict[Loc, list[int]] = {}
        writers: dict[Loc, list[int]] = {}
        for pc in sorted(inside):
            for loc in self.model.reads.get(pc, EMPTY_LOCS):
                readers.setdefault(loc, []).append(pc)
            for loc in self.model.writes.get(pc, EMPTY_LOCS):
                writers.setdefault(loc, []).append(pc)

        out: list[StaticClass] = []
        for loc in sorted(writers, key=Loc.label):
            w = tuple(writers[loc])
            r = tuple(readers.get(loc, ()))
            induction = (loc.kind == "local" and not loc.is_array
                         and loc.label() in construct.induction_vars)
            call_local = loc.kind == "ret"
            if r:
                out.append(StaticClass(DepKind.RAW, loc.label(),
                                       self._class_verdict(loc, w, r),
                                       induction, w, r, call_local))
                out.append(StaticClass(DepKind.WAR, loc.label(),
                                       self._class_verdict(loc, r, w),
                                       induction, r, w, call_local))
            out.append(StaticClass(DepKind.WAW, loc.label(),
                                   self._class_verdict(loc, w, w),
                                   induction, w, w, call_local))
        out.sort(key=lambda c: (c.var, c.kind.value))
        return tuple(out)

    def _class_verdict(self, loc: Loc, head_pcs: tuple[int, ...],
                       tail_pcs: tuple[int, ...]) -> StaticVerdict:
        """MUST iff the class provably conflicts on one word: the
        location is a must-word and some head/tail access pair resolves
        to exactly it (singleton may-sets). Otherwise MAY — the class
        exists because the sets overlap, but aliasing or region
        granularity keeps it uncertain."""
        if loc.must_word(self.recursive):
            heads = any(self._access_of(pc, loc) == {loc} for pc in head_pcs)
            tails = any(self._access_of(pc, loc) == {loc} for pc in tail_pcs)
            if heads and tails:
                return StaticVerdict.MUST_DEP
        return StaticVerdict.MAY_DEP

    def _access_of(self, pc: int, loc: Loc) -> frozenset[Loc]:
        """The may-access set (read or write) at ``pc`` containing ``loc``."""
        w = self.model.writes.get(pc, EMPTY_LOCS)
        if loc in w:
            return w
        return self.model.reads.get(pc, EMPTY_LOCS)

    # -- edge classification ------------------------------------------

    def classify_edge(self, construct_pc: int, head_pc: int, tail_pc: int,
                      kind: DepKind) -> StaticVerdict:
        """Classify one dynamic edge key against the static model."""
        inside = self.inside_pcs.get(construct_pc)
        if inside is not None and head_pc not in inside:
            # The head access cannot happen while an instance of this
            # construct is live.
            return StaticVerdict.PROVEN_INDEPENDENT
        if kind is DepKind.RAW:
            head = self.model.writes_at(head_pc)
            tail = self.model.reads_at(tail_pc)
        elif kind is DepKind.WAR:
            head = self.model.reads_at(head_pc)
            tail = self.model.writes_at(tail_pc)
        else:
            head = self.model.writes_at(head_pc)
            tail = self.model.writes_at(tail_pc)
        overlap = head & tail
        if not overlap:
            return StaticVerdict.PROVEN_INDEPENDENT
        if len(head) == 1 and head == tail:
            loc = next(iter(head))
            if loc.must_word(self.recursive):
                return StaticVerdict.MUST_DEP
        return StaticVerdict.MAY_DEP

    # -- construct-level queries --------------------------------------

    def raw_classes(self, construct_pc: int) -> tuple[StaticClass, ...]:
        """Non-induction, non-call-local RAW classes of a construct (the
        loop-carried flow dependences the static pass cannot rule out)."""
        return tuple(c for c in self.classes.get(construct_pc, ())
                     if c.kind is DepKind.RAW and not c.induction
                     and not c.call_local)

    def construct_verdict(self, construct_pc: int) -> str:
        """``independent`` / ``may-dep`` / ``must-dep`` from the
        construct's non-induction RAW classes."""
        raw = self.raw_classes(construct_pc)
        if any(c.verdict is StaticVerdict.MUST_DEP for c in raw):
            return "must-dep"
        if raw:
            return "may-dep"
        return "independent"

    # -- screening ----------------------------------------------------

    def screen_rows(self) -> list[dict[str, object]]:
        """All constructs ranked best-candidate-first: statically
        independent before may-dep before must-dep, bigger regions
        first within a tier."""
        rows: list[dict[str, object]] = []
        for pc in sorted(self.table.by_pc):
            construct = self.table.by_pc[pc]
            verdict = self.construct_verdict(pc)
            raw = self.raw_classes(pc)
            rows.append({
                "pc": pc,
                "name": construct.name,
                "kind": construct.kind.value,
                "fn": construct.fn_name,
                "line": construct.line,
                "verdict": verdict,
                "weight": len(self.inside_pcs[pc]),
                "must_raw": sorted(c.var for c in raw
                                   if c.verdict is StaticVerdict.MUST_DEP),
                "may_raw": sorted(c.var for c in raw
                                  if c.verdict is StaticVerdict.MAY_DEP),
            })
        rows.sort(key=lambda r: (_VERDICT_RANK[str(r["verdict"])],
                                 -int(str(r["weight"])), int(str(r["pc"]))))
        return rows

    def to_dict(self) -> dict[str, object]:
        """JSON-stable summary (no filesystem paths, sorted keys)."""
        rows = self.screen_rows()
        tally = {"independent": 0, "may-dep": 0, "must-dep": 0}
        for row in rows:
            tally[str(row["verdict"])] += 1
        return {
            "static_constructs": self.table.static_count(),
            "verdicts": tally,
            "rows": rows,
        }


def analyze_program(program: ProgramIR,
                    telemetry: "Telemetry | NullTelemetry | None" = None,
                    ) -> StaticDepReport:
    """Run the static pass under a ``static.analyze`` telemetry span."""
    from repro.telemetry import as_telemetry
    tm = as_telemetry(telemetry)
    with tm.span("static.analyze",
                 functions=len(program.functions)) as span:
        report = StaticDepReport(program)
        span.set(constructs=report.table.static_count())
    return report


def report_for(program: ProgramIR,
               telemetry: "Telemetry | NullTelemetry | None" = None,
               ) -> StaticDepReport:
    """Memoized :func:`analyze_program` — every analysis pass over the
    same compiled program shares one static report. The memo lives on
    the program (``ProgramIR.memo``) and the memoised report refers to
    the program weakly, so reference counting frees the program, and
    the report with it, once its last user lets go; a strong reference
    back would make the two cyclic garbage until a full collection."""
    report = program.memo.get("static_report")
    if not isinstance(report, StaticDepReport):
        report = analyze_program(program, telemetry)
        report.program = weakref.proxy(program)
        program.memo["static_report"] = report
    return report
