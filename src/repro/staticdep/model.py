"""Verdict lattice and abstract memory locations of the static pass.

The static analyzer reasons about *abstract locations* — variable-granular
summaries of the interpreter's address space — and classifies potential
dependences into a three-point lattice:

``MUST_DEP``
    both end points access the same single memory word on every execution
    in which they run (a must-alias pair: a global scalar, or a local
    scalar / return cell of a non-recursive function);
``MAY_DEP``
    the end points' may-access sets overlap but are not provably one
    word (array elements, heap blocks, aliased pointers, recursive
    frames);
``PROVEN_INDEPENDENT``
    the may-access sets are disjoint — no execution can make the two
    end points touch the same address, so a full dynamic profile can
    never observe this edge (the soundness oracle in
    ``tests/staticdep/test_soundness.py`` enforces exactly this).

Soundness rests on two standard assumptions, documented in
``docs/static-analysis.md``: programs do not forge pointers from
integer literals (addresses only arise from ``&``, ``malloc`` and
array decay) and are memory-safe (pointer arithmetic stays within the
pointed-to object).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.profile_data import DepKind


class StaticVerdict(enum.Enum):
    """Static classification of one potential dependence."""

    MUST_DEP = "must"
    MAY_DEP = "may"
    PROVEN_INDEPENDENT = "independent"

    def order(self) -> int:
        """Severity order: independent < may < must."""
        return {"independent": 0, "may": 1, "must": 2}[self.value]


@dataclass(frozen=True)
class Loc:
    """One abstract memory location (variable-granular).

    ``kind`` is one of ``"global"``, ``"local"``, ``"ret"`` (a frame's
    return-value cell) or ``"heap"`` (one allocation site). Scalars are
    exact words; arrays, heap blocks and recursive-function locals are
    region-granular, so overlap on them is only ever a may-dependence.
    """

    kind: str
    fn: str
    name: str
    offset: int
    is_array: bool

    def label(self) -> str:
        """Human-readable name, matching the dynamic ``var_hint``
        naming where possible (``g``, ``fn.var``, ``retval(fn)``)."""
        if self.kind == "global":
            return self.name
        if self.kind == "local":
            return f"{self.fn}.{self.name}"
        if self.kind == "ret":
            return f"retval({self.fn})"
        return self.name  # heap@<pc>

    def must_word(self, recursive_fns: frozenset[str]) -> bool:
        """True when every dynamic access to this location hits the
        same single word: global scalars always; local scalars and
        return cells only outside recursion (each recursive activation
        owns a distinct frame)."""
        if self.is_array or self.kind == "heap":
            return False
        if self.kind == "global":
            return True
        return self.fn not in recursive_fns


@dataclass(frozen=True)
class StaticClass:
    """One (construct, variable, kind) dependence class.

    ``head_pcs``/``tail_pcs`` follow the dynamic edge orientation:
    writers→readers for RAW, readers→writers for WAR, writers→writers
    for WAW — so an observed :class:`~repro.core.profile_data.EdgeStats`
    key ``(head_pc, tail_pc, kind)`` falls in this class exactly when
    ``kind`` matches and ``head_pc in head_pcs``.
    """

    kind: DepKind
    var: str
    verdict: StaticVerdict
    induction: bool
    head_pcs: tuple[int, ...]
    tail_pcs: tuple[int, ...]
    #: Return-cell classes: the callee's ``Ret`` writes the word and the
    #: call site consumes it immediately, inside one construct instance —
    #: a real dependence, but never a loop-carried one, so construct
    #: verdicts skip these.
    call_local: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "var": self.var,
            "verdict": self.verdict.value,
            "induction": self.induction,
            "call_local": self.call_local,
            "head_pcs": list(self.head_pcs),
            "tail_pcs": list(self.tail_pcs),
        }
