"""Flat (context-insensitive) dependence profiling — the weakest foil.

"Most traditional profiling techniques simply aggregate information
according to static artifacts such as instructions and functions"
(paper §III, opening). This profiler is that strawman made concrete:
every dependence is attributed to its static ``(head pc, tail pc)``
pair and nothing else — no calling context, no loop iterations, no
construct nesting. It can answer "is there *ever* a dependence between
these two statements, and how close does it get?", but not "does it
cross the loop boundary?", which is the question parallelization needs
(the paper's Fig. 4(c) discussion).

Detection is the pair kernel of :mod:`repro.core.shadow` with payload
0, so the pair stream is exactly Alchemist's.

Used by ``benchmarks/bench_baselines.py`` to render the §III-B
four-case experiment: flat and context-sensitive profiles are
identical across all four variants; Alchemist's index tree separates
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.profile_data import DepKind
from repro.core.shadow import PAIR_KINDS, ShadowArrays, group_pairs
from repro.ir.cfg import ProgramIR


@dataclass
class FlatEdge:
    """One static dependence edge, aggregated over the whole run."""

    head_pc: int
    tail_pc: int
    kind: DepKind
    min_tdep: int
    count: int = 1

    def observe(self, tdep: int) -> None:
        self.count += 1
        if tdep < self.min_tdep:
            self.min_tdep = tdep


@dataclass
class FlatProfile:
    """All statically-attributed edges of one run."""

    program: ProgramIR
    edges: dict[tuple[int, int, DepKind], FlatEdge] = field(
        default_factory=dict)
    instructions: int = 0

    def record(self, head_pc: int, tail_pc: int, kind: DepKind,
               tdep: int) -> None:
        key = (head_pc, tail_pc, kind)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = FlatEdge(head_pc, tail_pc, kind, tdep)
        else:
            edge.observe(tdep)

    def edges_between(self, head_fn: str, tail_fn: str) -> list[FlatEdge]:
        """Edges whose endpoints live in the named functions."""
        return [e for e in self.edges.values()
                if self.program.fn_of(e.head_pc) == head_fn
                and self.program.fn_of(e.tail_pc) == tail_fn]

    def attribution_signature(self, head_fn: str,
                              tail_fn: str) -> set[tuple]:
        """Everything this profiler can say about head_fn -> tail_fn
        dependences: the set of static source-line pairs. Variants that
        share a signature are indistinguishable to flat profiling."""
        return {(self.program.loc_of(e.head_pc)[0],
                 self.program.loc_of(e.tail_pc)[0], e.kind)
                for e in self.edges_between(head_fn, tail_fn)}


class FlatBlocks:
    """The flat baseline over whole trace blocks, into ``profile``: the
    pairs come from the block kernel (payload 0), folded per (head pc,
    tail pc, kind). A parallel segment starts from the checkpoint's
    ``shadow`` rows: flat attribution needs only the head's pc and
    time, which they carry, so nothing is deferred.
    """

    def __init__(self, profile: FlatProfile, shadow: list = ()) -> None:
        self.profile = profile
        self.arrays = ShadowArrays.seed(shadow, 0)

    def consume_block(self, batch) -> None:
        """Every access and free of one trace block (flat ignores
        calls)."""
        etypes, a, b, t = batch.arrays()
        rows, head, tail, kind = self.arrays.step(etypes, a, b, t)
        if len(etypes) and etypes[-1] == EV_FINISH:
            self.profile.instructions = int(t[-1])
        _addr, pc, ts, _payload = rows
        keys, minima, counts = group_pairs((pc[head], pc[tail], kind),
                                           ts[tail] - ts[head])
        edges = self.profile.edges
        for head_pc, tail_pc, k, tdep, count in zip(*keys, minima,
                                                     counts):
            key = (head_pc, tail_pc, PAIR_KINDS[k])
            edge = edges.get(key)
            if edge is None:
                edges[key] = FlatEdge(*key, tdep, count)
            else:
                edge.count += count
                if tdep < edge.min_tdep:
                    edge.min_tdep = tdep


# Imported at the bottom on purpose, as in ``repro.analyses.builtin``:
# ``repro.trace`` imports the replay engine, which imports the
# analyses, which import this module; ``consume_block`` resolves these
# names at call time.
from repro.trace.events import EV_FINISH  # noqa: E402
