"""TEST-style minimum dependence distance profiling (Chen & Olukotun).

TEST [CGO'03] profiles, for each loop, the minimum distance *in
iterations* between dependent accesses of different iterations, to
drive thread-level speculation. Two limitations the paper contrasts
Alchemist against:

* loops only — procedure/conditional constructs and their
  continuations are invisible (gzip's ``flush_block`` candidate simply
  does not appear);
* distances are attributed to the *innermost* enclosing loop, so an
  outer loop's parallelism cannot be judged from the profile of its
  inner loops.

Detection is Alchemist's own: dep's instance table
(:class:`~repro.core.instances.InstanceTable`) delimits the loop
iterations and the pair kernel (:meth:`~repro.core.shadow.ShadowArrays.
step`) pairs the accesses, with a loop-iteration tag as the payload, so
both see the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.constructs import construct_table
from repro.core.instances import InstanceTable
from repro.core.profile_data import DepKind, ProfileStore
from repro.core.shadow import PAIR_KINDS, ShadowArrays, group_pairs
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source


@dataclass
class LoopStats:
    """Per-loop minimum iteration distances."""

    loop_pc: int
    name: str
    iterations: int = 0
    #: (head pc, tail pc, kind) -> minimum distance in iterations (>= 1).
    min_distance: dict[tuple, int] = field(default_factory=dict)

    def record(self, head_pc: int, tail_pc: int, kind: DepKind,
               distance: int) -> None:
        key = (head_pc, tail_pc, kind)
        current = self.min_distance.get(key)
        if current is None or distance < current:
            self.min_distance[key] = distance

    def overall_min_distance(self) -> int | None:
        """The loop's speculation bound: the smallest distance of any
        cross-iteration dependence (None = iterations independent)."""
        if not self.min_distance:
            return None
        return min(self.min_distance.values())


@dataclass
class LoopDistanceProfile:
    loops: dict[int, LoopStats] = field(default_factory=dict)
    instructions: int = 0

    def by_name(self, name: str) -> LoopStats:
        for stats in self.loops.values():
            if stats.name == name:
                return stats
        raise KeyError(name)


#: A loop tag packs the activation (from 1) above the iteration.
_ITERATION_BITS = 32


class LoopDistances:
    """The TEST baseline over whole blocks, a block consumer of a live
    run's tap, into ``result``.

    Dep's instance table indexes each block; rule 4 makes every
    iteration a loop instance of its own. A loop push continues an
    activation when the same control event popped the same loop's
    previous iteration (the pop and push of one BRANCH); any other
    starts a new activation. Each access carries its innermost loop
    instance's tag, ``activation << 32 | iteration`` (-1 outside
    loops), as its shadow payload, so a pair whose tags share the
    activation is ``tail - head`` iterations apart. Pairs at distance
    >= 1 fold per (loop, head pc, tail pc, kind), new keys in the order
    the pairs come.
    """

    name = "min-distance"

    def on_start(self, program: ProgramIR, memory) -> None:
        table = construct_table(program)
        self.result = LoopDistanceProfile()
        self.rows = InstanceTable(table, ProfileStore())
        self.shadow = ShadowArrays()
        self._is_loop = np.zeros(max(table.by_pc, default=0) + 1,
                                 dtype=bool)
        self._is_loop[[c.pc for c in table.loops()]] = True
        #: The open loop instances, bottom to top: (loop pc, tag).
        self._loops: list[tuple[int, int]] = []
        self._activations = 0
        self._seen = 0

    def consume_batch(self, batch) -> None:
        etypes, a, b, t = batch.arrays()
        block = self.rows.index(etypes, a, b, t, self._seen)
        self._seen += len(etypes)
        loop_of, tags = self._innermost_loops(block, len(etypes))
        (_addr, pc, _t, tag), head, tail, kind, event, rank = \
            self.shadow.step(etypes, a, b, t, tags, ordered=True)
        self.rows.compact()
        distance = tag[tail] - tag[head]
        # Tags outside loops are -1, an activation no loop has.
        same = ((tag[head] >> _ITERATION_BITS == tag[tail] >> _ITERATION_BITS)
                & (distance >= 1))
        head, tail, kind = head[same], tail[same], kind[same]
        order = event[same] * len(pc) + rank[same]
        keys, minima, _counts, firsts = group_pairs(
            (loop_of[event[same]], pc[head], pc[tail], kind),
            distance[same], order)
        loops = self.result.loops
        new = []
        for loop, head_pc, tail_pc, k, low, i in zip(*keys, minima, firsts):
            key = (head_pc, tail_pc, PAIR_KINDS[k])
            known = loops[loop].min_distance
            if key in known:
                known[key] = min(known[key], low)
            else:
                new.append((int(order[i]), loop, key, low))
        for _, loop, key, low in sorted(new):
            loops[loop].min_distance[key] = low

    def _innermost_loops(self, block, events: int) -> tuple:
        """Each event's innermost open loop instance: its loop pc and
        tag (-1 and -1 outside loops), after the block's loop pushes
        and pops. Counts the iterations."""
        rows = self.rows
        pcs = rows.pc[np.where(block.pushes, block.row, ~block.row)]
        logged = np.flatnonzero(self._is_loop[pcs])
        open_loops = self._loops
        stats = self.result.loops
        by_pc = rows.constructs.by_pc
        top = [open_loops[-1] if open_loops else (-1, -1)]
        popped = None  # (pc, event, tag) of the last loop pop
        for row, pc, at in zip(block.row[logged].tolist(),
                               pcs[logged].tolist(),
                               block.at[logged].tolist()):
            if row < 0:
                popped = (pc, at, open_loops.pop()[1])
            else:
                if popped is not None and popped[:2] == (pc, at):
                    tag = popped[2] + 1
                else:
                    self._activations += 1
                    tag = self._activations << _ITERATION_BITS
                open_loops.append((pc, tag))
                if pc not in stats:
                    stats[pc] = LoopStats(pc, by_pc[pc].name)
                stats[pc].iterations += 1
            top.append(open_loops[-1] if open_loops else (-1, -1))
        # An event's innermost loop is the top after the last loop push
        # or pop at or before it.
        after = np.cumsum(np.bincount(block.at[logged], minlength=events))
        top = np.array(top, dtype=np.int64).reshape(-1, 2)[after]
        return top[:, 0], top[:, 1]


def profile_loop_distances(source: str | None = None, *,
                           program: ProgramIR | None = None
                           ) -> LoopDistanceProfile:
    """Run a program under the TEST-style baseline: one live run whose
    tap feeds :class:`LoopDistances`."""
    # Imported here: the trace package imports the analyses, which
    # import the baselines.
    from repro.trace.live import run_live

    if program is None:
        if source is None:
            raise ValueError("need source or program")
        program = compile_source(source)
    distances = LoopDistances()
    ctx = run_live(program, [distances])
    distances.result.instructions = ctx.final_time
    return distances.result
