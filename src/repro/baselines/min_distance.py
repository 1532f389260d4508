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

Detection is Alchemist's own :class:`~repro.core.shadow.ShadowMemory`
with a loop-iteration tag as payload, so both see the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.constructs import ConstructTable
from repro.core.profile_data import DepKind
from repro.core.tracer import AlchemistTracer
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import compile_source
from repro.runtime.interpreter import Interpreter


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


class MinDistanceTracer(AlchemistTracer):
    """Tags accesses with (innermost loop instance, iteration number).

    Reuses the execution-indexing stack for loop entry/exit/iteration
    events and the inherited shadow memory, whose payload here is the
    tag ``(loop_pc, activation, iteration)`` (``None`` outside loops),
    but replaces Alchemist's construct-walking profile with iteration
    distances between the tags of each pair.
    """

    def __init__(self, table: ConstructTable):
        super().__init__(table)
        self.result = LoopDistanceProfile()
        #: Stack of [loop_pc, activation serial, iteration index].
        self._loops: list[list[int]] = []
        self._activation_counter = 0
        #: A just-popped loop entry that may be a rule-4 iteration
        #: boundary: (loop_pc, timestamp). Rule 4 pops the previous
        #: iteration and pushes the next at the same timestamp; if the
        #: matching push never comes, the activation has ended.
        self._pending_pop: tuple[int, int] | None = None
        self.stack.push_observer = self._on_push
        self.stack.pop_observer = self._on_pop

    # -- loop tracking -------------------------------------------------------

    def _flush_pending(self) -> None:
        """Commit a deferred pop: the sibling push never arrived, so the
        loop activation really ended."""
        if self._pending_pop is not None:
            self._pending_pop = None
            if self._loops:
                self._loops.pop()

    def _on_push(self, static, timestamp: int) -> None:
        if not static.is_loop:
            self._flush_pending()
            return
        pending = self._pending_pop
        self._pending_pop = None
        if (pending is not None and pending == (static.pc, timestamp)
                and self._loops and self._loops[-1][0] == static.pc):
            # Rule-4 pop+push pair: the same activation's next iteration.
            self._loops[-1][2] += 1
        else:
            if pending is not None and self._loops:
                self._loops.pop()  # the pending pop was a real exit
            self._activation_counter += 1
            self._loops.append([static.pc, self._activation_counter, 0])
        stats = self._stats_for(static)
        stats.iterations += 1

    def _on_pop(self, node, timestamp: int) -> None:
        if not node.static.is_loop:
            return
        self._flush_pending()
        if self._loops and self._loops[-1][0] == node.static.pc:
            self._pending_pop = (node.static.pc, timestamp)

    def _stats_for(self, static) -> LoopStats:
        stats = self.result.loops.get(static.pc)
        if stats is None:
            stats = LoopStats(static.pc, static.name)
            self.result.loops[static.pc] = stats
        return stats

    def _tag(self):
        self._flush_pending()
        if not self._loops:
            return None
        loop_pc, activation, iteration = self._loops[-1]
        return (loop_pc, activation, iteration)

    # -- dependence detection ----------------------------------------------------

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        tag = self._tag()
        write = self.shadow.on_read(addr, pc, tag, timestamp)
        if write is not None:
            self._note_pair(write[1], tag, write[0], pc, DepKind.RAW)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        tag = self._tag()
        write, reads = self.shadow.on_write(addr, pc, tag, timestamp)
        for read_pc, (read_tag, _t) in reads.items():
            self._note_pair(read_tag, tag, read_pc, pc, DepKind.WAR)
        if write is not None:
            self._note_pair(write[1], tag, write[0], pc, DepKind.WAW)

    def _note_pair(self, head_tag, tail_tag, head_pc: int, tail_pc: int,
                   kind: DepKind) -> None:
        if head_tag is None or tail_tag is None:
            return
        head_loop, head_act, head_iter = head_tag
        tail_loop, tail_act, tail_iter = tail_tag
        if head_loop != tail_loop or head_act != tail_act:
            return  # TEST: same-loop, same-activation distances only
        distance = tail_iter - head_iter
        if distance < 1:
            return  # intra-iteration
        stats = self.result.loops.get(head_loop)
        if stats is not None:
            stats.record(head_pc, tail_pc, kind, distance)

    def on_finish(self, timestamp: int) -> None:
        super().on_finish(timestamp)
        self.result.instructions = timestamp


def profile_loop_distances(source: str | None = None, *,
                           program: ProgramIR | None = None
                           ) -> LoopDistanceProfile:
    """Run a program under the TEST-style baseline."""
    if program is None:
        if source is None:
            raise ValueError("need source or program")
        program = compile_source(source)
    table = ConstructTable(program)
    tracer = MinDistanceTracer(table)
    Interpreter(program, tracer).run()
    return tracer.result
