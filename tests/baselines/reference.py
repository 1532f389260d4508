"""The baselines one hooked event at a time: the oracles of their block
paths.

The library runs every baseline over whole blocks on the pair kernel
(:meth:`~repro.core.shadow.ShadowArrays.step`): flat and context as
:class:`~repro.baselines.flat_profiler.FlatBlocks` and
:class:`~repro.baselines.context_profiler.ContextBlocks`, the TEST-style
loop profile as :class:`~repro.baselines.min_distance.LoopDistances`.
The tracers here detect the same pairs on the per-event
:class:`~tests.core.reference.ShadowMemory` and attribute them one
event at a time, into the library's profile types.
"""

from __future__ import annotations

from repro.analysis.constructs import ConstructTable
from repro.baselines.context_profiler import Context, ContextProfile
from repro.baselines.flat_profiler import FlatProfile
from repro.baselines.min_distance import LoopDistanceProfile, LoopStats
from repro.core.profile_data import DepKind
from repro.ir.cfg import ProgramIR
from repro.runtime.tracing import Tracer
from tests.core.reference import AlchemistTracer, ShadowMemory

_RAW, _WAR, _WAW = DepKind.RAW, DepKind.WAR, DepKind.WAW


class FlatTracer(Tracer):
    """Static attribution only: the shadow payload is ``None``."""

    def __init__(self, program: ProgramIR) -> None:
        self.profile = FlatProfile(program)
        self.shadow = ShadowMemory()

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        write = self.shadow.on_read(addr, pc, None, timestamp)
        if write is not None:
            self.profile.record(write[0], pc, _RAW, timestamp - write[2])

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        write, reads = self.shadow.on_write(addr, pc, None, timestamp)
        for read_pc, (_p, read_t) in reads.items():
            self.profile.record(read_pc, pc, _WAR, timestamp - read_t)
        if write is not None:
            self.profile.record(write[0], pc, _WAW, timestamp - write[2])

    def on_frame_free(self, lo: int, hi: int) -> None:
        self.shadow.clear_range(lo, hi)

    def on_finish(self, timestamp: int) -> None:
        self.profile.instructions = timestamp


class ContextSensitiveTracer(Tracer):
    """Calling-context attribution only: the shadow payload is the
    calling context."""

    def __init__(self) -> None:
        self.profile = ContextProfile()
        self._stack: list[str] = []
        self._context: Context = ()
        self.shadow = ShadowMemory()

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self._stack.append(fn_name)
        self._context = tuple(self._stack)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self._stack.pop()
        self._context = tuple(self._stack)

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        write = self.shadow.on_read(addr, pc, self._context, timestamp)
        if write is not None:
            self.profile.record(write[1], self._context, write[0], pc,
                                _RAW, timestamp - write[2])

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        write, reads = self.shadow.on_write(addr, pc, self._context,
                                            timestamp)
        record = self.profile.record
        for read_pc, (read_ctx, read_t) in reads.items():
            record(read_ctx, self._context, read_pc, pc, _WAR,
                   timestamp - read_t)
        if write is not None:
            record(write[1], self._context, write[0], pc, _WAW,
                   timestamp - write[2])

    def on_frame_free(self, lo: int, hi: int) -> None:
        self.shadow.clear_range(lo, hi)

    def on_finish(self, timestamp: int) -> None:
        self.profile.instructions = timestamp


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
        stats = self.result.loops.get(static.pc)
        if stats is None:
            stats = self.result.loops[static.pc] = LoopStats(static.pc,
                                                             static.name)
        stats.iterations += 1

    def _on_pop(self, node, timestamp: int) -> None:
        if not node.static.is_loop:
            return
        self._flush_pending()
        if self._loops and self._loops[-1][0] == node.static.pc:
            self._pending_pop = (node.static.pc, timestamp)

    def _tag(self):
        self._flush_pending()
        if not self._loops:
            return None
        loop_pc, activation, iteration = self._loops[-1]
        return (loop_pc, activation, iteration)

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        tag = self._tag()
        write = self.shadow.on_read(addr, pc, tag, timestamp)
        if write is not None:
            self._note_pair(write[1], tag, write[0], pc, _RAW)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        tag = self._tag()
        write, reads = self.shadow.on_write(addr, pc, tag, timestamp)
        for read_pc, (read_tag, _t) in reads.items():
            self._note_pair(read_tag, tag, read_pc, pc, _WAR)
        if write is not None:
            self._note_pair(write[1], tag, write[0], pc, _WAW)

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
