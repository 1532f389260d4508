"""The per-event profiler: the reference the block engine is held to.

``AlchemistTracer`` owns the four runtime structures — indexing stack,
construct pool, shadow memory, dependence profiler — and routes each
interpreter event to them (the interpreter stands in for valgrind).
Every library entry point profiles with :mod:`repro.core.blockdep`,
which tests hold to this tracer store for store; the task-graph and
TEST baselines build on it.
"""

from __future__ import annotations

from repro.analysis.constructs import ConstructTable
from repro.core.indexing import IndexingStack
from repro.core.pool import NodeAllocator
from repro.core.profile_data import DepKind, ProfileStore
from repro.core.profiler import DependenceProfiler
from repro.core.shadow import ShadowMemory
from repro.runtime.memory import Memory
from repro.runtime.tracing import Tracer

_RAW, _WAR, _WAW = DepKind.RAW, DepKind.WAR, DepKind.WAW


class AlchemistTracer(Tracer):
    """Profiles one execution; single use."""

    def __init__(self, table: ConstructTable, track_war_waw: bool = True):
        self.table = table
        # GC-backed allocation: nodes stay addressable while referenced,
        # so profiles equal the infinite-pool semantics and are a pure
        # function of the event stream (see repro.core.pool docstring).
        self.pool = NodeAllocator()
        self.store = ProfileStore()
        self.stack = IndexingStack(table, self.pool, self.store)
        self.shadow = ShadowMemory()
        self.profiler = DependenceProfiler(self.store)
        self.track_war_waw = track_war_waw
        self.memory: Memory | None = None
        self.final_time = 0

    @property
    def raw_events(self) -> int:
        return self.profiler.events[DepKind.RAW]

    @property
    def war_events(self) -> int:
        return self.profiler.events[DepKind.WAR]

    @property
    def waw_events(self) -> int:
        return self.profiler.events[DepKind.WAW]

    # -- lifecycle ---------------------------------------------------------

    def on_start(self, program, memory: Memory) -> None:
        self.memory = memory
        self.profiler.names = memory.addr_to_name

    def on_finish(self, timestamp: int) -> None:
        self.final_time = timestamp

    # -- indexing events -----------------------------------------------------

    def on_enter_function(self, fn_name: str, entry_pc: int,
                          timestamp: int) -> None:
        self.stack.enter_procedure(entry_pc, timestamp)

    def on_exit_function(self, fn_name: str, timestamp: int) -> None:
        self.stack.exit_procedure(timestamp)

    def on_branch(self, pc: int, target_block: int, timestamp: int) -> None:
        self.stack.on_branch(pc, target_block, timestamp)

    def on_block_enter(self, block_id: int, timestamp: int) -> None:
        self.stack.on_block_enter(block_id, timestamp)

    # -- memory events ----------------------------------------------------------

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        write = self.shadow.on_read(addr, pc, self.stack.stack[-1],
                                    timestamp)
        if write is not None:
            self.profiler.profile_edge(write[0], write[1], write[2], pc,
                                       timestamp, _RAW, addr)

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        waw_head, war_heads = self.shadow.on_write(
            addr, pc, self.stack.stack[-1], timestamp)
        if not self.track_war_waw:
            return
        edge = self.profiler.profile_edge
        for read_pc, (read_node, read_time) in war_heads.items():
            edge(read_pc, read_node, read_time, pc, timestamp, _WAR, addr)
        if waw_head is not None:
            edge(waw_head[0], waw_head[1], waw_head[2], pc, timestamp,
                 _WAW, addr)

    def on_frame_free(self, lo: int, hi: int) -> None:
        self.shadow.clear_range(lo, hi)
