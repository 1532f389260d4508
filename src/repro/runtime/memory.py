"""Flat addressable memory for MiniC.

Layout: the global segment occupies addresses ``[0, globals_size)``;
stack frames grow upward from there, bounded by ``stack_limit`` words;
the heap begins at ``globals_size + stack_limit`` and grows upward.
Each frame is ``[return-value cell][scalars and arrays...]``; the cell
at offset 0 carries return values through traced memory (reproducing
the paper's return-value dependences). Frames are deallocated on return
with strict stack discipline, and the profiler is told to forget the
freed range so address reuse across calls cannot fabricate dependences.
Heap blocks come from ``malloc``/``free``; freed blocks are recycled
(same-size first), and the profiler likewise forgets freed ranges.

An allocation registry maps array and heap-block base addresses to
extents so indexed accesses through by-reference array parameters are
bounds-checked even though their size is unknown statically.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from repro.ir.cfg import FunctionIR, ProgramIR

#: Words reserved for the stack between the globals and the heap.
DEFAULT_STACK_LIMIT = 1 << 16


class FrameRegion:
    """Bookkeeping for one live frame (addresses and name lookup)."""

    __slots__ = ("base", "size", "fn")

    def __init__(self, base: int, size: int, fn: FunctionIR):
        self.base = base
        self.size = size
        self.fn = fn


class Memory:
    """Word-addressed memory: every cell holds a 64-bit signed integer.

    Uninitialized cells read as 0 (MiniC defines what C leaves undefined,
    so profiled runs are deterministic).
    """

    def __init__(self, program: ProgramIR,
                 stack_limit: int = DEFAULT_STACK_LIMIT):
        self.program = program
        self.cells: list[int] = [0] * max(program.globals_size, 1)
        self.stack_top = program.globals_size
        self.stack_limit = stack_limit
        #: Array base address -> (size, name); for bounds checks through
        #: array references and for address -> name reporting.
        self.allocations: dict[int, tuple[int, str]] = {}
        self.frames: list[FrameRegion] = []
        #: Most recently popped frame; return-value reads happen right
        #: after the pop and still want a symbolic name.
        self.last_popped: FrameRegion | None = None
        #: Heap bookkeeping: live block base -> size, sorted live bases
        #: (for containment queries), and freed blocks bucketed by size
        #: for same-size recycling.
        self.heap_base = program.globals_size + stack_limit
        self.heap_top = self.heap_base
        self._heap_blocks: dict[int, int] = {}
        self._heap_bases: list[int] = []
        self._free_by_size: dict[int, list[int]] = {}
        self._next_heap_id = 1
        self.heap_allocs = 0
        self.heap_frees = 0
        for info in program.globals_layout:
            if info.is_array:
                self.allocations[info.offset] = (info.size, info.name)
            elif info.init is not None:
                self.cells[info.offset] = info.init
        self.high_water = self.stack_top

    # -- frames -----------------------------------------------------------

    def push_frame(self, fn: FunctionIR) -> int:
        """Allocate a frame for ``fn``; returns the base address.

        Raises :class:`ValueError` when the frame would run into the
        heap region (deep recursion), as :meth:`heap_alloc` does for a
        bad size; the interpreter converts this into a sourced runtime
        error, replay into a ``TraceError``.
        """
        base = self.stack_top
        self.stack_top += fn.frame_size
        if self.stack_top > self.heap_base:
            self.stack_top = base
            raise ValueError(
                f"stack overflow: frame for {fn.name}() exceeds the "
                f"{self.stack_limit}-word stack region")
        if self.stack_top > len(self.cells):
            self.cells.extend([0] * (self.stack_top - len(self.cells)))
        else:
            # Reused stack memory must read as freshly zeroed; one
            # slice assignment, not a per-word loop — frame pushes are
            # on the replay engine's structural hot path.
            self.cells[base:self.stack_top] = \
                [0] * (self.stack_top - base)
        self.high_water = max(self.high_water, self.stack_top)
        for info in fn.locals_layout:
            if info.is_array:
                self.allocations[base + info.offset] = (info.size, info.name)
        self.frames.append(FrameRegion(base, fn.frame_size, fn))
        return base

    def pop_frame(self) -> FrameRegion:
        """Deallocate the top frame (strict stack discipline)."""
        region = self.frames.pop()
        for info in region.fn.locals_layout:
            if info.is_array:
                self.allocations.pop(region.base + info.offset, None)
        self.stack_top = region.base
        self.last_popped = region
        return region

    # -- heap -----------------------------------------------------------

    def heap_alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed words; returns the base address.

        Freed blocks of exactly the same size are recycled first (so
        address reuse — the hazard the shadow-memory clearing guards
        against — actually happens in heap-heavy workloads).
        """
        if size <= 0:
            raise ValueError("malloc size must be positive")
        bucket = self._free_by_size.get(size)
        if bucket:
            base = bucket.pop()
            # Recycled blocks read as freshly zeroed (slice form, same
            # reasoning as the frame-reuse zeroing in push_frame).
            self.cells[base:base + size] = [0] * size
        else:
            base = self.heap_top
            self.heap_top += size
            if self.heap_top > len(self.cells):
                self.cells.extend([0] * (self.heap_top - len(self.cells)))
        self._heap_blocks[base] = size
        insort(self._heap_bases, base)
        name = f"heap#{self._next_heap_id}"
        self._next_heap_id += 1
        self.allocations[base] = (size, name)
        self.heap_allocs += 1
        return base

    def heap_free(self, base: int) -> tuple[int, int]:
        """Release the block at ``base``; returns its ``[lo, hi)`` range.

        Raises :class:`ValueError` for double frees, frees of interior
        pointers, and frees of non-heap addresses.
        """
        size = self._heap_blocks.pop(base, None)
        if size is None:
            raise ValueError(
                f"free of address {base}, which is not a live heap block")
        index = bisect_right(self._heap_bases, base) - 1
        del self._heap_bases[index]
        del self.allocations[base]
        self._free_by_size.setdefault(size, []).append(base)
        self.heap_frees += 1
        return base, base + size

    def restore_heap(self, top: int, next_id: int,
                     blocks: list, free_by_size: dict,
                     allocs: int = 0, frees: int = 0) -> None:
        """Adopt a checkpointed heap layout (parallel segment replay).

        ``blocks`` is ``[(base, size, id), ...]`` for the live blocks
        (``id`` numbers the ``heap#N`` name); ``free_by_size`` maps
        size -> list of freed bases *in original free order* — the
        recycler pops from the tail, so order is allocation-visible.
        After this, ``heap_alloc``/``heap_free`` behave exactly as they
        would had the original allocation history run in-process.
        """
        self.heap_top = top
        self._next_heap_id = next_id
        self._heap_blocks = {}
        self._heap_bases = []
        for base, size, block_id in blocks:
            self._heap_blocks[base] = size
            self._heap_bases.append(base)
            self.allocations[base] = (size, f"heap#{block_id}")
        self._heap_bases.sort()
        self._free_by_size = {int(size): list(bases)
                              for size, bases in free_by_size.items()
                              if bases}
        self.heap_allocs = allocs
        self.heap_frees = frees
        if top > len(self.cells):
            # Recycled allocations zero their cells in place; the
            # restored address space must reach the checkpointed top.
            self.cells.extend([0] * (top - len(self.cells)))

    def set_last_popped(self, fn: FunctionIR, base: int) -> None:
        """Restore the popped-frame marker (a checkpoint can land
        between a frame pop and the caller's return-value read, and
        ``addr_to_name`` must still say ``retval(callee)`` there)."""
        self.last_popped = FrameRegion(base, fn.frame_size, fn)

    def heap_block_containing(self, addr: int) -> tuple[int, int] | None:
        """The live heap block ``(base, size)`` containing ``addr``."""
        index = bisect_right(self._heap_bases, addr) - 1
        if index < 0:
            return None
        base = self._heap_bases[index]
        size = self._heap_blocks[base]
        if addr < base + size:
            return base, size
        return None

    def live_heap_words(self) -> int:
        return sum(self._heap_blocks.values())

    # -- accesses -----------------------------------------------------------

    def read(self, addr: int) -> int:
        return self.cells[addr]

    def write(self, addr: int, value: int) -> None:
        self.cells[addr] = value

    def check_addr(self, addr: int) -> bool:
        """True when ``addr`` is a live word: a global, in a live stack
        frame, or inside a live heap block. Dereferencing anything else
        (NULL, dead stack, freed or never-allocated heap) is a runtime
        error. Address 0 is reserved as NULL by the global layout."""
        if 0 < addr < self.stack_top:
            return True
        if addr >= self.heap_base:
            return self.heap_block_containing(addr) is not None
        return False

    def array_extent(self, base: int) -> tuple[int, str] | None:
        """Size and name of the array allocated at ``base`` (or None)."""
        return self.allocations.get(base)

    # -- reporting ------------------------------------------------------------

    def addr_to_name(self, addr: int) -> str:
        """Best-effort symbolic name for an address (for reports)."""
        return address_name(self.program, addr, self.heap_base,
                            self._named_block, self.frames,
                            self.last_popped)

    def _named_block(self, addr: int) -> tuple[int, int, str] | None:
        block = self.heap_block_containing(addr)
        if block is None:
            return None
        return block[0], block[1], self.allocations[block[0]][1]


def address_name(program: ProgramIR, addr: int, heap_base: int,
                 heap_block, frames: list, last_popped) -> str:
    """The symbolic name of ``addr`` given a memory's naming state:
    its live ``frames``, its ``last_popped`` frame and ``heap_block``,
    which maps an address to ``(base, size, name)`` of the live heap
    block holding it, or ``None``."""
    if addr < program.globals_size:
        name = program.global_addr_to_name(addr)
        return name if name is not None else f"global+{addr}"
    if addr >= heap_base:
        block = heap_block(addr)
        if block is None:
            return f"heap+{addr - heap_base}"
        base, size, name = block
        if size == 1:
            return name
        return f"{name}[{addr - base}]"
    # Live frames take priority; the stale last-popped frame (kept so
    # the caller's return-value read right after a pop still names
    # `retval(callee)`) may share its base with a newer live frame.
    candidates = [last_popped] if last_popped is not None else []
    candidates.extend(frames)
    for region in reversed(candidates):
        if region.base <= addr < region.base + region.size:
            offset = addr - region.base
            if offset == 0:
                return f"retval({region.fn.name})"
            for info in region.fn.locals_layout:
                if info.offset <= offset < info.offset + info.size:
                    if info.is_array:
                        element = offset - info.offset
                        return f"{region.fn.name}.{info.name}[{element}]"
                    return f"{region.fn.name}.{info.name}"
            return f"{region.fn.name}+{offset}"
    return f"stack+{addr}"


class MemoryNames:
    """A memory's naming state — live frames, the last popped frame and
    the ``heap#N`` names of live heap blocks — advanced by structural
    events alone (:meth:`enter`, :meth:`exit`, :meth:`alloc`,
    :meth:`free`), with no cells; ENTER names its function by index
    into the program's function table. Block-replayed analyses use it to
    name an address as it was at an event inside a block, after the
    replay engine has moved the real :class:`Memory` past the block.
    """

    def __init__(self, memory: Memory):
        self.program = memory.program
        self.functions = list(memory.program.functions.values())
        self.heap_base = memory.heap_base
        self.frames: list[FrameRegion] = list(memory.frames)
        self.last_popped = memory.last_popped
        self._blocks = {base: (size, memory.allocations[base][1])
                        for base, size in memory._heap_blocks.items()}
        self._bases = sorted(self._blocks)
        self._next_id = memory._next_heap_id

    def enter(self, index: int) -> None:
        fn = self.functions[index]
        frames = self.frames
        top = (frames[-1].base + frames[-1].size if frames
               else self.program.globals_size)
        frames.append(FrameRegion(top, fn.frame_size, fn))

    def exit(self) -> None:
        self.last_popped = self.frames.pop()

    def alloc(self, base: int, size: int) -> None:
        self._blocks[base] = (size, f"heap#{self._next_id}")
        self._next_id += 1
        insort(self._bases, base)

    def free(self, lo: int, size: int) -> None:
        if size and lo >= self.heap_base and \
                self._blocks.pop(lo, None) is not None:
            del self._bases[bisect_right(self._bases, lo) - 1]

    def _named_block(self, addr: int) -> tuple[int, int, str] | None:
        index = bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        base = self._bases[index]
        size, name = self._blocks[base]
        return (base, size, name) if addr < base + size else None

    def name(self, addr: int) -> str:
        """``addr``'s name in the current state, as
        :meth:`Memory.addr_to_name` gives it."""
        return address_name(self.program, addr, self.heap_base,
                            self._named_block, self.frames,
                            self.last_popped)
