"""Randomized fuzz for checkpoint placement and reconstruction.

Two independent oracles, checked at *every* scan-built checkpoint (the
``.ckpt`` sidecar, the only seam source) of randomly checkpointed
traces:

* **stream resumption** — decoding from the checkpoint's offset with
  its codec state must reproduce, record for record and in both the
  scalar and the batch flavour, the tail of a serial decode paused at
  the same event index (this pins the v2 delta/clock seeding, the
  in-block skip of mid-block seams, and the v1 offset arithmetic);
* **state reconstruction** — memory rebuilt via
  :func:`restore_memory` must equal a reference built by replaying
  the event prefix through the *real* :class:`Memory` (frames, stack
  top, heap blocks and free lists, allocation registry, popped-frame
  marker), and the checkpointed shadow/construct stacks must equal
  reference copies built with the real ShadowMemory/IndexingStack —
  catching any drift between the state the scan's replay pass
  checkpoints and a plain per-event replay of the same prefix.

Sources of randomness: bundled workloads under random checkpoint
intervals (seeded), plus hypothesis-fuzzed random programs run
end-to-end through record -> checkpoint -> verify. Random intervals
rarely put a seam exactly before a structural event, so fixed cases
also place the first seam right before an ENTER, EXIT, ALLOC and heap
FREE, and at the first event of a block.
"""

import random

import pytest
from hypothesis import given, settings

from repro.analysis.constructs import ConstructTable
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.memory import Memory
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH,
                                EV_CHECKPOINT, EV_ENTER, EV_EXIT,
                                EV_FINISH, EV_FREE, EV_READ, EV_WRITE)
from repro.trace.reader import TraceReader
from repro.trace.shards import load_or_build_checkpoints, restore_memory
from repro.trace.writer import record_source
from repro.workloads import get
from tests.core.reference import (IndexingStack, NodeAllocator,
                                  ProfileStore, ShadowMemory)
from tests.lang.test_pretty import _programs


class _Reference:
    """Serial replay of the event prefix with the *real* runtime
    structures — the ground truth every checkpoint is held to."""

    def __init__(self, program, header):
        self.memory = Memory(program, header.stack_limit)
        self.shadow = ShadowMemory()
        self.stack = IndexingStack(ConstructTable(program),
                                   NodeAllocator(), ProfileStore())
        self.functions = [program.functions[name]
                          for name in header.functions]
        self.heap_base = self.memory.heap_base

    def apply(self, etype, a, b, t):
        if etype == EV_READ:
            self.shadow.on_read(a, b, None, t)
        elif etype == EV_WRITE:
            self.shadow.on_write(a, b, None, t)
        elif etype == EV_BLOCK:
            self.stack.on_block_enter(a, t)
        elif etype == EV_BRANCH:
            self.stack.on_branch(a, b, t)
        elif etype == EV_ENTER:
            self.memory.push_frame(self.functions[a])
            self.stack.enter_procedure(self.functions[a].entry_pc, t)
        elif etype == EV_EXIT:
            self.stack.exit_procedure(t)
            self.memory.pop_frame()
        elif etype == EV_FREE:
            if b and a >= self.heap_base:
                self.memory.heap_free(a)
            self.shadow.clear_range(a, a + b)
        elif etype == EV_ALLOC:
            assert self.memory.heap_alloc(b) == a
        else:
            assert etype in (EV_FINISH, EV_CHECKPOINT)


def _memory_fingerprint(memory: Memory):
    return {
        "stack_top": memory.stack_top,
        "frames": [(fr.fn.name, fr.base, fr.size)
                   for fr in memory.frames],
        "last_popped": (None if memory.last_popped is None else
                        (memory.last_popped.fn.name,
                         memory.last_popped.base)),
        "heap_top": memory.heap_top,
        "blocks": dict(memory._heap_blocks),
        "bases": list(memory._heap_bases),
        "free": {size: list(bases)
                 for size, bases in memory._free_by_size.items()
                 if bases},
        "next_id": memory._next_heap_id,
        "allocations": dict(memory.allocations),
    }


def _verify_trace(path, interval=None):
    """Assert both oracles at every checkpoint of the trace's sidecar
    (built at ``interval`` when given, else prebuilt by
    ``record_source(checkpoint_interval=...)``, else scanned here at a
    fifth of the trace). Returns the checkpoints."""
    with TraceReader(path) as reader:
        header = reader.header
        program = compile_source(header.source, header.filename)
        serial_events = list(reader.events())
        checkpoints = load_or_build_checkpoints(path, interval)
        if interval is None and len(checkpoints) < 2:
            checkpoints = load_or_build_checkpoints(
                path, interval=max(1, len(serial_events) // 5))
        assert checkpoints, "fuzz case produced no checkpoints"

        reference = _Reference(program, header)
        consumed = 0
        for checkpoint in checkpoints:
            while consumed < checkpoint.index:
                reference.apply(*serial_events[consumed])
                consumed += 1

            # Oracle 1: the resumed stream equals the serial tail, on
            # both decode paths.
            for columnar in (True, False):
                rows = [row for batch in reader.batches_from(
                            checkpoint.offset, checkpoint.decoder_state(),
                            columnar=columnar)
                        for row in batch.rows()]
                assert rows == serial_events[checkpoint.index:], \
                    f"stream diverges at checkpoint {checkpoint.index}"

            # Oracle 2a: reconstructed memory equals the reference.
            restored = restore_memory(program, header, checkpoint)
            assert _memory_fingerprint(restored) == \
                _memory_fingerprint(reference.memory), \
                f"memory diverges at checkpoint {checkpoint.index}"

            # Oracle 2b: checkpointed shadow rows equal the reference
            # shadow's snapshot, row for row.
            assert checkpoint.shadow == reference.shadow.snapshot(), \
                f"shadow diverges at checkpoint {checkpoint.index}"

            # Oracle 2c: construct stack (pc, Tenter) matches.
            assert [tuple(e) for e in checkpoint.cstack] == \
                [(n.static.pc, n.t_enter)
                 for n in reference.stack.stack], \
                f"construct stack diverges at {checkpoint.index}"

            assert checkpoint.time == (
                serial_events[checkpoint.index - 1][3]
                if checkpoint.index else 0)
    return checkpoints


class TestWorkloadCheckpoints:
    @pytest.mark.parametrize("workload,scale", [("gzip", 0.2),
                                                ("wordcount", 0.5),
                                                ("lisp-cons", 0.5)])
    def test_random_intervals(self, tmp_path, workload, scale):
        rng = random.Random(f"ckpt-{workload}")
        source = get(workload, scale).source
        for trial in range(3):
            interval = rng.randint(200, 4000)
            path = str(tmp_path / f"{workload}-{trial}.trace")
            record_source(source, path, checkpoint_interval=interval)
            _verify_trace(path)

    def test_scan_checkpoints_without_prebuilt_sidecar(self, tmp_path):
        path = str(tmp_path / "lazy.trace")
        record_source(get("gzip", 0.2).source, path)
        _verify_trace(path)


@pytest.fixture(scope="module")
def heap_trace(tmp_path_factory):
    """A two-block heap workload: its events, heap base, and the index
    of the second block's first event."""
    path = tmp_path_factory.mktemp("heap") / "lisp-cons.trace"
    record_source(get("lisp-cons", 1.0).source, str(path))
    starts = []
    with TraceReader(str(path)) as reader:
        heap_base = reader.header.heap_base
        events = [row for batch in reader.batches(
                      block_hook=lambda offset, records, *_:
                      starts.append(records))
                  for row in batch.rows()]
    assert len(starts) >= 2, "workload no longer spans two blocks"
    return path, events, heap_base, starts[1]


class TestStructuralSeams:
    """The first seam lands exactly before a structural event (the
    first one past an eighth of the trace, which bounds the seams to
    eight), or exactly at a block's first record (no in-block skip)."""

    @pytest.mark.parametrize("kind", ["ENTER", "EXIT", "ALLOC",
                                      "heap FREE", "block start"])
    def test_first_seam_before(self, heap_trace, tmp_path, kind):
        path, events, heap_base, second_block = heap_trace
        matches = {
            "ENTER": lambda e: e[0] == EV_ENTER,
            "EXIT": lambda e: e[0] == EV_EXIT,
            "ALLOC": lambda e: e[0] == EV_ALLOC,
            "heap FREE": lambda e: (e[0] == EV_FREE and e[2]
                                    and e[1] >= heap_base),
        }
        if kind == "block start":
            interval = second_block
        else:
            interval = next(i for i in range(len(events) // 8,
                                             len(events))
                            if matches[kind](events[i]))
        copy = tmp_path / "t.trace"
        copy.write_bytes(path.read_bytes())
        checkpoints = _verify_trace(str(copy), interval)
        assert checkpoints and checkpoints[0].index == interval
        if kind == "block start":
            assert "skip" not in checkpoints[0].codec
        else:
            assert checkpoints[0].codec["skip"] > 0


class TestRandomProgramCheckpoints:
    @given(_programs)
    @settings(max_examples=25, deadline=None)
    def test_generated_programs_checkpoint_exactly(self, program_ast):
        import os
        import tempfile

        source = pretty_print(program_ast)
        try:
            compile_source(source)
        except SemanticError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            try:
                result = record_source(source, path, max_steps=20_000,
                                       checkpoint_interval=150)
            except (MiniCRuntimeError, StepLimitExceeded):
                return  # wild pointers / infinite loops: legitimate
            if result.checkpoints == 0:
                return  # too short to seam — nothing to verify
            _verify_trace(path)
