"""Checkpointed traces: shard seams for parallel replay.

A CHECKPOINT is a compact snapshot of everything a replay needs to
*start mid-trace* and still behave exactly like a serial pass that
streamed every earlier event:

* **frame stack** — function indices bottom-to-top (plus the
  popped-frame marker), so a reconstructed
  :class:`~repro.runtime.memory.Memory` resolves symbolic names and
  pops frames identically;
* **heap layout** — live blocks with their ``heap#N`` ids, the
  free-by-size recycling lists in order, bump pointer and id counter,
  so in-segment ``heap_alloc`` returns exactly the recorded bases;
* **construct stack** — ``(head pc, Tenter)`` pairs for the execution
  index, so constructs open across the seam keep true durations and the
  dependence walk sees real ancestor chains;
* **shadow memory** — last write ``(pc, t)`` and last read per static
  pc since that write, per tracked address, in the row format
  :meth:`~repro.core.shadow.ShadowArrays.snapshot` writes and
  :meth:`~repro.core.shadow.ShadowArrays.seed` reads, so dependence
  analyses pair cross-seam accesses exactly (attribution of those
  pairs is deferred to the merge — see ``repro.analyses.merging``);
* **codec state** — the absolute file offset of the block holding
  the seam, that block's starting per-type deltas and — for a seam
  inside the block — its starting clock and the count of records
  before the seam, so a reader seeks straight to the seam
  (`TraceReader.batches_from`). Seams therefore land at any event, not
  only where the recorder happened to cut a block.

There is one seam source: :func:`build_checkpoints`, a serial replay
pass over the finished trace. It drives the real
:class:`~repro.runtime.memory.Memory` and one block consumer (the
scan's :class:`~repro.core.instances.InstanceTable` and
:class:`~repro.core.shadow.ShadowArrays`, the state replayed ``dep``
keeps) through :func:`repro.trace.replay.dispatch_batches`, the loop
serial replay and every segment use, from an iterator that cuts each
decoded block at the seams; each checkpoint is read off that state
(:func:`snapshot_memory`, :meth:`ShadowArrays.snapshot
<repro.core.shadow.ShadowArrays.snapshot>`, the table's open rows and
the block's codec state) when the loop asks for the slice starting at
its seam. The result is cached in an atomic ``.ckpt`` sidecar by
:func:`load_or_build_checkpoints` so repeated parallel replays pay it
once. The recorder keeps no seam state (every record would pay for
bookkeeping that only parallel replay reads); the first parallel plan
builds the sidecar, or ``record --checkpoints N`` prebuilds it. Traces
from older recorders may still carry ``EV_CHECKPOINT`` markers and a
footer seam table: the markers count as records when placing seams
and the table is ignored.

:func:`plan_shards` turns a trace plus a worker count into a list of
:class:`Segment`\\ s — (checkpoint, end index) pairs that partition the
event stream — which :mod:`repro.trace.parallel` fans out across a
process pool.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace

from repro.analysis.constructs import construct_table
from repro.core.instances import InstanceTable
from repro.core.profile_data import ProfileStore
from repro.core.shadow import ShadowArrays
from repro.runtime.memory import Memory
from repro.trace.events import TraceError, source_digest
from repro.trace.reader import TraceReader
from repro.trace.replay import check_functions, dispatch_batches

#: Events between scan-built checkpoints unless the caller asks for
#: another interval.
DEFAULT_CHECKPOINT_INTERVAL = 50_000

#: Sidecar filename suffix for scan-built checkpoints.
SIDECAR_SUFFIX = ".ckpt"

#: Schema tag inside sidecar files (bump when the payload changes;
#: 2 added mid-block v2 seams, 3 the digest of the checkpoints).
_SIDECAR_SCHEMA = 3

#: Compiled programs per process, keyed by (path, digest): a worker
#: typically replays several segments of the same trace, and a
#: coordinator plans and merges the same trace again and again.
_PROGRAM_CACHE: dict[tuple[str, str], object] = {}

#: Cache bound: a long-lived process replaying many distinct traces
#: must not accumulate compiled programs forever.
_PROGRAM_CACHE_LIMIT = 16


def compiled_program(path: str, header, program=None):
    """The program embedded in the trace at ``path``, compiled once per
    process unless the caller hands it over as ``program`` (already
    compiled from that source); embedded source that does not match
    the header digest is a corrupt trace either way."""
    from repro.ir.lowering import compile_source

    key = (path, header.digest)
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        return cached
    if source_digest(header.source) != header.digest:
        raise TraceError(
            f"{path}: embedded source does not match the header "
            "digest (corrupt trace)")
    if program is None:
        program = compile_source(header.source, header.filename)
    if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_LIMIT:
        _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
    _PROGRAM_CACHE[key] = program
    return program


# ---------------------------------------------------------------------------
# Checkpoint payload
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """One shard seam; see the module docstring for field semantics."""

    index: int                      #: events consumed before this seam
    time: int                       #: clock after those events
    offset: int                     #: file offset of the seam's block
    codec: dict = field(default_factory=dict)
    frames: list = field(default_factory=list)
    last_popped: list | None = None
    heap: dict = field(default_factory=dict)
    cstack: list = field(default_factory=list)
    #: :meth:`ShadowArrays.snapshot` rows ``[[addr, wpc, wt, [[rpc,
    #: rt], ...]], ...]``; ``wpc == -1`` means reads only.
    shadow: list = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "index": self.index, "time": self.time, "offset": self.offset,
            "codec": self.codec, "frames": self.frames,
            "last_popped": self.last_popped, "heap": self.heap,
            "cstack": self.cstack, "shadow": self.shadow,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Checkpoint":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise TraceError(f"corrupt checkpoint payload: {exc}") from exc

    def decoder_state(self) -> dict:
        """What ``TraceReader.batches_from`` needs at this seam (a
        mid-block seam's codec carries the block's own ``time`` and
        the ``skip`` count, which override the seam clock)."""
        return {"time": self.time, **self.codec}


def genesis_checkpoint(events_start: int) -> Checkpoint:
    """The implicit seam before the first event (segment 0 starts from
    pristine state, exactly like a serial replay)."""
    return Checkpoint(index=0, time=0, offset=events_start)


# ---------------------------------------------------------------------------
# Restoring checkpointed state
# ---------------------------------------------------------------------------

def restore_memory(program, header, checkpoint: Checkpoint):
    """Reconstruct a :class:`Memory` as of ``checkpoint``.

    Frames are re-pushed through the real ``push_frame`` (so the
    locals/array registry is rebuilt), then the heap adopts the
    checkpointed layout; from here the in-segment replay drives the
    instance exactly like the serial engine drives a fresh one.
    """
    memory = Memory(program, header.stack_limit)
    fns = list(program.functions.values())
    for fn_index in checkpoint.frames:
        memory.push_frame(fns[fn_index])
    heap = checkpoint.heap
    if heap:
        memory.restore_heap(
            top=heap["top"], next_id=heap["next_id"],
            blocks=heap["blocks"], free_by_size=heap["free"],
            allocs=heap.get("allocs", 0), frees=heap.get("frees", 0))
    if checkpoint.last_popped:
        fn_index, base = checkpoint.last_popped
        memory.set_last_popped(fns[fn_index], base)
    return memory


def snapshot_memory(memory, header) -> Checkpoint:
    """Capture a live :class:`Memory`'s layout as a checkpoint.

    The inverse of :func:`restore_memory` (codec/shadow/stack fields
    stay empty): the final parallel segment exports its end-of-run
    memory this way so the parent can rebuild the exact memory the
    analyses' ``finalize`` needs for symbolic names.
    """
    fn_index = {name: i for i, name in enumerate(header.functions)}
    frames = [fn_index[region.fn.name] for region in memory.frames]
    popped = None
    if memory.last_popped is not None:
        popped = [fn_index[memory.last_popped.fn.name],
                  memory.last_popped.base]
    blocks = sorted(
        [base, size, int(memory.allocations[base][1][5:])]
        for base, size in memory._heap_blocks.items())
    heap = {
        "top": memory.heap_top,
        "next_id": memory._next_heap_id,
        "blocks": blocks,
        "free": {str(size): list(bases)
                 for size, bases in sorted(memory._free_by_size.items())
                 if bases},
        "allocs": memory.heap_allocs,
        "frees": memory.heap_frees,
    }
    return Checkpoint(index=0, time=0, offset=0, frames=frames,
                      last_popped=popped, heap=heap)


# ---------------------------------------------------------------------------
# Scan-building checkpoints (the one seam source)
# ---------------------------------------------------------------------------

class _ScanState:
    """The non-memory half of a checkpoint, a block consumer of
    :func:`~repro.trace.replay.dispatch_batches`: the scan's instance
    table (the profiles its store folds are never read) and its
    pair-kernel shadow (payload 0)."""

    def __init__(self, program):
        self.rows = InstanceTable(construct_table(program), ProfileStore())
        self.shadow = ShadowArrays()
        self._seen = 0

    def consume_batch(self, batch) -> None:
        etypes, a, b, t = batch.arrays()
        rows = self.rows
        rows.index(etypes, a, b, t, self._seen)
        rows.create_profiles({})
        self.shadow.step(etypes, a, b, t)
        rows.compact()
        self._seen += len(etypes)

    def cstack(self) -> list:
        """The open instances bottom to top, as ``[head pc, Tenter]``."""
        rows = self.rows
        return [[pc, t] for pc, t in zip(rows.pc[rows.stack].tolist(),
                                         rows.t_enter[rows.stack].tolist())]


def _sparse_prev(prev_a: list[int], prev_b: list[int]) -> dict:
    return {str(etype): [prev_a[etype], prev_b[etype]]
            for etype in range(256) if prev_a[etype] or prev_b[etype]}


def build_checkpoints(path: str | os.PathLike,
                      interval: int = DEFAULT_CHECKPOINT_INTERVAL
                      ) -> list[Checkpoint]:
    """One serial replay pass producing a checkpoint every ``interval``
    events. A seam is the offset of the block holding it plus the
    records to skip inside that block."""
    if interval <= 0:
        raise ValueError(f"checkpoint interval must be positive, "
                         f"got {interval}")
    checkpoints: list[Checkpoint] = []
    with TraceReader(path) as reader:
        header = reader.header
        program = compiled_program(os.fspath(path), header)
        check_functions(program, header)
        memory = Memory(program, header.stack_limit)
        scan = _ScanState(program)
        block: dict = {}

        def hook(offset, records, time, prev_a, prev_b):
            block.update(offset=offset, records=records, time=time,
                         prev=_sparse_prev(prev_a, prev_b))

        def cut_at_seams():
            # The dispatch loop pulls the next slice only once every
            # earlier event is dispatched, so the state is exactly the
            # seam's when a slice that starts at a seam is requested.
            seam = interval
            time = 0
            for batch in reader.batches(block_hook=hook):
                start = block["records"]
                pos = 0
                while seam < start + len(batch):
                    cut = seam - start
                    codec = {"prev": block["prev"]}
                    if cut:
                        yield batch.slice(pos, cut)
                        time = int(batch.t[cut - 1])
                        codec.update(time=block["time"], skip=cut)
                    pos = cut
                    checkpoints.append(replace(
                        snapshot_memory(memory, header), index=seam,
                        time=time, offset=block["offset"], codec=codec,
                        cstack=scan.cstack(),
                        shadow=scan.shadow.snapshot()))
                    seam += interval
                if pos < len(batch):
                    yield batch.slice(pos, len(batch))
                    time = int(batch.t[-1])

        dispatch_batches(cut_at_seams(), [scan], memory)
    return checkpoints


def _sidecar_path(path: str) -> str:
    return path + SIDECAR_SUFFIX


def _checkpoints_digest(payloads: list) -> str:
    """SHA-256 of the checkpoint payloads as canonical JSON."""
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _read_sidecar(path: str, interval: int | None) -> dict | None:
    """The sidecar's JSON if it still matches the trace (same schema,
    size and header digest), its checkpoints still match their digest
    and, when ``interval`` is given, it was built at that interval;
    missing, stale, torn or damaged sidecars all read as ``None``."""
    try:
        size = os.path.getsize(path)
        with TraceReader(path) as reader:
            key = {"schema": _SIDECAR_SCHEMA, "size": size,
                   "digest": reader.header.digest}
        with open(_sidecar_path(path)) as handle:
            data = json.load(handle)
        if not (isinstance(data, dict)
                and isinstance(data.get("checkpoints"), list)):
            return None
        key["checkpoints_digest"] = _checkpoints_digest(
            data["checkpoints"])
    except (OSError, ValueError, TraceError):
        return None
    if interval is not None:
        key["interval"] = interval
    if all(data.get(k) == v for k, v in key.items()):
        return data
    return None


def _ints(values, lo: int, hi: int) -> bool:
    return all(type(v) is int and lo <= v < hi for v in values)


def _in_range(checkpoints: list[Checkpoint], path: str) -> bool:
    """Does every value a segment restores from ``checkpoints`` lie in
    range for the trace at ``path``: frames and ``last_popped`` in the
    header's function table, ``cstack`` pcs construct heads, shadow
    values in int64? A sidecar whose key still matches but whose body
    was damaged fails here instead of in a worker."""
    with TraceReader(path) as reader:
        header = reader.header
    heads = construct_table(compiled_program(path, header)).by_pc
    n = len(header.functions)
    int64 = 1 << 63

    def in_range(checkpoint: Checkpoint) -> bool:
        popped = checkpoint.last_popped or [0, 0]
        return (_ints(checkpoint.frames, 0, n)
                and len(popped) == 2 and _ints(popped[:1], 0, n)
                and _ints(popped[1:], 0, int64)
                and all(len(entry) == 2 and entry[0] in heads
                        and _ints(entry, 0, int64)
                        for entry in checkpoint.cstack)
                and all(len(row) == 4 and _ints(row[:3], -int64, int64)
                        and all(len(read) == 2
                                and _ints(read, -int64, int64)
                                for read in row[3])
                        for row in checkpoint.shadow))

    try:
        return all(in_range(checkpoint) for checkpoint in checkpoints)
    except (TypeError, ValueError):  # a value of the wrong shape
        return False


def probe_sidecar(path: str | os.PathLike) -> dict | None:
    """Non-destructively inspect the ``.ckpt`` sidecar of ``path``.

    Returns ``{"checkpoints": N, "interval": I}`` when a valid sidecar
    exists (at any interval), else ``None`` — exactly what the loader
    would find.
    """
    data = _read_sidecar(os.fspath(path), None)
    if data is None:
        return None
    return {"checkpoints": len(data["checkpoints"]),
            "interval": data.get("interval")}


def load_or_build_checkpoints(path: str | os.PathLike,
                              interval: int | None = None,
                              build: bool = True) -> list[Checkpoint]:
    """Scan-built checkpoints with a ``.ckpt`` sidecar cache.

    A valid sidecar is used as is when ``interval`` is None (whatever
    interval built it) or equals its interval. Otherwise, unless
    ``build`` is off, the trace is scanned at ``interval`` (default
    :data:`DEFAULT_CHECKPOINT_INTERVAL`) and the sidecar replaced. The
    cache is keyed on the trace's size and header digest, so a
    re-recorded file never resurrects stale seams; a sidecar whose
    payloads no longer match their digest, do not parse or hold values
    out of range for the trace is stale too. Sidecar I/O failures
    degrade to scanning, never to an error.
    """
    path = os.fspath(path)
    data = _read_sidecar(path, interval)
    if data is not None:
        try:
            checkpoints = [Checkpoint.from_payload(p)
                           for p in data["checkpoints"]]
        except TraceError:
            checkpoints = None
        if checkpoints is not None and _in_range(checkpoints, path):
            return checkpoints
    if not build:
        return []
    if interval is None:
        interval = DEFAULT_CHECKPOINT_INTERVAL
    checkpoints = build_checkpoints(path, interval)
    with TraceReader(path) as reader:
        header = reader.header
    payloads = [c.to_payload() for c in checkpoints]
    _write_sidecar(_sidecar_path(path), {
        "schema": _SIDECAR_SCHEMA, "size": os.path.getsize(path),
        "digest": header.digest, "interval": interval,
        "checkpoints_digest": _checkpoints_digest(payloads),
        "checkpoints": payloads})
    return checkpoints


def _write_sidecar(side: str, payload: dict) -> None:
    """Atomically publish the sidecar (see
    :func:`repro.util.atomic_write_json`) so a crash mid-dump or a
    concurrent parallel replay never observes a torn file — readers see
    either the old complete sidecar or the new one (a torn sidecar
    would silently force a rescan on every later replay). I/O failures
    degrade to not caching, never to an error."""
    from repro.util import atomic_write_json

    try:
        atomic_write_json(side, payload, indent=None)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    """One independently replayable slice: start from ``checkpoint``,
    consume events up to ``end_index`` (exclusive; None = to FINISH)."""

    ordinal: int
    checkpoint: Checkpoint
    end_index: int | None

    def event_budget(self) -> int | None:
        if self.end_index is None:
            return None
        return self.end_index - self.checkpoint.index


@dataclass
class ShardPlan:
    """How one trace splits across workers."""

    path: str
    segments: list[Segment]
    #: Where the seams came from: "scan" (the ``.ckpt`` sidecar, cached
    #: or freshly built) or "serial" (no seams usable).
    source: str
    total_events: int = 0

    @property
    def is_parallel(self) -> bool:
        return len(self.segments) > 1


def plan_shards(path: str | os.PathLike, jobs: int,
                interval: int | None = None,
                allow_scan: bool = True,
                oversubscribe: int = 2) -> ShardPlan:
    """Choose the seams for a ``jobs``-worker replay of ``path``.

    Seams come from :func:`load_or_build_checkpoints`: an existing
    sidecar at any interval unless ``interval`` asks for a specific
    one, else a scan (skipped when ``allow_scan`` is off). With more
    seams than needed, every ``stride``-th one is kept, targeting about
    ``jobs * oversubscribe`` segments so the pool stays busy when
    segments finish unevenly; fewer seams than workers degrades
    gracefully to fewer (possibly one) segments.
    """
    path = os.fspath(path)
    with TraceReader(path) as reader:
        events_start = reader.events_start
        total = reader.read_footer().events
    checkpoints = (load_or_build_checkpoints(path, interval,
                                             build=allow_scan)
                   if jobs > 1 else [])
    if not checkpoints:
        return ShardPlan(
            path=path, source="serial",
            total_events=total,
            segments=[Segment(0, genesis_checkpoint(events_start), None)])
    target = max(2, jobs * max(1, oversubscribe))
    stride = max(1, (len(checkpoints) + 1) // target)
    chosen = checkpoints[stride - 1::stride]
    starts = [genesis_checkpoint(events_start)] + chosen
    segments = []
    for ordinal, start in enumerate(starts):
        end = (starts[ordinal + 1].index
               if ordinal + 1 < len(starts) else None)
        segments.append(Segment(ordinal, start, end))
    return ShardPlan(path=path, segments=segments,
                     source="scan", total_events=total)
