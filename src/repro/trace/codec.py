"""Event-stream codec: the v2 wire format.

The file envelope (magic, header, footer, trailer) lives in
:mod:`repro.trace.events`; this module owns only the *events* section
in between. Both sides are here so the writer and reader cannot drift
apart, and so the round-trip fuzz tests can drive the codec directly
without building a whole file.

v2 packs each event as::

    type      1 byte
    zz(Δa)    uvarint   zigzag delta of ``a`` vs the previous record
                        of the SAME type
    zz(Δb)    uvarint   likewise for ``b``
    Δt        uvarint   timestamp delta vs the previous record (any
                        type; timestamps are globally monotone)

and groups records into independently zlib-compressed blocks framed
as ``<II`` (compressed length, uncompressed length). Per-type deltas
make sequential address sweeps and repeated PCs collapse to one or two
bytes before compression; zlib then squeezes the remaining structure.
A block boundary never splits a record, and the per-type delta state
deliberately carries *across* blocks (blocks are primarily a framing
unit — traces stream start to end). Block boundaries double as shard
seams, though: both sides expose their delta state (``state()`` on the
encoder, the ``state`` constructor argument on the decoder), so a
checkpoint can capture the deltas at a boundary and a later reader can
seek to that block and resume decoding mid-file
(:mod:`repro.trace.shards`).

The writer encodes a block at a time: :class:`BlockEncoder` takes the
recorder's flushed columns and turns them into framed blocks with a
handful of numpy array ops. :class:`V2Encoder`, the per-record loop,
is the reference encoder behind :func:`encode_events`; the tests pin
the two to the same bytes.

One decoder, :class:`V2BatchDecoder`, yields one columnar
:class:`~repro.trace.columnar.EventBatch` per block. Its scalar
per-record loop is the reference semantics: the vectorized kernel only
takes blocks it can prove well-formed.

Decoding errors follow the reader's contract: a file that ends inside
a block frame or whose decompressed payload stops mid-record raises
:class:`TraceTruncatedError`; a block that fails to decompress or
whose length field lies raises :class:`TraceError`, and so does the
first record with an operand outside the writer's ``[0, 2^32)`` or a
clock past int64 — so every decoded column holds int64 values.
"""

from __future__ import annotations

import zlib
from struct import Struct
from typing import BinaryIO, Iterator

import numpy as np

from repro.trace.columnar import EventBatch, decode_block_columns
from repro.trace.events import EV_FINISH, TraceError, TraceTruncatedError

#: v2 block frame: compressed payload length, uncompressed length.
BLOCK_HEADER = Struct("<II")
BLOCK_HEADER_SIZE = BLOCK_HEADER.size

#: Flush a v2 block once this much uncompressed record data buffered.
DEFAULT_BLOCK_BYTES = 1 << 16

#: The largest clock a record may carry: every consumer holds
#: timestamps in int64 columns.
_INT64_MAX = (1 << 63) - 1

Event = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# varint primitives (LEB128 + zigzag)
# ---------------------------------------------------------------------------

def zigzag(n: int) -> int:
    """Map a signed int to an unsigned one with small-magnitude bias.

    Reference implementation: the encoder/decoder hot loops inline
    this transform, and the codec fuzz tests pin the inlined copies
    against these functions.
    """
    return n * 2 if n >= 0 else -n * 2 - 1


def unzigzag(z: int) -> int:
    """Inverse of :func:`zigzag` (same reference-implementation role)."""
    return z >> 1 if not z & 1 else -(z >> 1) - 1


def append_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


#: Hard length cap for one varint: 10 x 7-bit groups cover the full
#: 64-bit range. A longer run of continuation bytes cannot be data —
#: only corruption — and without the cap a corrupt block decodes into
#: an arbitrarily huge int (unbounded shift = CPU/memory blowup).
MAX_VARINT_BYTES = 10


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one uvarint at ``pos``; returns (value, new pos).

    Bounded: raises ``TraceError("overlong varint ...")`` after
    :data:`MAX_VARINT_BYTES` bytes instead of shifting forever.
    """
    result = 0
    shift = 0
    end = len(data)
    limit = pos + MAX_VARINT_BYTES
    while True:
        if pos >= end:
            raise TraceTruncatedError(
                "event record cut mid-way (varint runs past the block)")
        if pos >= limit:
            raise TraceError(
                f"overlong varint: runs past {MAX_VARINT_BYTES} bytes "
                "(the 64-bit cap) — corrupt block")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ---------------------------------------------------------------------------
# Encoder: writer-side
# ---------------------------------------------------------------------------

#: A varint value above each of these takes one more byte.
_VARINT_LIMITS = (0x7F, 0x3FFF, 0x1FFFFF, 0xFFFFFFF)


def _varint_byte(values: np.ndarray, more: np.ndarray) -> np.ndarray:
    """The varint bytes holding the low 7 bits of ``values``, with the
    continuation bit where ``more``: a value that ends here is below
    2^7 (or is a whole type byte), so its own low byte is the byte."""
    return values.astype(np.uint8) | (more.view(np.uint8) << 7)


def _frame(raw: bytes) -> bytes:
    """One block: ``raw`` compressed at zlib level 6 behind its frame."""
    payload = zlib.compress(raw, 6)
    return BLOCK_HEADER.pack(len(payload), len(raw)) + payload


class BlockEncoder:
    """The writer's encoder: whole batches of absolute-clock records in,
    framed blocks out.

    :meth:`encode` takes one :class:`EventBatch` and returns the blocks
    it completes; :meth:`finish` returns the last, partial one. The
    bytes equal :class:`V2Encoder`'s for the same records however the
    batches are sized: a block is cut after the first record that
    brings its raw bytes to ``block_bytes``, and the raw tail past the
    last cut waits for the next batch, as do the per-type deltas and
    the clock. A record with an operand outside ``[0, 2^32)`` or a
    clock step outside it raises :class:`TraceError` naming its index
    in the stream; nothing of that batch is encoded.
    """

    def __init__(self, block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        if block_bytes <= 0:
            raise ValueError(
                f"block_bytes must be positive, got {block_bytes}")
        self.block_bytes = block_bytes
        #: Records encoded so far (all batches).
        self.events = 0
        self._time = 0
        self._prev_a = np.zeros(256, np.int64)
        self._prev_b = np.zeros(256, np.int64)
        self._tail = b""

    def encode(self, batch: EventBatch) -> bytes:
        n = len(batch)
        if not n:
            return b""
        etypes, a, b, t = batch.arrays()
        # A record is four items: its type byte, then zigzag(Δa),
        # zigzag(Δb) and Δt, each a varint.
        items = np.empty((n, 4), np.int64)
        items[:, 0] = etypes
        dt = items[:, 3]
        dt[0] = t[0] - self._time
        np.subtract(t[1:], t[:-1], out=dt[1:])
        wide = (a | b | dt) >> 32  # anything outside [0, 2^32)
        if wide.any():
            i = int(np.flatnonzero(wide)[0])
            for what, value in (("operand", int(a[i])),
                                ("operand", int(b[i])),
                                ("timestamp delta", int(dt[i]))):
                if value >> 32:
                    raise TraceError(f"event {self.events + i}: {what} "
                                     f"{value} does not fit the 32-bit "
                                     "trace record format")
        self._operand_deltas(etypes, a, b, items)
        self._time = int(t[-1])
        self.events += n
        # Varint lengths (1-5 bytes: every value is below 2^33), the
        # items' offsets, then the bytes: the first of every item, then
        # the continuation bytes of the few longer ones.
        sizes = np.ones((n, 4), np.int8)
        for limit in _VARINT_LIMITS:
            sizes += items > limit
        sizes[:, 0] = 1
        sizes = sizes.ravel()
        ends = np.cumsum(sizes, dtype=np.int64)
        starts = ends - sizes
        values = items.ravel()
        more = sizes > 1
        out = np.empty(int(ends[-1]), np.uint8)
        out[starts] = _varint_byte(values, more)
        longer = np.flatnonzero(more)
        k = 1
        while longer.size:  # byte k of the items longer than k bytes
            more = sizes[longer] > k + 1
            out[starts[longer] + k] = _varint_byte(
                values[longer] >> 7 * k, more)
            longer = longer[more]
            k += 1
        # Cut a block after the first record that brings its raw bytes
        # to block_bytes; the bytes past the last cut wait as the tail.
        raw = self._tail + out.tobytes()
        record_ends = ends[3::4] + len(self._tail)
        frames = []
        start = 0
        while True:
            cut = int(np.searchsorted(record_ends,
                                      start + self.block_bytes))
            if cut == n:
                break
            end = int(record_ends[cut])
            frames.append(_frame(raw[start:end]))
            start = end
        self._tail = raw[start:]
        return b"".join(frames)

    def _operand_deltas(self, etypes, a, b, items) -> None:
        """Fill ``items[:, 1:3]`` with zigzag(Δa), zigzag(Δb): each
        against the previous record of the same type, a type's first
        record in the batch against its carried slot."""
        n = len(etypes)
        order = np.argsort(etypes.astype(np.uint8), kind="stable")
        kinds = etypes[order]
        first = np.empty(n, bool)
        first[0] = True
        np.not_equal(kinds[1:], kinds[:-1], out=first[1:])
        last = np.empty(n, bool)
        last[-1] = True
        last[:-1] = first[1:]
        # Where each record's base value sits in ``column ++ prev``.
        base = np.empty(n, np.intp)
        base[order[1:]] = order[:-1]
        base[order[first]] = n + kinds[first]
        for field, column, prev in ((1, a, self._prev_a),
                                    (2, b, self._prev_b)):
            delta = column - np.concatenate((column, prev))[base]
            prev[kinds[last]] = column[order[last]]
            items[:, field] = (delta << 1) ^ (delta >> 63)

    def finish(self) -> bytes:
        """The raw tail as one last block (empty bytes if none)."""
        tail, self._tail = self._tail, b""
        return _frame(tail) if tail else b""


class V2Encoder:
    """Per-record delta/varint encoder; ``take()`` hands back one framed
    block.

    The reference encoder, as :meth:`V2BatchDecoder._decode_scalar` is
    the reference decoder: it backs :func:`encode_events`, the tests'
    byte oracle for :class:`BlockEncoder` (which the writer uses).
    """

    version = 2

    def __init__(self, block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        if block_bytes <= 0:
            raise ValueError(
                f"block_bytes must be positive, got {block_bytes}")
        self.flush_bytes = block_bytes
        self._raw = bytearray()
        # Per-event-type previous operands (256 slots: the type byte's
        # whole range, so a corrupt type can never index out of bounds).
        self._prev_a = [0] * 256
        self._prev_b = [0] * 256
        #: Events encoded so far (all blocks) — names the offender when
        #: a non-monotone clock is rejected below.
        self._events = 0

    def add(self, etype: int, a: int, b: int, delta: int) -> None:
        if delta < 0:
            # An injected non-monotone clock used to fall through to
            # bytearray.append(-1) — a bare ValueError. Timestamp
            # deltas are unsigned on the wire; reject with context.
            raise TraceError(
                f"event {self._events}: clock went backwards "
                f"(timestamp delta {delta}); v2 encodes unsigned "
                "time deltas")
        self._events += 1
        prev_a = self._prev_a
        da = a - prev_a[etype]
        prev_a[etype] = a
        za = da + da if da >= 0 else -da - da - 1
        prev_b = self._prev_b
        db = b - prev_b[etype]
        prev_b[etype] = b
        zb = db + db if db >= 0 else -db - db - 1
        buf = self._raw
        if za < 0x80 and zb < 0x80 and delta < 0x80:
            # The overwhelmingly common record: three single-byte
            # varints (small per-type deltas), appended inline.
            buf.append(etype)
            buf.append(za)
            buf.append(zb)
            buf.append(delta)
            return
        buf.append(etype)
        append_uvarint(buf, za)
        append_uvarint(buf, zb)
        append_uvarint(buf, delta)

    def pending(self) -> int:
        return len(self._raw)

    def take(self) -> bytes:
        """One framed, compressed block (empty bytes if nothing pends)."""
        raw = self._raw
        if not raw:
            return b""
        frame = _frame(bytes(raw))
        raw.clear()
        return frame

    def state(self) -> dict:
        """Sparse snapshot of the per-type delta state, JSON-able.

        Meaningful only when nothing is pending (i.e. right after
        ``take()``): the checkpoint machinery captures it at a block
        boundary and hands it to a decoder's ``state`` argument so
        decoding can resume at that boundary.
        """
        prev = {}
        prev_a, prev_b = self._prev_a, self._prev_b
        for etype in range(256):
            if prev_a[etype] or prev_b[etype]:
                prev[str(etype)] = [prev_a[etype], prev_b[etype]]
        return {"prev": prev}


# ---------------------------------------------------------------------------
# Decoder: reader-side
# ---------------------------------------------------------------------------

class V2BatchDecoder:
    """Streams block-framed varint records until FINISH, one
    :class:`EventBatch` per block.

    Tracks :attr:`records`, :attr:`blocks`, :attr:`compressed_bytes`
    and :attr:`raw_bytes` for the ``info`` verb's size accounting;
    :attr:`blocks_vectorized` / :attr:`blocks_fallback` feed the replay
    engine's decode telemetry counters.

    ``state`` seeds the per-type deltas and the clock so decoding can
    start at a mid-file block boundary (parallel segment replay).
    ``block_hook``, if set, is called right before each block header is
    read as ``hook(offset, records, time, prev_a, prev_b)`` — the exact
    state a checkpoint in that block must capture; the shard scanner
    uses it to build checkpoints.

    :meth:`_decode_scalar` is the reference per-record loop. It decodes
    every block when ``scalar`` is set (the ``columnar=False`` oracle),
    and it re-decodes any block the vectorized kernel cannot prove
    well-formed (corruption, truncation, varints past the legitimate
    5-byte maximum), then stays in charge for the rest of the stream —
    a corrupt trace costs speed, never fidelity. The property-based
    equivalence suite pins the two paths to the same events and the
    same typed errors.
    """

    def __init__(self, handle: BinaryIO, path: str,
                 state: dict | None = None,
                 block_hook=None, scalar: bool = False) -> None:
        self._handle = handle
        self.path = path
        self.records = 0
        self.blocks = 0
        self.compressed_bytes = 0
        self.raw_bytes = 0
        self.blocks_vectorized = 0
        self.blocks_fallback = 0
        self.block_hook = block_hook
        self._time = state.get("time", 0) if state else 0
        # Kept as plain-int lists: the vector kernel reads/writes them
        # in place, the scalar fallback shares them, and block_hook
        # consumers JSON-serialize them (numpy ints would not round-trip).
        self._prev_a = [0] * 256
        self._prev_b = [0] * 256
        if state:
            for etype, (a, b) in dict(state.get("prev", {})).items():
                self._prev_a[int(etype)] = a
                self._prev_b[int(etype)] = b
        self._finished = False
        self._scalar_only = scalar

    def batches(self) -> Iterator[EventBatch]:
        """Yield one :class:`EventBatch` per block until FINISH."""
        handle = self._handle
        while not self._finished:
            if self.block_hook is not None:
                self.block_hook(handle.tell(), self.records, self._time,
                                self._prev_a, self._prev_b)
            frame = handle.read(BLOCK_HEADER_SIZE)
            if not frame:
                raise TraceTruncatedError(
                    f"{self.path}: event stream ends without FINISH")
            if len(frame) < BLOCK_HEADER_SIZE:
                raise TraceTruncatedError(
                    f"{self.path}: trace ends inside a block header")
            comp_len, raw_len = BLOCK_HEADER.unpack(frame)
            payload = handle.read(comp_len)
            if len(payload) < comp_len:
                raise TraceTruncatedError(
                    f"{self.path}: trace ends mid-block "
                    f"({len(payload)} of {comp_len} payload bytes)")
            try:
                data = zlib.decompress(payload)
            except zlib.error as exc:
                raise TraceError(
                    f"{self.path}: corrupt trace block: {exc}") from exc
            if len(data) != raw_len:
                raise TraceError(
                    f"{self.path}: block length mismatch "
                    f"({raw_len} declared, {len(data)} decompressed)")
            self.blocks += 1
            self.compressed_bytes += comp_len
            self.raw_bytes += raw_len
            if not data:
                continue
            batch = None
            if not self._scalar_only:
                batch = self._decode_vector(data)
            if batch is not None:
                self.blocks_vectorized += 1
                self.records += len(batch)
                yield batch
                continue
            # Exact scalar re-decode; corruption rarely stops at one
            # block, so stay scalar for the rest of the stream (the
            # delta state may now hold values the kernel cannot carry).
            self._scalar_only = True
            self.blocks_fallback += 1
            batch, error = self._decode_scalar(data)
            if batch is not None:
                self.records += len(batch)
                yield batch
            if error is not None:
                raise error

    def _decode_vector(self, data: bytes) -> EventBatch | None:
        decoded = decode_block_columns(data, self._prev_a, self._prev_b,
                                       self._time)
        if decoded is None:
            return None
        etypes, a, b, t, finished = decoded
        self._finished = finished
        self._time = int(t[-1])
        return EventBatch(etypes, a, b, t)

    def _decode_scalar(self, data: bytes
                       ) -> tuple[EventBatch | None, Exception | None]:
        """Reference per-record decode of one block into columns.

        A block that breaks off mid-way still yields the events before
        the break: the partial batch is returned first and the error
        raised after it is consumed (prefix-then-raise).
        """
        prev_a = self._prev_a
        prev_b = self._prev_b
        time = self._time
        etypes: list[int] = []
        col_a: list[int] = []
        col_b: list[int] = []
        col_t: list[int] = []
        pos = 0
        end = len(data)
        error: Exception | None = None
        try:
            while pos < end:
                etype = data[pos]
                # Inline uvarint fast path: single-byte fields dominate
                # (the encoder's fast path is their twin). IndexError
                # from a record cut by block truncation is mapped to
                # TraceTruncatedError below.
                za = data[pos + 1]
                if za < 0x80:
                    pos += 2
                else:
                    za, pos = read_uvarint(data, pos + 1)
                a = prev_a[etype] + (za >> 1 if not za & 1
                                     else -(za >> 1) - 1)
                prev_a[etype] = a
                zb = data[pos]
                if zb < 0x80:
                    pos += 1
                else:
                    zb, pos = read_uvarint(data, pos)
                b = prev_b[etype] + (zb >> 1 if not zb & 1
                                     else -(zb >> 1) - 1)
                prev_b[etype] = b
                if (a | b) >> 32:
                    raise TraceError(
                        f"{self.path}: corrupt trace: operand "
                        f"{a if a >> 32 else b} does not fit the 32-bit "
                        "record format")
                delta = data[pos]
                if delta < 0x80:
                    pos += 1
                else:
                    delta, pos = read_uvarint(data, pos)
                time += delta
                if time > _INT64_MAX:
                    raise TraceError(f"{self.path}: corrupt trace: clock "
                                     f"{time} runs past int64")
                etypes.append(etype)
                col_a.append(a)
                col_b.append(b)
                col_t.append(time)
                if etype == EV_FINISH:
                    self._finished = True
                    break
        except IndexError:
            error = TraceTruncatedError(
                f"{self.path}: block ends mid-record")
        except TraceError as exc:  # a bad varint, operand or clock
            error = exc
        self._time = time
        if not etypes:
            return None, error
        return EventBatch.from_lists(etypes, col_a, col_b, col_t), error


def encode_events(events: list[Event],
                  block_bytes: int = DEFAULT_BLOCK_BYTES) -> bytes:
    """Encode absolute-timestamp events into one event-stream blob.

    Test/fuzz helper: the exact bytes a writer would put between the
    header and the footer, without building either.
    """
    encoder = V2Encoder(block_bytes)
    out = bytearray()
    last = 0
    for etype, a, b, t in events:
        encoder.add(etype, a, b, t - last)
        last = t
        if encoder.pending() >= encoder.flush_bytes:
            out += encoder.take()
    out += encoder.take()
    return bytes(out)


def decode_events(blob: bytes, path: str = "<blob>",
                  scalar: bool = False) -> list[Event]:
    """Inverse of :func:`encode_events` (stops after FINISH)."""
    import io

    decoder = V2BatchDecoder(io.BytesIO(blob), path, scalar=scalar)
    return [row for batch in decoder.batches() for row in batch.rows()]
