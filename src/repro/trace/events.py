"""The trace file format: layout constants, header/footer, errors.

A trace file is::

    magic      8 bytes   b"ALCHTRC\\0"
    version    u16 LE    2 (readers reject anything else)
    hdr_len    u32 LE
    header     hdr_len bytes of zlib-compressed JSON (TraceHeader)
    events     the v2 event stream, ended by FINISH
    footer     zlib-compressed JSON (TraceFooter)
    ftr_len    u32 LE    footer length (trailing, so the footer can be
                         located from the end of the file too)
    trailer    8 bytes   b"ALCHEND\\0"

The events section holds delta-encoded, varint-packed records grouped
into zlib-compressed blocks: per record a type byte, the zigzag-varint
deltas of ``a`` and ``b`` against the previous record *of the same
type*, and the uvarint timestamp delta (timestamps are instruction
counts, monotone within a run). The codec lives in
:mod:`repro.trace.codec`; the wire spec is ``docs/trace-format.md``.
Version 1 (fixed 13-byte records) is retired: its files raise
:class:`TraceVersionError`.

The header embeds the program source (compressed) plus its SHA-256
digest, so a trace is self-contained: replay recompiles the embedded
source and verifies the digest rather than trusting a separate file.
The function-name table is fixed at record time (compilation order), so
ENTER/EXIT events carry a small index instead of a string. Every
header carries ``"sampling":"full"``, a constant of the format: a
trace always holds every event, and a header naming anything else
(written by a recorder that could drop memory events) is rejected.

Operands and deltas must fit 32 bits; the recorder and the encoder
raise :class:`TraceError` otherwise (addresses are word indices, so
this bounds traced memory at 4G words — far beyond any bundled
workload).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from struct import Struct

from repro.runtime.tracing import (EV_ALLOC, EV_BLOCK, EV_BRANCH, EV_ENTER,
                                   EV_EXIT, EV_FINISH, EV_FREE, EV_READ,
                                   EV_WRITE)

MAGIC = b"ALCHTRC\0"
TRAILER = b"ALCHEND\0"

#: The one schema version written and read.
TRACE_VERSION_V2 = 2

_VERSION_STRUCT = Struct("<H")
_LEN_STRUCT = Struct("<I")

# -- event type bytes -------------------------------------------------------
# EV_ENTER .. EV_FINISH are the record types the interpreter emits
# (repro.runtime.tracing documents their operands); EV_CHECKPOINT is
# the format's own.

#: Shard seam marker (v2, a = checkpoint ordinal) written by older
#: recorders, which also embedded the matching snapshot in the footer.
#: Still read — replay dispatch ignores it and the seam scan counts it
#: as an ordinary event — but never written: seams now live only in
#: the scan-built ``.ckpt`` sidecar (:mod:`repro.trace.shards`).
EV_CHECKPOINT = 10

EVENT_NAMES = {
    EV_ENTER: "enter",
    EV_EXIT: "exit",
    EV_BLOCK: "block",
    EV_BRANCH: "branch",
    EV_READ: "read",
    EV_WRITE: "write",
    EV_ALLOC: "alloc",
    EV_FREE: "free",
    EV_FINISH: "finish",
    EV_CHECKPOINT: "checkpoint",
}

class TraceError(Exception):
    """A malformed, unwritable, or out-of-range trace."""


class TraceVersionError(TraceError):
    """The trace was written by an incompatible schema version."""


class TraceTruncatedError(TraceError):
    """The trace ends mid-stream (crash or partial copy)."""


def source_digest(source: str) -> str:
    """SHA-256 of the program source, the trace's identity check."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class TraceHeader:
    """Everything replay needs before the first event."""

    digest: str
    filename: str
    source: str
    globals_size: int
    stack_limit: int
    heap_base: int
    #: Function names in compilation order; ENTER/EXIT events index this.
    functions: list[str] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        payload = json.dumps({**self.__dict__, "sampling": "full"},
                             separators=(",", ":"))
        return zlib.compress(payload.encode("utf-8"), 6)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceHeader":
        try:
            data = json.loads(zlib.decompress(blob))
            sampling = data.pop("sampling", "full")
            header = cls(**data)
        except (zlib.error, ValueError, TypeError, AttributeError) as exc:
            raise TraceError(f"corrupt trace header: {exc}") from exc
        if sampling != "full":
            raise TraceError(f"sampled traces ({sampling}) are no longer "
                             "supported")
        return header


@dataclass
class TraceFooter:
    """Run outcome, written after the last event."""

    exit_value: int
    #: ``print()`` output, one tuple of ints per statement.
    output: list[list[int]] = field(default_factory=list)
    events: int = 0
    final_time: int = 0

    def to_bytes(self) -> bytes:
        payload = json.dumps(self.__dict__, separators=(",", ":"))
        return zlib.compress(payload.encode("utf-8"), 6)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceFooter":
        try:
            data = json.loads(zlib.decompress(blob))
            # Older recorders embedded a shard-seam table here; seams
            # now come only from the .ckpt sidecar scan.
            data.pop("checkpoints", None)
            return cls(**data)
        except (zlib.error, ValueError, TypeError) as exc:
            raise TraceError(f"corrupt trace footer: {exc}") from exc


def pack_version() -> bytes:
    return _VERSION_STRUCT.pack(TRACE_VERSION_V2)


def unpack_version(blob: bytes) -> int:
    if len(blob) != _VERSION_STRUCT.size:
        raise TraceTruncatedError("trace ends inside the version field")
    return _VERSION_STRUCT.unpack(blob)[0]


def pack_length(length: int) -> bytes:
    return _LEN_STRUCT.pack(length)


def unpack_length(blob: bytes) -> int:
    if len(blob) != _LEN_STRUCT.size:
        raise TraceTruncatedError("trace ends inside a length field")
    return _LEN_STRUCT.unpack(blob)[0]
