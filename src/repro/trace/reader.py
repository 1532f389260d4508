"""Lazy trace reading: stream events without loading the file.

:class:`TraceReader` parses the header eagerly (it is small), sniffs
the schema version from the envelope, and then yields events chunk by
chunk (v1) or block by block (v2), so a trace larger than memory
replays in constant space. Each yielded event is a plain tuple
``(etype, a, b, timestamp)`` with the *absolute* timestamp already
reconstructed from the stored deltas — consumers never see which wire
format the file used.

Error handling contract (exercised by the format tests):

* wrong magic or a header that fails to parse → :class:`TraceError`;
* a version outside :data:`SUPPORTED_TRACE_VERSIONS` →
  :class:`TraceVersionError`;
* EOF before the FINISH event — whether the cut lands in the header, a
  v1 record, a v2 block header, or mid-block — or a missing
  footer/trailer → :class:`TraceTruncatedError`;
* a v2 block that fails to decompress or whose declared length lies →
  :class:`TraceError`.
"""

from __future__ import annotations

import itertools
import os
from typing import BinaryIO, Iterator

from repro.trace.codec import Event, make_decoder
from repro.trace.columnar import EventBatch, columnar_enabled
from repro.trace.events import (MAGIC, RECORD_SIZE,
                                SUPPORTED_TRACE_VERSIONS, TRACE_VERSION_V1,
                                TRAILER, TraceError, TraceFooter,
                                TraceHeader, TraceTruncatedError,
                                TraceVersionError, source_digest,
                                unpack_length, unpack_version)


class TraceReader:
    """Streams one trace file; each ``events()`` call restarts from the
    first record, so a reader can replay the same trace repeatedly."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: BinaryIO = open(self.path, "rb")
        #: Schema version of the file (auto-detected; 1 or 2).
        self.version: int = 0
        self.header = self._read_header()
        self._events_start = self._handle.tell()
        #: Populated once ``events()`` has been fully consumed.
        self.footer: TraceFooter | None = None
        #: The decoder of the most recent ``events()`` pass (exposes
        #: per-stream stats such as v2 block/byte counts).
        self.decoder = None

    # -- setup -------------------------------------------------------------

    def _read_header(self) -> TraceHeader:
        magic = self._handle.read(len(MAGIC))
        if len(magic) < len(MAGIC):
            raise TraceTruncatedError(f"{self.path}: shorter than the magic")
        if magic != MAGIC:
            raise TraceError(f"{self.path}: not an Alchemist trace "
                             f"(bad magic {magic!r})")
        version = unpack_version(self._handle.read(2))
        if version not in SUPPORTED_TRACE_VERSIONS:
            known = ", ".join(str(v) for v in SUPPORTED_TRACE_VERSIONS)
            raise TraceVersionError(
                f"{self.path}: trace schema version {version}, this "
                f"reader understands only {known}")
        self.version = version
        length = unpack_length(self._handle.read(4))
        blob = self._handle.read(length)
        if len(blob) < length:
            raise TraceTruncatedError(f"{self.path}: truncated header")
        return TraceHeader.from_bytes(blob)

    def verify_source(self, source: str) -> bool:
        """Does ``source`` match the program this trace recorded?"""
        return source_digest(source) == self.header.digest

    # -- streaming ---------------------------------------------------------

    @property
    def events_start(self) -> int:
        """File offset of the first event record (v1 footer arithmetic
        and shard-scan checkpoint offsets are relative to this)."""
        return self._events_start

    def events(self, block_hook=None,
               columnar: bool | None = None) -> Iterator[Event]:
        """Yield ``(etype, a, b, timestamp)`` for every recorded event.

        The FINISH event is yielded too (consumers map it to
        ``on_finish``); afterwards the footer is parsed and exposed as
        :attr:`footer`. ``block_hook`` is forwarded to a v2 decoder
        (ignored for v1) — the shard scanner's window into block
        boundaries. ``columnar`` picks the v2 decoder flavor: the
        batch decoder streams the same events block-at-a-time (the
        default when numpy is available; see
        :func:`repro.trace.columnar.columnar_enabled`).
        """
        self._handle.seek(self._events_start)
        decoder = make_decoder(self.version, self._handle, self.path,
                               block_hook=block_hook,
                               columnar=(self.version != TRACE_VERSION_V1
                                         and columnar_enabled(columnar)))
        self.decoder = decoder
        yield from decoder.events()
        # The decoder returned, so FINISH was seen (anything else
        # raised); everything after the records is the footer.
        if self.version == TRACE_VERSION_V1:
            self._read_footer_v1(decoder.records)
        else:
            self.read_footer()

    def batches(self, block_hook=None) -> Iterator[EventBatch]:
        """Yield one :class:`EventBatch` per v2 block (the replay
        engines' fast path), then parse the footer like :meth:`events`.

        Raises :class:`TraceError` for v1 traces — fixed records have
        no block framing; callers fall back to :meth:`events`.
        """
        if self.version == TRACE_VERSION_V1:
            raise TraceError(
                f"{self.path}: columnar batches need a v2 trace")
        self._handle.seek(self._events_start)
        decoder = make_decoder(self.version, self._handle, self.path,
                               block_hook=block_hook, columnar=True)
        self.decoder = decoder
        yield from decoder.batches()
        self.read_footer()

    def _read_footer_v1(self, records: int) -> None:
        """Parse ``[blob][len][trailer]``, right after the records."""
        handle = self._handle
        handle.seek(self._events_start + records * RECORD_SIZE)
        tail = handle.read()
        if len(tail) < 4 + len(TRAILER):
            raise TraceTruncatedError(f"{self.path}: missing footer")
        if tail[-len(TRAILER):] != TRAILER:
            raise TraceTruncatedError(
                f"{self.path}: missing end-of-trace trailer "
                "(recording did not finish cleanly)")
        blob = tail[:-4 - len(TRAILER)]
        length = unpack_length(tail[-4 - len(TRAILER):-len(TRAILER)])
        if length != len(blob):
            raise TraceTruncatedError(
                f"{self.path}: footer length mismatch "
                f"({length} recorded, {len(blob)} present)")
        self.footer = TraceFooter.from_bytes(blob)

    def events_from(self, offset: int,
                    codec_state: dict | None = None,
                    columnar: bool | None = None) -> Iterator[Event]:
        """Stream events from a checkpointed seam instead of the start.

        ``offset`` must be a block boundary (v2) or a record boundary
        (v1) and ``codec_state`` the decoder state a checkpoint
        captured there ({"time": ..., "prev": {...}}, plus ``"skip"``
        records to drop for a seam inside the v2 block); anything else
        desynchronizes the delta decoding. The caller owns termination
        — this iterator neither stops at the next checkpoint nor reads
        the footer (segment drivers consume exactly their slice; the
        FINISH record still ends the stream for the final segment).
        """
        self._handle.seek(offset)
        decoder = make_decoder(self.version, self._handle, self.path,
                               state=codec_state,
                               columnar=(self.version != TRACE_VERSION_V1
                                         and columnar_enabled(columnar)))
        self.decoder = decoder
        skip = (codec_state or {}).get("skip", 0)
        return itertools.islice(decoder.events(), skip, None)

    def batches_from(self, offset: int,
                     codec_state: dict | None = None
                     ) -> Iterator[EventBatch]:
        """Batch flavor of :meth:`events_from`: stream
        :class:`EventBatch` objects from a checkpointed v2 seam. Same
        caller-owns-termination contract (no footer read)."""
        if self.version == TRACE_VERSION_V1:
            raise TraceError(
                f"{self.path}: columnar batches need a v2 trace")
        self._handle.seek(offset)
        decoder = make_decoder(self.version, self._handle, self.path,
                               state=codec_state, columnar=True)
        self.decoder = decoder
        return _skip_rows(decoder.batches(),
                          (codec_state or {}).get("skip", 0))

    def read_footer(self) -> TraceFooter:
        """Footer without streaming events (located from the file end)."""
        if self.footer is not None:
            return self.footer
        handle = self._handle
        size = os.path.getsize(self.path)
        suffix = 4 + len(TRAILER)
        if size < self._events_start + suffix:
            raise TraceTruncatedError(f"{self.path}: missing footer")
        handle.seek(size - suffix)
        length = unpack_length(handle.read(4))
        if handle.read(len(TRAILER)) != TRAILER:
            raise TraceTruncatedError(
                f"{self.path}: missing end-of-trace trailer "
                "(recording did not finish cleanly)")
        start = size - suffix - length
        if start < self._events_start:
            raise TraceTruncatedError(f"{self.path}: footer length "
                                      "exceeds the file")
        handle.seek(start)
        self.footer = TraceFooter.from_bytes(handle.read(length))
        return self.footer

    # -- cleanup -----------------------------------------------------------

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _skip_rows(batches: Iterator[EventBatch],
               skip: int) -> Iterator[EventBatch]:
    """Drop the first ``skip`` rows of a batch stream (a seam inside
    the first block)."""
    for batch in batches:
        if skip:
            if skip >= len(batch):
                skip -= len(batch)
                continue
            batch = batch.slice(skip, len(batch))
            skip = 0
        yield batch
