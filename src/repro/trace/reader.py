"""Lazy trace reading: stream events without loading the file.

:class:`TraceReader` parses the header eagerly (it is small), sniffs
the schema version from the envelope, and then decodes block by block
(:meth:`TraceReader.batches`, one columnar batch per block), so a trace
larger than memory replays in constant space. :meth:`TraceReader.events`
is the row view of the same batches: plain tuples
``(etype, a, b, timestamp)`` with the *absolute* timestamp already
reconstructed from the stored deltas.

Error handling contract (exercised by the format tests):

* wrong magic or a header that fails to parse → :class:`TraceError`;
* any version but :data:`TRACE_VERSION_V2` (retired v1 files
  included) → :class:`TraceVersionError`;
* EOF before the FINISH event — whether the cut lands in the header, a
  block header, or mid-block — or a missing footer/trailer →
  :class:`TraceTruncatedError`;
* a block that fails to decompress or whose declared length lies →
  :class:`TraceError`.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator

from repro.trace.codec import Event, V2BatchDecoder
from repro.trace.columnar import EventBatch
from repro.trace.events import (MAGIC, TRACE_VERSION_V2, TRAILER,
                                TraceError, TraceFooter, TraceHeader,
                                TraceTruncatedError, TraceVersionError,
                                source_digest, unpack_length,
                                unpack_version)


class TraceReader:
    """Streams one trace file; each ``batches()``/``events()`` call
    restarts from the first record, so a reader can replay the same
    trace repeatedly."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: BinaryIO = open(self.path, "rb")
        #: Schema version of the file (always 2 once the header parsed).
        self.version: int = 0
        self.header = self._read_header()
        self._events_start = self._handle.tell()
        #: Populated once ``batches()`` has been fully consumed.
        self.footer: TraceFooter | None = None
        #: The decoder of the most recent pass (exposes per-stream
        #: stats such as block/byte counts).
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
        if version != TRACE_VERSION_V2:
            raise TraceVersionError(
                f"{self.path}: trace schema version {version}, this "
                f"reader understands only {TRACE_VERSION_V2}")
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
        """File offset of the first block (shard-scan checkpoint
        offsets are relative to this)."""
        return self._events_start

    def batches(self, block_hook=None,
                columnar: bool = True) -> Iterator[EventBatch]:
        """Yield one :class:`EventBatch` per block until FINISH; the
        footer is then parsed and exposed as :attr:`footer`.

        ``block_hook`` is forwarded to the decoder — the shard
        scanner's window into block boundaries. ``columnar=False``
        decodes every block with the scalar reference loop.
        """
        self._handle.seek(self._events_start)
        decoder = V2BatchDecoder(self._handle, self.path,
                                 block_hook=block_hook,
                                 scalar=not columnar)
        self.decoder = decoder
        yield from decoder.batches()
        # The decoder returned, so FINISH was seen (anything else
        # raised); everything after the records is the footer.
        self.read_footer()

    def events(self) -> Iterator[Event]:
        """Yield ``(etype, a, b, timestamp)`` for every recorded event
        (FINISH included): the rows of :meth:`batches`."""
        for batch in self.batches():
            yield from batch.rows()

    def batches_from(self, offset: int,
                     codec_state: dict | None = None,
                     columnar: bool = True) -> Iterator[EventBatch]:
        """Stream :class:`EventBatch` objects from a checkpointed seam
        instead of the start.

        ``offset`` must be a block boundary and ``codec_state`` the
        decoder state a checkpoint captured there ({"time": ...,
        "prev": {...}}, plus ``"skip"`` records to drop for a seam
        inside the block); anything else desynchronizes the delta
        decoding. The caller owns termination — this iterator neither
        stops at the next checkpoint nor reads the footer (segment
        drivers consume exactly their slice; the FINISH record still
        ends the stream for the final segment).
        """
        self._handle.seek(offset)
        decoder = V2BatchDecoder(self._handle, self.path,
                                 state=codec_state, scalar=not columnar)
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
