"""Shadow memory: the one per-address access history.

Every detector with the paper's §III-B semantics — dep, the flat,
context and TEST-style loop baselines, the checkpoint scanner — keeps
its history here, a block at a time in a :class:`ShadowArrays`. For
every traced address the shadow keeps

* the last write: ``(pc, payload, timestamp)``;
* the most recent read per static reader pc since that write.

A read reports a RAW dependence from the last write. A write reports a
WAR dependence from every recorded read and a WAW dependence from the
previous write, then clears the read set (older reads pair with the
previous write, whose WAR edges were already reported — keeping only the
most recent read per static pc preserves the *minimum* Tdep per static
edge, which is what profiles record). So every detector sees the same
pair stream; they differ only in how they attribute it.

The *payload* is an int the shadow does not interpret: the construct
instance row for dep, the calling context's id for the context
baseline, the loop-iteration tag for the TEST baseline, 0 for the flat
baseline and the checkpoint scanner. :data:`BOUNDARY_ID` is the payload
id of pre-segment state seeded into a parallel segment. A FREE row
forgets the state of its range, so address reuse across calls cannot
fabricate dependences.

The shadow also owns the seam format of sharded parallel replay:
:meth:`ShadowArrays.snapshot` writes a checkpoint's ``shadow`` rows
for the seam scan, :meth:`ShadowArrays.seed` reads them back under a
payload id, and :meth:`ShadowArrays.frontier` exports what a segment
added on top.

The block kernel, :meth:`ShadowArrays.step`, reports a whole block's
pairs at once: it sorts the block's accesses by address, behind each
address's carried write and reads; splits every address's accesses
into clear epochs at the frees that cover it (:func:`mark_clear_epochs`,
shared with task-graph extraction); and pairs within each (address,
epoch) group — a read with the latest write before it (RAW), a write
with the latest write before it (WAW) and with the last read per
reader pc since that write (WAR). The state it carries between blocks
is address-sorted arrays, each address's reads in first-read order
since the last write, so the kernel can also report pairs in the order
a per-event shadow would (the tests keep one, dict-based, as its
oracle).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

import numpy as np

from repro.core.profile_data import DepKind

# -- the block kernel --------------------------------------------------------

#: The block kernel's ``kind`` column indexes this tuple.
PAIR_KINDS = (DepKind.RAW, DepKind.WAR, DepKind.WAW)
_RAW, _WAR, _WAW = range(3)

#: Payload id of a checkpointed, pre-segment access in parallel segment
#: replay: its construct instance (or calling context) lives in an
#: earlier segment, so a pair whose head carries it cannot be
#: attributed in the segment and is deferred to the merge
#: (``repro.analyses.merging``). Every other payload id is non-negative
#: or ``repro.core.instances.NO_ROW``.
BOUNDARY_ID = -1

#: Positions of a block's rows in the kernel: the carried write of an
#: address sorts first, its carried reads next, then the block's
#: accesses (``_FIRST_ACCESS + access index``) and frees (stamped with
#: the position of the access they precede).
_CARRIED_READ = 1
_FIRST_ACCESS = 2


@functools.cache
def _kernel_luts() -> tuple[np.ndarray, np.ndarray, int]:
    """READ/WRITE and FREE lookup tables over event codes, plus the
    WRITE code (built on first use: ``repro.trace`` imports the
    analyses, which import this module)."""
    from repro.trace.events import EV_FREE, EV_READ, EV_WRITE

    access = np.zeros(256, dtype=bool)
    access[[EV_READ, EV_WRITE]] = True
    free = np.zeros(256, dtype=bool)
    free[EV_FREE] = True
    return access, free, EV_WRITE


def _table(rows: list) -> tuple:
    """``(addr, pc, t, payload)`` int64 columns of ``rows``."""
    block = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return tuple(block[:, k].copy() for k in range(4))


def _merge(old: tuple, new: tuple) -> tuple:
    """Merge two address-sorted tables whose addresses are disjoint."""
    if not len(new[0]):
        return old
    if not len(old[0]):
        return new
    total = len(old[0]) + len(new[0])
    at = np.searchsorted(old[0], new[0]) + np.arange(len(new[0]))
    rest = np.ones(total, dtype=bool)
    rest[at] = False
    out = []
    for old_col, new_col in zip(old, new):
        col = np.empty(total, dtype=np.int64)
        col[at] = new_col
        col[rest] = old_col
        out.append(col)
    return tuple(out)


def _covered(addrs: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    """Which of ``addrs`` lie in at least one ``[lo, hi)`` range."""
    return (np.searchsorted(np.sort(lo), addrs, side="right")
            - np.searchsorted(np.sort(np.maximum(hi, lo)), addrs,
                              side="right")) > 0


def concat_ranges(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + n) for f, n in zip(first, sizes)])``
    without the Python loop."""
    return (np.arange(int(sizes.sum()))
            - np.repeat(np.cumsum(sizes) - sizes, sizes)
            + np.repeat(first, sizes))


def free_keys(cells: np.ndarray, free: np.ndarray,
              span: int) -> np.ndarray:
    """One sorted ``rank * span + position`` key per (accessed cell,
    free covering it): ``cells`` are the distinct accessed addresses,
    sorted, and ``free`` holds ``(position, lo, hi)`` rows; a free at
    position p comes before an access at position p."""
    lo = np.searchsorted(cells, free[:, 1])
    counts = np.maximum(np.searchsorted(cells, free[:, 2]) - lo, 0)
    which = np.repeat(np.arange(len(free)), counts)
    keys = concat_ranges(lo, counts) * span + free[which, 0]
    keys.sort()
    return keys


def mark_clear_epochs(new_group: np.ndarray, cell_start: np.ndarray,
                      at: np.ndarray, keys: np.ndarray,
                      span: int) -> None:
    """Start a new group at every access that follows a free of its
    cell; only cells both accessed and ever freed are examined.

    The accesses are sorted by address (``cell_start[r]`` is where the
    accesses of cell rank r begin), in position order within a cell;
    ``at`` holds their positions and ``keys`` is :func:`free_keys`."""
    if not len(keys):
        return
    rank = keys // span
    freed = rank[np.flatnonzero(np.diff(rank, prepend=-1))]
    # The accesses of freed cells, with their cells' ranks.
    sizes = cell_start[freed + 1] - cell_start[freed]
    hit = concat_ranges(cell_start[freed], sizes)
    # Frees of the cell at or before each access, offset by a per-cell
    # constant: a change between consecutive accesses of one cell is a
    # new epoch.
    epoch = np.searchsorted(keys, np.repeat(freed, sizes) * span + at[hit],
                            side="right")
    new_group[hit[1:][epoch[1:] != epoch[:-1]]] = True


def group_pairs(columns: tuple, tdep: np.ndarray,
                order: np.ndarray | None = None) -> tuple:
    """The distinct rows of ``columns`` (equal-length int64 arrays),
    each with the minimum ``tdep`` and the count of its rows:
    ``(distinct rows as per-column lists, minima, counts)``. With
    ``order`` (distinct int64 values, one per row), a fourth list gives
    each distinct row's first occurrence: the index of its row with
    the smallest ``order``."""
    n = len(tdep)
    if not n:
        return ([[] for _ in columns], [], []) + \
            (([],) if order is not None else ())
    bounds = [(int(col.min()), int(col.max())) for col in columns]
    total = 1
    for lo, hi in bounds:
        total *= hi - lo + 1
    if total < 1 << 62:
        # One mixed-radix key per row.
        key = np.zeros(n, dtype=np.int64)
        for col, (lo, hi) in zip(columns, bounds):
            key *= hi - lo + 1
            key += col - lo
        perm = np.argsort(key)
        key = key[perm]
        change = key[1:] != key[:-1]
    else:
        perm = np.lexsort(columns[::-1])
        change = np.zeros(n - 1, dtype=bool)
        for col in columns:
            col = col[perm]
            change |= col[1:] != col[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change)))
    minima = np.minimum.reduceat(tdep[perm], starts)
    counts = np.diff(np.append(starts, n))
    first = perm[starts]
    grouped = ([col[first].tolist() for col in columns], minima.tolist(),
               counts.tolist())
    if order is None:
        return grouped
    ranked = order[perm]
    earliest = np.minimum.reduceat(ranked, starts)
    hit = np.flatnonzero(ranked == np.repeat(earliest, counts))
    return grouped + (perm[hit].tolist(),)


class ShadowArrays:
    """The block kernel's carried state: the shadow as address-sorted
    arrays.

    ``writes`` holds the last write per address and ``reads`` the latest
    read per (address, reader pc) since that write, each as ``(addr,
    pc, t, payload id)`` int64 columns; writes are sorted by address,
    reads by address and then by each reader pc's first read since the
    write. Payload ids are the
    caller's (:data:`BOUNDARY_ID` for a seeded access). A parallel
    segment starts from :meth:`seed` and exports :meth:`frontier`.
    """

    __slots__ = ("writes", "reads")

    def __init__(self, writes: tuple | None = None,
                 reads: tuple | None = None) -> None:
        self.writes = _table([]) if writes is None else writes
        self.reads = _table([]) if reads is None else reads

    @classmethod
    def seed(cls, rows: list, payload_id: int = BOUNDARY_ID
             ) -> "ShadowArrays":
        """The state :meth:`snapshot` rows describe, every access
        carrying ``payload_id`` (each address's reads by pc, the
        order the rows keep them in)."""
        writes = [(addr, wpc, wt, payload_id)
                  for addr, wpc, wt, _reads in rows if wpc >= 0]
        reads = [(addr, pc, t, payload_id)
                 for addr, _wpc, _wt, by_pc in rows for pc, t in by_pc]
        return cls(_table(writes), _table(reads))

    def frontier(self, decode: Callable[[int], Any] = lambda p: p
                 ) -> dict:
        """What this state added on top of its :data:`BOUNDARY_ID`
        seed: addr -> ``(write, reads)``, with ``write = (pc, t,
        decode(payload))`` for an unseeded last write (else ``None``)
        and ``reads = {pc: (t, decode(payload))}`` for the unseeded
        reads, in first-read order. Addresses with neither are left
        out."""
        def unseeded(table: tuple):
            keep = table[3] != BOUNDARY_ID
            return zip(*(col[keep].tolist() for col in table))

        out = {addr: ((pc, t, decode(payload)), {})
               for addr, pc, t, payload in unseeded(self.writes)}
        for addr, pc, t, payload in unseeded(self.reads):
            out.setdefault(addr, (None, {}))[1][pc] = (t, decode(payload))
        return out

    def snapshot(self) -> list:
        """The checkpoint rows ``[[addr, wpc, wt, [[rpc, rt], ...]],
        ...]`` of this state, sorted by address and reads by pc;
        ``wpc == -1`` (with ``wt == 0``) means no write recorded.
        Payloads are dropped."""
        w_addr, w_pc, w_t, _ = self.writes
        r_addr, r_pc, r_t, _ = self.reads
        by_pc = np.lexsort((r_pc, r_addr))
        r_addr = r_addr[by_pc]
        reads = np.stack((r_pc[by_pc], r_t[by_pc]), axis=1).tolist()
        addrs = np.union1d(w_addr, r_addr)
        wpc = np.full(len(addrs), -1, dtype=np.int64)
        wt = np.zeros(len(addrs), dtype=np.int64)
        at = np.searchsorted(addrs, w_addr)
        wpc[at] = w_pc
        wt[at] = w_t
        lo = np.searchsorted(r_addr, addrs).tolist()
        hi = np.searchsorted(r_addr, addrs, side="right").tolist()
        return [[addr, pc, t, reads[start:end]]
                for addr, pc, t, start, end in zip(
                    addrs.tolist(), wpc.tolist(), wt.tolist(), lo, hi)]

    def remap(self, new_id: np.ndarray) -> None:
        """Map every non-negative payload id ``p`` to ``new_id[p]``
        (the caller's ids were renumbered)."""
        for name in ("writes", "reads"):
            table = getattr(self, name)
            ids = table[3]
            setattr(self, name, table[:3] + (
                np.where(ids >= 0, new_id[np.maximum(ids, 0)], ids),))

    def step(self, etypes: np.ndarray, a: np.ndarray, b: np.ndarray,
             t: np.ndarray, payload: np.ndarray | None = None,
             ordered: bool = False) -> tuple:
        """Advance over one decoded block's int64 columns; returns its
        dependence pairs.

        ``payload`` holds each event's payload id (``None``: all 0). The
        result is ``(rows, head, tail, kind)``: ``rows`` are ``(addr,
        pc, t, payload)`` columns of the carried entries the block
        touches and of its accesses, and pair i runs from row
        ``head[i]`` to row ``tail[i]`` (always an access of the block)
        with kind ``PAIR_KINDS[kind[i]]`` — every pair the module
        docstring's rules report over the block, each FREE forgetting
        its range, in no particular order.

        With ``ordered`` two more columns give each pair's tail event
        (its index in the block) and a rank: sorted by (tail event,
        rank), the pairs come in the order a per-event shadow reports
        them — at a write, the WAR heads in their reader pcs' first-read
        order since the last write, then the WAW head.
        """
        access_lut, free_lut, ev_write = _kernel_luts()
        acc = np.flatnonzero(access_lut[etypes])
        fr = np.flatnonzero(free_lut[etypes])
        n = len(acc)
        writes, reads = self.writes, self.reads
        keep_w = keep_r = None
        free = None
        if len(fr):
            free = np.empty((len(fr), 3), dtype=np.int64)
            free[:, 0] = np.searchsorted(acc, fr) + _FIRST_ACCESS
            free[:, 1] = a[fr]
            free[:, 2] = a[fr] + b[fr]
            keep_w = ~_covered(writes[0], free[:, 1], free[:, 2])
            keep_r = ~_covered(reads[0], free[:, 1], free[:, 2])
        if not n:
            if free is not None:
                self.writes = tuple(col[keep_w] for col in writes)
                self.reads = tuple(col[keep_r] for col in reads)
            empty = np.empty(0, dtype=np.int64)
            return ((empty,) * 4, empty, empty, empty) + \
                ((empty, empty) if ordered else ())

        # The block's accesses by address; each touched cell's rows are
        # its carried write, its carried reads, then its accesses.
        addr = a[acc]
        order = np.argsort(addr, kind="stable")
        sorted_addr = addr[order]
        bounds = np.flatnonzero(sorted_addr[1:] != sorted_addr[:-1]) + 1
        cells = sorted_addr[np.concatenate(([0], bounds))]
        n_block = np.diff(np.concatenate(([0], bounds, [n])))
        w_row = np.searchsorted(writes[0], cells)
        has_w = w_row < len(writes[0])
        has_w[has_w] = writes[0][w_row[has_w]] == cells[has_w]
        w_row = w_row[has_w]
        r_lo = np.searchsorted(reads[0], cells)
        n_reads = np.searchsorted(reads[0], cells, side="right") - r_lo
        r_row = concat_ranges(r_lo, n_reads)
        sizes = has_w + n_reads + n_block
        cell_start = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum(sizes, out=cell_start[1:])
        m = int(cell_start[-1])
        w_at = cell_start[:-1][has_w]
        r_at = concat_ranges(cell_start[:-1] + has_w, n_reads)
        b_at = concat_ranges(cell_start[:-1] + has_w + n_reads, n_block)

        def column(carried: int, block_col: np.ndarray) -> np.ndarray:
            col = np.empty(m, dtype=np.int64)
            col[w_at] = writes[carried][w_row]
            col[r_at] = reads[carried][r_row]
            col[b_at] = block_col[acc][order]
            return col

        rows = (np.repeat(cells, sizes), column(1, b), column(2, t),
                column(3, payload if payload is not None
                       else np.zeros(len(etypes), dtype=np.int64)))
        is_write = np.zeros(m, dtype=bool)
        is_write[w_at] = True
        is_write[b_at] = etypes[acc][order] == ev_write
        real = np.zeros(m, dtype=bool)
        real[b_at] = True

        # (address, clear epoch) groups.
        new_group = np.zeros(m, dtype=bool)
        new_group[cell_start[:-1]] = True
        last = cell_start[1:] - 1
        alive = None
        if free is not None:
            span = n + _FIRST_ACCESS + 1
            at = np.zeros(m, dtype=np.int64)
            at[r_at] = _CARRIED_READ
            at[b_at] = order + _FIRST_ACCESS
            keys = free_keys(cells, free, span)
            mark_clear_epochs(new_group, cell_start, at, keys, span)
            # A cell freed after its last access carries nothing out.
            rank_base = np.arange(len(cells)) * span
            alive = (np.searchsorted(keys, rank_base + at[last],
                                     side="right")
                     == np.searchsorted(keys, rank_base + span - 1,
                                        side="right"))
        group = np.cumsum(new_group)

        # RAW and WAW: an access and the latest write before it.
        index = np.arange(m)
        prev = np.where(is_write, index, -1)
        np.maximum.accumulate(prev, out=prev)
        end_w = prev[last]  # each cell's last write
        prev[1:] = prev[:-1].copy()
        prev[0] = -1
        has_prev = (prev >= 0) & (group[np.maximum(prev, 0)] == group)
        tails = [np.flatnonzero(has_prev & real)]
        del has_prev
        heads = [prev[tails[0]]]
        del prev
        kinds = [np.where(is_write[tails[0]], _WAW, _RAW)]
        # WAR: a write and, per reader pc, the latest read since the
        # previous write.
        nxt = np.where(is_write, index, m)
        del index
        np.minimum.accumulate(nxt[::-1], out=nxt[::-1])
        nxt[:-1] = nxt[1:].copy()
        nxt[-1] = m
        has_next = (nxt < m) & (group[np.minimum(nxt, m - 1)] == group)
        read = ~is_write
        war = np.flatnonzero(read & has_next)
        war_first, war_last = _runs_per_key(nxt[war], rows[1][war])
        # A WAR pair ranks by its reader pc's first read since the
        # write, RAW and WAW pairs by their tail: the per-event order.
        ranks = [tails[0], war[war_first]]
        war = war[war_last]
        heads.append(war)
        tails.append(nxt[war])
        kinds.append(np.full(len(war), _WAR))

        # Carried out: each live cell's last write and, per reader pc,
        # its latest read since, in the cell's last group.
        last_group = group[last]
        ok = (end_w >= 0) & (group[np.maximum(end_w, 0)] == last_group)
        cell_of = np.repeat(np.arange(len(cells)), sizes)
        end_r = read & ~has_next & (group == last_group[cell_of])
        if alive is not None:
            ok &= alive
            end_r &= alive[cell_of]
        end_w = end_w[ok]
        # Carried reads keep each cell's first-read order since its
        # last write (the per-event shadow's dict order).
        end_r = np.flatnonzero(end_r)
        read_first, read_last = _runs_per_key(cell_of[end_r],
                                              rows[1][end_r])
        end_r = end_r[read_last][np.argsort(end_r[read_first])]
        del new_group, group, is_write, real, nxt, has_next, read, cell_of
        if keep_w is None:
            keep_w = np.ones(len(writes[0]), dtype=bool)
            keep_r = np.ones(len(reads[0]), dtype=bool)
        keep_w[w_row] = False
        keep_r[r_row] = False
        self.writes = _merge(tuple(col[keep_w] for col in writes),
                             tuple(col[end_w] for col in rows))
        self.reads = _merge(tuple(col[keep_r] for col in reads),
                            tuple(col[end_r] for col in rows))
        head = np.concatenate(heads)
        del heads
        tail = np.concatenate(tails)
        kind = np.concatenate(kinds)
        del kinds
        if not ordered:
            return rows, head, tail, kind
        event = np.empty(m, dtype=np.int64)
        event[b_at] = acc[order]
        return rows, head, tail, kind, event[tail], np.concatenate(ranks)


def _runs_per_key(major: np.ndarray, minor: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the first and of the last occurrence of each
    distinct (major, minor) pair, both ordered by (major, minor)."""
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    change = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = change
    last = np.ones(len(order), dtype=bool)
    last[:-1] = change
    return order[first], order[last]
