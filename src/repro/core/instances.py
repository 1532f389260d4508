"""Construct instances as table rows: the indexing stack over whole blocks.

:class:`~repro.core.indexing.IndexingStack`, the per-event reference,
builds the execution index tree one node per instance and event.
:class:`InstanceTable`, dep's indexing on every path, applies the same
five rules to a block's ENTER/EXIT/BLOCK/BRANCH rows in one Python loop
and writes each instance as a row of int columns instead:

* ``pc`` — the static construct's head pc;
* ``parent`` — the enclosing instance's row (-1 at the root);
* ``t_enter`` / ``t_exit`` — the paper's timestamps (``t_exit`` is 0
  while the instance is open);
* ``exit_at`` — the event position of the pop (:data:`OPEN` while
  open), so "completed before event p" is ``exit_at < p`` even when a
  pop and an access share a timestamp.

The loop keeps the :class:`~repro.core.profile_data.ProfileStore`'s
recursion nesting counters and marks the pops that end an outermost
same-pc instance; only those fold their durations and instance counts
into the store (§III-B "Recursion"). A profile the block would
create is held back until :meth:`InstanceTable.create_profiles`, which
creates every new profile of the block in event order together with
the ones the dependence walk creates.

Each event's *payload* is the row on top of the stack at that event;
the dependence kernel carries it as the shadow payload of an access.
:meth:`InstanceTable.compact` drops the rows no payload, open stack
entry or pinned row can reach any more, so the table stays the size of
what the shadow references, not of the run.

A parallel segment opens the checkpointed stack with
:meth:`InstanceTable.seed` and exports the instances its frontier and
seeded stack reach with :meth:`InstanceTable.chains`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.analysis.constructs import ConstructKind, ConstructTable
from repro.core.profile_data import ProfileStore

#: ``exit_at`` of an open instance.
OPEN = np.iinfo(np.int64).max

#: Payload of an access made while the indexing stack is empty.
NO_ROW = -2

_PROCEDURE = ConstructKind.PROCEDURE


@functools.cache
def _codes() -> tuple[np.ndarray, int, int, int]:
    """The ENTER/EXIT/BLOCK/BRANCH lookup table over event codes, and
    the BLOCK, BRANCH and ENTER codes (built on first use, like
    :func:`repro.core.shadow._kernel_luts`)."""
    from repro.trace.events import EV_BLOCK, EV_BRANCH, EV_ENTER, EV_EXIT

    control = np.zeros(256, dtype=bool)
    control[[EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH]] = True
    return control, EV_BLOCK, EV_BRANCH, EV_ENTER


class BlockRows(NamedTuple):
    """What :meth:`InstanceTable.index` did over one block: each event's
    payload row, and the pushes and pops in stream order — ``row`` (a
    push's row, or ``~row`` for a pop), the event index in the block
    and the timestamp."""

    payload: np.ndarray
    row: np.ndarray
    at: np.ndarray
    t: np.ndarray

    @property
    def pushes(self) -> np.ndarray:
        return self.row >= 0


class InstanceTable:
    """The execution index tree as rows, plus the open stack."""

    def __init__(self, constructs: ConstructTable, store: ProfileStore):
        self.constructs = constructs
        self.store = store
        empty = np.empty(0, dtype=np.int64)
        self.pc = self.parent = self.t_enter = self.t_exit = empty
        self.exit_at = empty
        #: Open instances bottom to top: rows and statics.
        self.stack: list[int] = []
        self._statics: list = []
        #: Rows kept whatever references them (a segment's seeded
        #: stack, whose pops the segment export must report).
        self.pinned: list[int] = []
        self.max_depth = 0
        #: pc -> [duration, instances, max duration, position, order]
        #: of the profiles the current block creates by popping.
        self._pending: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.pc)

    def top(self) -> int:
        return self.stack[-1] if self.stack else NO_ROW

    # -- the five rules ----------------------------------------------------

    def index(self, etypes: np.ndarray, a: np.ndarray, b: np.ndarray,
              t: np.ndarray, first: int) -> BlockRows:
        """Apply the indexing rules to one block's int64 columns, the
        block starting at event position ``first``; exactly what
        :class:`~repro.core.indexing.IndexingStack` does per event."""
        control_lut, ev_block, ev_branch, ev_enter = _codes()
        control = np.flatnonzero(control_lut[etypes])
        by_pc = self.constructs.by_pc
        nesting = self.store._nesting
        stack, statics = self.stack, self._statics
        start_top = self.top()
        row = len(self)
        new_pc: list[int] = []
        new_parent: list[int] = []
        log_row: list[int] = []
        log_at: list[int] = []
        #: Log indices of the pops that end an outermost instance.
        outermost: list[int] = []
        max_depth = self.max_depth

        for etype, x, y, at in zip(
                etypes[control].tolist(), a[control].tolist(),
                b[control].tolist(), control.tolist()):
            # Each rule pops the stack down to ``keep`` entries, then
            # pushes ``push`` if it is not None.
            keep = len(statics)
            push = None
            if etype == ev_block:
                # Rule 5, generalized to regions.
                while keep:
                    static = statics[keep - 1]
                    if static.kind is _PROCEDURE or x in static.region:
                        break
                    keep -= 1
            elif etype == ev_branch:
                push = by_pc[x]
                body = push.loop_body
                if body is not None:
                    # Rule 4: close the previous iteration, then start
                    # the next one if the branch re-enters the body.
                    while keep:
                        static = statics[keep - 1]
                        if (static.kind is _PROCEDURE
                                or static.block_id not in body):
                            break
                        keep -= 1
                    if y not in body:
                        push = None
                elif y == push.ipostdom_block:
                    # Rule 3: an empty construct is no instance.
                    push = None
            elif etype == ev_enter:
                push = by_pc[y]  # rule 1
            else:
                # Rule 2: close everything open in the activation.
                while True:
                    if not keep:
                        raise RuntimeError("procedure exit with no "
                                           "procedure on the stack")
                    keep -= 1
                    if statics[keep].kind is _PROCEDURE:
                        break
            while len(stack) > keep:
                pc = statics.pop().pc
                log_row.append(~stack.pop())
                log_at.append(at)
                depth = nesting[pc] - 1
                nesting[pc] = depth
                if not depth:
                    outermost.append(len(log_row) - 1)
            if push is not None:
                pc = push.pc
                new_pc.append(pc)
                new_parent.append(stack[-1] if stack else -1)
                log_row.append(row)
                log_at.append(at)
                stack.append(row)
                row += 1
                statics.append(push)
                nesting[pc] = nesting.get(pc, 0) + 1
                if len(stack) > max_depth:
                    max_depth = len(stack)

        self.max_depth = max_depth
        self.store.dynamic_instances += len(new_pc)
        logged = np.array(log_row, dtype=np.int64)
        at = np.array(log_at, dtype=np.int64)
        times = t[at]
        pushed = logged >= 0
        self._append(np.array(new_pc, dtype=np.int64),
                     np.array(new_parent, dtype=np.int64), times[pushed],
                     np.zeros(len(new_pc), dtype=np.int64),
                     np.full(len(new_pc), OPEN, dtype=np.int64))
        popped = ~logged[~pushed]
        self.t_exit[popped] = times[~pushed]
        self.exit_at[popped] = at[~pushed] + first
        self._fold(np.array(outermost, dtype=np.int64), logged, at, times,
                   first)
        # The top after a push is the pushed row, after a pop the popped
        # row's parent; an event's payload is the top after the last
        # push or pop at or before it.
        top = logged.copy()
        top[~pushed] = self.parent[popped]
        top[top == -1] = NO_ROW
        payload = np.concatenate(([start_top], top))[
            np.searchsorted(at, np.arange(len(etypes)), side="right")]
        return BlockRows(payload, logged, at, times)

    def _fold(self, outermost: np.ndarray, logged: np.ndarray,
              at: np.ndarray, times: np.ndarray, first: int) -> None:
        """Fold the durations of the block's outermost pops (indices
        into its log) into their profiles. A construct without a
        profile is held back for :meth:`create_profiles` with its
        first pop's position and order."""
        if not len(outermost):
            return
        rows = ~logged[outermost]
        durations = times[outermost] - self.t_enter[rows]
        pcs, where, inverse = np.unique(self.pc[rows], return_index=True,
                                        return_inverse=True)
        total = np.zeros(len(pcs), dtype=np.int64)
        np.add.at(total, inverse, durations)
        longest = np.zeros(len(pcs), dtype=np.int64)
        np.maximum.at(longest, inverse, durations)
        count = np.bincount(inverse, minlength=len(pcs))
        profiles = self.store.profiles
        for pc, duration, instances, most, i in zip(
                pcs.tolist(), total.tolist(), count.tolist(),
                longest.tolist(), outermost[where].tolist()):
            profile = profiles.get(pc)
            if profile is None:
                self._pending[pc] = [duration, instances, most,
                                     first + int(at[i]), i]
                continue
            profile.total_duration += duration
            profile.instances += instances
            if most > profile.max_duration:
                profile.max_duration = most

    def _append(self, *columns) -> None:
        names = ("pc", "parent", "t_enter", "t_exit", "exit_at")
        for name, column in zip(names, columns):
            setattr(self, name, np.concatenate((getattr(self, name),
                                                column)))

    def create_profiles(self, walked: dict[int, tuple]) -> None:
        """Create the block's new profiles in event order — the ones
        its pops create and ``walked`` (pc -> (position, order) of the
        first dependence walk step at a construct without a profile) —
        and fold the pops' durations into them."""
        pending = self._pending
        if not pending and not walked:
            return
        first = {pc: (fold[3], fold[4]) for pc, fold in pending.items()}
        for pc, where in walked.items():
            if pc not in first or where < first[pc]:
                first[pc] = where
        store = self.store
        by_pc = self.constructs.by_pc
        for pc in sorted(first, key=first.__getitem__):
            profile = store.get_or_create(by_pc[pc])
            fold = pending.get(pc)
            if fold is not None:
                profile.total_duration += fold[0]
                profile.instances += fold[1]
                if fold[2] > profile.max_duration:
                    profile.max_duration = fold[2]
        pending.clear()

    # -- segments ----------------------------------------------------------

    def seed(self, entries: list) -> None:
        """Open a checkpointed stack in an empty table (parallel segment
        replay): ``entries`` are ``(construct head pc, Tenter)`` bottom to
        top. The rows keep their entry timestamps, so durations of
        constructs that span the seam stay exact; they are pinned (the
        segment export reports their pops) and the recursion nesting
        counters count them, so aggregation stays outermost-only. They
        are not new instances: the segment that entered them counted
        them."""
        if len(self):
            raise RuntimeError("seed() requires an empty instance table")
        by_pc = self.constructs.by_pc
        nesting = self.store._nesting
        n = len(entries)
        self._statics = [by_pc[pc] for pc, _t in entries]
        for pc, _t in entries:
            nesting[pc] = nesting.get(pc, 0) + 1
        self._append(np.array([pc for pc, _t in entries], dtype=np.int64),
                     np.arange(-1, n - 1, dtype=np.int64),
                     np.array([t for _pc, t in entries], dtype=np.int64),
                     np.zeros(n, dtype=np.int64),
                     np.full(n, OPEN, dtype=np.int64))
        self.stack = list(range(n))
        self.pinned = list(range(n))
        self.max_depth = n

    def chains(self, roots: np.ndarray) -> dict:
        """The rows ``roots`` reach through parent links (negative
        entries are not rows), as row -> ``(pc, Tenter, Texit, parent
        row | None)``: the node table a segment exports for the merge
        (``repro.analyses.merging.register_nodes``)."""
        rows = np.flatnonzero(self._reach(roots))
        parent = self.parent[rows].tolist()
        return {row: (pc, t_enter, t_exit, up if up >= 0 else None)
                for row, pc, t_enter, t_exit, up in zip(
                    rows.tolist(), self.pc[rows].tolist(),
                    self.t_enter[rows].tolist(),
                    self.t_exit[rows].tolist(), parent)}

    # -- bounded state -----------------------------------------------------

    def _reach(self, roots: np.ndarray) -> np.ndarray:
        """Which rows ``roots`` reach through parent links."""
        keep = np.zeros(len(self), dtype=bool)
        frontier = np.unique(roots[roots >= 0])
        parent = self.parent
        while len(frontier):
            keep[frontier] = True
            up = parent[frontier]
            up = up[up >= 0]
            frontier = np.unique(up[~keep[up]])
        return keep

    def compact(self, *payloads: np.ndarray) -> np.ndarray | None:
        """Keep only the rows reachable from ``payloads`` (row columns;
        negative entries are not rows), the open stack and the pinned
        rows, through parent links. Returns the old -> new row map
        (-1: dropped), or ``None`` when every row is kept."""
        keep = self._reach(np.concatenate(
            (np.array(self.stack + self.pinned, dtype=np.int64),)
            + payloads))
        if keep.all():
            return None
        new_row = np.cumsum(keep) - 1
        new_row[~keep] = -1
        parent = self.parent[keep]
        self.parent = np.where(parent >= 0, new_row[parent], -1)
        self.pc = self.pc[keep]
        self.t_enter = self.t_enter[keep]
        self.t_exit = self.t_exit[keep]
        self.exit_at = self.exit_at[keep]
        self.stack = new_row[self.stack].tolist() if self.stack else []
        self.pinned = new_row[self.pinned].tolist() if self.pinned else []
        return new_row
