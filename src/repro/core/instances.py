"""Construct instances as table rows: the indexing stack over whole blocks.

The paper's indexing stack builds the execution index tree one node per
instance and event (the tests keep that stack as the per-event
reference). :class:`InstanceTable`, dep's indexing on every path,
applies the same five rules to a block's ENTER/EXIT/BLOCK/BRANCH rows
as a transition table and writes each instance as a row of int columns
instead:

* ``pc`` — the static construct's head pc;
* ``parent`` — the enclosing instance's row (-1 at the root);
* ``t_enter`` / ``t_exit`` — the paper's timestamps (``t_exit`` is 0
  while the instance is open);
* ``exit_at`` — the event position of the pop (:data:`OPEN` while
  open), so "completed before event p" is ``exit_at < p`` even when a
  pop and an access share a timestamp.

Every rule decision reads only the static constructs on the stack and
the event, never rows or times. So the table interns each static stack
as a trie state (its parent state and its top construct) and memoises
``(state, event) -> (pops, pushed pc, next state)``; the sequential
part of a block is one dict lookup per control event, and the rule
code (:meth:`InstanceTable._learn`) runs only when a state meets an
event for the first time. An event's memo key packs its kind with the
operands the rules read; operands no construct names share one key,
since the rules treat them alike. A transition that raises (an EXIT
with no procedure on the stack, an unknown construct pc) is never
memoised, and the table keeps its state from before the block, so the
error comes from the same event every time. The memo holds at most
:data:`MEMO_CAP` interned states and as many transitions: past that it
starts afresh from the current stack, so it grows with the distinct
static stacks a run visits, not with its events. The memo pays off
when those stacks repeat: a loop nest revisits a handful (bzip2's run
visits 18), while each new recursion depth is a new state whose
transitions are all misses, and a miss costs several times what a
per-event rule application did.

Rows come after the loop, in numpy: pushes take consecutive rows, and
each pop closes the latest open push at its depth, or the carried
stack's entry there, as in matching parentheses. A push is outermost
when no open instance of its construct encloses it, which its state
knows from the set of constructs on its stack; the row keeps the flag
(``outer``), and only the pops of outermost rows fold their durations
and instance counts into the store (§III-B "Recursion"); the flag
stands in for the per-event stack's recursion nesting counters. A
profile the block would create is held back until
:meth:`InstanceTable.create_profiles`, which creates every new profile
of the block in event order together with the ones the dependence walk
creates.

Each event's *payload* is the row on top of the stack at that event;
the dependence kernel carries it as the shadow payload of an access.
:meth:`InstanceTable.compact` drops the rows no payload, open stack
entry or pinned row can reach any more, so the table stays the size of
what the shadow references, not of the run.

A parallel segment opens the checkpointed stack with
:meth:`InstanceTable.seed`, which makes it the start state, and exports
the instances its frontier and seeded stack reach with
:meth:`InstanceTable.chains`.
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

#: Most interned static stacks, and most memoised transitions, one
#: table keeps before it starts its memo afresh.
MEMO_CAP = 1 << 14

_PROCEDURE = ConstructKind.PROCEDURE

#: A transition packs its pop count, whether its push is outermost
#: (no open instance of its construct encloses it) and its pushed
#: pc + 1 (0: no push).
_OUTER_BIT = 31
_PUSH_SHIFT = 32
_POPS = (1 << _OUTER_BIT) - 1

#: Memo-key kinds of the control events.
_ENTER, _EXIT, _BLOCK, _BRANCH = range(4)


@functools.cache
def _kinds() -> np.ndarray:
    """Each event code's memo-key kind, -1 for a non-control event
    (built on first use, like :func:`repro.core.shadow._kernel_luts`)."""
    from repro.trace.events import EV_BLOCK, EV_BRANCH, EV_ENTER, EV_EXIT

    kinds = np.full(256, -1, dtype=np.int64)
    kinds[[EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH]] = range(4)
    return kinds


def _small(values: np.ndarray) -> np.ndarray:
    """``values`` (non-negative) as int16 when they fit, so a stable
    argsort over them is a radix sort."""
    if len(values) and values.max() < 1 << 15:
        return values.astype(np.int16)
    return values


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
        #: Whether no open instance of the same construct encloses the
        #: row: its pop folds into the profile (§III-B "Recursion").
        self.outer = np.empty(0, dtype=bool)
        #: Open instances' rows, bottom to top.
        self.stack: list[int] = []
        #: Rows kept whatever references them (a segment's seeded
        #: stack, whose pops the segment export must report).
        self.pinned: list[int] = []
        self.max_depth = 0
        #: pc -> [duration, instances, max duration, position, order]
        #: of the profiles the current block creates by popping.
        self._pending: dict[int, list] = {}
        by_pc = constructs.by_pc
        #: Operands at or past these name no construct pc or block id.
        self._pc_end = max(by_pc, default=0) + 1
        self._block_end = 1 + max(
            (block for c in by_pc.values()
             for block in (c.block_id, c.ipostdom_block, *(c.region or ()),
                           *(c.loop_body or ()))
             if block is not None), default=0)
        #: Construct head pc -> its bit in a state's set of constructs.
        self._bit = {pc: 1 << i for i, pc in enumerate(by_pc)}
        self._start_memo([])

    def __len__(self) -> int:
        return len(self.pc)

    def top(self) -> int:
        return self.stack[-1] if self.stack else NO_ROW

    # -- the transition table ----------------------------------------------

    def _start_memo(self, statics: list) -> None:
        """An empty memo whose current state is the static stack
        ``statics`` (bottom to top). Those states are not interned, so
        the cap counts only the states the memo learns."""
        #: Per state: the parent state, the top construct, whether no
        #: entry below holds the top's construct, the set of constructs
        #: on the stack (a bit per dense number) and the memoised
        #: transitions, key -> (code, next state). State 0 is the empty
        #: stack.
        self._up: list[int] = [-1]
        self._static: list = [None]
        self._outer: list[bool] = [False]
        self._held: list[int] = [0]
        self._memo: list[dict] = [{}]
        #: (parent state, pc) -> state.
        self._intern: dict[tuple[int, int], int] = {}
        self._transitions = 0
        self._state = 0
        for static in statics:
            self._state = self._new_state(self._state, static)

    def _new_state(self, up: int, static) -> int:
        bit = self._bit[static.pc]
        held = self._held[up]
        self._up.append(up)
        self._static.append(static)
        self._outer.append(not held & bit)
        self._held.append(held | bit)
        self._memo.append({})
        return len(self._up) - 1

    def _intern_state(self, up: int, static) -> int:
        state = self._intern.get((up, static.pc))
        if state is None:
            state = self._intern[up, static.pc] = self._new_state(up, static)
        return state

    def _statics(self, state: int) -> list:
        """The static stack of ``state``, bottom to top."""
        statics = []
        while state:
            statics.append(self._static[state])
            state = self._up[state]
        return statics[::-1]

    def _keys(self, kind: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> list[int]:
        """The memo keys of control events: the kind, the pc and the
        block id the rules read (ENTER: y; BRANCH: x and y; BLOCK: x),
        each past the program's last clamped to one value."""
        pc = np.minimum(np.where(kind == _BRANCH, x,
                                 np.where(kind == _ENTER, y, 0)),
                        self._pc_end)
        block = np.minimum(np.where(kind == _BLOCK, x,
                                    np.where(kind == _BRANCH, y, 0)),
                           self._block_end)
        return (((block * (self._pc_end + 1) + pc) << 2) | kind).tolist()

    def _learn(self, state: int, key: int, kind: int, x: int,
               y: int) -> tuple[int, int]:
        """The five rules, run once per memo miss: the transition of
        ``state`` on one control event, memoised under ``key`` unless
        the rules raise."""
        if (self._transitions >= MEMO_CAP
                or len(self._intern) >= MEMO_CAP):
            self._start_memo(self._statics(state))
            state = self._state
        up, statics = self._up, self._static
        by_pc = self.constructs.by_pc
        # Each rule pops ``pops`` entries, down to state ``keep``, then
        # pushes ``push`` if it is not None.
        keep = state
        pops = 0
        push = None
        if kind == _BLOCK:
            # Rule 5, generalized to regions.
            while keep:
                static = statics[keep]
                if static.kind is _PROCEDURE or x in static.region:
                    break
                keep = up[keep]
                pops += 1
        elif kind == _BRANCH:
            push = by_pc[x]
            body = push.loop_body
            if body is not None:
                # Rule 4: close the previous iteration, then start the
                # next one if the branch re-enters the body.
                while keep:
                    static = statics[keep]
                    if (static.kind is _PROCEDURE
                            or static.block_id not in body):
                        break
                    keep = up[keep]
                    pops += 1
                if y not in body:
                    push = None
            elif y == push.ipostdom_block:
                # Rule 3: an empty construct is no instance.
                push = None
        elif kind == _ENTER:
            push = by_pc[y]  # rule 1
        else:
            # Rule 2: close everything open in the activation.
            while True:
                if not keep:
                    raise RuntimeError("procedure exit with no "
                                       "procedure on the stack")
                static = statics[keep]
                keep = up[keep]
                pops += 1
                if static.kind is _PROCEDURE:
                    break
        code = pops
        if push is not None:
            keep = self._intern_state(keep, push)
            code |= (self._outer[keep] << _OUTER_BIT
                     | (push.pc + 1) << _PUSH_SHIFT)
        self._memo[state][key] = (code, keep)
        self._transitions += 1
        return code, keep

    # -- indexing a block -------------------------------------------------

    def index(self, etypes: np.ndarray, a: np.ndarray, b: np.ndarray,
              t: np.ndarray, first: int) -> BlockRows:
        """Apply the indexing rules to one block's int64 columns, the
        block starting at event position ``first``; exactly what the
        per-event indexing stack does."""
        kinds = _kinds()[etypes]
        control = np.flatnonzero(kinds >= 0)
        kind, x, y = kinds[control], a[control], b[control]
        codes = []
        append = codes.append
        memos = start = self._memo
        state = self._state
        memo = memos[state]
        try:
            for key in self._keys(kind, x, y):
                try:
                    code, state = memo[key]
                except KeyError:
                    i = len(codes)
                    code, state = self._learn(state, key, int(kind[i]),
                                              int(x[i]), int(y[i]))
                    memos = self._memo
                append(code)
                memo = memos[state]
        except BaseException:
            # The rows and the stack are as they were before the block;
            # a memo reset in it renumbered the states, so start the
            # memo afresh from the open rows.
            if self._memo is not start:
                by_pc = self.constructs.by_pc
                self._start_memo([by_pc[pc]
                                  for pc in self.pc[self.stack].tolist()])
            raise
        self._state = state
        return self._rows(np.array(codes, dtype=np.int64), control,
                          len(etypes), t, first)

    def _rows(self, codes: np.ndarray, control: np.ndarray, events: int,
              t: np.ndarray, first: int) -> BlockRows:
        """Replay the block's transitions (``codes``, one per control
        event at ``control``) as rows, pops, folds and payloads."""
        start_top = self.top()
        changed = np.flatnonzero(codes)
        if not len(changed):
            empty = np.empty(0, dtype=np.int64)
            return BlockRows(np.full(events, start_top, dtype=np.int64),
                             empty, empty, empty)
        codes = codes[changed]
        pops = codes & _POPS
        pushed = codes >> _PUSH_SHIFT
        pushes = pushed > 0
        # The log: each event's pops, top down, then its push.
        step = pops + pushes
        ends = np.cumsum(step)
        total = int(ends[-1])
        at = np.repeat(control[changed], step)
        times = t[at]
        is_push = np.zeros(total, dtype=bool)
        is_push[ends[pushes] - 1] = True
        push_at = np.flatnonzero(is_push)
        pop_at = np.flatnonzero(~is_push)
        carried = np.array(self.stack, dtype=np.int64)
        # A push's level is the depth before it, a pop's the depth after.
        level = (len(carried) - is_push
                 + np.cumsum(np.where(is_push, 1, -1)))
        push_level = level[push_at]
        depth = len(carried) + len(push_at) - len(pop_at)

        # Pushes take consecutive rows. The row open at level L before
        # log position j is the last push there before j, or the
        # carried entry at L: a pop's row, a push's parent (L - 1) and
        # the stack after the block (position ``total``).
        new_rows = len(self) + np.arange(len(push_at))
        order = np.argsort(_small(push_level), kind="stable")
        span = total + 1
        keys = push_level[order] * span + push_at[order]
        want = np.concatenate((level[pop_at], push_level - 1,
                               np.arange(depth)))
        where = np.concatenate((pop_at, push_at,
                                np.full(depth, total)))
        last = np.searchsorted(keys, want * span + where) - 1
        hit = last >= 0
        hit[hit] = keys[last[hit]] // span == want[hit]
        below = np.concatenate(([-1], carried, [-1]))
        found = below[np.minimum(want + 1, len(carried) + 1)]
        found[hit] = new_rows[order[last[hit]]]
        popped = found[:len(pop_at)]
        parent = found[len(pop_at):len(pop_at) + len(push_at)]
        self.stack = found[len(found) - depth:].tolist()

        self._append(pushed[pushes] - 1, parent, times[push_at],
                     np.zeros(len(parent), dtype=np.int64),
                     np.full(len(parent), OPEN, dtype=np.int64),
                     (codes[pushes] >> _OUTER_BIT & 1).astype(bool))
        self.t_exit[popped] = times[pop_at]
        self.exit_at[popped] = at[pop_at] + first
        self.store.dynamic_instances += len(parent)
        if len(push_level):
            self.max_depth = max(self.max_depth, int(push_level.max()) + 1)

        row = np.empty(total, dtype=np.int64)
        row[push_at] = new_rows
        row[pop_at] = ~popped
        self._fold(pop_at[self.outer[popped]], row, at, times, first)
        # The top after a push is the pushed row, after a pop the popped
        # row's parent; an event's payload is the top after the last
        # push or pop at or before it.
        top = np.empty(total + 1, dtype=np.int64)
        top[0] = start_top
        top[1 + push_at] = new_rows
        top[1 + pop_at] = self.parent[popped]
        top[top == -1] = NO_ROW
        payload = top[np.cumsum(np.bincount(at, minlength=events))]
        return BlockRows(payload, row, at, times)

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
        names = ("pc", "parent", "t_enter", "t_exit", "exit_at", "outer")
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
        segment export reports their pops) and their ``outer`` flags
        come from the seeded stack, so aggregation stays
        outermost-only. They are not new instances: the segment that
        entered them counted them. Their static stack is the memo's
        start state."""
        if len(self):
            raise RuntimeError("seed() requires an empty instance table")
        by_pc = self.constructs.by_pc
        n = len(entries)
        self._start_memo([by_pc[pc] for pc, _t in entries])
        self._append(np.array([pc for pc, _t in entries], dtype=np.int64),
                     np.arange(-1, n - 1, dtype=np.int64),
                     np.array([t for _pc, t in entries], dtype=np.int64),
                     np.zeros(n, dtype=np.int64),
                     np.full(n, OPEN, dtype=np.int64),
                     np.array(self._outer[1:], dtype=bool))
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
        self.outer = self.outer[keep]
        self.stack = new_row[self.stack].tolist() if self.stack else []
        self.pinned = new_row[self.pinned].tolist() if self.pinned else []
        return new_row
