"""Dependence profiling over whole trace blocks (paper §III-B, Table II).

:class:`BlockDependence` is ``dep``'s engine on every path: a trace's
decoded blocks, a live run's tap, ``Alchemist().profile`` and the
index tree. Per block it

1. applies the indexing rules to the block's ENTER/EXIT/BLOCK/BRANCH
   rows (:meth:`InstanceTable.index`), which writes every construct
   instance as a row and gives each access its current instance row;
2. takes the block's RAW/WAR/WAW pairs from the pair kernel
   (:meth:`ShadowArrays.step`), the head's instance row riding as the
   shadow payload, with the tail event and rank that order them as the
   per-event shadow reports them;
3. walks Table II over arrays, one numpy step per tree level: while the
   head's instance (then its parent, ...) completed before the tail,
   the pair updates that construct's profile; the walk stops at the
   first instance still open. Each step is a row (construct pc, head
   pc, tail pc, kind, Tdep);
4. folds the rows per key with :func:`group_pairs` and merges them into
   the :class:`ProfileStore` — existing edges take the count and the
   minimum, new profiles and new edges are created in first-occurrence
   order (the earliest step by pair order, then level), so dict order,
   ``first_t`` and the names match the paper's per-edge walk (the
   tests' per-event reference) exactly.

A new edge's name, and that of each pair deferred because its head is a
segment's seeded access (:data:`BOUNDARY_ID`), is the address's name at
the tail's event: :class:`MemoryNames` replays the block's
ENTER/EXIT/ALLOC/FREE rows from the block's start and answers each
request in event order.

The engine owns its state: the :class:`ProfileStore`, the counters a
report reads (dependence pairs by kind, Table II updates, instance
pushes, the index depth), the instance table, the shadow arrays and
the deferred pairs. A parallel segment seeds the table and the shadow
from its checkpoint when the engine is built.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.analysis.constructs import ConstructTable
from repro.core.instances import OPEN, BlockRows, InstanceTable
from repro.core.profile_data import DepKind, EdgeStats, ProfileStore
from repro.core.shadow import (BOUNDARY_ID, PAIR_KINDS, ShadowArrays,
                               group_pairs)
from repro.runtime.memory import MemoryNames

_RAW = PAIR_KINDS.index(DepKind.RAW)


@functools.cache
def _structural() -> tuple[np.ndarray, int, int, int, int]:
    """The ENTER/EXIT/ALLOC/FREE lookup table over event codes, and those
    four codes."""
    from repro.trace.events import EV_ALLOC, EV_ENTER, EV_EXIT, EV_FREE

    lut = np.zeros(256, dtype=bool)
    lut[[EV_ENTER, EV_EXIT, EV_ALLOC, EV_FREE]] = True
    return lut, EV_ENTER, EV_EXIT, EV_ALLOC, EV_FREE


def replay_names(names: MemoryNames, etypes: np.ndarray, a: np.ndarray,
                 b: np.ndarray, requests: list
                 ) -> tuple[dict, np.ndarray, np.ndarray]:
    """Advance ``names`` over one block's ENTER/EXIT/ALLOC/FREE rows.

    ``requests`` are ``(event, addr)`` pairs sorted by event; each is
    named as of just before that event. Returns the names by request,
    and for each ENTER/EXIT (event index, base of the top frame after
    it; -1 with no frame), preceded by the state at the block's start.
    """
    lut, ev_enter, ev_exit, ev_alloc, _ = _structural()
    rows = np.flatnonzero(lut[etypes])
    named: dict = {}
    pending = iter(requests)
    request = next(pending, None)
    frames = names.frames
    calls = [-1]
    bases = [frames[-1].base if frames else -1]
    for event, etype, x, y in zip(rows.tolist(), etypes[rows].tolist(),
                                  a[rows].tolist(), b[rows].tolist()):
        while request is not None and request[0] < event:
            named[request] = names.name(request[1])
            request = next(pending, None)
        if etype == ev_enter:
            names.enter(x)
        elif etype == ev_exit:
            names.exit()
        elif etype == ev_alloc:
            names.alloc(x, y)
            continue
        else:
            names.free(x, y)
            continue
        calls.append(event)
        bases.append(frames[-1].base if frames else -1)
    while request is not None:
        named[request] = names.name(request[1])
        request = next(pending, None)
    return named, np.array(calls, dtype=np.int64), \
        np.array(bases, dtype=np.int64)


def push_bases(block: BlockRows, calls: np.ndarray,
               bases: np.ndarray) -> np.ndarray:
    """The frame base at each of the block's pushes, from
    :func:`replay_names`' ENTER/EXIT timeline."""
    at = block.at[block.pushes]
    return bases[np.searchsorted(calls, at, side="right") - 1]


class BlockDependence:
    """Dep over whole blocks, on its own store and counters (see the
    module docstring). ``construct_stack`` and ``shadow`` seed a
    parallel segment: the checkpoint's open instances
    ``(head pc, Tenter)`` and its shadow rows, whose accesses carry
    :data:`BOUNDARY_ID`, so pairs whose head precedes the segment go to
    ``deferred``. ``recorder`` is an optional
    :class:`~repro.parallel.taskgraph.BoundaryRecorder` that each
    block's pushes, pops, accesses and frees are logged to (the index
    tree's :class:`~repro.core.treedump.IndexTreeRecorder` is another).
    Without ``track_war_waw`` only RAW pairs are profiled."""

    def __init__(self, constructs: ConstructTable, names: MemoryNames,
                 track_war_waw: bool = True, recorder=None,
                 construct_stack: list = (), shadow: list = ()):
        self.names = names
        self.track_war_waw = track_war_waw
        self.recorder = recorder
        self.store = ProfileStore()
        #: Dependence pairs profiled, by kind.
        self.events = {kind: 0 for kind in DepKind}
        #: Table II steps that updated a profile.
        self.updates = 0
        #: Construct instances pushed (a seeded stack's are not); the
        #: index depth is the instance table's ``max_depth``.
        self.pushes = 0
        self.rows = InstanceTable(constructs, self.store)
        self.rows.seed(construct_stack)
        self.shadow = ShadowArrays.seed(shadow)
        #: A segment's pairs whose head precedes it, in stream order:
        #: ``(kind, addr, head pc, head t, tail pc, tail t, name)``.
        self.deferred: list[tuple] = []
        #: Events consumed: the position of the next block's first.
        self.seen = 0

    def consume(self, etypes: np.ndarray, a: np.ndarray, b: np.ndarray,
                t: np.ndarray) -> None:
        """Profile one block's int64 columns."""
        first = self.seen
        rows = self.rows
        block = rows.index(etypes, a, b, t, first)
        (addr, pc, ts, payload), head, tail, kind, event, rank = \
            self.shadow.step(etypes, a, b, t, block.payload, ordered=True)
        if not self.track_war_waw:
            raw = kind == _RAW
            head, tail, kind, event, rank = (head[raw], tail[raw],
                                             kind[raw], event[raw],
                                             rank[raw])
        # Pairs sorted by ``order`` come in the per-event stream order.
        order = event * len(addr) + rank
        head_row = payload[head]
        boundary = head_row == BOUNDARY_ID
        deferred = []
        if boundary.any():
            # A segment's pairs whose head precedes it, in stream order.
            at = np.flatnonzero(boundary)
            at = at[np.argsort(order[at])]
            deferred = list(zip(
                kind[at].tolist(), addr[tail[at]].tolist(),
                pc[head[at]].tolist(), ts[head[at]].tolist(),
                pc[tail[at]].tolist(), ts[tail[at]].tolist(),
                event[at].tolist()))
            keep = ~boundary
            head, tail, kind, event, order, head_row = (
                head[keep], tail[keep], kind[keep], event[keep],
                order[keep], head_row[keep])
        events = self.events
        for k, count in enumerate(np.bincount(kind, minlength=3)
                                  .tolist()):
            events[PAIR_KINDS[k]] += count

        # Table II, one numpy step per tree level; steps sorted by
        # ``step_order`` come in the per-edge walk's order.
        step_pair, step_row, level = self._walk(head_row, event + first)
        self.updates += len(step_pair)
        step_order = order[step_pair] * (level.max(initial=0) + 1) + level
        construct = rows.pc[step_row]
        self._create_profiles(construct, step_order,
                              event[step_pair] + first)
        profiles = self.store.profiles
        new_edges = []
        if len(step_pair):
            head_step, tail_step = head[step_pair], tail[step_pair]
            keys, minima, counts, firsts = group_pairs(
                (construct, pc[head_step], pc[tail_step], kind[step_pair]),
                ts[tail_step] - ts[head_step], step_order)
            for c, h, tl, k, low, count, i in zip(*keys, minima, counts,
                                                  firsts):
                key = (h, tl, PAIR_KINDS[k])
                stats = profiles[c].edges.get(key)
                if stats is None:
                    new_edges.append((int(step_order[i]), c, key, low,
                                      count, int(step_pair[i])))
                else:
                    stats.count += count
                    if low < stats.min_tdep:
                        stats.min_tdep = low

        # Names at the tail's event: new edges, deferred pairs.
        requests = {(int(event[j]), int(addr[tail[j]]))
                    for *_, j in new_edges}
        requests.update((pair[6], pair[1]) for pair in deferred)
        named, calls, bases = replay_names(
            self.names, etypes, a, b, sorted(requests))
        new_edges.sort(key=lambda edge: edge[0])
        for _, c, key, low, count, j in new_edges:
            tail_row = tail[j]
            profiles[c].edges[key] = EdgeStats(
                key[0], key[1], key[2], low, count,
                named[(int(event[j]), int(addr[tail_row]))],
                first_t=int(ts[tail_row]))
        for k, ad, head_pc, head_t, tail_pc, tail_t, at in deferred:
            self.deferred.append(
                (PAIR_KINDS[k], ad, head_pc, head_t, tail_pc, tail_t,
                 named[(at, ad)]))

        if self.recorder is not None:
            self.recorder.record_block(rows, block, etypes, a, b,
                                       push_bases(block, calls, bases))
        self.pushes += int(np.count_nonzero(block.pushes))
        new_row = rows.compact(self.shadow.writes[3], self.shadow.reads[3])
        if new_row is not None:
            self.shadow.remap(new_row)
        self.seen = first + len(etypes)

    def _create_profiles(self, construct: np.ndarray,
                         step_order: np.ndarray, at: np.ndarray) -> None:
        """The block's new profiles, in event order: those its pops
        create and those whose first walk step is here. Walk steps are
        at completed rows, so only the constructs of those rows that
        have no profile yet are looked for among the steps."""
        profiles = self.store.profiles
        rows = self.rows
        walked = {}
        missing = [pc for pc in rows.constructs.by_pc if pc not in profiles]
        if missing:
            done = rows.pc[rows.exit_at != OPEN]
            for c in np.unique(done[np.isin(done, missing)]).tolist():
                steps = np.flatnonzero(construct == c)
                if len(steps):
                    i = steps[np.argmin(step_order[steps])]
                    walked[c] = (int(at[i]), int(step_order[i]))
        rows.create_profiles(walked)

    def _walk(self, node: np.ndarray, at: np.ndarray) -> tuple:
        """Table II over arrays: for pair i (head instance row
        ``node[i]``, tail at event position ``at[i]``) every instance
        from the head's up that completed before the tail, stopping at
        the first still open. Returns (pair, instance row, level) per
        update, level by level."""
        exit_at, parent = self.rows.exit_at, self.rows.parent
        pair = np.flatnonzero(node >= 0)
        node = node[pair]
        done = exit_at[node] < at[pair]
        pair, node = pair[done], node[done]
        pairs, nodes, levels = [], [], []
        while len(pair):
            pairs.append(pair)
            nodes.append(node)
            levels.append(np.full(len(pair), len(levels), dtype=np.int64))
            node = parent[node]
            up = node >= 0
            up[up] = exit_at[node[up]] < at[pair[up]]
            pair, node = pair[up], node[up]
        if not levels:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        return (np.concatenate(pairs), np.concatenate(nodes),
                np.concatenate(levels))
