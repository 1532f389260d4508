"""The bundled analyses, all registered on the unified protocol.

Every class here is a uniform plugin — the dependence profiler, the
locality / hot-address / counting analyses, and the flat and context
baselines: each runs live, from a recorded trace, and in batch through
the same registry, and each is covered by the registry-parametrized
live-vs-replay parity test.

Every bundled analysis also implements the segment protocol
(``export_segment`` / ``merge_segments``), so all of them run under
sharded parallel replay (:mod:`repro.trace.parallel`) with results
bit-identical to a serial pass; the cross-segment bookkeeping lives in
:mod:`repro.analyses.merging`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analyses.base import (Analysis, AnalysisContext,
                                 AnalysisResult, OptionSpec,
                                 SegmentSeed, register)
from repro.analysis.constructs import ConstructTable, construct_table
from repro.baselines.context_profiler import ContextBlocks, ContextProfile
from repro.baselines.flat_profiler import FlatBlocks, FlatProfile
from repro.core.blockdep import BlockDependence
from repro.core.pool import PoolStats
from repro.core.profile_data import (ConstructProfile, DepKind,
                                     EdgeStats, ProfileStore)
from repro.core.report import ProfileReport, RunStats
from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory, MemoryNames


def profile_summary(report: ProfileReport) -> dict[str, Any]:
    """Compact, JSON-able, order-stable digest of a ProfileReport.

    Captures exactly what the replay-equivalence criterion cares about:
    per-construct durations/instances and per-edge (min Tdep, count,
    variable hint), keyed deterministically.
    """
    constructs = {}
    for pc in sorted(report.store.profiles):
        profile = report.store.profiles[pc]
        edges = {}
        for (head, tail, kind), stats in sorted(
                profile.edges.items(),
                key=lambda item: (item[0][0], item[0][1], item[0][2].value)):
            edges[f"{head}->{tail}:{kind.value}"] = [
                stats.min_tdep, stats.count, stats.var_hint]
        constructs[str(pc)] = {
            "name": profile.static.name,
            "total_duration": profile.total_duration,
            "instances": profile.instances,
            "max_duration": profile.max_duration,
            "edges": edges,
        }
    return {
        "constructs": constructs,
        "instructions": report.stats.instructions,
        "dynamic_instances": report.stats.dynamic_instances,
        "violating_raw": sum(
            p.violating_count(DepKind.RAW)
            for p in report.store.profiles.values()),
        "exit_value": report.exit_value,
    }


def _dep_result(report: ProfileReport, track_war_waw: bool,
                telemetry: Any = None) -> AnalysisResult:
    """Shared result rendering for serial ``finish`` and the parallel
    ``merge_segments`` — one code path, so the two cannot drift."""
    from repro.staticdep import fuse_profile, report_for

    kinds = ((DepKind.RAW, DepKind.WAW, DepKind.WAR)
             if track_war_waw else (DepKind.RAW,))
    data = profile_summary(report)
    text = report.to_text(kinds=kinds)
    static = report_for(report.program, telemetry)
    fusion, fusion_lines = fuse_profile(report, static, telemetry)
    data["static"] = fusion
    text += "\n" + "\n".join(fusion_lines)
    return AnalysisResult(analysis="dep", data=data, text=text,
                          payload=report)


def _dep_report(ctx: AnalysisContext, table: ConstructTable, store,
                counters: dict, max_depth: int,
                pushes: int) -> ProfileReport:
    """A dep run's :class:`ProfileReport` from its store and counters
    (named as :meth:`DependenceAnalysis.counters` names them); the pool
    stats are those of one fresh node per instance."""
    stats = RunStats(
        wall_seconds=ctx.wall_seconds,
        instructions=ctx.final_time,
        dynamic_instances=counters["dyn"],
        static_constructs=table.static_count(),
        max_index_depth=max_depth,
        raw_events=counters["RAW"],
        war_events=counters["WAR"],
        waw_events=counters["WAW"],
        edges_profiled=counters["edges_profiled"],
        pool=PoolStats(capacity=max_depth, acquires=pushes, grows=pushes),
    )
    return ProfileReport(ctx.program, table, store, stats, ctx.exit_value,
                         [tuple(v) for v in ctx.output])


@register
class DependenceAnalysis(Analysis):
    """The Alchemist dependence profiler as a plugin, and the engine
    behind ``Alchemist().profile`` and the index tree.

    It consumes whole blocks, of a trace or a live run's tap:
    :class:`~repro.core.blockdep.BlockDependence` (``engine``) runs the
    indexing rules over instance rows, takes the block's pairs from the
    pair kernel and walks Table II over arrays, on its own store and
    counters. The per-event tracer of ``tests/core/reference.py`` on
    the interpreter is the reference it is tested against: the
    profile — per-construct edges in insertion order, min-Tdep
    distances, names, durations, instance counts — is *identical*
    (the equivalence tests assert this store for store).
    """

    name = "dep"
    description = ("Alchemist dependence profile: min RAW/WAR/WAW "
                   "distance per construct")
    options = (
        OptionSpec("track_war_waw", bool, True,
                   "also profile WAR/WAW dependences"),
    )
    #: The block engine's push/pop log (``whatif`` and the index tree
    #: set one).
    recorder = None

    def __init__(self, track_war_waw: bool = True):
        self.track_war_waw = track_war_waw
        self.table: ConstructTable | None = None
        self.engine: BlockDependence | None = None

    def on_start(self, program: ProgramIR, memory: Memory,
                 construct_stack: list = (), shadow: list = ()) -> None:
        """A fresh block engine; ``construct_stack`` and ``shadow`` seed
        it for a segment."""
        self.table = construct_table(program)
        self.engine = BlockDependence(self.table, MemoryNames(memory),
                                      self.track_war_waw, self.recorder,
                                      construct_stack, shadow)

    def consume_batch(self, batch) -> None:
        """One whole trace block through the block engine."""
        self.engine.consume(*batch.arrays())

    def counters(self) -> dict:
        """The engine's dependence and instance counters by name."""
        engine = self.engine
        events = engine.events
        return {"RAW": events[DepKind.RAW], "WAR": events[DepKind.WAR],
                "WAW": events[DepKind.WAW],
                "edges_profiled": sum(events.values()),
                "dyn": engine.store.dynamic_instances}

    def report(self, ctx: AnalysisContext) -> ProfileReport:
        """The run's profile, without the static pass :meth:`finish`
        fuses into its result."""
        engine = self.engine
        return _dep_report(ctx, self.table, engine.store, self.counters(),
                           engine.rows.max_depth, engine.pushes)

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _dep_result(self.report(ctx), self.track_war_waw,
                           getattr(ctx, "telemetry", None))

    # -- segment/merge protocol -------------------------------------------

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        """A block engine on the seam's open instances and a shadow
        seeded with boundary payloads, so the dependence walk defers
        any pair whose head lives in an earlier segment."""
        self.on_start(program, memory, seed.construct_stack, seed.shadow)

    def export_segment(self, ctx: AnalysisContext) -> dict:
        engine = self.engine
        shadow = engine.shadow
        # The seeded stack's pops complete earlier segments' chains;
        # the frontier's heads (payload ids are instance rows) bring in
        # their own.
        nodes = engine.rows.chains(np.concatenate((
            np.array(engine.rows.pinned, dtype=np.int64),
            shadow.writes[3], shadow.reads[3])))
        profile = {
            pc: [prof.total_duration, prof.instances, prof.max_duration,
                 {key: [e.min_tdep, e.count, e.var_hint, e.first_t]
                  for key, e in prof.edges.items()}]
            for pc, prof in engine.store.profiles.items()
        }
        return {
            "profile": profile,
            "counters": self.counters(),
            "max_depth": engine.rows.max_depth,
            "pushes": engine.pushes,
            "deferred": engine.deferred,
            "nodes": nodes,
            "frontier": shadow.frontier(),
            "track_war_waw": self.track_war_waw,
        }

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        from repro.analyses import merging

        recs: dict = {}
        frontier: dict = {}
        profile: dict = {}
        counters = dict.fromkeys(states[0]["counters"], 0)
        max_depth = pushes = 0
        for part in states:
            local = merging.register_nodes(recs, part["nodes"])
            merging.resolve_deferred_dep(part["deferred"], frontier,
                                         profile, counters)
            merging.merge_dep_profiles(profile, part["profile"])
            for key, value in part["counters"].items():
                counters[key] += value
            max_depth = max(max_depth, part["max_depth"])
            pushes += part["pushes"]
            merging.update_frontier(frontier, part["frontier"],
                                    local.__getitem__)
        table = construct_table(ctx.program)
        store = ProfileStore()
        store.dynamic_instances = counters["dyn"]
        for pc in sorted(profile):
            dur, inst, max_dur, edges = profile[pc]
            construct = ConstructProfile(table.by_pc[pc], dur, inst,
                                         max_dur)
            for key in sorted(edges, key=lambda k: (k[0], k[1],
                                                    k[2].value)):
                min_tdep, count, hint, first_t = edges[key]
                construct.edges[key] = EdgeStats(
                    key[0], key[1], key[2], min_tdep, count, hint,
                    first_t=first_t)
            store.profiles[pc] = construct
        report = _dep_report(ctx, table, store, counters, max_depth,
                             pushes)
        return _dep_result(report, states[0]["track_war_waw"],
                           getattr(ctx, "telemetry", None))


@dataclass
class LocalityResult:
    """Reuse-distance summary of one run."""

    accesses: int = 0
    distinct_addresses: int = 0
    cold_misses: int = 0
    #: log2 bucket -> access count; bucket k holds distances in
    #: [2^(k-1), 2^k), bucket 0 holds distance 0 (back-to-back reuse).
    histogram: dict[int, int] = field(default_factory=dict)

    def hit_fraction(self, capacity: int) -> float:
        """Fraction of reuses that fit a ``capacity``-word LRU cache."""
        reuses = self.accesses - self.cold_misses
        if reuses <= 0:
            return 0.0
        hits = sum(count for bucket, count in self.histogram.items()
                   if (1 << bucket) <= capacity)
        return hits / reuses


def _locality_result(stats: LocalityResult) -> AnalysisResult:
    """Shared rendering for serial finish and the parallel merge."""
    lines = [
        "Reuse-distance profile:",
        f"  accesses           {stats.accesses}",
        f"  distinct addresses {stats.distinct_addresses}",
        f"  cold misses        {stats.cold_misses}",
    ]
    for capacity in (64, 1024, 16384):
        lines.append(f"  LRU({capacity:>5}) hit rate "
                     f"{stats.hit_fraction(capacity):6.1%}")
    lines.append("  distance histogram (log2 buckets):")
    for bucket in sorted(stats.histogram):
        lo = 0 if bucket == 0 else 1 << (bucket - 1)
        lines.append(f"    >= {lo:>8}: {stats.histogram[bucket]}")
    return AnalysisResult(
        analysis="locality",
        data={
            "accesses": stats.accesses,
            "distinct_addresses": stats.distinct_addresses,
            "cold_misses": stats.cold_misses,
            "histogram": {str(k): v
                          for k, v in sorted(stats.histogram.items())},
        },
        text="\n".join(lines),
        payload=stats,
    )


def _earlier_at_most(values: np.ndarray) -> np.ndarray:
    """For each ``i``: how many ``j < i`` have ``values[j] <= values[i]``.

    Bottom-up merge counting, one vectorized pass per level: at width
    ``w`` every element of an odd aligned block counts the elements of
    its left sibling block (kept sorted from the previous level) that
    are ``<=`` it, with one ``searchsorted`` over block-offset keys;
    then sibling blocks merge with a stable sort (a linear run merge).
    ``ceil(log2 n)`` levels in all.
    """
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    # Keys reach n * (max - min + 1): exact in int64 for any chunk of
    # a trace shorter than 2^63 / n accesses.
    base = values - values.min()
    span = int(base.max()) + 1
    index = np.arange(n, dtype=np.int64)
    runs = base
    w = 1
    while w < n:
        block = index // w
        right = np.flatnonzero(block & 1)
        left = block[right] - 1
        # Block-offset keys are globally sorted; the blocks before the
        # left sibling hold exactly ``left * w`` elements.
        counts[right] += (np.searchsorted(block * span + runs,
                                          left * span + base[right],
                                          side="right")
                          - left * w)
        pair = (block >> 1) * span
        runs = np.sort(pair + runs, kind="stable") - pair
        w *= 2
    return counts


@register
class LocalityAnalysis(Analysis):
    """Exact LRU reuse-distance histogram (a PROMPT-style analysis).

    For every memory access, the reuse distance is the number of
    *distinct* addresses touched since the previous access to the same
    address — i.e. the minimal LRU cache size (in words) that would hit.
    Distances are bucketed by powers of two.

    Computed exactly, a block of accesses at a time (of a trace or of a
    live run's tap), by one numpy kernel; the per-event reference is
    brute-force distinct counting (the kernel tests). For an access
    ``i`` in a block starting at position ``s``, with ``p`` the
    previous access to its address and ``S`` the live last-access
    positions carried in at ``s``::

        distance(i) = |{x in S : x > p}|
                    + #{j in [s, i) : prev(j) <= p}
                    - max(0, p - s + 1)

    ``prev`` comes from a stable argsort of the block's addresses, the
    middle term from :func:`_earlier_at_most`. The carried state is the
    last position of every address and ``S`` as a sorted array, so it
    is O(distinct addresses), not O(accesses).

    Addresses are physical interpreter words; stack reuse across frames
    therefore counts as reuse of the same word, which is exactly the
    cache behaviour a hardware-level locality profile would see.
    """

    name = "locality"
    description = ("Exact LRU reuse-distance histogram over every "
                   "memory access")

    def __init__(self) -> None:
        #: Accesses consumed so far (positions are 1-based).
        self._seq = 0
        #: addr -> position of its last access.
        self._last: dict[int, int] = {}
        #: The values of ``_last``, sorted: the live positions ``S``.
        self._live = np.empty(0, dtype=np.int64)
        #: Per first access of an address: how many distinct addresses
        #: came before it — in access order. Exactly what the
        #: cross-segment reuse-distance merge needs
        #: (``repro.analyses.merging.fold_locality``).
        self._cold_order: list[tuple[int, int]] = []
        self.stats = LocalityResult()

    def consume_batch(self, batch) -> None:
        """Advance the state over one block's access addresses (reuse
        distance ignores pc/timestamp and every other event type)."""
        addrs = batch.access_addrs()
        n = len(addrs)
        if not n:
            return
        start = self._seq + 1
        last = self._last
        live = self._live
        order = np.argsort(addrs, kind="stable")
        grouped = addrs[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
        tail = np.empty(n, dtype=bool)
        tail[-1] = True
        tail[:-1] = head[1:]
        position = order + start
        # prev in address-grouped order: the previous member of the
        # group, or for a group head the carried last position (0 =
        # never accessed).
        prev_grouped = np.empty(n, dtype=np.int64)
        prev_grouped[1:] = position[:-1]
        head_addrs = grouped[head].tolist()
        get = last.get
        carried = np.array([get(a, 0) for a in head_addrs],
                           dtype=np.int64)
        prev_grouped[head] = carried
        prev = np.empty(n, dtype=np.int64)
        prev[order] = prev_grouped

        stats = self.stats
        reuse = prev > 0
        if reuse.any():
            distance = (len(live)
                        - np.searchsorted(live, prev, side="right")
                        + _earlier_at_most(prev)
                        - np.maximum(prev - start + 1, 0))[reuse]
            # frexp's exponent is int.bit_length() for 0 <= d < 2^53.
            buckets = np.bincount(np.frexp(distance.astype(np.float64))[1])
            hist = stats.histogram
            for bucket in np.flatnonzero(buckets).tolist():
                hist[bucket] = hist.get(bucket, 0) + int(buckets[bucket])

        cold = carried == 0
        cold_count = int(np.count_nonzero(cold))
        if cold_count:
            # Cold heads in stream order; each has len(last) plus its
            # cold rank in this block distinct addresses before it.
            cold_heads = np.flatnonzero(cold)
            cold_heads = cold_heads[np.argsort(order[head][cold_heads])]
            self._cold_order.extend(
                zip([head_addrs[i] for i in cold_heads.tolist()],
                    range(len(last), len(last) + cold_count)))
        superseded = carried[~cold]
        if len(superseded):
            live = np.delete(live, np.searchsorted(live, superseded))
        new_last = position[tail]
        self._live = np.concatenate((live, np.sort(new_last)))
        last.update(zip(head_addrs, new_last.tolist()))
        self._seq += n
        stats.accesses += n
        stats.cold_misses += cold_count
        stats.distinct_addresses = len(last)

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _locality_result(self.stats)

    # -- segment protocol -------------------------------------------------
    # begin_segment: the default (cold start) is exactly right — every
    # intra-segment distance is already exact, and cross-segment reuses
    # are reconstructed by the fold from the exports below.

    def export_segment(self, ctx: AnalysisContext) -> dict:
        return {
            "accesses": self._seq,
            "hist": dict(self.stats.histogram),
            "order": self._cold_order,
            "last": dict(self._last),
        }

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        from repro.analyses.merging import LivePositions, fold_locality

        acc = {"accesses": 0, "offset": 0, "cold": 0, "hist": {},
               "last": {}, "live": LivePositions()}
        for part in states:
            fold_locality(acc, part)
        return _locality_result(LocalityResult(
            accesses=acc["accesses"],
            distinct_addresses=len(acc["last"]),
            cold_misses=acc["cold"],
            histogram=acc["hist"],
        ))


@dataclass
class HotAddress:
    """One row of the hot-address histogram."""

    addr: int
    name: str
    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


def _hot_result(reads: dict, writes: dict, top: int,
                ctx: AnalysisContext) -> AnalysisResult:
    """Shared rendering for serial finish and the parallel merge
    (naming resolves against the run's final memory either way)."""
    totals: dict[int, int] = dict(reads)
    for addr, count in writes.items():
        totals[addr] = totals.get(addr, 0) + count
    ranked = sorted(totals, key=lambda a: (-totals[a], a))[:top]
    rows = [HotAddress(addr=addr,
                       name=ctx.memory.addr_to_name(addr),
                       reads=reads.get(addr, 0),
                       writes=writes.get(addr, 0))
            for addr in ranked]
    lines = ["Hottest addresses (reads+writes):"]
    for row in rows:
        lines.append(f"  {row.total:>10}  {row.name:<28} "
                     f"(r={row.reads}, w={row.writes}, "
                     f"addr={row.addr})")
    return AnalysisResult(
        analysis="hot",
        data={"top": top,
              "rows": [{"addr": row.addr, "name": row.name,
                        "reads": row.reads, "writes": row.writes}
                       for row in rows]},
        text="\n".join(lines),
        payload=rows,
    )


@register
class HotAddressAnalysis(Analysis):
    """Access-count histogram over addresses (contention spotting).

    Names are resolved best-effort from the final memory state —
    reconstructed on replay, live otherwise: globals and live heap
    blocks name exactly; long-dead stack frames fall back to
    ``stack+addr``.
    """

    name = "hot"
    description = "Hottest addresses by read+write count, with names"
    options = (
        OptionSpec("top", int, 20, "rows to keep"),
    )

    def __init__(self, top: int = 20):
        self.top = top
        self._reads: dict[int, int] = {}
        self._writes: dict[int, int] = {}

    def consume_batch(self, batch) -> None:
        """Fold pre-aggregated per-address counts (order within a block
        cannot matter for pure counters)."""
        reads = self._reads
        for addr, count in batch.addr_counts(EV_READ):
            reads[addr] = reads.get(addr, 0) + count
        writes = self._writes
        for addr, count in batch.addr_counts(EV_WRITE):
            writes[addr] = writes.get(addr, 0) + count

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _hot_result(self._reads, self._writes, self.top, ctx)

    # -- segment protocol (counters are purely additive) ------------------

    def export_segment(self, ctx: AnalysisContext) -> dict:
        return {"reads": self._reads, "writes": self._writes,
                "top": self.top}

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        reads: dict[int, int] = {}
        writes: dict[int, int] = {}
        for part in states:
            for mine, theirs in ((reads, part["reads"]),
                                 (writes, part["writes"])):
                for addr, count in theirs.items():
                    mine[addr] = mine.get(addr, 0) + count
        return _hot_result(reads, writes, states[0]["top"], ctx)


def _counts_result(counts: dict) -> AnalysisResult:
    text = "Event counts: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items()))
    # payload is a separate copy: mutating it must not corrupt
    # what to_dict()/to_json() serialize.
    return AnalysisResult(analysis="counts", data=counts, text=text,
                          payload=dict(counts))


@register
class CountingAnalysis(Analysis):
    """Event counts; the registered twin of ``CountingTracer``."""

    name = "counts"
    description = "Raw event statistics (reads, writes, calls, ...)"

    def __init__(self) -> None:
        self.counts = {"reads": 0, "writes": 0, "calls": 0,
                       "branches": 0, "blocks": 0, "allocs": 0,
                       "frees": 0}

    def consume_batch(self, batch) -> None:
        """One histogram of the block's event types."""
        tally = batch.etype_counts()
        counts = self.counts
        counts["reads"] += tally[EV_READ]
        counts["writes"] += tally[EV_WRITE]
        counts["calls"] += tally[EV_ENTER]
        counts["branches"] += tally[EV_BRANCH]
        counts["blocks"] += tally[EV_BLOCK]
        counts["allocs"] += tally[EV_ALLOC]
        counts["frees"] += tally[EV_FREE]

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _counts_result(dict(self.counts))

    # -- segment protocol (purely additive) -------------------------------

    def export_segment(self, ctx: AnalysisContext) -> dict:
        return dict(self.counts)

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        counts = dict.fromkeys(states[0], 0)
        for part in states:
            for key, value in part.items():
                counts[key] += value
        return _counts_result(counts)


def _edge_rows(edges: dict, describe, tiekey) -> list[str]:
    # ``tiekey`` totalizes the order: serial and merged replays insert
    # edges into the dict in different orders, and a ranking that fell
    # back to insertion order on (-count, min_tdep) ties would make
    # the rendering depend on how the profile was computed.
    ranked = sorted(edges.values(),
                    key=lambda e: (-e.count, e.min_tdep, tiekey(e)))[:8]
    return [f"  {describe(edge)}" for edge in ranked]


class _BlockPairAnalysis(Analysis):
    """The block path shared by the flat and context baselines: each
    block goes to ``blocks.consume_block`` (the block pair kernel)."""

    def consume_batch(self, batch) -> None:
        self.blocks.consume_block(batch)


def _flat_result(profile: FlatProfile) -> AnalysisResult:
    edges = {}
    for (head, tail, kind), edge in sorted(
            profile.edges.items(),
            key=lambda item: (item[0][0], item[0][1], item[0][2].value)):
        edges[f"{head}->{tail}:{kind.value}"] = [edge.min_tdep,
                                                 edge.count]
    program = profile.program
    lines = [f"Flat dependence profile: {len(edges)} static edge(s)"]
    lines += _edge_rows(
        profile.edges,
        lambda e: (f"{program.loc_of(e.head_pc)[0]}->"
                   f"{program.loc_of(e.tail_pc)[0]} {e.kind.value}: "
                   f"min Tdep {e.min_tdep}, x{e.count}"),
        lambda e: (e.head_pc, e.tail_pc, e.kind.value))
    return AnalysisResult(
        analysis="flat",
        data={"edges": edges, "instructions": profile.instructions},
        text="\n".join(lines),
        payload=profile,
    )


@register
class FlatDependenceAnalysis(_BlockPairAnalysis):
    """The context-insensitive baseline profiler as a plugin.

    Blocks go to :class:`~repro.baselines.flat_profiler.FlatBlocks`:
    every dependence is attributed to its static ``(head pc, tail pc)``
    pair only — the "traditional profiling" strawman the paper's §III
    opens with, now comparable against ``dep`` in a single pass.
    """

    name = "flat"
    description = ("Baseline: dependences aggregated by static PC "
                   "pair only")

    def __init__(self) -> None:
        self.blocks: FlatBlocks | None = None

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        self.blocks = FlatBlocks(FlatProfile(program))

    @property
    def profile(self) -> FlatProfile:
        return self.blocks.profile

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _flat_result(self.blocks.profile)

    # -- segment protocol -------------------------------------------------
    # Flat attribution needs only the head's (pc, t), which the
    # checkpointed shadow carries — so the seeded blocks attribute
    # cross-segment pairs locally and nothing is ever deferred.

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        self.blocks = FlatBlocks(FlatProfile(program), seed.shadow)

    def export_segment(self, ctx: AnalysisContext) -> dict:
        return {key: [edge.min_tdep, edge.count]
                for key, edge in self.blocks.profile.edges.items()}

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        from repro.analyses.merging import fold_edges
        from repro.baselines.flat_profiler import FlatEdge

        edges: dict = {}
        for part in states:
            fold_edges(edges, part)
        profile = FlatProfile(ctx.program)
        for key in sorted(edges, key=lambda k: (k[0], k[1], k[2].value)):
            profile.edges[key] = FlatEdge(*key, *edges[key])
        profile.instructions = ctx.final_time
        return _flat_result(profile)


def _context_result(profile: ContextProfile) -> AnalysisResult:
    edges = {}
    for key, edge in sorted(
            profile.edges.items(),
            key=lambda item: (item[0][2], item[0][3],
                              item[0][4].value, item[0][0], item[0][1])):
        head = ">".join(edge.head_context)
        tail = ">".join(edge.tail_context)
        edges[f"{head}|{tail}|{edge.head_pc}->{edge.tail_pc}"
              f":{edge.kind.value}"] = [edge.min_tdep, edge.count]
    lines = [f"Context dependence profile: {len(edges)} edge(s)"]
    lines += _edge_rows(
        profile.edges,
        lambda e: (f"{'>'.join(e.head_context)} -> "
                   f"{'>'.join(e.tail_context)} {e.kind.value}: "
                   f"min Tdep {e.min_tdep}, x{e.count}"),
        lambda e: (e.head_pc, e.tail_pc, e.kind.value,
                   e.head_context, e.tail_context))
    return AnalysisResult(
        analysis="context",
        data={"edges": edges, "instructions": profile.instructions},
        text="\n".join(lines),
        payload=profile,
    )


@register
class ContextDependenceAnalysis(_BlockPairAnalysis):
    """The context-sensitive baseline profiler as a plugin.

    Blocks go to :class:`~repro.baselines.context_profiler.
    ContextBlocks`: dependences attributed to the calling
    contexts of both endpoints — the granularity of the profilers the
    paper's §III-B criticizes, and reproducibly unable to separate
    loop-carried from loop-local dependences.
    """

    name = "context"
    description = ("Baseline: dependences attributed to calling "
                   "contexts")

    def __init__(self) -> None:
        self.blocks: ContextBlocks | None = None

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        self.blocks = ContextBlocks(ContextProfile(),
                                    list(program.functions))

    @property
    def profile(self) -> ContextProfile:
        return self.blocks.profile

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _context_result(self.blocks.profile)

    # -- segment protocol -------------------------------------------------

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        """Blocks from the seam's call stack and a shadow seeded with
        boundary payloads: pairs whose head context lives in an
        earlier segment are deferred."""
        self.blocks = ContextBlocks(ContextProfile(),
                                    list(program.functions),
                                    seed.call_stack, seed.shadow)

    def export_segment(self, ctx: AnalysisContext) -> dict:
        blocks = self.blocks
        return {
            "edges": {key: [edge.min_tdep, edge.count]
                      for key, edge in blocks.profile.edges.items()},
            "deferred": blocks.deferred,
            "frontier": blocks.frontier(),
        }

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        from repro.analyses import merging
        from repro.baselines.context_profiler import ContextEdge

        frontier: dict = {}
        edges: dict = {}
        for part in states:
            merging.resolve_deferred_context(part["deferred"], frontier,
                                             edges)
            merging.fold_edges(edges, part["edges"])
            merging.update_frontier(frontier, part["frontier"])
        profile = ContextProfile()
        for key in sorted(edges, key=lambda k: (k[2], k[3], k[4].value,
                                                k[0], k[1])):
            profile.edges[key] = ContextEdge(*key, *edges[key])
        profile.instructions = ctx.final_time
        return _context_result(profile)


# Imported at the bottom on purpose: ``repro.trace`` imports the
# replay engine, which imports ``repro.analyses`` — a top-of-file
# ``from repro.trace.events import ...`` here would re-enter that
# half-initialized package and fail whichever side imports first. The
# ``consume_batch`` bodies above resolve these names at call time, so
# placing the import after the class definitions is safe under both
# import orders.
from repro.trace.events import (EV_ALLOC, EV_BLOCK,  # noqa: E402
                                EV_BRANCH, EV_ENTER, EV_FREE, EV_READ,
                                EV_WRITE)
