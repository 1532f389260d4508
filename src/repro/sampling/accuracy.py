"""Accuracy bounds: what did sampling cost each analysis?

:func:`compare_traces` replays a *full* trace and a *sampled* trace of
the same program through fresh analysis instances and quantifies the
gap, applying the policy's expected rate as a correction first:

``hot``
    Sampled per-address counts are scaled by ``1/rate`` and compared
    against the true counts over the full run's hottest addresses
    (``count_error``, a weighted relative L1), plus the top-set overlap
    (``top_overlap``). The reservoir policy counts covered addresses
    unscaled (complete for never-displaced residents, partial for
    displaced ones), so it is scored on the covered intersection.
``locality``
    Reuse distances in an interval/burst-sampled stream shrink by
    roughly the sampling rate, so the corrected estimate of the true
    LRU hit rate at capacity C is the sampled hit fraction at C*rate.
    ``hit_rate_error`` is the worst absolute gap across the standard
    capacities.
``dep``
    Sampling distorts dependence profiles in *both* directions:
    dropped events hide edges (violation counts under-approximated),
    and a dropped WRITE re-pairs later reads with a stale writer,
    inventing edges or shifting distances. We report both sides —
    ``missed_edges`` / ``missed_fraction``, ``spurious_edges``, and
    min-distance over/under-estimate counts — and always flag the
    under-approximation. Sampled dependence results are hints, never
    proof.

The report is JSON-able (it feeds ``BENCH_sampling.json``) and renders
as text for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sampling.policies import as_policy

#: Capacities (words) the locality comparison probes, matching the
#: LocalityAnalysis report rows.
LOCALITY_CAPACITIES = (64, 1024, 16384)

#: Hottest-address rows the hot comparison scores.
HOT_TOP = 20


@dataclass
class AnalysisAccuracy:
    """Error metrics for one analysis, sampled vs. full."""

    analysis: str
    #: Metric name -> value; ``None`` marks a metric the sample could
    #: not measure (reported as undefined rather than as 0).
    metrics: dict[str, float | None] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {"analysis": self.analysis,
                "metrics": dict(self.metrics),
                "flags": list(self.flags)}


@dataclass
class AccuracyReport:
    """Per-analysis error bounds of one sampled trace."""

    full_path: str
    sampled_path: str
    sampling: str
    #: Expected fraction of memory events kept (None: data-driven
    #: policy, no global correction factor exists).
    rate: float | None
    rows: dict[str, AnalysisAccuracy]
    #: Wall time of the one-pass replay over each trace (same analysis
    #: set) — the sampled stream's analysis-time win.
    full_replay_seconds: float = 0.0
    sampled_replay_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "full_trace": self.full_path,
            "sampled_trace": self.sampled_path,
            "sampling": self.sampling,
            "rate": self.rate,
            "full_replay_seconds": self.full_replay_seconds,
            "sampled_replay_seconds": self.sampled_replay_seconds,
            "analyses": {name: row.to_dict()
                         for name, row in self.rows.items()},
        }

    def to_text(self) -> str:
        lines = [f"Sampling accuracy ({self.sampling}, expected rate "
                 f"{self.rate if self.rate is not None else 'data-driven'}):"]
        for name, row in self.rows.items():
            metrics = ", ".join(
                f"{k}={'n/a' if v is None else format(v, '.4g')}"
                for k, v in sorted(row.metrics.items()))
            lines.append(f"  {name:10s} {metrics}")
            for flag in row.flags:
                lines.append(f"  {'':10s} ! {flag}")
        return "\n".join(lines)


def _hot_accuracy(full, sampled, rate: float | None) -> AnalysisAccuracy:
    row = AnalysisAccuracy("hot")
    full_totals = full.address_totals()
    sampled_totals = sampled.address_totals()
    ranked = sorted(full_totals, key=lambda a: (-full_totals[a], a))
    top = ranked[:HOT_TOP]
    if rate is None:
        # Reservoir: counts are exact per covered address; score the
        # covered intersection unscaled and report coverage.
        scale = 1.0
        covered = [a for a in top if a in sampled_totals]
        row.metrics["top_coverage"] = (len(covered) / len(top)
                                       if top else 1.0)
        row.flags.append(
            "address-reservoir sampling: counts are complete for "
            "addresses resident at run end, partial for displaced "
            "ones, and uncovered addresses are invisible")
        scored = covered
    else:
        scale = 1.0 / rate
        scored = top
    true_mass = sum(full_totals[a] for a in scored)
    if true_mass:
        err_mass = sum(abs(sampled_totals.get(a, 0) * scale
                           - full_totals[a]) for a in scored)
        row.metrics["count_error"] = err_mass / true_mass
    elif not top:
        row.metrics["count_error"] = 0.0  # no memory events at all
    else:
        # Nothing measurable (e.g. a reservoir that covers none of the
        # hot set): report the metric as undefined, not as perfect.
        row.metrics["count_error"] = None
        row.flags.append(
            "no hot address was covered by the sample; count_error is "
            "undefined")
    sampled_ranked = sorted(sampled_totals,
                            key=lambda a: (-sampled_totals[a], a))[:HOT_TOP]
    overlap = len(set(top) & set(sampled_ranked))
    row.metrics["top_overlap"] = overlap / len(top) if top else 1.0
    return row


def _locality_accuracy(full, sampled, policy) -> AnalysisAccuracy:
    from repro.sampling.policies import IntervalSampling

    row = AnalysisAccuracy("locality")
    # replay_with already ran finish(), so the stats are complete.
    full_stats = full.stats
    sampled_stats = sampled.stats
    rate = policy.expected_rate()
    scale_capacity = isinstance(policy, IntervalSampling)
    worst = 0.0
    for capacity in LOCALITY_CAPACITIES:
        truth = full_stats.hit_fraction(capacity)
        if scale_capacity and rate is not None:
            # Interval sampling thins the stream uniformly, so reuse
            # distances shrink ~linearly with the rate: a distance-d
            # reuse keeps ~d*rate intervening accesses.
            estimate = sampled_stats.hit_fraction(
                max(1, int(capacity * rate)))
        else:
            # Burst sampling observes distances *inside* a burst
            # exactly (a burst is a contiguous full-fidelity window),
            # so short-distance structure needs no correction — the
            # PROMPT argument for bursts over intervals. Reservoir
            # distances are likewise reported uncorrected.
            estimate = sampled_stats.hit_fraction(capacity)
        error = abs(truth - estimate)
        row.metrics[f"hit_rate_error_{capacity}"] = error
        worst = max(worst, error)
    row.metrics["hit_rate_error"] = worst
    if rate is None:
        row.flags.append(
            "address-reservoir sampling skews reuse distances "
            "(uncovered addresses vanish from the stack); hit rates "
            "are uncorrected")
    return row


def _dep_edges(data: dict[str, Any]) -> dict[tuple[str, str], int]:
    edges = {}
    for pc, construct in data["constructs"].items():
        for key, (min_tdep, _count, _hint) in construct["edges"].items():
            edges[(pc, key)] = min_tdep
    return edges


def _dep_accuracy(full_data: dict[str, Any],
                  sampled_data: dict[str, Any]) -> AnalysisAccuracy:
    row = AnalysisAccuracy("dep")
    full_edges = _dep_edges(full_data)
    sampled_edges = _dep_edges(sampled_data)
    missed = [key for key in full_edges if key not in sampled_edges]
    spurious = [key for key in sampled_edges if key not in full_edges]
    over = under = 0
    for key, min_tdep in sampled_edges.items():
        truth = full_edges.get(key)
        if truth is None:
            continue
        if min_tdep > truth:
            over += 1
        elif min_tdep < truth:
            under += 1
    row.metrics["edges_full"] = float(len(full_edges))
    row.metrics["edges_sampled"] = float(len(sampled_edges))
    row.metrics["missed_edges"] = float(len(missed))
    row.metrics["missed_fraction"] = (len(missed) / len(full_edges)
                                      if full_edges else 0.0)
    row.metrics["spurious_edges"] = float(len(spurious))
    row.metrics["min_distance_overestimates"] = float(over)
    row.metrics["min_distance_underestimates"] = float(under)
    row.flags.append(
        "min-distance under-approximation: dropped events hide "
        "dependences, so violation counts are under-approximated and "
        "most min distances over-estimated — and a dropped WRITE can "
        "also re-pair later reads with a stale writer, inventing "
        "spurious edges or shifting distances. Sampled dependence "
        "profiles are lower-confidence hints, not proof of "
        "parallelizability")
    return row


def compare_traces(full_path: str, sampled_path: str,
                   analyses: Iterable[str] = ("hot", "locality", "dep"),
                   ) -> AccuracyReport:
    """Replay both traces and report per-analysis error bounds.

    ``full_path`` must be a full-fidelity recording of the same program
    ``sampled_path`` sampled (same source digest; checked).
    """
    # Imported here: repro.trace imports this package's policies via
    # the writer, so a module-level import would be circular.
    from repro.trace.events import TraceError
    from repro.trace.reader import TraceReader
    from repro.analyses import make_analyses
    from repro.trace.replay import replay_with

    with TraceReader(full_path) as full_reader, \
            TraceReader(sampled_path) as sampled_reader:
        if full_reader.header.digest != sampled_reader.header.digest:
            raise TraceError(
                f"{sampled_path} samples digest "
                f"{sampled_reader.header.digest[:12]}..., but "
                f"{full_path} records "
                f"{full_reader.header.digest[:12]}... — not the same "
                "program")
        full_spec = getattr(full_reader.header, "sampling", "full")
        if full_spec not in (None, "", "full"):
            raise TraceError(
                f"{full_path}: the reference trace is itself sampled "
                f"({full_spec}); accuracy needs a full recording")
        spec = getattr(sampled_reader.header, "sampling", "full")

    policy = as_policy(spec)
    rate = policy.expected_rate()
    names = list(analyses)
    full_instances = make_analyses(names)
    sampled_instances = make_analyses(names)
    full_outcome = replay_with(full_path, full_instances)
    sampled_outcome = replay_with(sampled_path, sampled_instances)

    rows: dict[str, AnalysisAccuracy] = {}
    for name, full_inst, sampled_inst in zip(names, full_instances,
                                             sampled_instances):
        if name == "hot":
            rows[name] = _hot_accuracy(full_inst, sampled_inst, rate)
        elif name == "locality":
            rows[name] = _locality_accuracy(full_inst, sampled_inst,
                                            policy)
        elif name == "dep":
            rows[name] = _dep_accuracy(
                full_outcome.reports["dep"].data,
                sampled_outcome.reports["dep"].data)
        else:
            # Generic fallback: structural comparison of the JSON data.
            row = AnalysisAccuracy(name)
            row.metrics["exact_match"] = float(
                full_outcome.reports[name].data
                == sampled_outcome.reports[name].data)
            rows[name] = row
    return AccuracyReport(
        full_path=full_path,
        sampled_path=sampled_path,
        sampling=spec,
        rate=rate,
        rows=rows,
        full_replay_seconds=full_outcome.context.wall_seconds,
        sampled_replay_seconds=sampled_outcome.context.wall_seconds,
    )
