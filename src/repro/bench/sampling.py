"""The sampling trade-off benchmark behind ``BENCH_sampling.json``.

For every workload it records one full-fidelity trace (the baseline
every reduction is measured against) and one trace under each
requested sampling policy, then replays each sampled trace against the
full one through the accuracy module (:mod:`repro.sampling.accuracy`)
and reports, per workload and policy: trace bytes, size reduction vs.
the full recording, record-time speedup vs. the full recording, and
the per-analysis error metrics (hot count error, locality hit-rate
error, dep missed-edge fraction — the dep numbers are always flagged
as hints).

The artifact's ``summary`` section scores every policy against the
headline target — at least ``min_reduction``x smaller traces at no
more than ``max_error`` hot/locality error — and lists the workloads
that meet it, so "≥5x smaller at ≤5% error on ≥3 workloads" is a
greppable fact rather than a claim.
"""

from __future__ import annotations

import os
import tempfile
import time as _time
from typing import Any, Iterable

from repro.util import atomic_write_json
from repro.workloads import get
from repro.workloads import names as workload_names

#: Policies measured when the caller does not choose: the headline
#: burst config (meets the 5x/5% target on most workloads), a denser
#: and a sparser burst, a plain interval, and the aggressive 1%
#: interval — a spectrum from "accurate" to "hints only".
DEFAULT_POLICIES = ("burst:500/1000", "burst:200/1000", "interval:10",
                    "burst:1000/10000", "interval:100")

#: The headline target the summary scores against.
TARGET_MIN_REDUCTION = 5.0
TARGET_MAX_ERROR = 0.05


def _timed_record(source: str, path: str, *,
                  sampling: str | None, repeats: int) -> tuple[Any, float]:
    """Record ``repeats`` times; returns (last result, best seconds)."""
    from repro.trace.writer import record_source

    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = _time.perf_counter()
        result = record_source(source, path, sampling=sampling)
        best = min(best, _time.perf_counter() - start)
    return result, best


def sampling_bench_rows(names: list[str] | None = None,
                        scale: float = 0.5,
                        policies: Iterable[str] = DEFAULT_POLICIES,
                        analyses: tuple[str, ...] = ("hot", "locality",
                                                     "dep"),
                        repeats: int = 1) -> list[dict[str, Any]]:
    """Measure every workload x policy cell; returns JSON-able rows."""
    from repro.sampling.accuracy import compare_traces

    rows: list[dict[str, Any]] = []
    for name in (names if names is not None else workload_names()):
        workload = get(name, scale)
        source = workload.source
        with tempfile.TemporaryDirectory() as tmp:
            full_path = os.path.join(tmp, "full.trace")
            # Untimed warmup so first-touch costs (imports, allocator
            # growth) don't land on the baseline measurement.
            _timed_record(source, full_path, sampling=None, repeats=1)
            full, full_seconds = _timed_record(
                source, full_path, sampling=None, repeats=repeats)
            row: dict[str, Any] = {
                "name": name,
                "events": full.events,
                "full_bytes": full.trace_bytes,
                "full_record_seconds": full_seconds,
                "policies": {},
            }
            for spec in policies:
                sampled_path = os.path.join(
                    tmp,
                    "sampled-" + spec.replace(":", "-").replace("/", "-")
                    + ".trace")
                sampled_result, sampled_seconds = _timed_record(
                    source, sampled_path, sampling=spec,
                    repeats=repeats)
                accuracy = compare_traces(full_path, sampled_path,
                                          analyses=analyses)
                metrics = {acc.analysis: acc.metrics
                           for acc in accuracy.rows.values()}
                flags = sorted({flag for acc in accuracy.rows.values()
                                for flag in acc.flags})
                row["policies"][spec] = {
                    "trace_bytes": sampled_result.trace_bytes,
                    "events": sampled_result.events,
                    "record_seconds": sampled_seconds,
                    "reduction_vs_full": (full.trace_bytes
                                          / sampled_result.trace_bytes),
                    "record_speedup": full_seconds / sampled_seconds
                    if sampled_seconds > 0 else float("nan"),
                    "replay_speedup":
                        accuracy.full_replay_seconds
                        / accuracy.sampled_replay_seconds
                        if accuracy.sampled_replay_seconds > 0
                        else float("nan"),
                    "hot_count_error":
                        metrics.get("hot", {}).get("count_error"),
                    "locality_hit_rate_error":
                        metrics.get("locality", {}).get("hit_rate_error"),
                    "dep_missed_fraction":
                        metrics.get("dep", {}).get("missed_fraction"),
                    "dep_min_distance_overestimates":
                        metrics.get("dep", {}).get(
                            "min_distance_overestimates"),
                    "metrics": metrics,
                    "flags": flags,
                }
            rows.append(row)
    return rows


def _summarize(rows: list[dict[str, Any]],
               policies: Iterable[str]) -> dict[str, Any]:
    summary: dict[str, Any] = {
        "target": {"min_reduction": TARGET_MIN_REDUCTION,
                   "max_error": TARGET_MAX_ERROR},
        "policies": {},
    }
    for spec in policies:
        met = []
        for row in rows:
            cell = row["policies"][spec]
            hot = cell["hot_count_error"]
            loc = cell["locality_hit_rate_error"]
            if (cell["reduction_vs_full"] >= TARGET_MIN_REDUCTION
                    and hot is not None and hot <= TARGET_MAX_ERROR
                    and loc is not None and loc <= TARGET_MAX_ERROR):
                met.append(row["name"])
        summary["policies"][spec] = {
            "workloads_meeting_target": met,
            "meets_target_on_3": len(met) >= 3,
        }
    return summary


def sampling_bench(names: list[str] | None = None, scale: float = 0.5,
                   policies: Iterable[str] = DEFAULT_POLICIES,
                   out_path: str | None = "BENCH_sampling.json",
                   analyses: tuple[str, ...] = ("hot", "locality", "dep"),
                   repeats: int = 1) -> dict[str, Any]:
    """The BENCH_sampling.json artifact: rows, totals, target scoring."""
    policies = tuple(policies)
    rows = sampling_bench_rows(names, scale, policies, analyses, repeats)
    data = {
        "bench": "sampling_tradeoff",
        "scale": scale,
        "policies": list(policies),
        "analyses": list(analyses),
        "repeats": repeats,
        "rows": rows,
        "summary": _summarize(rows, policies),
    }
    if out_path:
        atomic_write_json(out_path, data)
    return data
