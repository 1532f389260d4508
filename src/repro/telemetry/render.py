"""Pretty-printing for metrics artifacts: the ``alchemist stats`` verb.

Renders a ``--metrics`` JSON document as a human briefing: the span
tree with wall/CPU times and self-time, the top spans by cumulative
self-time, derived throughputs (events decoded per second of replay),
cache hit rates, and the raw counter/gauge dump.
"""

from __future__ import annotations

from typing import Any

__all__ = ["render_metrics"]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1000:7.2f}ms"


def _span_rows(node: dict, depth: int, rows: list) -> float:
    """Collect (depth, name, attrs, wall, cpu, self_wall) rows;
    returns the node's wall time (for the parent's self-time)."""
    wall = float(node.get("wall_seconds", 0.0))
    cpu = float(node.get("cpu_seconds", 0.0))
    children = node.get("children", [])
    child_wall = 0.0
    row = [depth, node.get("name", "?"), node.get("attrs", {}),
           wall, cpu, 0.0]
    rows.append(row)
    for child in children:
        child_wall += _span_rows(child, depth + 1, rows)
    row[5] = max(0.0, wall - child_wall)
    return wall


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        text = repr(value) if isinstance(value, str) else str(value)
        if len(text) > 32:
            text = text[:29] + "..."
        parts.append(f"{key}={text}")
    return "  [" + " ".join(parts) + "]"


def _hit_rate(counters: dict, hits_key: str, misses_key: str
              ) -> float | None:
    hits = counters.get(hits_key, 0)
    misses = counters.get(misses_key, 0)
    total = hits + misses
    return hits / total if total else None


def render_metrics(payload: dict[str, Any], *, top: int = 10) -> str:
    """The ``alchemist stats`` body for one validated metrics document."""
    lines: list[str] = []
    command = payload.get("command") or "?"
    exit_code = payload.get("exit_code")
    lines.append(f"metrics:    {payload['schema']} v{payload['version']}"
                 f"  (command: {command}"
                 f"{'' if exit_code is None else f', exit {exit_code}'})")

    rows: list = []
    for span in payload.get("spans", []):
        _span_rows(span, 0, rows)

    if rows:
        lines.append("")
        lines.append("span tree (wall / cpu / self):")
        for depth, name, attrs, wall, cpu, self_wall in rows:
            indent = "  " * depth
            lines.append(f"  {_fmt_seconds(wall)} {_fmt_seconds(cpu)} "
                         f"{_fmt_seconds(self_wall)}  {indent}{name}"
                         f"{_fmt_attrs(attrs)}")
        by_self: dict[str, list[float]] = {}
        for _, name, _, wall, _, self_wall in rows:
            acc = by_self.setdefault(name, [0.0, 0])
            acc[0] += self_wall
            acc[1] += 1
        total_self = sum(acc[0] for acc in by_self.values()) or 1.0
        lines.append("")
        lines.append(f"top spans by cumulative self time (of "
                     f"{_fmt_seconds(total_self).strip()} total):")
        ranked = sorted(by_self.items(), key=lambda kv: -kv[1][0])[:top]
        for name, (self_wall, count) in ranked:
            share = self_wall / total_self
            lines.append(f"  {_fmt_seconds(self_wall)}  {share:6.1%}  "
                         f"{name}  (x{count})")
    else:
        lines.append("")
        lines.append("span tree: empty (telemetry recorded no spans)")

    counters = payload.get("counters", {})
    derived: list[str] = []
    replay_wall = sum(wall for _, name, _, wall, _, _ in rows
                      if name in ("replay", "replay.parallel"))
    events = counters.get("trace.events_decoded", 0)
    if events and replay_wall > 0:
        derived.append(f"  replay throughput:  {events / replay_wall:,.0f}"
                       f" events/s ({events:,} events in "
                       f"{replay_wall:.3f}s)")
    # A cold analyze records inside its ``live`` run.
    record_wall = sum(wall for _, name, attrs, wall, _, _ in rows
                      if name == "record"
                      or (name == "live" and attrs.get("recording")))
    written = counters.get("trace.events_written", 0)
    if written and record_wall > 0:
        derived.append(f"  record throughput:  {written / record_wall:,.0f}"
                       f" events/s ({written:,} events in "
                       f"{record_wall:.3f}s)")
    for label, hits_key, misses_key in (
            ("compile cache", "session.compile_cache_hits",
             "session.compile_cache_misses"),
            ("trace cache", "session.trace_cache_hits",
             "session.trace_cache_misses")):
        rate = _hit_rate(counters, hits_key, misses_key)
        if rate is not None:
            derived.append(f"  {label} hit rate: {rate:.0%} "
                           f"({counters.get(hits_key, 0)} hit(s), "
                           f"{counters.get(misses_key, 0)} miss(es))")
    if derived:
        lines.append("")
        lines.append("derived:")
        lines.extend(derived)

    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {counters[name]:>14,}  {name}")
    gauges = payload.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {gauges[name]:>14,.3f}  {name}")
    return "\n".join(lines)
