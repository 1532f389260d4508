"""Ablations for the design choices DESIGN.md calls out.

* privatization (the paper's WAR/WAW transformations) on/off in the
  futures simulation;
* WAR/WAW tracking on/off in the profiler (event volume).
"""

from repro.bench import table5_rows
from repro.core.alchemist import Alchemist, ProfileOptions
from repro.ir import compile_source
from repro.workloads import get

from conftest import emit


def test_privatization_ablation(benchmark):
    """Without privatization the WAR/WAW constraints bite and speedups
    collapse toward 1 — quantifying why the paper's transformations
    matter."""

    def run():
        with_priv = {r.name: r.speedup
                     for r in table5_rows(scale=1.0, privatize=True)}
        without = {r.name: r.speedup
                   for r in table5_rows(scale=1.0, privatize=False)}
        return with_priv, without

    with_priv, without = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: privatization of WAR/WAW conflicts (4 workers)",
             f"{'benchmark':10s} {'privatized':>11s} {'raw':>8s}"]
    for name in with_priv:
        lines.append(f"{name:10s} {with_priv[name]:11.2f} "
                     f"{without[name]:8.2f}")
        assert without[name] <= with_priv[name] + 1e-9
    # At least the stream-state-heavy benchmarks must collapse.
    assert without["bzip2"] < with_priv["bzip2"] / 1.5
    emit("ablation_privatization", "\n".join(lines))


def test_war_waw_tracking_ablation(benchmark):
    """Event volume and cost with and without WAR/WAW profiling."""
    workload = get("bzip2", 0.5)
    program = compile_source(workload.source)

    def run():
        full = Alchemist(ProfileOptions(track_war_waw=True)).profile(
            program=program)
        raw_only = Alchemist(ProfileOptions(track_war_waw=False)).profile(
            program=program)
        return full, raw_only

    full, raw_only = benchmark.pedantic(run, rounds=1, iterations=1)
    assert raw_only.stats.war_events == 0
    assert raw_only.stats.waw_events == 0
    assert full.stats.war_events > 0
    assert full.stats.raw_events == raw_only.stats.raw_events
    lines = [
        "Ablation: WAR/WAW tracking (bzip2)",
        f"full    : raw={full.stats.raw_events} "
        f"war={full.stats.war_events} waw={full.stats.waw_events} "
        f"wall={full.stats.wall_seconds:.3f}s",
        f"raw-only: raw={raw_only.stats.raw_events} war=0 waw=0 "
        f"wall={raw_only.stats.wall_seconds:.3f}s",
    ]
    emit("ablation_war_waw", "\n".join(lines))
