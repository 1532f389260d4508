"""Repository benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload dep-bzip2 --seed 0 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics: set-up runs several
times (``setup_s`` is the import time plus the median set-up), the
oracle runs once, then timed rounds repeat until ``--seconds`` have
passed; each operation counts with its fastest time. All times are
host-normalised (``hostclock.py``). ``--trace 1`` instead
runs two untraced rounds alternating with two telemetry-on rounds (their
ratio is ``telemetry.overhead_ratio``), then the per-layer ledger
(``ledger.py``).

Human-readable lines go to stdout first; the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
``--scale`` multiplies every program's scale (the self-test uses a
tiny one; ``2`` gives bzip2 at scale 2 on dep-bzip2).

The benchmark runs the repository's ``src/`` tree in place and keeps
all its files under ``.perfbench-tmp/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("dep-bzip2", "replay-suite", "advise-parallel")

#: End-to-end metrics: (name, unit). BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("stage_s", "s"),
    ("events_per_s", "events/s"),
    ("trace_bytes_per_event", "B/event"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every program's scale")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, workdir: str) -> dict:
    start = time.perf_counter()
    import hostclock
    import ledger
    import workloads
    import_s = (time.perf_counter() - start) / hostclock.slowdown()

    cpus, affinity = ledger.effective_cpus()
    print(f"host.effective_cpus {cpus:.2f} (scheduler affinity "
          f"{affinity}, os.cpu_count {os.cpu_count()}); host slowdown "
          f"x{hostclock.slowdown():.2f} (times below are divided by it)")

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale,
                                                  workdir)
    try:
        # setup_s is an end-to-end metric: the traced run sets up once.
        setups = [workloads.timed(workload.setup)[0]
                  for _ in range(1 if args.trace
                                 else workload.setup_repeats)]
        setup_s = import_s + statistics.median(setups)
        print(f"setup_s {setup_s:.4f} s = import {import_s:.4f} s + median "
              f"of {len(setups)} set-ups "
              f"({', '.join(f'{s:.3f}' for s in setups)})")
        rounds = [workload.oracle()]
        if args.trace:
            metrics = traced(workload, rounds, workdir, cpus, ledger)
        else:
            metrics = untraced(workload, rounds, args.seconds, setup_s)
    finally:
        workload.close()

    print(f"host slowdown at the end x{hostclock.slowdown():.2f}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for label, what in r.failures[:5]:
            print(f"FAILED {label}: {what}", file=sys.stderr)
    print(f"failed_ops_share {failed}/{attempted}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def fastest_stages(rounds: list) -> dict[str, float]:
    """Stage -> the sum of its operations' fastest times over rounds."""
    first = rounds[0]
    return {stage: sum(min(r.seconds[stage][label] for r in rounds)
                       for label in first.seconds[stage])
            for stage in first.seconds}


def untraced(workload, rounds: list, seconds: float,
             setup_s: float) -> dict:
    """Repeat timed rounds for ``seconds``. Each operation's time is its
    fastest over the rounds (interference from other tenants only ever
    slows a call, so the minimum is the steadiest estimate of the
    undisturbed cost); a stage's time sums its operations'."""
    timed_rounds = []
    start = time.perf_counter()
    while not timed_rounds or time.perf_counter() - start < seconds:
        timed_rounds.append(workload.round())
    rounds.extend(timed_rounds)
    stages = fastest_stages(timed_rounds)
    wall_s = sum(stages.values())
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "stage_s": stages[workload.stage],
        "events_per_s": timed_rounds[0].events / wall_s,
        "trace_bytes_per_event": workload.trace_bytes_per_event,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"{workload.name}: {len(timed_rounds)} rounds in "
          f"{time.perf_counter() - start:.1f} s (seed {workload.seed}); "
          "round wall_s: "
          + " ".join(f"{r.wall_s:.3f}" for r in timed_rounds))
    print("fastest time of each operation, summed by stage:")
    for stage, value in sorted(stages.items()):
        alias = " (= stage_s)" if stage == workload.stage else ""
        print(f"  {stage:24s} {value:12.4f} s{alias}")
    units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name:24s} {value:12.4f} {units[name]}")
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def traced(workload, rounds: list, workdir: str, cpus: float,
           ledger) -> dict:
    from repro.telemetry import Telemetry

    plain, with_telemetry = [], []
    for _ in range(2):  # alternate, so drift hits both sides alike
        plain.append(workload.round())
        with_telemetry.append(workload.round(Telemetry()))
    rounds.extend(plain + with_telemetry)
    plain_s = sum(fastest_stages(plain).values())
    telemetry_s = sum(fastest_stages(with_telemetry).values())
    directory = os.path.join(workdir, "ledger")
    os.makedirs(directory)
    values, probes, fallbacks = ledger.run_ledger(workload, directory,
                                                  cpus)
    rounds.append(probes)
    values["telemetry.overhead_ratio"] = telemetry_s / plain_s
    stage_s = fastest_stages(plain)[workload.stage]
    for line in ledger.render(workload, values, stage_s, fallbacks):
        print(line)
    print(f"tracing overhead: wall_s {plain_s:.4f} s untraced, "
          f"{telemetry_s:.4f} s with telemetry "
          f"(ratio {values['telemetry.overhead_ratio']:.4f})")
    return {name: metric(values[name], unit)
            for name, unit, _ in ledger.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run the benchmark "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    # Spawned worker processes import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)
    # Every temporary file, session trace caches included, stays inside
    # the checkout.
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    workdir = os.path.join(tmp_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = workdir
    try:
        result = run(args, workdir)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
