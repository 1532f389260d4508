"""Command-line interface: ``alchemist`` / ``python -m repro``.

Subcommands
-----------
``run FILE``
    Execute a MiniC program (uninstrumented).
``analyze FILE --analysis a,b,c [--json]``
    The unified front door: run any set of registered analyses over a
    program through one :class:`~repro.api.Session` — one run of the
    program records its trace and feeds every analysis (``--live``
    runs without recording).
``analyses``
    List every registered analysis with its description and options.
``profile FILE``
    Thin alias for a live ``dep`` analysis: ranked construct listing
    (Fig. 2/3 style) plus the advisor's recommendations.
``speedup FILE --line N``
    Simulate parallelizing the construct at line N as futures.
``advise FILE [--workers LIST] [--top N] [--json]``
    The what-if advisor: from one run of the program (recorded as it
    goes), rank the advisor's candidate constructs by
    predicted futures speedup across a worker-count sweep, listing the
    privatizations each one needs and why blocked constructs are
    skipped (a Table V reproduction as one command).
``tree FILE``
    Record and render the execution index tree (paper Fig. 4).
``annotate FILE --line N``
    Render the transformation guidance for the construct at line N as
    an annotated source listing (spawn/join/privatize markers).
``record FILE -o x.trace``
    Execute once under the trace recorder; every interpreter event is
    streamed into a compact self-contained trace file (format v2,
    block-compressed).
``replay x.trace --analysis dep,locality,hot``
    Thin alias for replaying an existing trace file through registered
    analyses — no re-execution.
``info x.trace``
    Inspect a trace without replaying it: format version, header
    provenance (program, digest), event counts by type,
    checkpoint seams (from the ``.ckpt`` sidecar, or none yet), and
    compressed vs. uncompressed sizes.
``stats m.json``
    Render a ``--metrics`` artifact: the hierarchical span tree with
    wall/CPU timings, counters, gauges, and derived rates
    (events/second, cache hit ratios, pool utilization).
``batch``
    Record and replay many workloads concurrently (multiprocessing);
    analyses resolve through the registry.
``workloads``
    List the bundled benchmark ports.
``experiments``
    Regenerate every table and figure of the paper.

Every verb that takes a ``FILE`` reports a missing/unreadable path as
a one-line ``error: ...`` on stderr with exit code 2 (handled centrally
in :func:`main`), never a traceback.

Stream discipline: results (reports, JSON payloads) go to **stdout**;
progress lines, structured logs, and error diagnostics go to
**stderr**. The instrumented verbs (``analyze``, ``record``,
``replay``, ``batch``, ``advise``) share the observability flags
``--metrics FILE``, ``--log-level LEVEL``, ``-q/--quiet`` and
``-v/--verbose``; ``ALCHEMIST_LOG`` sets the log level everywhere.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.advisor import Advisor
from repro.core.alchemist import ProfileOptions
from repro.core.profile_data import DepKind
from repro.runtime.interpreter import run_source
from repro.telemetry import LOG_LEVELS
from repro.version import __version__


class CliError(Exception):
    """An expected user-facing failure: exit 2 with one line."""


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _add_observability(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to an instrumented verb."""
    group = parser.add_argument_group("observability")
    group.add_argument("--metrics", default=None, metavar="FILE",
                       help="write this run's span tree and counters "
                            "as a schema-versioned JSON artifact "
                            "(render with `alchemist stats FILE`)")
    group.add_argument("--log-level", default=None, choices=LOG_LEVELS,
                       metavar="LEVEL",
                       help="structured JSON logs on stderr at LEVEL "
                            f"({'/'.join(LOG_LEVELS)}; default: "
                            "$ALCHEMIST_LOG or warning)")
    volume = group.add_mutually_exclusive_group()
    volume.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress lines on stderr "
                             "(results on stdout are unaffected) and "
                             "log at error")
    volume.add_argument("-v", "--verbose", action="store_true",
                        help="shorthand for --log-level info")


def _observability(args: argparse.Namespace) -> None:
    """Configure logging and build the run's Telemetry (or None).

    Level precedence: ``--log-level`` beats ``-v``/``-q`` beats
    ``$ALCHEMIST_LOG`` beats the ``warning`` default. Runs for every
    verb — the environment variable works even where the flags don't
    exist — so ``getattr`` defaults cover the uninstrumented verbs.
    """
    from repro.telemetry import Telemetry, configure_logging

    if getattr(args, "log_level", None):
        configure_logging(level=args.log_level)
    elif getattr(args, "verbose", False):
        configure_logging(level="info")
    elif getattr(args, "quiet", False):
        configure_logging(level="error")
    else:
        configure_logging()
    args.telemetry = (Telemetry() if getattr(args, "metrics", None)
                      else None)


def _progress(args: argparse.Namespace, message: str = "") -> None:
    """Progress/summary lines: stderr, silenced by ``--quiet``.
    Results (reports, JSON payloads) never come through here."""
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _publish_metrics(args: argparse.Namespace,
                     argv: list[str] | None, code: int) -> None:
    """Atomically publish the ``--metrics`` artifact after the verb."""
    tm = getattr(args, "telemetry", None)
    if tm is None or not getattr(args, "metrics", None):
        return
    from repro.telemetry import metrics_payload
    from repro.util import atomic_write_json

    payload = metrics_payload(
        tm, command=args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        exit_code=code)
    try:
        atomic_write_json(args.metrics, payload, sort_keys=True)
    except OSError as exc:
        # The verb's own result already went out; an unwritable metrics
        # path must not retroactively turn it into a failure.
        print(f"error: --metrics {args.metrics}: {exc}", file=sys.stderr)


def _profile_options(args: argparse.Namespace) -> ProfileOptions:
    try:
        return ProfileOptions(track_war_waw=not args.raw_only)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _cmd_run(args: argparse.Namespace) -> int:
    value, interp = run_source(_read(args.file), stdout=sys.stdout)
    print(f"[exit {value}; {interp.time} instructions]", file=sys.stderr)
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.api import Session

    # dep-only flags ride as per-analysis options so Session's central
    # stray-options check rejects them when 'dep' was not requested.
    options = None
    if args.raw_only:
        options = {"dep": {"track_war_waw": False}}
    source = _read(args.file)
    with Session(telemetry=args.telemetry) as session:
        report = session.analyze(source, args.analysis,
                                 filename=args.file,
                                 mode="live" if args.live else "auto",
                                 options=options)
    if args.json:
        print(report.to_json())
        return 0
    # A fresh session is always cold: one run, recording unless --live.
    count = f"{len(report.modes)} analysis(es)"
    how = (f"ran {count} live" if args.live
           else f"recorded and ran {count} in one run")
    _progress(args, f"analyzed {args.file}: {how} in "
                    f"{report.wall_seconds:.3f}s")
    print(report.to_text())
    return 0


def _cmd_analyses(args: argparse.Namespace) -> int:
    from repro.analyses import registry

    for name, cls in sorted(registry().items()):
        tag = "  [live only]" if cls.requires_live else ""
        print(f"{name:10s} {cls.description}{tag}")
        for spec in cls.options:
            print(f"{'':10s}   {spec.name}={spec.default!r} "
                  f"({spec.type.__name__}) {spec.help}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.api import Session

    options = _profile_options(args)
    with Session(options) as session:
        outcome = session.analyze(_read(args.file), ("dep",),
                                  filename=args.file, mode="live")
    result = outcome["dep"]
    report = result.payload
    kinds = (DepKind.RAW,) if args.raw_only else (
        DepKind.RAW, DepKind.WAW, DepKind.WAR)
    print(report.to_text(top=args.top, max_edges=args.edges, kinds=kinds))
    # Keep profile/analyze/replay dependence output byte-identical:
    # the static fusion lines live in the analysis text, not the report.
    lines = result.text.splitlines()
    starts = [i for i, line in enumerate(lines)
              if line.startswith("Static fusion:")]
    if starts:
        print("\n".join(lines[starts[0]:]))
    print()
    print(report.describe_run())
    if not args.no_advice:
        from repro.staticdep import report_for

        print()
        print("Advisor recommendations:")
        advisor = Advisor(report, static_report=report_for(report.program))
        for rec in advisor.recommend(args.top):
            print(rec.describe())
    return 0


def _parse_private(spec: str) -> tuple[str, ...]:
    """``--private "a, b"`` -> ``("a", "b")``: names are stripped, and
    empty or duplicate entries are rejected instead of silently
    producing a variable that never matches."""
    if not spec or not spec.strip():
        return ()
    names: list[str] = []
    for part in spec.split(","):
        name = part.strip()
        if not name:
            raise CliError(
                f"--private: empty variable name in {spec!r}")
        if name in names:
            raise CliError(
                f"--private: duplicate variable {name!r}")
        names.append(name)
    return tuple(names)


def _cmd_speedup(args: argparse.Namespace) -> int:
    from repro.parallel.estimator import estimate_speedup

    private = _parse_private(args.private or "")
    try:
        result = estimate_speedup(
            _read(args.file), line=args.line, workers=args.workers,
            privatize=not args.no_privatize, private_vars=private)
    except ValueError as exc:  # EstimatorError included
        raise CliError(str(exc)) from None
    print(result.describe())
    graph = result.graph
    print(f"tasks={graph.task_count} serial={graph.serial_time} "
          f"parallel_fraction={graph.parallel_fraction():.2f} "
          f"task_deps={len(graph.task_deps)}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.analyses.whatif import parse_worker_counts
    from repro.api import Session

    try:
        parse_worker_counts(args.workers)  # fail fast with exit 2
    except ValueError as exc:
        raise CliError(f"--workers: {exc}") from None
    if args.top < 1:
        raise CliError(f"--top must be >= 1, got {args.top}")
    source = _read(args.file)
    with Session(telemetry=args.telemetry) as session:
        result = session.advise(source, filename=args.file,
                                workers=args.workers, top=args.top)
    if args.json:
        print(result.to_json())
        return 0
    print(result.to_text())
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    import json

    from repro.api import Session

    if args.top < 1:
        raise CliError(f"--top must be >= 1, got {args.top}")
    source = _read(args.file)
    with Session(telemetry=args.telemetry) as session:
        static = session.static_report(source, filename=args.file)
    payload = static.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(_render_screen(payload, args.top))
    return 0


def _render_screen(payload: dict, top: int) -> str:
    """Text ranking for ``alchemist screen`` (best candidates first)."""
    tally = payload["verdicts"]
    lines = [f"Static screen: {payload['static_constructs']} "
             f"construct(s) — {tally['independent']} independent, "
             f"{tally['may-dep']} may-dep, {tally['must-dep']} must-dep "
             "(zero execution)"]
    rows = payload["rows"]
    for rank, row in enumerate(rows[:top], start=1):
        lines.append(f"{rank:2d}. {row['name']} (line {row['line']}, "
                     f"{row['kind']}) [{row['verdict']}] "
                     f"weight {row['weight']}")
        if row["must_raw"]:
            lines.append("      must RAW: " + ", ".join(row["must_raw"]))
        if row["may_raw"]:
            lines.append("      may RAW: " + ", ".join(row["may_raw"]))
    if len(rows) > top:
        lines.append(f"      ... and {len(rows) - top} more "
                     "(raise --top to see them)")
    return "\n".join(lines)


def _cmd_annotate(args: argparse.Namespace) -> int:
    from repro.core.annotate import annotate_text

    try:
        print(annotate_text(_read(args.file), line=args.line,
                            context=args.context))
    except ValueError as exc:  # unknown line: a user error, not a bug
        raise CliError(str(exc)) from None
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from repro.core.treedump import record_index_tree

    for flag, value, least in (("--max-nodes", args.max_nodes, 1),
                               ("--children", args.children, 1),
                               ("--depth", args.depth, 0)):
        if value is not None and value < least:
            raise CliError(f"{flag} must be >= {least}, got {value}")
    tree, _report = record_index_tree(_read(args.file),
                                      max_nodes=args.max_nodes)
    print(tree.render(max_depth=args.depth,
                      max_children=args.children))
    print(f"[{tree.node_count} construct instances"
          f"{'; truncated' if tree.truncated else ''}]",
          file=sys.stderr)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.trace import record_source

    out = args.out or (args.file + ".trace")
    if args.checkpoints < 0:
        raise CliError(f"--checkpoints must be >= 0, "
                       f"got {args.checkpoints}")
    result = record_source(_read(args.file), out, filename=args.file,
                           checkpoint_interval=args.checkpoints,
                           telemetry=args.telemetry)
    seams = (f", {result.checkpoints} checkpoint(s) prebuilt"
             if args.checkpoints else "")
    # The "recorded ... -> path" line is the verb's result: stdout.
    print(f"recorded {result.events} events ({result.trace_bytes} bytes, "
          f"{result.final_time} instructions, format v2"
          f"{seams}) -> {result.path}")
    _progress(args, f"[exit {result.exit_value}; "
                    f"{result.wall_seconds:.3f}s]")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import os

    from repro.trace.events import EVENT_NAMES
    from repro.trace.reader import TraceReader

    with TraceReader(args.trace) as reader:
        header = reader.header
        counts = [0] * 256
        for batch in reader.batches():
            for etype, n in enumerate(batch.etype_counts()):
                counts[etype] += n
        footer = reader.footer
        decoder = reader.decoder
    total = sum(counts)
    file_bytes = os.path.getsize(args.trace)
    print(f"trace:      {args.trace}")
    print("format:     v2 (delta/varint records, zlib blocks)")
    print(f"program:    {header.filename}")
    print(f"digest:     sha256:{header.digest}")
    print(f"functions:  {len(header.functions)} "
          f"({', '.join(header.functions[:8])}"
          f"{', ...' if len(header.functions) > 8 else ''})")
    # .get: a corrupt type byte still prints (replay would reject it,
    # but info's job is to show what is in the file, without crashing).
    by_name = ", ".join(
        f"{EVENT_NAMES.get(etype, f'type{etype}')}={n}"
        for etype, n in enumerate(counts) if n)
    print(f"events:     {total} ({by_name})")
    # Shard seams live only in the scan-built .ckpt sidecar (built by
    # record --checkpoints N or by the first parallel replay).
    from repro.trace.shards import SIDECAR_SUFFIX, probe_sidecar

    side = probe_sidecar(args.trace)
    if side is not None:
        print(f"checkpoints:{side['checkpoints']} shard seam(s), "
              f"{side['interval']} events apart, cached in the "
              f"{SIDECAR_SUFFIX} sidecar (parallel replay ready)")
    else:
        print("checkpoints:none yet — built on first parallel replay")
    print(f"time:       {footer.final_time} instructions")
    print(f"exit:       {footer.exit_value}; "
          f"{len(footer.output)} output line(s)")
    print(f"size:       {file_bytes} B on disk; events "
          f"{decoder.compressed_bytes} B compressed in "
          f"{decoder.blocks} block(s), {decoder.raw_bytes} B unpacked")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        from repro.trace.parallel import parallel_replay

        if args.jobs < 0:
            raise CliError(f"--jobs must be >= 0, got {args.jobs}")
        outcome = parallel_replay(args.trace, args.analysis,
                                  jobs=args.jobs,
                                  telemetry=args.telemetry)
        ctx = outcome.context
        if outcome.mode == "parallel":
            how = (f"across {outcome.jobs} worker(s), "
                   f"{len(outcome.plan.segments)} segment(s), "
                   f"{outcome.plan.source} checkpoints")
        else:
            how = f"serially ({outcome.fallback_reason})"
        _progress(args, f"replayed {ctx.events} events "
                        f"({ctx.final_time} instructions) through "
                        f"{len(outcome.reports)} analysis(es) {how} "
                        f"in {ctx.wall_seconds:.3f}s")
        print(outcome.describe())
        return 0
    from repro.trace import replay_trace

    outcome = replay_trace(args.trace, args.analysis,
                           telemetry=args.telemetry)
    ctx = outcome.context
    _progress(args, f"replayed {ctx.events} events ({ctx.final_time} "
                    f"instructions) through {len(outcome.consumers)} "
                    f"analysis(es) in {ctx.wall_seconds:.3f}s")
    print(outcome.describe())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.analyses import get_analysis, parse_spec
    from repro.trace.batch import record_replay_many
    from repro.workloads import names as workload_names

    names = ([n.strip() for n in args.workloads.split(",") if n.strip()]
             if args.workloads else workload_names())
    analyses = tuple(parse_spec(args.analysis))
    for name in analyses:  # fail fast through the registry
        get_analysis(name)
    report = record_replay_many(names, args.out_dir, analyses=analyses,
                                workers=args.workers, scale=args.scale,
                                telemetry=args.telemetry)
    print(report.describe())
    failed = report.failures()
    if args.json:
        payload = {
            name: {
                phase: {"ok": result.ok, "seconds": result.seconds,
                        "payload": result.payload, "error": result.error}
                for phase, result in phases.items()
            }
            for name, phases in report.by_name().items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    if failed:
        names = ", ".join(
            f"{r.job.kind} {r.job.trace_path if r.job.kind == 'replay' else r.job.name}"
            for r in failed)
        print(f"error: {len(failed)} batch job(s) failed: {names}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads, extra_workloads

    workloads = all_workloads()
    if args.extra:
        workloads += extra_workloads()
    for workload in workloads:
        targets = ", ".join(
            f"{t.fn_name}:{line}" for t, line in workload.target_lines())
        print(f"{workload.name:12s} {workload.loc:4d} LoC  "
              f"targets: {targets}")
        print(f"{'':12s} {workload.description}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import (fig6_data, gzip_profile_listing,
                             render_fig6, render_table3, render_table4,
                             render_table5, table3_rows, table4_rows,
                             table5_rows)

    scale = args.scale
    print(render_table3(table3_rows(scale)))
    print()
    print(render_table4(table4_rows(scale)))
    print()
    print(render_table5(table5_rows(max(scale, 1.0))))
    print()
    _, listing = gzip_profile_listing(scale)
    print(listing)
    print()
    print(render_fig6(fig6_data(scale)))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import (MetricsSchemaError, render_metrics,
                                 validate_metrics)

    try:
        with open(args.metrics_file) as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise CliError(
            f"{args.metrics_file}: not valid JSON ({exc})") from None
    try:
        validate_metrics(payload)
    except MetricsSchemaError as exc:
        raise CliError(f"{args.metrics_file}: {exc}") from None
    print(render_metrics(payload, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alchemist",
        description="Alchemist dependence distance profiler "
                    "(CGO 2009 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a MiniC program")
    p_run.add_argument("file")
    p_run.set_defaults(func=_cmd_run)

    p_ana = sub.add_parser(
        "analyze", help="run any registered analyses over a program")
    p_ana.add_argument("file")
    p_ana.add_argument("--analysis", default="dep",
                       help="comma-separated registered analyses "
                            "(see `alchemist analyses`; default: dep)")
    p_ana.add_argument("--json", action="store_true",
                       help="emit the structured report as JSON")
    p_ana.add_argument("--live", action="store_true",
                       help="execute the program without recording a "
                            "trace")
    p_ana.add_argument("--raw-only", action="store_true",
                       help="skip WAR/WAW tracking (dep analysis)")
    _add_observability(p_ana)
    p_ana.set_defaults(func=_cmd_analyze)

    p_lst = sub.add_parser("analyses",
                           help="list the registered analyses")
    p_lst.set_defaults(func=_cmd_analyses)

    p_prof = sub.add_parser("profile", help="profile a MiniC program")
    p_prof.add_argument("file")
    p_prof.add_argument("--top", type=int, default=10,
                        help="constructs to list")
    p_prof.add_argument("--edges", type=int, default=8,
                        help="dependence edges per construct")
    p_prof.add_argument("--raw-only", action="store_true",
                        help="skip WAR/WAW tracking")
    p_prof.add_argument("--no-advice", action="store_true")
    p_prof.set_defaults(func=_cmd_profile)

    p_speed = sub.add_parser("speedup",
                             help="simulate future-parallelization")
    p_speed.add_argument("file")
    p_speed.add_argument("--line", type=int, required=True,
                         help="source line of the construct")
    p_speed.add_argument("--workers", type=int, default=4)
    p_speed.add_argument("--private", default="",
                         help="comma-separated globals to privatize")
    p_speed.add_argument("--no-privatize", action="store_true",
                         help="keep WAR/WAW constraints")
    p_speed.set_defaults(func=_cmd_speedup)

    p_adv = sub.add_parser(
        "advise",
        help="what-if advisor: rank constructs by predicted futures "
             "speedup")
    p_adv.add_argument("file")
    p_adv.add_argument("--workers", default="2,4,8,16", metavar="LIST",
                       help="comma-separated worker counts to sweep "
                            "(default: 2,4,8,16)")
    p_adv.add_argument("--top", type=int, default=8,
                       help="candidate constructs taken from the "
                            "advisor (default 8)")
    p_adv.add_argument("--json", action="store_true",
                       help="emit the ranked sweep as JSON")
    _add_observability(p_adv)
    p_adv.set_defaults(func=_cmd_advise)

    p_scr = sub.add_parser(
        "screen",
        help="static dependence screening: rank candidate constructs "
             "with zero execution (no trace, no run)")
    p_scr.add_argument("file")
    p_scr.add_argument("--top", type=int, default=10,
                       help="constructs shown in the text ranking "
                            "(default 10; JSON always carries all)")
    p_scr.add_argument("--json", action="store_true",
                       help="emit the full static report as JSON")
    _add_observability(p_scr)
    p_scr.set_defaults(func=_cmd_screen)

    p_ann = sub.add_parser("annotate",
                           help="annotated guidance for one construct")
    p_ann.add_argument("file")
    p_ann.add_argument("--line", type=int, required=True,
                       help="source line heading the construct")
    p_ann.add_argument("--context", type=int, default=2,
                       help="context lines around each marker")
    p_ann.set_defaults(func=_cmd_annotate)

    p_tree = sub.add_parser("tree",
                            help="render the execution index tree (Fig. 4)")
    p_tree.add_argument("file")
    p_tree.add_argument("--depth", type=int, default=None,
                        help="maximum tree depth to render")
    p_tree.add_argument("--children", type=int, default=12,
                        help="siblings shown per node")
    p_tree.add_argument("--max-nodes", type=int, default=100_000,
                        help="recording budget before truncation")
    p_tree.set_defaults(func=_cmd_tree)

    p_rec = sub.add_parser("record",
                           help="record an execution trace for replay")
    p_rec.add_argument("file")
    p_rec.add_argument("-o", "--out", default=None,
                       help="trace output path (default FILE.trace)")
    p_rec.add_argument("--checkpoints", type=int, default=0,
                       metavar="N",
                       help="prebuild the .ckpt shard-seam sidecar for "
                            "parallel replay, one seam every N events "
                            "(default 0: built on first parallel replay)")
    _add_observability(p_rec)
    p_rec.set_defaults(func=_cmd_record)

    p_rep = sub.add_parser("replay",
                           help="replay a recorded trace through analyses")
    p_rep.add_argument("trace")
    p_rep.add_argument("--analysis", default="dep",
                       help="comma-separated registered analyses "
                            "(default: dep)")
    p_rep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="shard the replay across N worker processes "
                            "(0 = one per CPU; results identical to "
                            "serial; falls back to one pass when "
                            "sharding cannot help)")
    _add_observability(p_rep)
    p_rep.set_defaults(func=_cmd_replay)

    p_info = sub.add_parser(
        "info", help="inspect a trace file without replaying it")
    p_info.add_argument("trace")
    p_info.set_defaults(func=_cmd_info)

    p_stats = sub.add_parser(
        "stats", help="render a --metrics artifact: span tree, "
                      "counters, derived rates")
    p_stats.add_argument("metrics_file",
                         help="JSON artifact written by --metrics")
    p_stats.add_argument("--top", type=int, default=10,
                         help="rows shown per counter table (default "
                              "10)")
    p_stats.set_defaults(func=_cmd_stats)

    p_batch = sub.add_parser(
        "batch", help="record+replay many workloads concurrently")
    p_batch.add_argument("--workloads", default="",
                         help="comma-separated workload names "
                              "(default: all Table III workloads)")
    p_batch.add_argument("--analysis", default="dep,locality,hot",
                         help="analyses every replay runs")
    p_batch.add_argument("--out-dir", default="traces",
                         help="directory for the recorded traces")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="process-pool size (default: usable CPUs; "
                              "1 = serial)")
    p_batch.add_argument("--scale", type=float, default=0.5)
    p_batch.add_argument("--json", action="store_true",
                         help="print per-workload payloads as JSON")
    _add_observability(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_wl = sub.add_parser("workloads", help="list bundled benchmarks")
    p_wl.add_argument("--extra", action="store_true",
                      help="include the heap-centric extra workloads")
    p_wl.set_defaults(func=_cmd_workloads)

    p_exp = sub.add_parser("experiments",
                           help="regenerate the paper's tables/figures")
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.set_defaults(func=_cmd_experiments)

    return parser


def _expected_errors() -> tuple[type[BaseException], ...]:
    """The user-facing failure types; imported lazily (cold path only)
    so plain verbs don't pay for the analyses/trace import chains."""
    from repro.analyses import AnalysisError
    from repro.lang.errors import CompileError
    from repro.runtime.errors import MiniCRuntimeError
    from repro.trace.events import TraceError

    return (OSError, UnicodeDecodeError, TraceError, AnalysisError,
            CompileError, MiniCRuntimeError, CliError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _observability(args)
    try:
        code = args.func(args)
    except Exception as exc:
        # One place for every verb: bad FILE paths (missing, unreadable,
        # binary), MiniC compile and runtime errors, corrupt traces,
        # unknown analyses, and invalid options all exit 2 with a
        # single-line diagnostic instead of a traceback. Deliberately
        # NOT a bare ValueError: an unexpected ValueError is an
        # internal bug and should traceback (verbs wrap their expected
        # ones in CliError).
        if not isinstance(exc, _expected_errors()):
            raise
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    # Even a failed run publishes its (partial) span tree — the
    # artifact records the exit code, so a post-mortem can see how far
    # the pipeline got. Unexpected exceptions traceback instead.
    _publish_metrics(args, argv, code)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
