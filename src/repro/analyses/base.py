"""The unified analysis protocol: one plugin surface, three run modes.

Every analysis — the Alchemist dependence profiler, the replay
consumers, the comparison baselines, and anything a user registers — is
a single kind of object: an :class:`Analysis`, which is an ordinary
:class:`~repro.runtime.tracing.Tracer` (so it can be attached to a live
interpreter run) plus a :meth:`~Analysis.finish` method that turns the
accumulated state into a structured :class:`AnalysisResult` once the
event stream ends. Because recorded traces replay the exact same hook
stream, the same instance runs unchanged

* **live** — attached to an interpreter (one run feeds N analyses
  through :class:`~repro.trace.live.TeeTracer`; a block consumer gets
  the run's events as whole blocks through the replay dispatch loop);
* **from a trace** — driven by
  :class:`~repro.trace.replay.ReplayEngine`, no re-execution;
* **in batch** — the ``multiprocessing`` driver resolves names through
  this registry too.

Plugins self-describe: a ``name``, a one-line ``description``, and an
``options`` schema (:class:`OptionSpec` tuple) that the CLI and
:func:`make_analyses` validate against. Registration is decorator
based::

    from repro.analyses import Analysis, AnalysisResult, register

    @register
    class BranchCount(Analysis):
        name = "branches"
        description = "Count taken branches"

        def __init__(self):
            self.taken = 0

        def on_branch(self, pc, target_block, timestamp):
            self.taken += 1

        def finish(self, ctx):
            return AnalysisResult(
                analysis=self.name,
                data={"taken": self.taken},
                text=f"branches taken: {self.taken}")

and from that moment ``Session.analyze(src, ["branches"])``,
``alchemist analyze --analysis branches`` and
``alchemist replay --analysis branches`` all work — including the
registry-parametrized live-vs-replay parity test, which picks the new
plugin up automatically.

A plugin says what it consumes by what it defines, and nothing else:
hooks (``on_branch`` above) get one call per event; a
``consume_batch(batch)`` method gets whole event blocks instead, live
and on replay; overriding ``export_segment`` and the classmethod
``merge_segments`` lets sharded parallel replay run it, and without
them a parallel request falls back to one serial pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory
from repro.runtime.tracing import Tracer


class AnalysisError(Exception):
    """Bad analysis name, duplicate registration, or invalid options."""


@dataclass(frozen=True)
class OptionSpec:
    """One tunable knob in an analysis's options schema."""

    name: str
    type: type = int
    default: Any = None
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Validate/convert ``value`` (CLI hands strings through)."""
        if isinstance(value, self.type):
            return value
        try:
            if self.type is bool and isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
                raise ValueError(value)
            return self.type(value)
        except (TypeError, ValueError):
            raise AnalysisError(
                f"option {self.name!r} expects {self.type.__name__}, "
                f"got {value!r}") from None


@dataclass
class AnalysisResult:
    """Structured output of one analysis over one event stream.

    ``data`` is the canonical, JSON-able payload — deterministic for a
    given event stream, so a live run and a replay of its recording
    produce *equal* ``to_dict()`` values (the registry parity test
    asserts exactly this). ``payload`` optionally carries the rich
    in-process object (e.g. a ``ProfileReport``) for callers that want
    more than the serialized view; it never enters ``to_dict()``.
    """

    analysis: str
    data: dict[str, Any]
    text: str
    payload: Any = None

    def __post_init__(self) -> None:
        if "analysis" in self.data:
            raise AnalysisError(
                f"analysis {self.analysis!r}: 'analysis' is a reserved "
                "data key (it labels the result in to_dict())")

    def to_dict(self) -> dict[str, Any]:
        return {"analysis": self.analysis, **self.data}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        return self.text


@dataclass
class SegmentSeed:
    """Checkpoint-derived state handed to :meth:`Analysis.begin_segment`.

    Built by the parallel replay driver from a
    :class:`repro.trace.shards.Checkpoint`; kept as plain data here so
    analyses never import the trace layer.
    """

    #: Shadow rows as the checkpoint stores them (see
    #: :meth:`repro.core.shadow.ShadowArrays.snapshot`); analyses load
    #: them with :meth:`~repro.core.shadow.ShadowArrays.seed`.
    shadow: list = field(default_factory=list)
    #: Execution-index stack at the seam: ``[(head pc, Tenter), ...]``.
    construct_stack: list = field(default_factory=list)
    #: Call stack at the seam, function names bottom-to-top.
    call_stack: list = field(default_factory=list)


@dataclass
class AnalysisContext:
    """What an analysis receives in :meth:`Analysis.finish`.

    Built by whichever engine drove the events — the interpreter (live)
    or the replay engine (trace) — with identical program/memory/
    final-time semantics, so ``finish`` needs no mode awareness.
    ``events`` counts trace records on replay and, live, the events
    the run handed block consumers (``None`` when it had none);
    ``wall_seconds`` is honest wall time either way. Neither belongs in
    ``AnalysisResult.data`` (they would break live/replay parity).
    """

    program: ProgramIR
    memory: Memory
    final_time: int = 0
    exit_value: int = 0
    output: list = field(default_factory=list)
    events: int | None = None
    wall_seconds: float = 0.0
    mode: str = "live"
    #: Telemetry handle of the engine that drove the events (never
    #: None — defaults to the shared no-op). Plugins emit their own
    #: spans/counters through it (``with ctx.telemetry.span(...)``);
    #: like the other context fields it must never leak into
    #: ``AnalysisResult.data`` (telemetry on/off cannot change results).
    telemetry: Any = None

    def __post_init__(self) -> None:
        if self.telemetry is None:
            from repro.telemetry import NULL_TELEMETRY

            self.telemetry = NULL_TELEMETRY


class Analysis(Tracer):
    """Base class for registered analyses: tracer hooks + ``finish``.

    Subclasses override whichever hooks they need (unoverridden hooks
    cost nothing — both engines drop base-class no-ops from dispatch)
    and must implement :meth:`finish`. Set ``requires_live = True`` for
    analyses that genuinely need a live interpreter (e.g. ones that
    inspect runtime values not present in the event stream); the
    session will then execute the program rather than replay a trace.

    An analysis that defines ``consume_batch(batch)`` takes whole
    blocks (:class:`repro.trace.columnar.EventBatch`) instead of
    per-event hooks, in every run: replay with either decoder, each
    parallel segment, and a live run through the tee. Each block comes
    once, after the dispatch loop replayed its structural events;
    ``consume_batch`` must handle *all* event types it cares about from
    the columns (structural ENTER/EXIT/ALLOC/FREE and FINISH included),
    and no scalar hooks fire. Only valid for analyses that never read
    the reconstructed ``Memory`` while consuming; ENTER rows index the
    program's own function table (``list(program.functions)``), which
    ``on_start`` receives. ``consume_batch`` must equal a per-event
    reference tracer on the interpreter — the equivalence suites
    assert it.

    An analysis that overrides :meth:`export_segment` (and
    :meth:`merge_segments`) runs under sharded parallel replay; any
    other falls back to a serial pass — parallel replay is an
    optimization, never a requirement.
    """

    #: Registry key; also the result key in every multi-analysis report.
    name: str = ""
    #: One-line human description (shown by ``alchemist analyses``).
    description: str = ""
    #: Options schema; constructor keywords must match the spec names.
    options: tuple[OptionSpec, ...] = ()
    #: True if the analysis cannot run from a recorded trace.
    requires_live: bool = False

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        """Turn accumulated state into the structured result."""
        raise NotImplementedError(
            f"{type(self).__qualname__} must implement finish()")

    # -- segment protocol (parallel replay) -------------------------------

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        """Prepare to observe one mid-trace segment.

        Replaces ``on_start`` in a parallel worker: ``memory`` is
        already reconstructed to the checkpoint, and ``seed`` carries
        the shadow/stack snapshots an analysis needs so that every
        in-segment event is handled exactly as a serial pass would
        handle it. The default just calls ``on_start`` — correct for
        analyses whose per-event handling never looks at pre-segment
        state (counters, histograms).
        """
        self.on_start(program, memory)

    def export_segment(self, ctx: AnalysisContext) -> dict:
        """This segment's partial state, a picklable dict.

        Called in the worker after its slice of events, in place of
        ``finish``.
        """
        raise NotImplementedError(
            f"{type(self).__qualname__} does not implement the segment "
            "protocol")

    @classmethod
    def merge_segments(cls, states: list[dict],
                       ctx: AnalysisContext) -> AnalysisResult:
        """Fold the segments' :meth:`export_segment` dicts, in trace
        order, into the result ``finish`` produces after a serial
        replay — including cross-segment dependence pairs, which
        workers defer and the fold resolves against the accumulated
        live-writer frontier (:mod:`repro.analyses.merging`)."""
        raise NotImplementedError(
            f"{cls.__qualname__} does not implement the segment "
            "protocol")

    @classmethod
    def option_names(cls) -> list[str]:
        return [spec.name for spec in cls.options]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[Analysis]] = {}


def register(cls: type[Analysis]) -> type[Analysis]:
    """Class decorator: add an :class:`Analysis` subclass to the
    registry under its ``name``. Duplicate names are an error — plugins
    must not silently shadow each other."""
    if not (isinstance(cls, type) and issubclass(cls, Analysis)):
        raise AnalysisError(
            f"@register expects an Analysis subclass, got {cls!r}")
    name = cls.name
    if not name:
        raise AnalysisError(
            f"{cls.__qualname__} must set a non-empty 'name'")
    existing = _REGISTRY.get(name)
    if existing is not None:
        raise AnalysisError(
            f"duplicate analysis name {name!r}: already registered by "
            f"{existing.__module__}.{existing.__qualname__}")
    _REGISTRY[name] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a registered analysis (tests and plugin reloads)."""
    _REGISTRY.pop(name, None)


def registry() -> Mapping[str, type[Analysis]]:
    """Read-only live view of the registry (name -> class)."""
    return MappingProxyType(_REGISTRY)


def analysis_names() -> list[str]:
    """Registered names, sorted."""
    return sorted(_REGISTRY)


def get_analysis(name: str) -> type[Analysis]:
    """Look up one analysis class; unknown names list every valid one."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(analysis_names())
        raise AnalysisError(
            f"unknown analysis {name!r} (known: {known})") from None


def parse_spec(spec: str | Iterable[str]) -> list[str]:
    """``"dep,locality"`` or any iterable of names -> list of names."""
    if isinstance(spec, str):
        names = [name.strip() for name in spec.split(",") if name.strip()]
    else:
        names = [str(name) for name in spec]
    return names


def make_analyses(spec: str | Iterable[str],
                  options: Mapping[str, Mapping[str, Any]] | None = None
                  ) -> list[Analysis]:
    """Instantiate analyses from a spec, validating per-analysis options.

    ``options`` maps analysis name -> {option name: value}; every value
    is checked against the plugin's :class:`OptionSpec` schema (unknown
    options and un-coercible values raise :class:`AnalysisError`).
    """
    names = parse_spec(spec)
    if not names:
        raise AnalysisError("no analyses requested")
    seen: set[str] = set()
    instances: list[Analysis] = []
    for name in names:
        if name in seen:
            raise AnalysisError(f"analysis {name!r} requested twice")
        seen.add(name)
        cls = get_analysis(name)
        kwargs: dict[str, Any] = {}
        for opt_name, value in dict((options or {}).get(name, {})).items():
            spec_obj = next((s for s in cls.options
                             if s.name == opt_name), None)
            if spec_obj is None:
                valid = ", ".join(cls.option_names()) or "none"
                raise AnalysisError(
                    f"analysis {name!r} has no option {opt_name!r} "
                    f"(valid options: {valid})")
            kwargs[opt_name] = spec_obj.coerce(value)
        try:
            instances.append(cls(**kwargs))
        except ValueError as exc:
            # Constructors own semantic validation (e.g. positivity);
            # surface it as the registry's error type.
            raise AnalysisError(f"analysis {name!r}: {exc}") from None
    return instances
