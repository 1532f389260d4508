"""Alchemist: a transparent dependence distance profiling infrastructure.

Reproduction of Zhang, Navabi & Jagannathan (CGO 2009). The package
profiles MiniC programs (a C subset executed by an interpreter that
translates each basic block into Python code once) and reports, for every program construct (procedure, loop,
conditional), the minimum time-ordered distance of every RAW/WAR/WAW
dependence edge that crosses from the construct into its continuation.

Typical use::

    from repro import Alchemist

    report = Alchemist().profile(source_code)
    for construct in report.top_constructs(10):
        print(construct.describe())

Subpackages
-----------
``repro.lang``
    MiniC lexer, parser and AST.
``repro.ir``
    Register IR, basic blocks, AST lowering.
``repro.analysis``
    Dominance, natural loops and the static construct table.
``repro.runtime``
    Addressable memory model and the tracing interpreter.
``repro.core``
    The Alchemist profiler: execution indexing, construct pool,
    shadow-memory dependence detection, profiles, reports and the
    parallelization advisor.
``repro.parallel``
    Future-execution simulator used to estimate parallel speedups.
``repro.workloads``
    MiniC ports of the paper's eight evaluation benchmarks.
``repro.bench``
    Drivers that regenerate every table and figure of the paper
    (``alchemist experiments``). The reproduction's own speed is
    measured by the repository benchmark in ``perfbench/``.
``repro.trace``
    Record/replay: capture one execution as a compact trace, then
    replay it through many analyses without re-running the interpreter.
``repro.analyses``
    The unified plugin registry: every analysis (dependence profile,
    reuse distance, hot addresses, event counts, flat/context
    baselines, user plugins) as a drop-in module over one event stream.
``repro.api``
    :class:`Session`, the single entry point that runs any registered
    analysis: one recording run on a cold call, a replay of the cached
    trace on a warm one, or live.

Typical use of the unified API::

    from repro import Session

    with Session() as session:
        report = session.analyze(source_code, ["dep", "locality"])
        print(report.to_text())
"""

from repro.version import __version__

__all__ = [
    "Alchemist",
    "ProfileOptions",
    "ProfileReport",
    "Advisor",
    "Session",
    "analyze",
    "Analysis",
    "AnalysisResult",
    "register_analysis",
    "record_index_tree",
    "record_source",
    "replay_trace",
    "__version__",
]

# Lazy imports (PEP 562) keep `import repro` cheap and let subpackages be
# imported directly without pulling in the whole profiler.
_LAZY = {
    "Alchemist": ("repro.core.alchemist", "Alchemist"),
    "ProfileOptions": ("repro.core.alchemist", "ProfileOptions"),
    "ProfileReport": ("repro.core.report", "ProfileReport"),
    "Advisor": ("repro.core.advisor", "Advisor"),
    "Session": ("repro.api", "Session"),
    "analyze": ("repro.api", "analyze"),
    "Analysis": ("repro.analyses", "Analysis"),
    "AnalysisResult": ("repro.analyses", "AnalysisResult"),
    "register_analysis": ("repro.analyses", "register"),
    "record_index_tree": ("repro.core.treedump", "record_index_tree"),
    "record_source": ("repro.trace.writer", "record_source"),
    "replay_trace": ("repro.trace.replay", "replay_trace"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)
