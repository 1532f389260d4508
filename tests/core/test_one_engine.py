"""One dependence engine in the library.

``Alchemist().profile``, ``record_index_tree``, ``Session`` dep and
whatif, sharded parallel replay and the TEST baseline all run the block
engine (:class:`~repro.core.blockdep.BlockDependence`, or its instance
table and pair kernel). The per-event stack — the indexing stack, the
dict shadow, the per-edge walk and the tracers built on them — lives
only under ``tests/`` as the reference the equivalence tests compare
against. Structurally: no module of the package defines or imports one
of its names, none imports from the tests, and outside the tracer
interface itself no class defines a per-event hook.
"""

import ast
import importlib
import pathlib

import repro
from repro.api import Session
from repro.core.alchemist import Alchemist
from repro.core.treedump import record_index_tree
from repro.runtime.tracing import TRACER_HOOKS
from repro.trace.parallel import parallel_replay
from repro.workloads import get

#: The per-event engine and the tracers built on it.
MOVED = {"AlchemistTracer", "IndexingStack", "DependenceProfiler",
         "NodeAllocator", "ShadowMemory", "TaskGraphTracer",
         "MinDistanceTracer", "ContextSensitiveTracer", "FlatTracer"}

ROOT = pathlib.Path(repro.__file__).parent


def _modules():
    """``(dotted name, parsed source)`` of every module of the
    package."""
    for path in sorted(ROOT.rglob("*.py")):
        parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), ast.parse(path.read_text(), str(path))


def test_no_module_defines_or_imports_a_moved_name():
    for name, tree in _modules():
        assert not MOVED & set(vars(importlib.import_module(name))), name
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in MOVED, (name, node.name)
            elif isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                assert not MOVED & imported, (name, node.module)
                assert not (node.module or "").startswith("tests"), name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("tests"), name


def test_no_library_class_defines_a_per_event_hook():
    """Only the tracer interface (and its counting example) has
    ``on_*`` event hooks; every library consumer takes whole blocks."""
    for name, tree in _modules():
        if name == "repro.runtime.tracing":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                hooks = {item.name for item in node.body
                         if isinstance(item, ast.FunctionDef)} \
                    & set(TRACER_HOOKS)
                assert not hooks, (name, node.name, hooks)


def test_entry_points_run_the_block_engine(tmp_path):
    source = get("bzip2", 0.1).source
    profile = Alchemist().profile(source)
    assert profile.stats.edges_profiled > 0

    tree, report = record_index_tree(source)
    assert tree.node_count == profile.stats.dynamic_instances
    assert report.store.profiles.keys() == profile.store.profiles.keys()

    with Session(cache_dir=str(tmp_path)) as session:
        analyzed = session.analyze(source, ["dep", "whatif"])
    assert analyzed["dep"].payload.stats.edges_profiled \
        == profile.stats.edges_profiled
    assert analyzed["whatif"].data

    outcome = parallel_replay(analyzed.trace_path, ["dep", "whatif"],
                              jobs=2, interval=2000)
    assert outcome.mode == "parallel", outcome.fallback_reason
    assert outcome.reports["dep"].data == analyzed["dep"].data
    assert outcome.reports["whatif"].data == analyzed["whatif"].data
