"""Profiling algorithm unit tests (paper Table II)."""

from repro.analysis.constructs import ConstructKind, StaticConstruct
from repro.core.node import ConstructNode
from repro.core.profile_data import DepKind
from tests.core.reference import DependenceProfiler, ProfileStore


def static(pc, kind=ConstructKind.LOOP, name=None):
    return StaticConstruct(pc=pc, kind=kind, fn_name="f", line=pc, col=1,
                           name=name or f"c{pc}")


def completed(pc, t_enter, t_exit, parent=None):
    node = ConstructNode()
    node.static = static(pc)
    node.t_enter, node.t_exit = t_enter, t_exit
    node.parent = parent
    return node


def active(pc, t_enter, parent=None):
    node = completed(pc, t_enter, 0, parent)
    return node


class TestTableIIWalkthrough:
    """The worked example of §III-B: dependence between 5@t6 (index
    [D,2,4]) and 2@t8 with constructs b4r (6..7), b2 (2..8), bD active."""

    def test_updates_completed_ancestors_only(self):
        store = ProfileStore()
        profiler = DependenceProfiler(store)
        b_d = active(1, 1)
        b_2 = completed(2, 2, 8, parent=b_d)
        b_4r = completed(4, 6, 7, parent=b_2)
        updated = profiler.profile_edge(
            head_pc=5, head_node=b_4r, head_time=6,
            tail_pc=2, tail_time=8, kind=DepKind.RAW, addr=0)
        assert updated == 2
        assert (5, 2, DepKind.RAW) in store.profiles[4].edges
        assert (5, 2, DepKind.RAW) in store.profiles[2].edges
        assert 1 not in store.profiles  # bD is active: intra-construct
        assert store.profiles[4].edges[(5, 2, DepKind.RAW)].min_tdep == 2

    def test_intra_construct_dependence_ignored(self):
        store = ProfileStore()
        profiler = DependenceProfiler(store)
        inner = active(4, 6, parent=active(1, 1))
        updated = profiler.profile_edge(5, inner, 7, 2, 9, DepKind.RAW,
                                        0)
        assert updated == 0
        assert store.profiles == {}


class TestMinTdep:
    def test_minimum_is_kept(self):
        store = ProfileStore()
        profiler = DependenceProfiler(store)
        node = completed(4, 0, 100)
        profiler.profile_edge(5, node, 10, 2, 60, DepKind.RAW, 0)
        profiler.profile_edge(5, node, 50, 2, 55, DepKind.RAW, 0)
        profiler.profile_edge(5, node, 20, 2, 90, DepKind.RAW, 0)
        edge = store.profiles[4].edges[(5, 2, DepKind.RAW)]
        assert edge.min_tdep == 5
        assert edge.count == 3

    def test_kinds_are_separate_edges(self):
        store = ProfileStore()
        profiler = DependenceProfiler(store)
        node = completed(4, 0, 100)
        profiler.profile_edge(5, node, 10, 2, 60, DepKind.RAW, 0)
        profiler.profile_edge(5, node, 10, 2, 70, DepKind.WAW, 0)
        assert len(store.profiles[4].edges) == 2

    def test_name_resolved_once(self):
        store = ProfileStore()
        node = completed(4, 0, 100)
        calls = []

        def resolver(addr):
            calls.append(addr)
            return "y"

        profiler = DependenceProfiler(store, names=resolver)
        profiler.profile_edge(5, node, 10, 2, 60, DepKind.RAW, 42)
        profiler.profile_edge(5, node, 20, 2, 80, DepKind.RAW, 42)
        assert calls == [42]
        assert store.profiles[4].edges[(5, 2, DepKind.RAW)].var_hint == "y"


class TestRecycledNodes:
    def test_stale_head_node_stops_walk(self):
        """A recycled node fails Tenter <= Th <= Texit, so a dependence
        whose head context was recycled updates nothing (its Tdep is
        necessarily > Tdur — the Theorem 1 argument)."""
        store = ProfileStore()
        profiler = DependenceProfiler(store)
        node = completed(4, 0, 10)
        # Recycle: the node is reused for a construct entered later.
        node.static = static(9)
        node.t_enter, node.t_exit = 50, 0
        updated = profiler.profile_edge(5, node, 8, 2, 60, DepKind.RAW,
                                        0)
        assert updated == 0

    def test_recycled_parent_stops_walk_midway(self):
        store = ProfileStore()
        profiler = DependenceProfiler(store)
        stale_parent = completed(2, 100, 0)  # reused: entered after Th
        child = completed(4, 5, 9, parent=stale_parent)
        updated = profiler.profile_edge(5, child, 6, 2, 12, DepKind.RAW,
                                        0)
        assert updated == 1
        assert 4 in store.profiles
        assert 2 not in store.profiles


class TestStoreAggregation:
    def test_duration_and_instances(self):
        store = ProfileStore()
        s = static(7)
        for t_enter, t_exit in [(0, 10), (20, 50), (60, 65)]:
            store.on_construct_enter(s)
            node = ConstructNode()
            node.static = s
            node.t_enter, node.t_exit = t_enter, t_exit
            store.on_construct_complete(node)
        profile = store.profiles[7]
        assert profile.instances == 3
        assert profile.total_duration == 10 + 30 + 5
        assert profile.max_duration == 30
        assert store.dynamic_instances == 3

    def test_nested_recursion_not_double_counted(self):
        store = ProfileStore()
        s = static(7)
        # Outer enters, inner enters, inner exits, outer exits.
        store.on_construct_enter(s)
        store.on_construct_enter(s)
        inner = ConstructNode()
        inner.static = s
        inner.t_enter, inner.t_exit = 5, 10
        store.on_construct_complete(inner)
        outer = ConstructNode()
        outer.static = s
        outer.t_enter, outer.t_exit = 0, 20
        store.on_construct_complete(outer)
        profile = store.profiles[7]
        assert profile.instances == 1
        assert profile.total_duration == 20
