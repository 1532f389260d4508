"""Micro-benchmark: bucketed ``ShadowMemory.clear_range`` vs. the naive
pre-index implementation.

The naive shadow (reproduced below: the ``on_frame_free`` loop the
flat, context and TEST baselines ran on their private shadows until
they moved onto ``ShadowMemory``) pays ``O(min(range, tracked))`` per
``clear_range``; for a large freed heap block over a large shadow that
means scanning every tracked address — per free. The bucketed index
pays only for addresses actually tracked inside the freed range.

Run directly (``PYTHONPATH=src python benchmarks/bench_shadow_clear.py``)
or via pytest with this file as an argument.
"""

from __future__ import annotations

import time

from repro.core.shadow import ShadowMemory

SENTINEL_NODE = None  # clear_range never touches the node payload


class NaiveShadow:
    """The pre-index clear_range strategy, for comparison."""

    def __init__(self) -> None:
        self.entries: dict[int, list] = {}

    def on_write(self, addr: int) -> None:
        entry = self.entries.get(addr)
        if entry is None:
            self.entries[addr] = [(0, SENTINEL_NODE, 0), {}]
        else:
            entry[0] = (0, SENTINEL_NODE, 0)

    def clear_range(self, lo: int, hi: int) -> None:
        entries = self.entries
        if hi - lo < len(entries):
            for addr in range(lo, hi):
                entries.pop(addr, None)
        else:
            for addr in [a for a in entries if lo <= a < hi]:
                del entries[addr]


def _populate_bucketed(tracked: list[int]) -> ShadowMemory:
    shadow = ShadowMemory()
    for addr in tracked:
        shadow.on_write(addr, 0, SENTINEL_NODE, 0)
    return shadow


def _scenario() -> tuple[list[int], list[tuple[int, int]]]:
    """Shadow of 200k scattered addresses; free 400 large sparse blocks.

    Each block spans 64k words but contains only ~40 tracked addresses —
    the pattern produced by freeing big, sparsely-touched heap blocks
    (or tearing down frames while a large global shadow is live).
    """
    tracked = []
    frees = []
    base = 1 << 20
    for block in range(400):
        lo = base + block * 65536
        tracked.extend(lo + i * 1601 for i in range(40))
        frees.append((lo, lo + 65536))
    # A large resident set outside the freed ranges.
    tracked.extend(range(0, 200_000))
    return tracked, frees


def _time_naive(tracked, frees) -> float:
    shadow = NaiveShadow()
    for addr in tracked:
        shadow.on_write(addr)
    start = time.perf_counter()
    for lo, hi in frees:
        shadow.clear_range(lo, hi)
    return time.perf_counter() - start


def _time_bucketed(tracked, frees) -> float:
    shadow = _populate_bucketed(tracked)
    start = time.perf_counter()
    for lo, hi in frees:
        shadow.clear_range(lo, hi)
    return time.perf_counter() - start


def measure() -> tuple[float, float]:
    tracked, frees = _scenario()
    naive = min(_time_naive(tracked, frees) for _ in range(3))
    bucketed = min(_time_bucketed(tracked, frees) for _ in range(3))
    return naive, bucketed


def test_bucketed_clear_range_beats_naive():
    tracked, frees = _scenario()
    # Correctness: both strategies must leave the same tracked set.
    naive = NaiveShadow()
    for addr in tracked:
        naive.on_write(addr)
    bucketed = _populate_bucketed(tracked)
    for lo, hi in frees:
        naive.clear_range(lo, hi)
        bucketed.clear_range(lo, hi)
    assert set(naive.entries) == set(bucketed.entries)

    t_naive, t_bucketed = measure()
    print(f"\nclear_range over 400 sparse 64k-word frees: "
          f"naive {t_naive * 1000:.1f}ms, "
          f"bucketed {t_bucketed * 1000:.1f}ms "
          f"({t_naive / t_bucketed:.1f}x)")
    # The naive scan is range- or shadow-proportional; the index should
    # win by a wide margin. 3x is a conservative floor for CI noise.
    assert t_bucketed * 3 < t_naive


if __name__ == "__main__":
    test_bucketed_clear_range_beats_naive()
    t_naive, t_bucketed = measure()
    print(f"naive:    {t_naive * 1000:8.1f} ms")
    print(f"bucketed: {t_bucketed * 1000:8.1f} ms")
    print(f"speedup:  {t_naive / t_bucketed:8.1f} x")
