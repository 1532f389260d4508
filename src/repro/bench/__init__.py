"""Benchmark harness: regenerates every table and figure of the paper.

================  ====================================================
Paper artifact    Entry point
================  ====================================================
Table III         :func:`repro.bench.harness.table3_rows`
Table IV          :func:`repro.bench.harness.table4_rows`
Table V           :func:`repro.bench.harness.table5_rows`
Fig. 2 / Fig. 3   :func:`repro.bench.harness.gzip_profile_listing`
Fig. 6(a-d)       :func:`repro.bench.harness.fig6_data`
================  ====================================================

``benchmarks/`` wraps these in pytest-benchmark targets; the text
renderers live in :mod:`repro.bench.tables` and
:mod:`repro.bench.figures`. The reproduction's own speed is measured
by the repository benchmark in ``perfbench/``, not here.
"""

from repro.bench.harness import (fig6_data, gzip_profile_listing,
                                 profile_workload, table3_rows, table4_rows,
                                 table5_rows)
from repro.bench.tables import (render_table3, render_table4, render_table5)
from repro.bench.figures import render_fig6, render_profile_listing

__all__ = [
    "profile_workload",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "gzip_profile_listing",
    "fig6_data",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_fig6",
    "render_profile_listing",
]
