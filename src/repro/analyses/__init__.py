"""Unified analysis plugins: one registry for live, replay, and batch.

Importing this package registers the bundled analyses (``dep``,
``locality``, ``hot``, ``counts``, ``flat``, ``context``, ``whatif``).
See :mod:`repro.analyses.base` for the protocol and a worked example of
registering your own.
"""

from repro.analyses.base import (Analysis, AnalysisContext, AnalysisError,
                                 AnalysisResult, OptionSpec, analysis_names,
                                 get_analysis, make_analyses, parse_spec,
                                 register, registry, unregister)
from repro.analyses.builtin import (ContextDependenceAnalysis,
                                    CountingAnalysis, DependenceAnalysis,
                                    FlatDependenceAnalysis, HotAddress,
                                    HotAddressAnalysis, LocalityAnalysis,
                                    LocalityResult, profile_summary)
from repro.analyses.whatif import WhatIfAnalysis

__all__ = [
    "Analysis",
    "AnalysisContext",
    "AnalysisError",
    "AnalysisResult",
    "OptionSpec",
    "analysis_names",
    "get_analysis",
    "make_analyses",
    "parse_spec",
    "register",
    "registry",
    "unregister",
    "DependenceAnalysis",
    "LocalityAnalysis",
    "LocalityResult",
    "HotAddress",
    "HotAddressAnalysis",
    "CountingAnalysis",
    "FlatDependenceAnalysis",
    "ContextDependenceAnalysis",
    "WhatIfAnalysis",
    "profile_summary",
]
