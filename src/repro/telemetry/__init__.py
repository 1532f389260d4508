"""Self-observability for the profiler: spans, metrics, structured logs.

The pipeline that measures other programs must be able to report where
its *own* time and memory go. This package is that layer:

* :class:`Telemetry` / :class:`Span` — hierarchical wall/CPU spans,
  counters, and gauges (:mod:`repro.telemetry.spans`); disabled by
  default via :data:`NULL_TELEMETRY`, which adds no measurable
  overhead (nothing per event, ever).
* :func:`get_logger` / :func:`configure_logging` — structured JSON
  logging on stderr, controlled by ``ALCHEMIST_LOG`` or
  ``--log-level`` (:mod:`repro.telemetry.logs`).
* :func:`metrics_payload` / :func:`validate_metrics` — the versioned
  ``--metrics`` artifact and its validator
  (:mod:`repro.telemetry.schema`).
* :func:`render_metrics` — the ``alchemist stats`` presentation
  (:mod:`repro.telemetry.render`).

Every stage of the pipeline takes an optional ``telemetry`` handle and
wraps its work in spans: ``Session`` (compile/record/replay/live),
the trace writer, serial and parallel replay (with
per-worker spans stitched under the coordinator), the batch driver,
and the what-if advisor sweep. Plugins receive the same handle via
``AnalysisContext.telemetry``.
"""

from repro.telemetry.logs import (LOG_ENV_VAR, LOG_LEVELS, JsonFormatter,
                                  configure_logging, get_logger)
from repro.telemetry.render import render_metrics
from repro.telemetry.schema import (METRICS_SCHEMA, METRICS_VERSION,
                                    MetricsSchemaError, metrics_payload,
                                    validate_metrics)
from repro.telemetry.spans import (NULL_TELEMETRY, NullTelemetry, Span,
                                   Telemetry, as_telemetry)

__all__ = [
    "Telemetry", "Span", "NullTelemetry", "NULL_TELEMETRY",
    "as_telemetry",
    "get_logger", "configure_logging", "JsonFormatter",
    "LOG_ENV_VAR", "LOG_LEVELS",
    "METRICS_SCHEMA", "METRICS_VERSION", "MetricsSchemaError",
    "metrics_payload", "validate_metrics", "render_metrics",
]
