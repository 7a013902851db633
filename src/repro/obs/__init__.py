"""``repro.obs``: observability for the reproduction's runtime layers.

Three coordinated facilities, all process-wide and all off by default so
the hot loops pay (at most) one attribute check:

* a **metrics registry** — counters, gauges, and timing histograms
  (``obs.counter("lab.sim.cache_miss")``, ``with obs.timer("sim.trace"):``)
  with a no-op fast path when disabled;
* **span tracing** — nested ``with obs.span("fig7", storage_kib=64):``
  blocks producing a per-experiment span tree with wall-time and
  child/self attribution;
* **structured logging** — a ``repro.*`` logger hierarchy configured from
  ``--log-level`` / ``REPRO_LOG_LEVEL`` (default WARNING, so the library
  stays silent unless asked).

Exporters render the registry as a human summary (:func:`render_summary`)
or a JSON document (:func:`write_metrics_json`, schema documented in
``docs/observability.md``).  Enable collection with :func:`enable` or
``REPRO_METRICS=1``; the experiment runner does this automatically when
``--metrics-out`` is passed.

Two further opt-in channels build on the same no-op-when-disabled
discipline: **timeline tracing** (:mod:`repro.obs.trace` — Chrome
trace-event export of spans, worker lanes, and fault/recovery instants,
enabled by ``--trace-out`` / ``REPRO_TRACE_OUT``) and **prediction
introspection** (:mod:`repro.obs.introspect` — per-static-branch
mispredict streams and TAGE provider attribution, enabled by
``REPRO_INTROSPECT=1``).
"""

from repro.obs.export import (
    METRICS_SCHEMA_VERSION,
    READABLE_SCHEMA_VERSIONS,
    read_metrics_json,
    render_summary,
    snapshot,
    write_metrics_json,
)
from repro.obs.introspect import (
    INTROSPECT_SCHEMA_VERSION,
    disable_introspection,
    enable_introspection,
    write_introspect_json,
)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.registry import (
    counter,
    disable,
    enable,
    gauge,
    is_enabled,
    merge_snapshot,
    observe_timer,
    registry,
    reset,
    timer,
)
from repro.obs.runmeta import run_metadata
from repro.obs.spans import Span, current_span, span, span_trees
from repro.obs.trace import (
    disable_tracing,
    enable_tracing,
    is_tracing,
    write_trace_json,
)
from repro.obs.util import format_duration, format_rate

__all__ = [
    "INTROSPECT_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "READABLE_SCHEMA_VERSIONS",
    "Span",
    "configure_logging",
    "counter",
    "current_span",
    "disable",
    "disable_introspection",
    "disable_tracing",
    "enable",
    "enable_introspection",
    "enable_tracing",
    "format_duration",
    "format_rate",
    "gauge",
    "get_logger",
    "is_enabled",
    "is_tracing",
    "merge_snapshot",
    "observe_timer",
    "read_metrics_json",
    "registry",
    "render_summary",
    "reset",
    "run_metadata",
    "snapshot",
    "span",
    "span_trees",
    "timer",
    "write_metrics_json",
    "write_introspect_json",
    "write_trace_json",
]
