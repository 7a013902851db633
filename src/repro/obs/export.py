"""Exporters: human end-of-run summary and JSON metrics dump.

The JSON schema (``repro.obs/v2``) is documented in
``docs/observability.md``; briefly::

    {
      "schema": "repro.obs/v2",
      "meta":     {"git_sha": "...", "date": "...", "tier": "quick",
                   "seed": 0, "python": "...", "numpy": "...", ...},
      "counters": {"sim.branches": 123, ...},
      "gauges":   {"sim.branches_per_sec": 1.2e6, ...},
      "timers":   {"sim.trace": {"calls":..,"count":..,"total_s":..,
                                 "min_s":..,"max_s":..,
                                 "mean_s":..,"p50_s":..,"p90_s":..}, ...},
      "spans":    [{"name":"table1","duration_s":..,"self_s":..,
                    "attrs":{...},"children":[...]}, ...]
    }

v1 files (no ``meta`` header) are still readable: :func:`read_metrics_json`
accepts both versions and returns a v2-shaped document (v1 gets an empty
``meta``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.registry import registry
from repro.obs.runmeta import run_metadata
from repro.obs.spans import span_trees
from repro.obs.util import format_duration

METRICS_SCHEMA_VERSION = "repro.obs/v2"

#: Schema versions :func:`read_metrics_json` accepts.
READABLE_SCHEMA_VERSIONS = ("repro.obs/v1", "repro.obs/v2")


def snapshot(extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """JSON-serializable view of every collected metric and span tree."""
    reg = registry()
    doc: Dict[str, Any] = {
        "schema": METRICS_SCHEMA_VERSION,
        "meta": run_metadata(),
        "counters": reg.counters_dict(),
        "gauges": reg.gauges_dict(),
        "timers": reg.timers_dict(),
        "spans": span_trees(),
    }
    if extra:
        doc.update(extra)
    return doc


def read_metrics_json(path) -> Dict[str, Any]:
    """Load a metrics file written by any supported schema version.

    v1 files (pre run-metadata) are upgraded in memory to the v2 shape:
    they gain an empty ``meta`` dict, so readers can rely on the key being
    present.  Unknown schemas raise ``ValueError``.
    """
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema not in READABLE_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported metrics schema {schema!r} in {path}; "
            f"expected one of {READABLE_SCHEMA_VERSIONS}"
        )
    doc.setdefault("meta", {})
    return doc


def write_metrics_json(path, extra: Optional[Dict[str, Any]] = None) -> Path:
    """Dump :func:`snapshot` to ``path`` (parent dirs created)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(snapshot(extra), f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def _render_span(sp: Dict[str, Any], depth: int, lines: List[str]) -> None:
    attrs = sp.get("attrs")
    attr_text = (
        " [" + ", ".join(f"{k}={v}" for k, v in attrs.items()) + "]" if attrs else ""
    )
    lines.append(
        f"  {'  ' * depth}{sp['name']}{attr_text}: "
        f"{format_duration(sp['duration_s'])} "
        f"(self {format_duration(sp['self_s'])})"
    )
    for child in sp.get("children", ()):
        _render_span(child, depth + 1, lines)


def render_summary(doc: Optional[Dict[str, Any]] = None) -> str:
    """Human-readable end-of-run summary of the registry and span trees."""
    doc = doc or snapshot()
    lines: List[str] = ["-- metrics " + "-" * 61]
    counters = doc.get("counters") or {}
    gauges = doc.get("gauges") or {}
    timers = doc.get("timers") or {}
    spans = doc.get("spans") or []

    if counters:
        width = max(len(n) for n in counters)
        lines.append("counters:")
        lines.extend(f"  {n:<{width}}  {v:>14,}" for n, v in counters.items())
    if gauges:
        width = max(len(n) for n in gauges)
        lines.append("gauges:")
        lines.extend(f"  {n:<{width}}  {v:>14,.3f}" for n, v in gauges.items())
    if timers:
        width = max(len(n) for n in timers)
        lines.append("timers:")
        for n, t in timers.items():
            lines.append(
                f"  {n:<{width}}  calls={t['calls']:<6} "
                f"total={format_duration(t['total_s']):<8} "
                f"mean={format_duration(t['mean_s']):<8} "
                f"p90={format_duration(t['p90_s'])}"
            )
    if spans:
        lines.append("spans:")
        for sp in spans:
            _render_span(sp, 0, lines)
    if len(lines) == 1:
        lines.append("  (no metrics collected — is obs enabled?)")
    lines.append("-" * 72)
    return "\n".join(lines)
