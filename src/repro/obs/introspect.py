"""Per-static-branch prediction introspection (``repro.obs.introspect/v1``).

The paper is a measurement study: its Table III and Fig. 6 come from asking,
*per static branch*, where TAGE-SC-L's predictions came from and where its
mispredictions cluster.  Aggregate counters (``tage.pred.provider`` etc.)
can't answer that, so this channel records — from each ``simulate_trace``
call's scored prediction stream —

* per-IP execution and misprediction counts,
* a (sampled, bounded) stream of mispredict instruction positions,
* TAGE provider attribution: bimodal base vs. alternate vs. which tagged
  table, plus loop-predictor overrides and SC flips (via the predictor's
  optional ``introspect_last()`` hook),
* per-slice mispredict counts (the H2P heatmap's raw data), and
* allocation churn per IP when the predictor tracks allocations.

Gating mirrors the rest of ``repro.obs``: off by default, enabled with
``REPRO_INTROSPECT=1`` or :func:`enable_introspection`; the simulator
checks :func:`is_enabled` **once per call** and, when disabled, collects
nothing.  Introspection is observation-only — simulation statistics are
bit-identical with it on or off (asserted in ``tests/obs/test_introspect.py``
across the scalar, kernel, batched, and parallel paths).

Knobs (environment): ``REPRO_INTROSPECT_SAMPLE`` keeps every Nth mispredict
position per branch (default 1 = all), ``REPRO_INTROSPECT_STREAM`` caps the
retained positions per branch (default 256), ``REPRO_INTROSPECT_TOPK``
bounds the per-branch entries in the exported report (default 128, by
misprediction count).
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config import (
    H2P_ACCURACY_THRESHOLD,
    H2P_MIN_EXECUTIONS,
    H2P_MIN_MISPREDICTIONS,
)

INTROSPECT_SCHEMA_VERSION = "repro.obs.introspect/v1"

_DEFAULT_STREAM_CAP = 256
_DEFAULT_TOPK = 128

#: Programmatic override; ``None`` defers to ``REPRO_INTROSPECT``.
_ENABLED: Optional[bool] = None
_REPORTS: List[Dict[str, Any]] = []
_CONTEXT: Dict[str, Any] = {}


def is_enabled() -> bool:
    """Whether introspection is on (checked once per ``simulate_trace``)."""
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get("REPRO_INTROSPECT", "") not in ("", "0", "false")


def enable_introspection() -> None:
    global _ENABLED
    _ENABLED = True


def disable_introspection() -> None:
    global _ENABLED
    _ENABLED = False


def set_context(workload: Optional[str] = None, input_name: Optional[Any] = None) -> None:
    """Label subsequent reports with the workload/input being simulated
    (the Lab sets this; cleared by passing ``None``)."""
    if workload is None:
        _CONTEXT.pop("workload", None)
    else:
        _CONTEXT["workload"] = workload
    if input_name is None:
        _CONTEXT.pop("input", None)
    else:
        _CONTEXT["input"] = input_name


def reports() -> List[Dict[str, Any]]:
    """All reports collected in this process (one per simulated trace)."""
    return list(_REPORTS)


def reset_introspection() -> None:
    """Drop collected reports and context (enabled state unchanged)."""
    _REPORTS.clear()
    _CONTEXT.clear()


class _IpIntro:
    """What the channel accumulates for one static branch."""

    __slots__ = (
        "execs",
        "mis",
        "stream",
        "dropped",
        "providers",
        "loop_used",
        "sc_flipped",
        "slice_mis",
    )

    def __init__(self) -> None:
        self.execs = 0
        self.mis = 0
        self.stream: List[int] = []
        self.dropped = 0
        self.providers: Dict[str, int] = {}
        self.loop_used = 0
        self.sc_flipped = 0
        self.slice_mis: Dict[int, int] = {}


def _provider_key(provider: int, used_alt: bool) -> str:
    if provider < 0:
        return "base"
    if used_alt:
        return "alt"
    return f"table{provider}"


class BranchIntrospector:
    """Recorder for one ``simulate_trace`` call.

    Every simulation backend feeds :meth:`record_stream` once with the
    scored conditional stream; :meth:`finish` turns the accumulated state
    into a report.
    """

    def __init__(
        self,
        predictor_name: str,
        slice_instructions: Optional[int],
        path: str,
    ) -> None:
        self.predictor_name = predictor_name
        self.slice_instructions = slice_instructions
        self.path = path
        self.sample = max(1, int(os.environ.get("REPRO_INTROSPECT_SAMPLE", "1") or 1))
        self.stream_cap = max(
            0, int(os.environ.get("REPRO_INTROSPECT_STREAM", _DEFAULT_STREAM_CAP) or 0)
        )
        self._ips: Dict[int, _IpIntro] = {}

    def record_stream(
        self,
        ips: Iterable[int],
        pos: Iterable[int],
        correct: Iterable[bool],
        attrs: Optional[Iterable[Optional[Tuple[int, bool, bool, bool]]]] = None,
    ) -> None:
        """Record scored conditional branches in stream order: each one's IP,
        instruction position, whether it was predicted correctly, and (when
        the backend collected them) the predictor's ``introspect_last()``
        tuple (provider, used_alt, loop, sc) or None."""
        get = self._ips.get
        for ip, p, ok, attr in zip(
            ips, pos, correct, attrs if attrs is not None else repeat(None)
        ):
            rec = get(ip)
            if rec is None:
                rec = self._ips[ip] = _IpIntro()
            rec.execs += 1
            if attr is not None:
                provider, used_alt, loop_used, sc_flipped = attr
                key = _provider_key(provider, used_alt)
                rec.providers[key] = rec.providers.get(key, 0) + 1
                if loop_used:
                    rec.loop_used += 1
                if sc_flipped:
                    rec.sc_flipped += 1
            if ok:
                continue
            rec.mis += 1
            if self.slice_instructions is not None:
                si = p // self.slice_instructions
                rec.slice_mis[si] = rec.slice_mis.get(si, 0) + 1
            if (rec.mis - 1) % self.sample:
                continue
            if len(rec.stream) < self.stream_cap:
                rec.stream.append(p)
            else:
                rec.dropped += 1

    def finish(self, predictor=None) -> Dict[str, Any]:
        """Build the report (pulling allocation stats off the predictor if
        it tracked them), append it to the process-wide list, return it."""
        alloc = getattr(predictor, "allocation_stats", None)
        topk = max(1, int(os.environ.get("REPRO_INTROSPECT_TOPK", _DEFAULT_TOPK) or 1))
        ranked = sorted(
            self._ips.items(), key=lambda kv: (-kv[1].mis, kv[0])
        )
        branches: List[Dict[str, Any]] = []
        for ip, rec in ranked[:topk]:
            accuracy = 1.0 - rec.mis / rec.execs if rec.execs else 1.0
            entry: Dict[str, Any] = {
                "ip": ip,
                "executions": rec.execs,
                "mispredictions": rec.mis,
                "accuracy": accuracy,
                "h2p": (
                    accuracy < H2P_ACCURACY_THRESHOLD
                    and rec.execs >= H2P_MIN_EXECUTIONS
                    and rec.mis >= H2P_MIN_MISPREDICTIONS
                ),
            }
            if rec.providers:
                entry["provider"] = dict(sorted(rec.providers.items()))
            if rec.loop_used:
                entry["loop_used"] = rec.loop_used
            if rec.sc_flipped:
                entry["sc_flipped"] = rec.sc_flipped
            if rec.stream:
                entry["mispredict_positions"] = list(rec.stream)
            if rec.dropped:
                entry["positions_dropped"] = rec.dropped
            if rec.slice_mis:
                entry["slice_mispredicts"] = {
                    str(k): v for k, v in sorted(rec.slice_mis.items())
                }
            if alloc is not None:
                entry["allocations"] = alloc.allocations_for(ip)
                entry["unique_entries"] = alloc.unique_entries_for(ip)
            branches.append(entry)

        report: Dict[str, Any] = {
            "predictor": self.predictor_name,
            "path": self.path,
            "slice_instructions": self.slice_instructions,
            "sample": self.sample,
            "stream_cap": self.stream_cap,
            "static_branches": len(self._ips),
            "cond_branches": sum(r.execs for r in self._ips.values()),
            "mispredictions": sum(r.mis for r in self._ips.values()),
            "branches": branches,
        }
        if len(self._ips) > topk:
            report["branches_truncated"] = len(self._ips) - topk
        if alloc is not None:
            report["total_allocations"] = alloc.total_allocations
        report.update(_CONTEXT)
        _REPORTS.append(report)
        return report


def write_introspect_json(path) -> Path:
    """Dump every collected report as a schema-versioned JSON document."""
    from repro.obs.runmeta import run_metadata

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": INTROSPECT_SCHEMA_VERSION,
        "meta": run_metadata(),
        "reports": reports(),
    }
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return out
