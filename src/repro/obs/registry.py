"""Process-wide metrics registry: counters, gauges, timing histograms.

The registry is designed around one invariant: **when disabled, every
entry point costs a single attribute check and returns immediately**, so
instrumented hot loops (the simulator scores ~1M branches/s in pure
Python) are unaffected unless the user opts in.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Dict, List, Optional

#: Ring-buffer capacity for per-timer duration samples (percentiles).
_TIMER_RING = 256


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Timer:
    """Aggregated wall-time observations for one named operation.

    Every call is measured; a ring buffer of recent durations supports
    percentile estimates without unbounded growth.
    """

    __slots__ = ("name", "calls", "total_s", "min_s", "max_s", "_ring")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self._ring: List[float] = []

    def observe(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        ring = self._ring
        if len(ring) < _TIMER_RING:
            ring.append(seconds)
        else:
            ring[self.calls % _TIMER_RING] = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile (0..1) over the retained sample ring."""
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def to_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "min_s": self.min_s if self.calls else 0.0,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
        }


class _TimerContext:
    """Context manager measuring one timer entry."""

    __slots__ = ("_timer", "_registry", "_extra", "_t0", "elapsed_s")

    def __init__(self, timer: Timer, registry: "MetricsRegistry", extra=()) -> None:
        self._timer = timer
        self._registry = registry
        self._extra = extra  # extra timer names receiving the same duration
        self.elapsed_s = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dt = perf_counter() - self._t0
        self.elapsed_s = dt
        self._timer.observe(dt)
        for name in self._extra:
            self._registry.timer(name).observe(dt)


class _NoopContext:
    """Shared do-nothing context manager (disabled path)."""

    __slots__ = ()
    elapsed_s = 0.0

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopContext()


class MetricsRegistry:
    """Holds every metric for one process; normally used via the module
    singleton (:func:`registry`) and the module-level helpers."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_METRICS", "") not in ("", "0", "false")
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- metric accessors (create on first use) ---------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def timer(self, name: str) -> Timer:
        t = self._timers.get(name)
        if t is None:
            with self._lock:
                t = self._timers.setdefault(name, Timer(name))
        return t

    # -- recording (no-op when disabled) ----------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if not self.enabled:
            return
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauge(name).set(value)

    def time(self, name: str, extra=()) -> "_TimerContext | _NoopContext":
        if not self.enabled:
            return _NOOP
        return _TimerContext(self.timer(name), self, extra)

    def observe(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        self.timer(name).observe(seconds)

    # -- cross-process aggregation ----------------------------------------

    def snapshot_for_merge(self) -> Dict[str, object]:
        """Mergeable view of this registry: counters, gauges, and timer
        aggregates plus the (bounded) duration-sample ring, so percentiles
        survive cross-process merges instead of collapsing to zero."""
        return {
            "counters": self.counters_dict(),
            "gauges": self.gauges_dict(),
            "timers": {
                name: {
                    "calls": t.calls,
                    "total_s": t.total_s,
                    "min_s": t.min_s if t.calls else 0.0,
                    "max_s": t.max_s,
                    "samples": list(t._ring),
                }
                for name, t in sorted(self._timers.items())
            },
        }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot_for_merge` into this one
        (aggregating worker-process metrics into the parent).  Counters and
        timer aggregates add; gauges are last-write-wins.  No-op when
        disabled."""
        if not self.enabled:
            return
        for name, value in (snap.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snap.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, agg in (snap.get("timers") or {}).items():
            calls = agg.get("calls", 0)
            if not calls:
                continue
            t = self.timer(name)
            t.calls += calls
            t.total_s += agg.get("total_s", 0.0)
            if agg.get("min_s", 0.0) < t.min_s:
                t.min_s = agg["min_s"]
            if agg.get("max_s", 0.0) > t.max_s:
                t.max_s = agg["max_s"]
            ring = t._ring
            slot = t.calls
            for seconds in agg.get("samples", ()):
                if len(ring) < _TIMER_RING:
                    ring.append(seconds)
                else:
                    ring[slot % _TIMER_RING] = seconds
                    slot += 1

    # -- introspection ----------------------------------------------------

    def counters_dict(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges_dict(self) -> Dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def timers_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: t.to_dict() for name, t in sorted(self._timers.items())}

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


#: The process-wide registry instance.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return _REGISTRY


def enable() -> None:
    """Turn metric (and span) collection on for this process."""
    _REGISTRY.enabled = True


def disable() -> None:
    """Turn metric (and span) collection off (the fast no-op paths apply again)."""
    _REGISTRY.enabled = False


def is_enabled() -> bool:
    return _REGISTRY.enabled


def reset() -> None:
    """Clear all collected metrics, spans, trace events, and introspection
    reports (enabled states unchanged)."""
    from repro.obs import introspect, spans, trace  # local: avoid cycles

    _REGISTRY.reset()
    spans.reset_spans()
    trace.reset_trace()
    introspect.reset_introspection()


def counter(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` by ``amount`` (no-op when disabled)."""
    if not _REGISTRY.enabled:
        return
    _REGISTRY.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    if not _REGISTRY.enabled:
        return
    _REGISTRY.gauge(name).set(value)


def timer(name: str, extra=()):
    """Context manager timing a block into timer ``name``.

    ``extra`` names additional timers that receive the same duration (e.g.
    a per-predictor breakdown alongside the aggregate).
    """
    return _REGISTRY.time(name, extra=extra)


def observe_timer(name: str, seconds: float) -> None:
    """Record an externally measured duration into timer ``name``."""
    _REGISTRY.observe(name, seconds)


def merge_snapshot(snap: Dict[str, object]) -> None:
    """Fold a :meth:`MetricsRegistry.snapshot_for_merge` dict (typically
    from a worker process) into the process-wide registry."""
    _REGISTRY.merge_snapshot(snap)
