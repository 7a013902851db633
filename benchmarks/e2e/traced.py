"""Run one repro entry point with per-layer spans recorded from outside.

    python benchmarks/e2e/traced.py OUT.json -m repro table1 --cache-dir D --jobs 1
    python benchmarks/e2e/traced.py OUT.json -m repro.service --port 0 --cache-dir D

The shim imports the entry point, wraps each layer's public functions where
their caller looks them up (for example ``repro.experiments.lab.trace_workload``,
the name ``Lab.trace`` calls), turns on the ``repro.obs`` counters, and then
calls the entry point's ``main`` with the remaining arguments.  Nothing under
``src/`` changes.

Spans (name, start, end, parent, thread) stay in memory; each thread keeps its
own stack, because the daemon computes on a thread pool.  When ``main``
returns, the shim writes OUT.json: a Chrome-trace document (open it in
chrome://tracing or ui.perfetto.dev) whose ``e2e`` key holds the start-up
time, the per-layer self times, work counts and obs counters that ``run.py``
reads.

``E2E_SPAWN_MONOTONIC`` (set by ``run.py`` just before it starts the process)
is the ``time.monotonic()`` reading at spawn, so ``startup_s`` covers
interpreter start and imports up to ``main``.
"""

from __future__ import annotations

import time

SHIM_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

#: Entry module -> (module holding ``main``, the patch groups it needs).
ENTRY_POINTS = {
    "repro": ("repro.experiments.runner", ("core", "cli")),
    "repro.service": ("repro.service.__main__", ("core", "service")),
}


def _instructions(result: Any, args: Tuple, kwargs: Dict) -> Dict[str, int]:
    trace = getattr(result, "trace", result)
    return {"instructions": int(getattr(trace, "instr_count", 0))}


def _replay(result: Any, args: Tuple, kwargs: Dict) -> Dict[str, int]:
    trace, predictors = args[0], args[1]
    configs = len(predictors)
    return {
        "configs": configs,
        "branches": configs * len(trace.conditional_columns()[0]),
    }


def _store_lookup(result: Any, args: Tuple, kwargs: Dict) -> Dict[str, int]:
    return {"lookups": 1, "hits": int(result is not None)}


#: (group, module, attribute path, layer metric, work counter).  Each layer
#: metric is the self time of its spans; the names match ``run.py``.
PATCHES: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("core", "repro.experiments.lab", "trace_workload", "isa.trace_s", _instructions),
    ("core", "repro.experiments.lab", "execute_workload", "isa.execute_s", _instructions),
    ("core", "repro.workloads.trace_store", "TraceStore.store", "trace_store.store_s", None),
    ("core", "repro.workloads.trace_store", "TraceStore.load", "trace_store.load_s",
     _store_lookup),
    ("core", "repro.kernels.batched", "replay_tagescl_batch", "kernels.replay_s", _replay),
    ("core", "repro.pipeline.simulator", "score_predictions", "kernels.score_s", None),
    ("core", "repro.pipeline.simulator", "score_with_kernel", "kernels.score_s", None),
    ("core", "repro.experiments.lab", "simulate_trace", "pipeline.self_s", None),
    ("core", "repro.experiments.lab", "simulate_trace_batch", "pipeline.self_s", None),
    ("core", "repro.experiments.lab", "prepare_bbvs", "phases.cluster_s", None),
    ("core", "repro.experiments.lab", "cluster_phases", "phases.cluster_s", None),
    ("core", "repro.experiments.lab", "Lab.trace", "lab.self_s", None),
    ("core", "repro.experiments.lab", "Lab.simulate", "lab.self_s", None),
    ("core", "repro.experiments.lab", "Lab.simulate_batch", "lab.self_s", None),
    ("core", "repro.experiments.lab", "Lab.phase_count", "lab.self_s", None),
    ("core", "repro.experiments.lab", "Lab._load_disk", "lab.disk_s", None),
    ("core", "repro.experiments.lab", "Lab._store_disk", "lab.disk_s", None),
    ("cli", "repro.experiments.table1", "screen_workload", "analysis.self_s", None),
    ("cli", "repro.experiments.table1", "summarize_across_inputs", "analysis.self_s", None),
    ("cli", "repro.experiments.fig7", "storage_gap_closure", "analysis.self_s", None),
    ("cli", "repro.experiments.runner", "compute_table1", "experiments.compute_s", None),
    ("cli", "repro.experiments.runner", "compute_fig7", "experiments.compute_s", None),
    ("cli", "repro.experiments.table1", "Table1.render", "experiments.compute_s", None),
    ("cli", "repro.experiments.fig7", "Fig7.render", "experiments.compute_s", None),
    ("service", "repro.service.daemon", "screen_workload", "analysis.self_s", None),
    ("service", "repro.service.daemon", "LabService._compute_simulate",
     "service.compute_s", None),
    ("service", "repro.service.daemon", "LabService._compute_simulate_batch",
     "service.compute_s", None),
    ("service", "repro.service.daemon", "LabService._compute_h2p", "service.compute_s", None),
    ("service", "repro.service.daemon", "dump_line", "service.encode_s", None),
    ("service", "repro.service.daemon", "parse_line", "service.parse_s", None),
]


class Recorder:
    """In-memory spans with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, str, Optional[int], int, float, float]] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, label: str, layer: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append(
                    (sid, label, layer, parent, threading.get_ident(), start, end)
                )
            if count is not None:
                self._add(count(result, args, kwargs), layer)
            return result

        return traced

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, counts: Dict[str, int], layer: str) -> None:
        prefix = layer.split(".")[0]
        with self._lock:
            for key, value in counts.items():
                name = f"{prefix}.{key}"
                self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus its direct children's."""
        child_time: Dict[int, float] = {}
        for _, _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for sid, _, layer, _, _, start, end in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return totals

    def chrome_events(self, origin: float) -> List[Dict[str, Any]]:
        pid = os.getpid()
        return [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent},
            }
            for sid, label, layer, parent, tid, start, end in sorted(
                self.spans, key=lambda s: s[5]
            )
        ]


def install(recorder: Recorder, groups: Tuple[str, ...]) -> None:
    for group, module_name, path, layer, count in PATCHES:
        if group not in groups:
            continue
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(path, layer, original, count)
        setattr(owner, attr, wrapped)
        if module_name == "repro.service.daemon" and parents == ["LabService"]:
            # The daemon dispatches single requests through its method
            # table, which holds the functions captured at import.
            table = sys.modules[module_name]._COMPUTE
            for method, fn in table.items():
                if fn is original:
                    table[method] = wrapped


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "-m" or argv[2] not in ENTRY_POINTS:
        print(f"usage: traced.py OUT.json -m {{{'|'.join(ENTRY_POINTS)}}} ARGS...",
              file=sys.stderr)
        return 2
    out_path, module, args = argv[0], argv[2], argv[3:]
    main_module, groups = ENTRY_POINTS[module]
    entry = importlib.import_module(main_module)
    from repro import obs

    obs.enable()
    recorder = Recorder()
    install(recorder, groups)
    spawn = float(os.environ.get("E2E_SPAWN_MONOTONIC", SHIM_START))
    main_start = time.monotonic()
    try:
        code = entry.main(args)
    finally:
        summary = {
            "startup_s": main_start - spawn,
            "self_s": recorder.self_times(),
            "counts": recorder.counts,
            "counters": obs.registry().counters_dict(),
        }
        document = {
            "traceEvents": recorder.chrome_events(spawn),
            "displayTimeUnit": "ms",
            "e2e": summary,
        }
        with open(out_path, "w") as f:
            json.dump(document, f)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
