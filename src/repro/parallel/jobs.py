"""Job specs and the worker-process entry point for parallel simulation.

Only small, picklable values cross the process boundary: a :class:`SimJob`
names its workload and predictor, and the worker rebuilds both from the
existing registries (:data:`repro.experiments.lab.PREDICTOR_FACTORIES`,
:func:`repro.experiments.lab.workload_spec`).  Everything simulated is
seeded per (workload, input) and per predictor construction, so a worker
produces byte-identical :class:`SimulationResult`s to the serial path.

Workers keep a small per-process LRU of generated traces so the jobs for
one (workload, input) pair — e.g. the six storage presets of Fig. 7 —
share a single trace generation when they land on the same worker.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from time import monotonic
from typing import Any, Dict, Optional, Tuple, Union

#: Traces retained per worker process (override: ``REPRO_WORKER_TRACE_CACHE``).
TRACE_CACHE_CAP = max(1, int(os.environ.get("REPRO_WORKER_TRACE_CACHE", "4") or 4))


@dataclass(frozen=True)
class SimJob:
    """One simulation request, fully described by names and sizes."""

    workload: str
    input_index: int
    instructions: int
    predictor: str
    slice_instructions: int

    def key(self) -> Tuple[str, int, int, str, int]:
        """The Lab's simulation-cache key for this job."""
        return (
            self.workload,
            self.input_index,
            self.instructions,
            self.predictor,
            self.slice_instructions,
        )

    def sim_keys(self) -> Tuple[Tuple[str, int, int, str, int], ...]:
        """The Lab cache keys this job populates (just :meth:`key`)."""
        return (self.key(),)


@dataclass(frozen=True)
class BatchSimJob:
    """A multi-configuration simulation request: one trace, many predictors.

    The worker replays all ``predictors`` over a single trace pass via
    :func:`repro.pipeline.simulator.simulate_trace_batch` (the batched
    TAGE-SC-L kernel shares history reconstruction and folded-history
    index streams across configurations) and returns one
    :class:`SimulationResult` per label, in order.  Each result lands in
    the Lab's cache under the same per-predictor key an equivalent
    :class:`SimJob` would have used, so render paths stay oblivious.
    """

    workload: str
    input_index: int
    instructions: int
    predictors: Tuple[str, ...]
    slice_instructions: int

    @property
    def predictor(self) -> str:
        """Synthetic label for logs and timeline lanes."""
        return "batch[" + "+".join(self.predictors) + "]"

    def key(self) -> Tuple[str, int, int, Tuple[str, ...], int]:
        """Scheduling-dedup key (not a Lab cache key; see sim_keys)."""
        return (
            self.workload,
            self.input_index,
            self.instructions,
            self.predictors,
            self.slice_instructions,
        )

    def sim_keys(self) -> Tuple[Tuple[str, int, int, str, int], ...]:
        """The per-predictor Lab cache keys this job populates."""
        return tuple(
            (self.workload, self.input_index, self.instructions, p,
             self.slice_instructions)
            for p in self.predictors
        )


#: Relative per-branch cost of the batched TAGE family walk vs. a fully
#: vectorized kernel predictor.  The exact ratio varies with preset size
#: and trace shape; scheduling only needs the order of magnitude so the
#: longest-job-first sort puts TAGE work ahead of kernel work.
TAGE_FAMILY_WEIGHT = 25.0


def predictor_weight(name: str) -> float:
    """Relative per-instruction simulation cost of a predictor label.

    TAGE / TAGE-SC-L replays (batched or scalar) dominate every other
    predictor by more than an order of magnitude, so a coarse two-level
    weight is enough to keep a straggler off the tail of a batch.
    """
    return TAGE_FAMILY_WEIGHT if name.startswith("tage") else 1.0


def estimated_cost(job: "SimJob | BatchSimJob") -> float:
    """Scheduling estimate: instructions × summed predictor weight.

    Used by :class:`repro.parallel.scheduler.ParallelScheduler` to order
    submissions longest-first.  A :class:`BatchSimJob` pays once per
    member configuration (the shared trace pass is cheap next to the
    per-preset walks).
    """
    members = job.predictors if isinstance(job, BatchSimJob) else (job.predictor,)
    return job.instructions * sum(predictor_weight(p) for p in members)


@dataclass(frozen=True)
class WorkerReport:
    """Timing and metrics a worker returns alongside its result.

    Timestamps are ``time.monotonic()`` values; on Linux that clock is
    system-wide, so the parent can difference them against its own submit
    times to estimate queue wait.  ``metrics`` is a
    :meth:`MetricsRegistry.snapshot_for_merge` dict (or ``None`` when
    collection is disabled) covering exactly this job.  ``pid`` names the
    executing worker process — the parent's timeline export keys one lane
    per worker off it.
    """

    t_start: float
    t_end: float
    metrics: Optional[Dict[str, Any]] = None
    pid: int = 0

    @property
    def busy_s(self) -> float:
        return self.t_end - self.t_start


_worker_obs_enabled = False
_worker_trace_store: Optional[Any] = None
_trace_cache: "OrderedDict[Tuple[str, int, int], Any]" = OrderedDict()


def worker_init(
    obs_enabled: bool,
    log_level: Optional[str],
    trace_store_dir: Optional[str] = None,
    faults_spec: Optional[str] = None,
) -> None:
    """Initialize one worker process to mirror the parent's observability.

    Start-method agnostic: under ``fork`` this re-applies inherited state,
    under ``spawn`` it creates it.  ``log_level`` is a level *name* (or
    ``None`` when the parent never configured logging).  When the parent
    Lab has a cache directory, ``trace_store_dir`` points the worker at
    the shared on-disk trace store.  ``faults_spec`` replicates the
    parent's programmatically installed fault plan (worker-side storage
    fault sites count opportunities per process).
    """
    global _worker_obs_enabled, _worker_trace_store
    from repro import obs

    _worker_obs_enabled = bool(obs_enabled)
    if _worker_obs_enabled:
        obs.enable()
    else:
        obs.disable()
    # Timeline collection is parent-only: the parent reconstructs worker
    # lanes from WorkerReports, so any collector state inherited via fork
    # is discarded (a worker writing its own file would race the parent's).
    obs.disable_tracing()
    obs.reset()
    if log_level is not None:
        obs.configure_logging(log_level)
    if faults_spec is not None:
        from repro.resilience import faults

        faults.install(faults_spec)
    if trace_store_dir is not None:
        from repro.workloads.trace_store import TraceStore

        _worker_trace_store = TraceStore(trace_store_dir)
    else:
        _worker_trace_store = None


def _worker_trace(workload: str, input_index: int, instructions: int):
    """Per-process LRU over generated traces, read through the shared
    on-disk trace store when the parent Lab configured one."""
    from repro import obs
    from repro.core.types import WorkloadTrace
    from repro.experiments.lab import workload_spec
    from repro.workloads import trace_workload

    key = (workload, input_index, instructions)
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache.move_to_end(key)
        obs.counter("lab.parallel.worker.trace_cache_hit")
        return cached
    if _worker_trace_store is not None:
        stored = _worker_trace_store.load(workload, input_index, instructions)
        if stored is not None:
            spec = workload_spec(workload)
            # Workers only ever feed ``.trace`` to the simulator, so the
            # program is not rebuilt here (unlike Lab.trace store hits).
            cached = WorkloadTrace(
                benchmark=spec.name,
                input_name=spec.input_name(input_index),
                trace=stored,
                metadata={"instructions": instructions, "from_trace_store": True},
            )
            _trace_cache[key] = cached
            while len(_trace_cache) > TRACE_CACHE_CAP:
                _trace_cache.popitem(last=False)
            return cached
    obs.counter("lab.parallel.worker.trace_build")
    trace = trace_workload(workload_spec(workload), input_index, instructions=instructions)
    if _worker_trace_store is not None:
        _worker_trace_store.store(workload, input_index, instructions, trace.trace)
    _trace_cache[key] = trace
    while len(_trace_cache) > TRACE_CACHE_CAP:
        _trace_cache.popitem(last=False)
    return trace


def run_sim_job(job: SimJob, fault: Optional[Any] = None):
    """Worker entry point: rebuild by name, simulate, snapshot metrics.

    Returns ``(job, SimulationResult, WorkerReport)``.  When metrics are
    enabled the worker registry is reset before the job, so the returned
    snapshot is exactly this job's delta (workers execute jobs serially).
    ``fault`` is a parent-side :class:`repro.resilience.InjectedFault`
    decision (crash/raise/delay) applied before the simulation starts.
    """
    from repro import obs

    t_start = monotonic()
    if _worker_obs_enabled:
        obs.reset()
    if fault is not None:
        from repro.resilience.faults import apply_worker_fault

        apply_worker_fault(fault)
    trace = _worker_trace(job.workload, job.input_index, job.instructions)
    result = _simulate_job(job, trace.trace)
    metrics = obs.registry().snapshot_for_merge() if _worker_obs_enabled else None
    return job, result, WorkerReport(
        t_start=t_start, t_end=monotonic(), metrics=metrics, pid=os.getpid()
    )


def run_job_inline(job: SimJob, trace_store_dir: Optional[str] = None):
    """Serial-fallback execution of one job in the *calling* process.

    Used when the worker pool has failed past its retry budget.  Unlike
    :func:`run_sim_job` it never touches the worker-process globals or
    resets the metrics registry (which in the parent would wipe the run's
    collected metrics).  Traces read through the shared on-disk store
    when one is configured; simulation is deterministic, so the result is
    bit-identical to what a healthy worker would have produced.
    """
    from repro.experiments.lab import workload_spec
    from repro.workloads import trace_workload

    trace_cols = None
    store = None
    if trace_store_dir is not None:
        from repro.workloads.trace_store import TraceStore

        store = TraceStore(trace_store_dir)
        trace_cols = store.load(job.workload, job.input_index, job.instructions)
    if trace_cols is None:
        generated = trace_workload(
            workload_spec(job.workload), job.input_index, instructions=job.instructions
        )
        trace_cols = generated.trace
        if store is not None:
            store.store(job.workload, job.input_index, job.instructions, trace_cols)
    return _simulate_job(job, trace_cols)


def _simulate_job(job: Union[SimJob, BatchSimJob], trace: Any) -> Any:
    """Simulate ``job`` over its trace: one result for a :class:`SimJob`, a
    list of them (in predictor order) for a :class:`BatchSimJob`."""
    from repro.experiments.lab import PREDICTOR_FACTORIES
    from repro.pipeline.simulator import simulate_trace_batch

    names = job.predictors if isinstance(job, BatchSimJob) else (job.predictor,)
    results = simulate_trace_batch(
        trace,
        [PREDICTOR_FACTORIES[name]() for name in names],
        slice_instructions=job.slice_instructions,
    )
    return results if isinstance(job, BatchSimJob) else results[0]
