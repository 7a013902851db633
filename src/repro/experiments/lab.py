"""The measurement lab: shared trace generation and cached simulation.

Every table/figure driver pulls its data through a :class:`Lab`, which
memoizes (and optionally disk-caches) the expensive steps — executing
synthetic workloads and driving predictors over their traces — so that
experiments sharing a (workload, input, predictor) combination pay for it
once.  Results are keyed by workload name, input index, trace length, and
predictor label; bump :data:`CACHE_VERSION` after changing anything that
affects simulation outcomes.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import re
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro import obs
from repro.obs import introspect
from repro.core.types import WorkloadTrace
from repro.experiments.config import (
    SLICE_INSTRUCTIONS,
    ExperimentTier,
    active_tier,
)
from repro.parallel.jobs import BatchSimJob, SimJob
from repro.parallel.scheduler import ParallelScheduler, resolve_jobs
from repro.pipeline.simulator import (
    SimulationResult,
    simulate_trace,  # noqa: F401  (a lab-module name that profiling shims wrap)
    simulate_trace_batch,
)
from repro.predictors.base import BranchPredictor
from repro.predictors.gehl import OGehl
from repro.predictors.perceptron import PathPerceptron, Perceptron
from repro.predictors.simple import Bimodal, GShare, TwoLevelLocal
from repro.predictors.tagescl import STORAGE_PRESETS_KIB, make_tage_sc_l
from repro.resilience import faults
from repro.resilience.quarantine import quarantine_file
from repro.phases import cluster_phases, prepare_bbvs
from repro.workloads import (
    WORKLOADS_BY_NAME,
    WorkloadSpec,
    execute_workload,
    trace_workload,
)
from repro.workloads.helper_study import HELPER_STUDY_WORKLOAD
from repro.workloads.trace_store import TraceStore

#: A prefetch request: a full :class:`SimJob`, a multi-config
#: :class:`BatchSimJob`, or a (workload, input_index, predictor[,
#: instructions[, slice_instructions]]) tuple.
SimRequest = Union[SimJob, BatchSimJob, Tuple]

#: Bump to invalidate on-disk caches after behavioural changes.
#: (v4: payloads are now self-describing ``{"cache_version", "result"}``
#: dicts so stale/corrupt files are detected instead of silently trusted.
#: v5: injective cache filenames — the old ``replace("/", "_")`` scheme
#: aliased distinct keys like ``a/b`` and ``a_b`` onto one file; names now
#: carry a digest of the raw key.)
CACHE_VERSION = 5


def _slug(part: str) -> str:
    """Filesystem-safe (but non-injective) rendering of one key part."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", part)

_log = obs.get_logger("lab")


def _env_cap(name: str, default: int) -> int:
    """Positive cache bound from the environment (<= 0 disables the bound)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


#: Default in-memory cache bounds.  Generous — a full quick-tier run of
#: every experiment fits — but finite, so a long-lived service process
#: does not grow without limit.  Override with the environment variables
#: of the same names; values <= 0 disable the bound entirely.
DEFAULT_TRACE_CACHE_CAP = 64      # REPRO_LAB_TRACE_CACHE (traces are large)
DEFAULT_SIM_CACHE_CAP = 4096      # REPRO_LAB_SIM_CACHE

_V = TypeVar("_V")


class _LruCache(Dict[Tuple, _V]):
    """An insertion/access-ordered bounded dict (LRU-evicting).

    Lookups through :meth:`get` refresh recency; inserting past ``cap``
    evicts the least recently used entry and counts it under
    ``lab.mem.evicted`` (plus a per-kind child counter).  A ``cap <= 0``
    means unbounded.  Not itself locked — the owning :class:`Lab`
    serializes access.
    """

    def __init__(self, cap: int, kind: str) -> None:
        super().__init__()
        self.cap = cap
        self.kind = kind
        self._order: "OrderedDict[Tuple, None]" = OrderedDict()

    def get(self, key: Tuple, default: Optional[_V] = None) -> Optional[_V]:
        value = super().get(key, default)
        if key in self._order:
            self._order.move_to_end(key)
        return value

    def __setitem__(self, key: Tuple, value: _V) -> None:
        super().__setitem__(key, value)
        self._order[key] = None
        self._order.move_to_end(key)
        if self.cap > 0:
            while len(self._order) > self.cap:
                oldest, _ = self._order.popitem(last=False)
                super().__delitem__(oldest)
                obs.counter("lab.mem.evicted")
                obs.counter(f"lab.mem.evicted.{self.kind}")

    def __delitem__(self, key: Tuple) -> None:
        super().__delitem__(key)
        self._order.pop(key, None)

#: Predictor registry: label -> factory.
PREDICTOR_FACTORIES: Dict[str, Callable[[], BranchPredictor]] = {
    f"tage-sc-l-{kib}kb": (lambda kib=kib: make_tage_sc_l(kib))
    for kib in STORAGE_PRESETS_KIB
}
# Kernel-bearing baselines (default configurations), so experiments and
# benchmarks can request them by label like the TAGE-SC-L presets.
PREDICTOR_FACTORIES["bimodal"] = Bimodal
PREDICTOR_FACTORIES["gshare"] = GShare
PREDICTOR_FACTORIES["two-level-local"] = TwoLevelLocal
# The dot-product family (numpy replay kernels), for benchmarks and
# ad-hoc comparisons against the tabular baselines.
PREDICTOR_FACTORIES["perceptron"] = Perceptron
PREDICTOR_FACTORIES["path-perceptron"] = PathPerceptron
PREDICTOR_FACTORIES["o-gehl"] = OGehl


def _check_predictor(label: str) -> None:
    if label not in PREDICTOR_FACTORIES:
        raise KeyError(
            f"unknown predictor {label!r}; register a factory in PREDICTOR_FACTORIES"
        )


class _Kind(NamedTuple):
    """How one kind of cached value is counted and persisted."""

    memory_hit: str  # counter: served from the memory LRU
    disk_hit: str  # counter: served from disk ("" when not counted here)
    disk_store: str  # counter: published to disk ("" when not counted here)
    filename: Optional[str]  # disk-cache filename kind (None: the trace store)
    payload: type  # type of the cached value


#: The cached kinds, keyed by their memory cache's ``kind``.  The trace
#: store counts its own hits and stores (``lab.trace_store.*``); computing
#: a value is counted by its caller (``lab.trace.build``,
#: ``lab.sim.cache_miss``, ``lab.phases.cache_miss``).
_KINDS: Dict[str, _Kind] = {
    "traces": _Kind("lab.trace.cache_hit", "", "", None, WorkloadTrace),
    "sims": _Kind(
        "lab.sim.cache_hit.memory", "lab.sim.cache_hit.disk", "lab.sim.cache_store",
        "sim", SimulationResult,
    ),
    "phases": _Kind(
        "lab.phases.cache_hit.memory", "lab.phases.cache_hit.disk",
        "lab.phases.cache_store", "phases", int,
    ),
}


def workload_spec(name: str) -> WorkloadSpec:
    """Resolve a workload name through the registries (raises KeyError)."""
    if name == HELPER_STUDY_WORKLOAD.name:
        return HELPER_STUDY_WORKLOAD
    try:
        return WORKLOADS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}") from None


class Lab:
    """Caching façade over workload execution and predictor simulation.

    With ``jobs > 1`` (or ``$REPRO_JOBS``), :meth:`prefetch` fans batches
    of simulations out across worker processes; ``jobs == 1`` (the
    default) keeps the exact serial behavior.  Labs sharing a
    ``cache_dir`` — including concurrent processes — coexist safely: disk
    writes are atomic (tempfile + rename) and corrupt or stale entries
    are ignored and recomputed.  A run killed part-way loses nothing it
    published: rerunning on the same ``cache_dir`` plans every finished
    simulation away and computes only the rest.

    One Lab is also safe to share across *threads* (the ``repro.service``
    daemon keeps a single long-lived instance warm): the in-memory caches
    are lock-guarded and every expensive computation runs under a per-key
    single-flight, so concurrent requests for the same key compute it
    exactly once (the rest wait, counted by ``lab.singleflight.wait``).
    The caches are LRU-bounded (``REPRO_LAB_TRACE_CACHE`` /
    ``REPRO_LAB_SIM_CACHE``; evictions count under ``lab.mem.evicted``) so
    a long-lived process does not grow without limit.  Every cached value
    — trace, simulation, phase count, prefetched job result — goes through
    one path, :meth:`_cached`.
    """

    def __init__(
        self,
        tier: Optional[ExperimentTier] = None,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.tier = tier or active_tier()
        env_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir is None and env_dir:
            cache_dir = env_dir
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Generated traces share the cache directory with simulation
        # results; the store's filenames are content-addressed, so the two
        # kinds of entry coexist.
        self.trace_store = TraceStore(self.cache_dir) if self.cache_dir else None
        self.jobs = resolve_jobs(jobs)
        self._scheduler: Optional[ParallelScheduler] = None
        # In-memory caches: LRU-bounded (a long-lived daemon must not grow
        # without limit) and guarded by one reentrant lock.  Expensive work
        # happens outside the lock under a per-key single-flight, so two
        # concurrent requests for the same key compute it exactly once.
        self._lock = threading.RLock()
        self._inflight: Dict[Tuple, threading.Event] = {}
        self._traces: _LruCache[WorkloadTrace] = _LruCache(
            _env_cap("REPRO_LAB_TRACE_CACHE", DEFAULT_TRACE_CACHE_CAP), "traces"
        )
        self._sims: _LruCache[SimulationResult] = _LruCache(
            _env_cap("REPRO_LAB_SIM_CACHE", DEFAULT_SIM_CACHE_CAP), "sims"
        )
        self._phase_counts: _LruCache[int] = _LruCache(
            _env_cap("REPRO_LAB_SIM_CACHE", DEFAULT_SIM_CACHE_CAP), "phases"
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool, if open (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    def __enter__(self) -> "Lab":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the cached-compute path -------------------------------------------

    def _join_flight(self, flight_key: Tuple) -> Optional[threading.Event]:
        """Become the leader for ``flight_key`` (returns ``None``) or get
        the current leader's completion event to wait on.

        Callers must hold :attr:`_lock`.  The leader computes the value,
        publishes it to the cache, and calls :meth:`_leave_flight`;
        followers wait, then re-check the cache (looping, since a failed
        leader publishes nothing and a follower takes over)."""
        event = self._inflight.get(flight_key)
        if event is None:
            self._inflight[flight_key] = threading.Event()
            return None
        return event

    def _leave_flight(self, flight_key: Tuple) -> None:
        """Release leadership of ``flight_key`` and wake every follower."""
        with self._lock:
            event = self._inflight.pop(flight_key, None)
        if event is not None:
            event.set()

    def _cached(
        self,
        cache: "_LruCache",
        keys: Sequence[Tuple],
        compute: Optional[Callable[[List[Tuple]], List]],
    ) -> Dict[Tuple, Any]:
        """Resolve ``keys`` through memory, single-flight, disk and compute.

        Each key is served from ``cache`` (the memory LRU) or else led by
        this call: loaded from disk, or — when that misses too — computed
        by ``compute``, which gets the led misses (in order) and returns
        their values.  Computed values land in memory and on disk.  Keys
        another caller is resolving are deferred: this call first finishes
        and releases every flight it leads, then waits on the deferred
        keys and loops, taking over any key whose leader failed (a failure
        publishes nothing, so errors are never cached).  With ``compute``
        ``None`` this only looks up; misses are absent from the result.
        """
        spec = _KINDS[cache.kind]
        found: Dict[Tuple, Any] = {}
        pending = list(dict.fromkeys(keys))
        while pending:
            led: List[Tuple] = []
            waits: List[Tuple[Tuple, threading.Event]] = []
            with self._lock:
                for key in pending:
                    value = cache.get(key)
                    if value is not None:
                        obs.counter(spec.memory_hit)
                        found[key] = value
                        continue
                    event = self._join_flight((cache.kind, *key))
                    if event is None:
                        led.append(key)
                    else:
                        waits.append((key, event))
            try:
                missing = []
                for key in led:
                    value = self._disk_get(cache.kind, key)
                    if value is None:
                        missing.append(key)
                        continue
                    if spec.disk_hit:
                        obs.counter(spec.disk_hit)
                    with self._lock:
                        cache[key] = value
                    found[key] = value
                if missing and compute is not None:
                    for key, value in zip(missing, compute(missing)):
                        with self._lock:
                            cache[key] = value
                        found[key] = value
                        self._disk_put(cache.kind, key, value)
            finally:
                for key in led:
                    self._leave_flight((cache.kind, *key))
            for _, event in waits:
                obs.counter("lab.singleflight.wait")
                event.wait()
            pending = [key for key, _ in waits]
        return found

    # -- trace access ------------------------------------------------------

    def instructions_for(self, name: str) -> int:
        """Trace length for a workload under the active tier."""
        spec = workload_spec(name)
        if spec.category == "specint":
            return self.tier.spec_instructions
        if spec.category == "lcf":
            return self.tier.lcf_instructions
        return spec.default_instructions

    def inputs_for(self, name: str) -> List[int]:
        """Input indices to use under the active tier."""
        spec = workload_spec(name)
        if spec.category == "specint":
            return list(range(min(self.tier.spec_inputs, spec.num_inputs)))
        return list(range(spec.num_inputs))

    def trace(
        self, name: str, input_index: int, instructions: Optional[int] = None
    ) -> WorkloadTrace:
        n = instructions if instructions is not None else self.instructions_for(name)
        key = (name, input_index, n)

        def generate(_missing: List[Tuple]) -> List[WorkloadTrace]:
            obs.counter("lab.trace.build")
            _log.info("generating trace %s/input%d (%d instructions)", name, input_index, n)
            with obs.timer("lab.trace.generate", extra=(f"lab.trace.generate.{name}",)):
                return [trace_workload(workload_spec(name), input_index, instructions=n)]

        return self._cached(self._traces, [key], generate)[key]

    # -- simulation --------------------------------------------------------

    def simulate(
        self,
        name: str,
        input_index: int,
        predictor: str = "tage-sc-l-8kb",
        instructions: Optional[int] = None,
        slice_instructions: int = SLICE_INSTRUCTIONS,
    ) -> SimulationResult:
        """Simulate one predictor over one workload input, cached."""
        return self.simulate_batch(
            name, input_index, [predictor], instructions, slice_instructions
        )[0]

    def simulate_batch(
        self,
        name: str,
        input_index: int,
        predictors: Sequence[str],
        instructions: Optional[int] = None,
        slice_instructions: int = SLICE_INSTRUCTIONS,
    ) -> List[SimulationResult]:
        """Simulate several predictors over one workload input, cached.

        Cache misses are replayed together by
        :func:`~repro.pipeline.simulator.simulate_trace_batch`, which
        shares the trace pass (and, for the TAGE-SC-L family, the folded
        history index streams) across configurations.  Every result is
        cached under its own per-predictor key, so any later request for
        that predictor is a hit.  Results come back in ``predictors``
        order, bit-identical to separate batches of one.
        """
        for predictor in predictors:
            _check_predictor(predictor)
        n = instructions if instructions is not None else self.instructions_for(name)
        keys = [(name, input_index, n, p, slice_instructions) for p in predictors]

        def replay(missing: List[Tuple]) -> List[SimulationResult]:
            labels = [key[3] for key in missing]
            obs.counter("lab.sim.cache_miss", len(missing))
            _log.info(
                "simulating %s/input%d with %s (%d instructions)",
                name, input_index, ", ".join(labels), n,
            )
            with obs.span(
                "lab.simulate", workload=name, input=input_index,
                predictor=",".join(labels),
            ):
                trace = self.trace(name, input_index, n)
                if introspect.is_enabled():
                    # Label the simulation's introspection report; cache hits
                    # never reach this point, so reports only exist for
                    # actually-simulated (workload, input) pairs.
                    introspect.set_context(workload=name, input_name=input_index)
                return simulate_trace_batch(
                    trace.trace,
                    [PREDICTOR_FACTORIES[label]() for label in labels],
                    slice_instructions=slice_instructions,
                )

        found = self._cached(self._sims, keys, replay)
        return [found[key] for key in keys]

    # -- phase analysis ----------------------------------------------------

    def phase_count(
        self,
        name: str,
        input_index: int,
        instructions: Optional[int] = None,
        bbv_interval: int = SLICE_INSTRUCTIONS,
    ) -> int:
        """Number of execution phases (SimPoint-style BBV clustering).

        Deterministic in ``(workload, input, instructions, bbv_interval)``,
        so the result is cached in memory and — with a ``cache_dir`` — on
        disk, sparing the warm path a full interpreter execution (Table I's
        phases column is otherwise its only remaining execution).
        """
        n = instructions if instructions is not None else self.instructions_for(name)
        key = (name, input_index, n, bbv_interval)

        def cluster(_missing: List[Tuple]) -> List[int]:
            obs.counter("lab.phases.cache_miss")
            _log.info(
                "clustering phases for %s/input%d (%d instructions)",
                name, input_index, n,
            )
            result = execute_workload(
                workload_spec(name), input_index, instructions=n,
                bbv_interval=bbv_interval,
            )
            if result.bbvs is None or len(result.bbvs) < 2:
                return [1]
            vectors = prepare_bbvs(result.bbvs)
            return [cluster_phases(vectors, max_k=min(10, len(vectors))).num_phases]

        return self._cached(self._phase_counts, [key], cluster)[key]

    # -- parallel fan-out --------------------------------------------------

    def prefetch(self, requests: Iterable[SimRequest]) -> int:
        """Plan a batch of simulations and fan the misses out over workers.

        ``requests`` are :class:`SimJob`s or (workload, input_index,
        predictor[, instructions[, slice_instructions]]) tuples; omitted
        sizes default per the active tier, exactly like :meth:`simulate`.
        Duplicate requests and requests already satisfied by the in-memory
        or disk cache are planned away; the rest run on the process pool
        and land in both caches, so the subsequent serial
        :meth:`simulate` calls are cache hits.  Returns the number of jobs
        dispatched.

        With ``jobs == 1`` this returns immediately (exact serial
        behavior, metric-for-metric).  Worker failures are logged and
        dropped; the serial path recomputes those keys synchronously.
        """
        if self.jobs <= 1:
            return 0
        requested = 0
        batch: List[Union[SimJob, BatchSimJob]] = []
        seen = set()
        for request in requests:
            requested += 1
            job = self._normalize_request(request)
            if job.key() in seen:
                continue
            seen.add(job.key())
            batch.append(job)
        obs.counter("lab.parallel.jobs.requested", requested)
        todo: List[Union[SimJob, BatchSimJob]] = []
        planned = 0
        for job in batch:
            keys = job.sim_keys()
            found = self._cached(self._sims, keys, None)
            if all(key in found for key in keys):
                planned += 1
                continue
            if found and isinstance(job, BatchSimJob):
                # Narrow a partially cached batch to its missing predictors,
                # so workers never redo cached configurations.
                job = BatchSimJob(
                    job.workload, job.input_index, job.instructions,
                    tuple(key[3] for key in keys if key not in found),
                    job.slice_instructions,
                )
            todo.append(job)
        obs.counter("lab.parallel.jobs.cache_planned", planned)
        if not todo:
            return 0
        _log.info(
            "prefetch: %d requests -> %d jobs (%d cache-planned) on %d workers",
            requested, len(todo), planned, self.jobs,
        )
        if self._scheduler is None:
            self._scheduler = ParallelScheduler(
                self.jobs,
                trace_store_dir=str(self.cache_dir) if self.cache_dir else None,
            )
        with obs.span("lab.prefetch", jobs=len(todo), workers=self.jobs):
            self._scheduler.run(todo, self._store_job_result)
        return len(todo)

    def _store_job_result(self, job: Union[SimJob, BatchSimJob], result) -> None:
        """Publish a worker's result(s) as if computed here."""
        keys = job.sim_keys()
        values = dict(zip(keys, result if isinstance(job, BatchSimJob) else [result]))
        self._cached(self._sims, keys, lambda missing: [values[key] for key in missing])

    def _normalize_request(self, request: SimRequest) -> Union[SimJob, BatchSimJob]:
        """Fill tier defaults and validate names (KeyError like simulate)."""
        if isinstance(request, BatchSimJob):
            for predictor in request.predictors:
                _check_predictor(predictor)
            workload_spec(request.workload)
            return request
        if isinstance(request, SimJob):
            name, input_index, n, predictor, slice_n = request.key()
        else:
            name, input_index, predictor = request[:3]
            n = request[3] if len(request) > 3 else None
            slice_n = request[4] if len(request) > 4 else SLICE_INSTRUCTIONS
        _check_predictor(predictor)
        workload_spec(name)  # raises for unknown workloads
        if n is None:
            n = self.instructions_for(name)
        return SimJob(name, input_index, n, predictor, slice_n)

    # -- disk --------------------------------------------------------------

    def _disk_get(self, kind: str, key: Tuple) -> Any:
        """``key``'s persisted value, or ``None`` when absent or invalid."""
        spec = _KINDS[kind]
        if spec.filename is None:
            return self._load_trace(*key)
        disk = self._disk_path(key, spec.filename)
        if disk is None or not disk.exists():
            return None
        value = self._load_disk(disk, want=spec.payload)
        if value is not None:
            _log.debug("disk cache hit: %s", disk)
        return value

    def _disk_put(self, kind: str, key: Tuple, value) -> None:
        """Persist one computed value (the trace store holds traces)."""
        spec = _KINDS[kind]
        if spec.filename is None:
            if self.trace_store is not None:
                self.trace_store.store(*key, value.trace)
            return
        disk = self._disk_path(key, spec.filename)
        if disk is not None and self._store_disk(disk, value):
            obs.counter(spec.disk_store)

    def _load_trace(self, name: str, input_index: int, n: int) -> Optional[WorkloadTrace]:
        """A trace from the trace store, or ``None`` on a miss."""
        if self.trace_store is None:
            return None
        stored = self.trace_store.load(name, input_index, n)
        if stored is None:
            return None
        _log.info(
            "loaded trace %s/input%d (%d instructions) from trace store",
            name, input_index, n,
        )
        spec = workload_spec(name)
        # The program is rebuilt (cheap, no execution) so consumers of
        # ``metadata["program"]`` — e.g. the CNN study's static analysis —
        # work identically on store hits.
        return WorkloadTrace(
            benchmark=spec.name,
            input_name=spec.input_name(input_index),
            trace=stored,
            metadata={
                "program": spec.build(input_index),
                "instructions": n,
                "from_trace_store": True,
            },
        )

    def _store_disk(self, disk: Path, result: object) -> bool:
        """Atomically publish one cache entry; True on durable success.

        The payload is written to a unique sibling tempfile and renamed
        into place, so concurrent readers never observe a partial pickle
        and concurrent writers of the same (deterministic) entry simply
        race to an identical file.  I/O failures only cost the cache
        entry, never the run.
        """
        try:
            faults.check_enospc("cache.enospc")
            fd, tmp_name = tempfile.mkstemp(
                dir=str(disk.parent), prefix=disk.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(
                        {"cache_version": CACHE_VERSION, "result": result}, f
                    )
                os.replace(tmp_name, disk)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        except OSError as exc:
            obs.counter("lab.cache.store_failed")
            _log.warning("could not write disk cache %s: %s", disk, exc)
            return False
        faults.corrupt_file("cache.corrupt", disk)
        return True

    def _load_disk(self, disk: Path, want: type = SimulationResult):
        """Load one disk-cache entry holding a ``want`` instance, or
        ``None`` (with a warning) if it is corrupt or from an incompatible
        :data:`CACHE_VERSION`.  Bad entries are *quarantined* — moved to
        ``quarantine/`` under the cache directory — so they are recomputed
        once instead of re-read and re-warned on every load."""
        try:
            with open(disk, "rb") as f:
                payload = pickle.load(f)
        except Exception as exc:
            # Fail-soft by design: a corrupt/truncated entry (e.g. a torn
            # write from a killed worker) must cost a recompute, never the
            # run.  The dedicated counter separates I/O-level failures from
            # well-formed-but-stale payloads (both also count as invalid).
            obs.counter("lab.cache.load_error")
            reason = f"unreadable ({type(exc).__name__}: {exc})"
        else:
            if (
                isinstance(payload, dict)
                and payload.get("cache_version") == CACHE_VERSION
                and isinstance(payload.get("result"), want)
            ):
                return payload["result"]
            found = payload.get("cache_version") if isinstance(payload, dict) else None
            reason = (
                f"stale cache version {found!r} (want {CACHE_VERSION})"
                if found is not None
                else "unrecognized payload format"
            )
        obs.counter("lab.cache.invalid")
        _log.warning("ignoring invalid disk cache %s: %s; recomputing", disk, reason)
        if self.cache_dir is not None:
            quarantine_file(disk, self.cache_dir, reason)
        return None

    def _cache_filename(self, kind: str, key: Tuple) -> str:
        """Injective cache filename for ``key``: a human-readable slug plus
        a digest of the raw key.  (The pre-v5 ``replace("/", "_")`` scheme
        aliased distinct keys — e.g. ``a/b`` and ``a_b`` — onto one file,
        silently serving one key's payload for the other.)"""
        raw = "\x1f".join(str(part) for part in (kind, *key))
        digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]
        human = "_".join(_slug(str(part)) for part in (kind, *key))
        return f"v{CACHE_VERSION}_{human}_{digest}.pkl"

    def _disk_path(self, key: Tuple, kind: str = "sim") -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / self._cache_filename(kind, key)


_DEFAULT_LAB: Optional[Lab] = None


def default_lab() -> Lab:
    """Process-wide shared lab (so tests/benchmarks reuse simulations)."""
    global _DEFAULT_LAB
    if _DEFAULT_LAB is None:
        _DEFAULT_LAB = Lab()
    return _DEFAULT_LAB
