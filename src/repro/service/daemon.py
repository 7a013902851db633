"""The Lab daemon: asyncio JSON-over-socket server around one warm Lab.

Wire protocol (newline-delimited JSON over TCP; see ``docs/service.md``):

    -> {"id": 7, "method": "simulate", "params": {"workload": "game", ...}}
    <- {"id": 7, "ok": true, "result": {...}}
    <- {"id": 8, "ok": false, "error": {"code": 503, "message": "..."}}

Requests on one connection may be pipelined; responses carry the request
``id`` and may arrive out of order.  The daemon owns exactly one
:class:`~repro.experiments.lab.Lab`, so every client shares its memory
caches, trace store, kernel-plan memo, and worker pool.

Concurrency model — a single dispatcher task pulls admitted requests off
a bounded queue, coalesces one *dispatch window* worth of them, groups
``simulate`` requests that share a trace into
:meth:`~repro.experiments.lab.Lab.simulate_batch` calls, and runs the
groups on a small thread pool.  While a batch computes, new requests
accumulate in the queue, so bursts batch naturally even with a zero
window.  Identical requests already in flight are joined
(``service.singleflight``) rather than re-enqueued; requests beyond the
queue bound are shed with a 503 (``service.shed``).  SIGTERM/SIGINT (or
the ``shutdown`` method) drains: stop accepting, finish the queue, flush
responses, close the Lab.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.h2p import screen_workload
from repro.config import SLICE_INSTRUCTIONS
from repro.experiments.lab import PREDICTOR_FACTORIES, Lab, workload_spec
from repro.service import (
    BAD_REQUEST,
    INTERNAL_ERROR,
    NOT_FOUND,
    PROTOCOL_VERSION,
    SHED,
    ServiceError,
    simulation_digest,
)
from repro.service.protocol import MAX_LINE_BYTES, dump_line, parse_line


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


@dataclass
class ServiceConfig:
    """Daemon knobs; every default is overridable via ``REPRO_SERVICE_*``."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in Lab Service.address
    jobs: Optional[int] = None  # Lab worker processes (None = REPRO_JOBS)
    cache_dir: Optional[str] = None  # Lab disk cache (None = REPRO_CACHE_DIR)
    #: Admission bound: requests beyond this many queued are shed (503).
    queue_limit: int = field(
        default_factory=lambda: _env_int("REPRO_SERVICE_QUEUE", 64)
    )
    #: Seconds the dispatcher lingers collecting a batch after the first
    #: request.  Natural batching (requests piling up while a batch
    #: computes) usually dominates; the window just smooths cold bursts.
    batch_window: float = field(
        default_factory=lambda: _env_float("REPRO_SERVICE_WINDOW", 0.002)
    )
    #: Hard cap on requests dispatched per cycle.
    max_batch: int = field(
        default_factory=lambda: _env_int("REPRO_SERVICE_BATCH", 64)
    )
    #: Compute thread-pool width.  Threads matter for overlap (the Lab's
    #: per-key single-flight lets distinct keys progress independently),
    #: not parallel speedup — the work is GIL-bound.
    threads: int = field(
        default_factory=lambda: _env_int("REPRO_SERVICE_THREADS", 4)
    )


#: Dispatcher-queue sentinel: drain is complete once the dispatcher sees it.
_STOP = object()


@dataclass
class _Work:
    """One admitted request: resolved params plus the future fans-in wait on."""

    key: Tuple
    method: str
    params: Dict[str, Any]
    future: "asyncio.Future[Any]"


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Consume an over-limit request line through its newline (or EOF),
    holding at most one stream limit of it in memory."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


class LabService:
    """One Lab served over a socket.  See the module docstring."""

    def __init__(
        self, config: Optional[ServiceConfig] = None, lab: Optional[Lab] = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.lab = lab or Lab(jobs=self.config.jobs, cache_dir=self.config.cache_dir)
        self._owns_lab = lab is None
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.threads),
            thread_name_prefix="repro-service",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue(
            maxsize=max(1, self.config.queue_limit)
        )
        #: request key -> future; the single-flight fan-in table.
        self._inflight: Dict[Tuple, "asyncio.Future[Any]"] = {}
        self._tasks: "set[asyncio.Task]" = set()
        self._dispatcher: Optional[asyncio.Task] = None
        self._draining = False
        self._stopped = asyncio.Event()
        self.address: Tuple[str, int] = (self.config.host, self.config.port)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        for sig in (signal.SIGTERM, signal.SIGINT):
            # Unavailable off the main thread (tests run the daemon in a
            # background thread) — the shutdown method still drains there.
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                self._loop.add_signal_handler(sig, self._begin_drain)

    async def wait_closed(self) -> None:
        """Block until a drain (signal or ``shutdown`` method) completes."""
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (used by in-process harnesses); a no-op
        once the service has stopped, when its loop may be closed."""
        if self._loop is not None and not self._stopped.is_set():
            # A drain may still finish and close the loop after the check.
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._begin_drain)

    def _begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        obs.counter("service.drain")
        task = asyncio.get_running_loop().create_task(self._drain())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _drain(self) -> None:
        # 1. Stop accepting connections; queued work keeps its place.
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # 2. Let the dispatcher finish everything already admitted, then
        #    exit when it reaches the sentinel at the tail of the queue.
        await self._queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
        # 3. Flush outstanding response writes.
        pending = [t for t in self._tasks if t is not asyncio.current_task()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # 4. Release compute resources (worker pool included).
        self._executor.shutdown(wait=True)
        if self._owns_lab:
            self.lab.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: an unterminated last line, or b""
                    if not line:
                        break
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    too_large = ServiceError(BAD_REQUEST, "request line too large")
                    await self._send_error(writer, write_lock, None, too_large)
                    continue
                if not line.strip():
                    continue
                await self._handle_line(line, writer, write_lock)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-read; nothing to answer
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        rid: Any = None
        try:
            rid, method, params = parse_line(line)
            obs.counter("service.request")
            obs.counter(f"service.request.{method}")
            if method == "ping":
                await self._send_ok(writer, write_lock, rid, self._ping())
                return
            if method == "metrics":
                await self._send_ok(writer, write_lock, rid, self._metrics())
                return
            if method == "shutdown":
                await self._send_ok(writer, write_lock, rid, {"draining": True})
                self._begin_drain()
                return
            if method not in _NORMALIZERS:
                raise ServiceError(NOT_FOUND, f"unknown method {method!r}")
            normalized = _NORMALIZERS[method](self, params)
        except ServiceError as exc:
            await self._send_error(writer, write_lock, rid, exc)
            return

        key = (method,) + tuple(sorted(normalized.items()))
        future = self._inflight.get(key)
        if future is None:
            if self._draining:
                obs.counter("service.shed")
                await self._send_error(
                    writer, write_lock, rid, ServiceError(SHED, "draining")
                )
                return
            future = asyncio.get_running_loop().create_future()
            work = _Work(key=key, method=method, params=normalized, future=future)
            try:
                self._queue.put_nowait(work)
            except asyncio.QueueFull:
                obs.counter("service.shed")
                await self._send_error(
                    writer,
                    write_lock,
                    rid,
                    ServiceError(SHED, "queue full; retry later"),
                )
                return
            self._inflight[key] = future
        else:
            obs.counter("service.singleflight")
        task = asyncio.get_running_loop().create_task(
            self._respond_when_done(future, writer, write_lock, rid)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _respond_when_done(
        self,
        future: "asyncio.Future[Any]",
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        rid: Any,
    ) -> None:
        try:
            result = await asyncio.shield(future)
        except ServiceError as exc:
            await self._send_error(writer, write_lock, rid, exc)
            return
        except Exception as exc:  # pragma: no cover - defensive
            await self._send_error(
                writer, write_lock, rid, ServiceError(INTERNAL_ERROR, str(exc))
            )
            return
        await self._send_ok(writer, write_lock, rid, result)

    async def _send_ok(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        rid: Any,
        result: Any,
    ) -> None:
        await self._send(writer, write_lock, {"id": rid, "ok": True, "result": result})

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        rid: Any,
        exc: ServiceError,
    ) -> None:
        obs.counter("service.error")
        await self._send(
            writer,
            write_lock,
            {
                "id": rid,
                "ok": False,
                "error": {"code": exc.code, "message": exc.message},
            },
        )

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, payload: Dict
    ) -> None:
        # A vanished client is not an error; the computed result stays cached.
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            async with write_lock:
                writer.write(dump_line(payload))
                await writer.drain()

    # ------------------------------------------------------------------
    # dispatcher

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _STOP:
                break
            batch: List[_Work] = [first]
            deadline = loop.time() + max(0.0, self.config.batch_window)
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                try:
                    if remaining <= 0:
                        item = self._queue.get_nowait()
                    else:
                        item = await asyncio.wait_for(self._queue.get(), remaining)
                except (asyncio.QueueEmpty, asyncio.TimeoutError):
                    break
                if item is _STOP:
                    stopping = True
                    break
                batch.append(item)
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_Work]) -> None:
        """Group one dispatch cycle and run the groups on the thread pool."""
        obs.counter("service.batch.cycles")
        sim_groups: Dict[Tuple, List[_Work]] = {}
        singles: List[_Work] = []
        for work in batch:
            if work.method == "simulate":
                p = work.params
                group_key = (
                    p["workload"],
                    p["input"],
                    p["instructions"],
                    p["slice_instructions"],
                )
                sim_groups.setdefault(group_key, []).append(work)
            else:
                singles.append(work)

        runs: List = []
        for group in sim_groups.values():
            if len(group) > 1:
                # Requests beyond the first ride the shared trace replay.
                obs.counter("service.batch.coalesced", len(group) - 1)
                runs.append(self._run_group(group))
            else:
                singles.append(group[0])
        runs.extend(self._run_one(work) for work in singles)
        if runs:
            await asyncio.gather(*runs)

    async def _run_group(self, group: List[_Work]) -> None:
        loop = asyncio.get_running_loop()
        p = group[0].params
        predictors = [w.params["predictor"] for w in group]
        try:
            results = await loop.run_in_executor(
                self._executor,
                self._compute_simulate_batch,
                p["workload"],
                p["input"],
                predictors,
                p["instructions"],
                p["slice_instructions"],
            )
        except Exception as exc:
            error = _as_service_error(exc)
            for work in group:
                self._finish(work, error=error)
            return
        for work, result in zip(group, results):
            self._finish(work, result=result)

    async def _run_one(self, work: _Work) -> None:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._executor, _COMPUTE[work.method], self, work.params
            )
        except Exception as exc:
            self._finish(work, error=_as_service_error(exc))
            return
        self._finish(work, result=result)

    def _finish(
        self,
        work: _Work,
        result: Any = None,
        error: Optional[ServiceError] = None,
    ) -> None:
        self._inflight.pop(work.key, None)
        if work.future.done():  # pragma: no cover - defensive
            return
        if error is not None:
            work.future.set_exception(error)
        else:
            work.future.set_result(result)

    # ------------------------------------------------------------------
    # inline methods

    def _ping(self) -> Dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "tier": self.lab.tier.name,
            "pid": os.getpid(),
            "draining": self._draining,
        }

    def _metrics(self) -> Dict[str, Any]:
        reg = obs.registry()
        return {
            "enabled": obs.is_enabled(),
            "counters": reg.counters_dict(),
            "gauges": reg.gauges_dict(),
        }

    # ------------------------------------------------------------------
    # compute methods (run on the thread pool)

    def _compute_simulate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        with obs.timer("service.compute.simulate"):
            result = self.lab.simulate(
                params["workload"],
                params["input"],
                params["predictor"],
                instructions=params["instructions"],
                slice_instructions=params["slice_instructions"],
            )
        return _render_simulation(params, result)

    def _compute_simulate_batch(
        self,
        workload: str,
        input_index: int,
        predictors: Sequence[str],
        instructions: int,
        slice_instructions: int,
    ) -> List[Dict[str, Any]]:
        with obs.timer("service.compute.simulate"):
            results = self.lab.simulate_batch(
                workload,
                input_index,
                predictors,
                instructions=instructions,
                slice_instructions=slice_instructions,
            )
        return [
            _render_simulation(
                {
                    "workload": workload,
                    "input": input_index,
                    "predictor": predictor,
                    "instructions": instructions,
                    "slice_instructions": slice_instructions,
                },
                result,
            )
            for predictor, result in zip(predictors, results)
        ]

    def _compute_h2p(self, params: Dict[str, Any]) -> Dict[str, Any]:
        with obs.timer("service.compute.h2p"):
            result = self.lab.simulate(
                params["workload"],
                params["input"],
                params["predictor"],
                instructions=params["instructions"],
                slice_instructions=params["slice_instructions"],
            )
            spec = workload_spec(params["workload"])
            report = screen_workload(
                params["workload"],
                spec.input_name(params["input"]),
                result.slice_stats,
            )
        return {
            "workload": params["workload"],
            "input": params["input"],
            "predictor": params["predictor"],
            "slices": len(report.slices),
            "h2p_ips": sorted(report.union_h2p_ips),
            "h2ps": len(report.union_h2p_ips),
            "mean_h2ps_per_slice": report.mean_h2ps_per_slice,
            "mean_misprediction_share": report.mean_misprediction_share,
        }

    def _compute_table1_cell(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.experiments.table1 import compute_table1_row

        with obs.timer("service.compute.table1_cell"):
            row = compute_table1_row(
                self.lab, params["benchmark"], with_phases=params["with_phases"]
            )
        return dataclasses.asdict(row)

    def _compute_staticcheck(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.staticcheck.engine import lint_workload
        from repro.workloads.contracts import WORKLOAD_CONTRACTS

        with obs.timer("service.compute.staticcheck"):
            spec = workload_spec(params["workload"])
            footprint, diagnostics = lint_workload(
                spec,
                WORKLOAD_CONTRACTS.get(params["workload"]),
                predictability=params["predictability"],
            )
        rendered = [d.to_dict() for d in diagnostics]
        return {
            "workload": params["workload"],
            "footprint": footprint.as_dict() if footprint is not None else None,
            "diagnostics": rendered,
            "errors": sum(1 for d in rendered if d["severity"] == "error"),
            "warnings": sum(1 for d in rendered if d["severity"] == "warning"),
        }

    # ------------------------------------------------------------------
    # request normalization (runs on the event loop; must stay cheap)

    def _normalize_sim_like(self, params: Dict[str, Any]) -> Dict[str, Any]:
        allowed = {
            "workload", "input", "predictor", "instructions", "slice_instructions",
        }
        _reject_unknown(params, allowed)
        workload = _require_str(params, "workload")
        try:
            workload_spec(workload)
        except KeyError:
            raise ServiceError(NOT_FOUND, f"unknown workload {workload!r}") from None
        predictor = params.get("predictor", "tage-sc-l-8kb")
        if predictor not in PREDICTOR_FACTORIES:
            raise ServiceError(NOT_FOUND, f"unknown predictor {predictor!r}")
        input_index = _require_int(params, "input", default=0, minimum=0)
        # Defaults resolve *here* so an explicit request for the tier's
        # default length dedupes against the implicit one.
        instructions = _require_int(
            params,
            "instructions",
            default=self.lab.instructions_for(workload),
            minimum=1,
        )
        slice_instructions = _require_int(
            params, "slice_instructions", default=SLICE_INSTRUCTIONS, minimum=1
        )
        return {
            "workload": workload,
            "input": input_index,
            "predictor": predictor,
            "instructions": instructions,
            "slice_instructions": slice_instructions,
        }

    def _normalize_table1_cell(self, params: Dict[str, Any]) -> Dict[str, Any]:
        _reject_unknown(params, {"benchmark", "with_phases"})
        benchmark = _require_str(params, "benchmark")
        try:
            workload_spec(benchmark)
        except KeyError:
            raise ServiceError(NOT_FOUND, f"unknown benchmark {benchmark!r}") from None
        return {
            "benchmark": benchmark,
            "with_phases": _require_bool(params, "with_phases", default=True),
        }

    def _normalize_staticcheck(self, params: Dict[str, Any]) -> Dict[str, Any]:
        _reject_unknown(params, {"workload", "predictability"})
        workload = _require_str(params, "workload")
        try:
            workload_spec(workload)
        except KeyError:
            raise ServiceError(NOT_FOUND, f"unknown workload {workload!r}") from None
        return {
            "workload": workload,
            "predictability": _require_bool(params, "predictability", default=False),
        }


def _render_simulation(params: Dict[str, Any], result) -> Dict[str, Any]:
    return {
        "workload": params["workload"],
        "input": params["input"],
        "predictor": result.predictor_name,
        "instructions": result.instr_count,
        "accuracy": result.accuracy,
        "mpki": result.mpki,
        "static_branches": len(result.stats),
        "slices": len(result.slice_stats),
        "digest": simulation_digest(result),
    }


def _as_service_error(exc: Exception) -> ServiceError:
    if isinstance(exc, ServiceError):
        return exc
    return ServiceError(INTERNAL_ERROR, f"{type(exc).__name__}: {exc}")


def _reject_unknown(params: Dict[str, Any], allowed: "set[str]") -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ServiceError(BAD_REQUEST, f"unknown params {sorted(unknown)}")


def _require_str(params: Dict[str, Any], name: str) -> str:
    value = params.get(name)
    if not isinstance(value, str) or not value:
        raise ServiceError(BAD_REQUEST, f"param {name!r} must be a non-empty string")
    return value


def _require_int(
    params: Dict[str, Any], name: str, default: int, minimum: int
) -> int:
    value = params.get(name, default)
    if value is None:
        value = default
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ServiceError(
            BAD_REQUEST, f"param {name!r} must be an integer >= {minimum}"
        )
    return value


def _require_bool(params: Dict[str, Any], name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ServiceError(BAD_REQUEST, f"param {name!r} must be a boolean")
    return value


#: method -> normalizer (event loop) and compute (thread pool) tables.
_NORMALIZERS = {
    "simulate": LabService._normalize_sim_like,
    "h2p": LabService._normalize_sim_like,
    "table1_cell": LabService._normalize_table1_cell,
    "staticcheck": LabService._normalize_staticcheck,
}

_COMPUTE = {
    "simulate": LabService._compute_simulate,
    "h2p": LabService._compute_h2p,
    "table1_cell": LabService._compute_table1_cell,
    "staticcheck": LabService._compute_staticcheck,
}


class ServiceThread:
    """Run a :class:`LabService` on a background thread with its own loop.

    In-process harness for tests and the load harness's default mode: the
    daemon shares the process's obs registry, so assertions can read
    ``service.*`` counters directly.  ``stop()`` drains exactly like
    SIGTERM would.
    """

    def __init__(
        self, config: Optional[ServiceConfig] = None, lab: Optional[Lab] = None
    ) -> None:
        self._config = config or ServiceConfig()
        self._lab = lab
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.service: Optional[LabService] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.service = LabService(self._config, lab=self._lab)
        await self.service.start()
        self.address = self.service.address
        self._ready.set()
        await self.service.wait_closed()

    def stop(self, timeout: float = 30.0) -> None:
        if self.service is not None:
            self.service.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
