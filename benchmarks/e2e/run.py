#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction's user entry points.

Run from the repository root:

    python3 benchmarks/e2e/run.py --workload table1-warm --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --repeat 3 --out benchmarks/e2e/results/a.json
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/results/a.json \\
        benchmarks/e2e/results/b.json

Every program under test runs as a child process through the real entry
points, ``python -m repro <experiment> --cache-dir D --jobs 1`` and
``python -m repro.service --port 0 --cache-dir D``, at ``REPRO_TIER=quick``
with every other ``REPRO_*`` variable removed and a fresh cache directory
under ``benchmarks/e2e/.work``.  The service load speaks the newline-JSON
wire protocol itself.  ``--trace 1`` adds a traced run through ``traced.py``
and reports per-layer metrics instead of end-to-end ones.

Each run prints its metrics by name with their unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output check
fails.  README.md next to this file lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TRACED = HERE / "traced.py"
WORK = HERE / ".work"
TIER = "quick"
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics: (name, unit, better, bound).  Every workload reports
#: each one from an untraced run; ``bound`` is the worsening of the median,
#: as a share, that counts as a regression.
E2E_METRICS: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: Per-layer metrics from the traced run: (name, unit, better).  Times are
#: self times (span minus children) unless the README says otherwise.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("startup.import_s", "s", "lower"),
    ("isa.trace_s", "s", "lower"),
    ("isa.execute_s", "s", "lower"),
    ("isa.instructions", "count", "lower"),
    ("trace_store.store_s", "s", "lower"),
    ("trace_store.load_s", "s", "lower"),
    ("trace_store.hit_ratio", "fraction", "higher"),
    ("kernels.replay_s", "s", "lower"),
    ("kernels.replay_configs", "count", "lower"),
    ("kernels.replay_branches_per_s", "1/s", "higher"),
    ("kernels.score_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("phases.cluster_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("lab.self_s", "s", "lower"),
    ("lab.disk_s", "s", "lower"),
    ("lab.sim_hit_ratio", "fraction", "higher"),
    ("lab.evicted", "count", "lower"),
    ("experiments.compute_s", "s", "lower"),
    ("service.compute_s", "s", "lower"),
    ("service.encode_s", "s", "lower"),
    ("service.parse_s", "s", "lower"),
    ("service.p99_ms", "ms", "lower"),
    ("service.hit_p99_ms", "ms", "lower"),
    ("service.miss_p50_ms", "ms", "lower"),
    ("service.miss_p90_ms", "ms", "lower"),
    ("service.coalesced_ratio", "fraction", "higher"),
    ("service.singleflight", "count", "higher"),
    ("service.shed", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
]

#: Layer self times the traced process's wall clock splits into; the rest
#: of that wall clock is ``unattributed_s``.
SELF_TIME_METRICS = [
    name for name, unit, _ in LAYER_METRICS
    if unit == "s" and name not in ("trace.wall_s", "trace.overhead_s", "unattributed_s")
]

# -- pinned outputs ---------------------------------------------------------
# Digests of the quick-tier outputs the programs produce today.  A change
# that alters any simulated number fails the benchmark's output check.

#: sha256 of the rendered experiment body (runner header lines stripped).
BODY_SHA256 = {
    "table1": "876a1954127e8cc48016640fb6f04cdc77785e7088b46092259df43a12a86ad6",
    "fig7": "5e86fe099c6e8008bfc2ec4ef2b324cd2f74d5aa96bf57a866991c8998ae2460",
}

HOT_PARAMS = {"workload": "game", "input": 0, "instructions": 20_000,
              "slice_instructions": 10_000}
HOT_PREDICTORS = ("bimodal", "gshare", "two-level-local", "tage-sc-l-8kb")
#: ``digest`` of each hot-set ``simulate`` response.
HOT_DIGESTS = {
    "bimodal": "61a90ab07651b89f6ecf0f194cd5e839982fa564be0e6eda381ddc2d0d7d7d88",
    "gshare": "b6ad358822cba21c64ce29809aeeb8d5f5e60321f48dd6f06eaaa59f610c712c",
    "two-level-local": "b2838a817a5ebe530751496f032fc3582add18f68caa654978b53d969fb0f20f",
    "tage-sc-l-8kb": "13bbe507c049767799a48fe3a54ad74dc222e7abbae16dada19b86e4eb61c3eb",
}
#: sha256 of the hot-set ``h2p`` response (canonical JSON).
HOT_H2P_SHA256 = "f1e6a6b34c8b31e10bff119d27ac929bbeb8cd13f5b278d9161eecf7f01ee251"

# -- service-mixed traffic ----------------------------------------------------

ALL_WORKLOADS = (
    "600.perlbench_s", "605.mcf_s", "620.omnetpp_s", "623.xalancbmk_s", "625.x264_s",
    "631.deepsjeng_s", "641.leela_s", "648.exchange2_s", "657.xz_s",
    "602.gcc_s", "game", "rdbms", "nosql", "rt_analytics", "streaming_server",
)
COLD_PREDICTORS = ("tage-sc-l-8kb", "bimodal", "gshare", "two-level-local",
                   "perceptron", "o-gehl")
CLIENTS = 2
BLOCK = 10  # requests per block; one of them is a cold miss
COLD_INSTRUCTIONS = (8_000, 24_000)
VERIFY_COLD = 20
#: Requests per client in the fixed-size passes (trace mode, smoke mode).
TRACE_REQUESTS_PER_CLIENT = 600
SMOKE_REQUESTS_PER_CLIENT = 50

_LISTEN_RE = re.compile(r"repro\.service listening on ([\w.\-]+):(\d+)")


# ---------------------------------------------------------------------------
# statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# child processes


def child_env() -> Dict[str, str]:
    """The parent environment without ``REPRO_*``, pinned to the quick tier
    and to this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_TIER"] = TIER
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Exit:
    """One finished child: exit code, wall clock, peak RSS and stdout."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str


class Workdir:
    """Scratch directories inside the checkout and the child processes
    started for one command; ``close`` kills any child still running and
    removes the directories."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}_", dir=WORK))
        self.children: List[subprocess.Popen] = []

    def fresh(self, prefix: str = "cache") -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix + "_", dir=self.root))

    def spawn(self, argv: List[str], stderr_path: Path) -> Tuple[subprocess.Popen, float]:
        """Start a child; returns it and its ``time.monotonic()`` spawn time."""
        env = child_env()
        spawn = time.monotonic()
        env["E2E_SPAWN_MONOTONIC"] = repr(spawn)
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                    stderr=err)
        self.children.append(proc)
        return proc, spawn

    def close(self) -> None:
        for proc in self.children:
            if proc.returncode is None:  # not reaped by _reap
                proc.kill()
                proc.wait()
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds other runs' leftovers


def _reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float, float]:
    """Wait for ``proc`` with ``os.wait4``; returns (code, end, peak RSS MB)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, end, usage.ru_maxrss / 1024.0


def run_child(argv: List[str], work: Workdir) -> Exit:
    stderr_path = work.root / "stderr.txt"
    proc, spawn = work.spawn(argv, stderr_path)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        assert proc.stdout is not None
        out = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
    finally:
        killer.cancel()
    code, end, rss = _reap(proc, CHILD_TIMEOUT_S)
    if code != 0:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        print(f"[e2e] child failed ({code}): {' '.join(argv)}\n{tail}", file=sys.stderr)
    return Exit(code, end - spawn, rss, out)


def repro_argv(args: Sequence[str], trace_out: Optional[Path] = None,
               module: str = "repro") -> List[str]:
    prefix = [sys.executable]
    if trace_out is not None:
        prefix += [str(TRACED), str(trace_out)]
    return prefix + ["-m", module, *args]


def rendered_body(stdout: str) -> str:
    """The experiment's rendered text without the runner's header lines
    (tier banner, rules, and the name-plus-elapsed line)."""
    lines = stdout.splitlines()
    rules = [i for i, line in enumerate(lines) if line == "=" * 72]
    if len(rules) < 2:
        return ""
    body: List[str] = []
    for line in lines[rules[1] + 1:]:
        if not line.strip():
            break
        body.append(line)
    return "\n".join(body)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# run bookkeeping


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Workdir
    keep_trace: Optional[Path] = None  # where to copy the chosen Chrome trace


@dataclass
class Outcome:
    """What one workload run measured."""

    setup_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0  # the timed window, for ops_per_s
    rss_mb: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layer: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation, and a failure unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[e2e] output check failed: {what}", file=sys.stderr)

    def e2e(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "p50_ms": 1000 * percentile(self.latencies_s, 0.5),
            "ops_per_s": ratio(len(self.latencies_s), self.busy_s),
            "peak_rss_mb": max(self.rss_mb),
        }


def layer_metrics(doc: Dict[str, Any], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from one ``traced.py`` summary."""
    summary = doc["e2e"]
    self_s, counts, counters = summary["self_s"], summary["counts"], summary["counters"]
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    out["startup.import_s"] = summary["startup_s"]
    for name in SELF_TIME_METRICS:
        if name in self_s:
            out[name] = self_s[name]
    unknown = set(self_s) - set(SELF_TIME_METRICS)
    if unknown:
        raise ValueError(f"traced.py reported layers run.py does not know: {unknown}")
    out["isa.instructions"] = counts.get("isa.instructions", 0)
    out["trace_store.hit_ratio"] = ratio(
        counts.get("trace_store.hits", 0), counts.get("trace_store.lookups", 0)
    )
    out["kernels.replay_configs"] = counts.get("kernels.configs", 0)
    out["kernels.replay_branches_per_s"] = ratio(
        counts.get("kernels.branches", 0), self_s.get("kernels.replay_s", 0.0)
    )
    sim_hits = (counters.get("lab.sim.cache_hit.memory", 0)
                + counters.get("lab.sim.cache_hit.disk", 0))
    out["lab.sim_hit_ratio"] = ratio(
        sim_hits, sim_hits + counters.get("lab.sim.cache_miss", 0)
    )
    out["lab.evicted"] = counters.get("lab.mem.evicted", 0)
    out["service.coalesced_ratio"] = ratio(
        counters.get("service.batch.coalesced", 0),
        counters.get("service.request.simulate", 0),
    )
    out["service.singleflight"] = counters.get("service.singleflight", 0)
    out["service.shed"] = counters.get("service.shed", 0)
    out["trace.wall_s"] = wall_s
    out["unattributed_s"] = wall_s - sum(out[name] for name in SELF_TIME_METRICS)
    return out


def keep_trace(ctx: Ctx, path: Path) -> None:
    if ctx.keep_trace is not None:
        ctx.keep_trace.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, ctx.keep_trace)


# ---------------------------------------------------------------------------
# CLI workloads: table1-cold, table1-warm, fig7-warmstore


def run_experiment(ctx: Ctx, outcome: Outcome, experiment: str, cache: Path,
                   trace_out: Optional[Path] = None) -> Exit:
    """``python -m repro <experiment>`` on ``cache``, checked against its pin."""
    argv = repro_argv([experiment, "--cache-dir", str(cache), "--jobs", "1"], trace_out)
    result = run_child(argv, ctx.work)
    outcome.check(
        result.code == 0
        and sha256(rendered_body(result.stdout)) == BODY_SHA256[experiment],
        f"{experiment} output digest",
    )
    return result


@dataclass
class CliWorkload:
    """A workload whose operation is one ``python -m repro <experiment>``.

    ``setup`` prepares (and checks) the state the operations share and
    returns it; ``op_dir`` gives the cache directory one operation runs on,
    prepared outside the timed region.  The timed phase runs at least
    ``min_ops`` operations and keeps going until ``--seconds`` have passed;
    ``--smoke`` runs exactly ``smoke_ops``.  A traced run alternates
    ``trace_pairs`` untraced and traced operations.
    """

    experiment: str
    setups: int
    min_ops: int
    smoke_ops: int
    trace_pairs: int
    setup: Callable[["Ctx", Outcome], Any]
    op_dir: Callable[["Ctx", Any], Path]

    def invoke(self, ctx: Ctx, outcome: Outcome, state: Any,
               trace_out: Optional[Path] = None) -> Exit:
        cache = self.op_dir(ctx, state)
        result = run_experiment(ctx, outcome, self.experiment, cache, trace_out)
        if cache != state:
            shutil.rmtree(cache, ignore_errors=True)
        return result

    def run(self, ctx: Ctx) -> Outcome:
        outcome = Outcome()
        state = None
        for _ in range(self.setups):
            t0 = time.monotonic()
            state = self.setup(ctx, outcome)
            outcome.setup_s.append(time.monotonic() - t0)
        if ctx.trace:
            self._traced(ctx, outcome, state)
            return outcome
        target = self.smoke_ops if ctx.smoke else self.min_ops
        start = time.monotonic()
        while len(outcome.latencies_s) < target or (
            not ctx.smoke and time.monotonic() - start < ctx.seconds
        ):
            result = self.invoke(ctx, outcome, state)
            outcome.latencies_s.append(result.wall_s)
            outcome.rss_mb.append(result.rss_mb)
        outcome.busy_s = sum(outcome.latencies_s)
        return outcome

    def _traced(self, ctx: Ctx, outcome: Outcome, state: Any) -> None:
        """Alternate untraced and traced invocations; report the layers of
        the traced one with the median wall clock."""
        plain: List[float] = []
        traced: List[Tuple[float, Path]] = []
        for i in range(self.trace_pairs):
            plain.append(self.invoke(ctx, outcome, state).wall_s)
            path = ctx.work.root / f"trace{i}.json"
            traced.append((self.invoke(ctx, outcome, state, trace_out=path).wall_s, path))
        traced.sort()
        wall, path = traced[len(traced) // 2]
        outcome.layer = layer_metrics(json.loads(path.read_text()), wall)
        outcome.layer["trace.overhead_s"] = wall - statistics.median(plain)
        keep_trace(ctx, path)


def _setup_probe(ctx: Ctx, outcome: Outcome) -> None:
    """table1-cold set-up: start the entry point once (``--list``)."""
    result = run_child(repro_argv(["--list"]), ctx.work)
    outcome.check(result.code == 0 and "table1" in result.stdout.split(), "repro --list")


def _setup_filled_cache(ctx: Ctx, outcome: Outcome) -> Path:
    """table1-warm set-up: one cold ``table1`` fills the sim and trace caches."""
    cache = ctx.work.fresh("warm")
    run_experiment(ctx, outcome, "table1", cache)
    return cache


def _setup_trace_store(ctx: Ctx, outcome: Outcome) -> Path:
    """fig7-warmstore set-up: ``fig9`` generates the six LCF traces into a
    fresh store, and nothing else."""
    store = ctx.work.fresh("store")
    result = run_child(repro_argv(["fig9", "--cache-dir", str(store), "--jobs", "1"]),
                       ctx.work)
    traces = sorted(p.name for p in store.iterdir())
    outcome.check(
        result.code == 0 and len(traces) == 6
        and all(name.startswith("trace_") for name in traces),
        "fig9 trace-store set-up",
    )
    return store


def _copy_store(ctx: Ctx, store: Path) -> Path:
    copy = ctx.work.fresh("fig7")
    for path in store.iterdir():
        shutil.copyfile(path, copy / path.name)
    return copy


CLI_WORKLOADS: Dict[str, CliWorkload] = {
    # One cold table1 takes ~14 s, so a 10 s phase times exactly one.
    "table1-cold": CliWorkload(
        "table1", setups=3, min_ops=1, smoke_ops=1, trace_pairs=1,
        setup=_setup_probe, op_dir=lambda ctx, _: ctx.work.fresh("cold"),
    ),
    # The set-up is itself a cold table1, too long to repeat.
    "table1-warm": CliWorkload(
        "table1", setups=1, min_ops=1, smoke_ops=5, trace_pairs=5,
        setup=_setup_filled_cache, op_dir=lambda ctx, cache: cache,
    ),
    # Three ~7 s invocations: the median of three is steadier than of two.
    "fig7-warmstore": CliWorkload(
        "fig7", setups=3, min_ops=3, smoke_ops=1, trace_pairs=1,
        setup=_setup_trace_store, op_dir=_copy_store,
    ),
}


# ---------------------------------------------------------------------------
# service-mixed


class Connection:
    """One closed-loop client connection speaking the newline-JSON protocol."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=CHILD_TIMEOUT_S)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def call(self, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        line = json.dumps({"id": self._next_id, "method": method, "params": params},
                          separators=(",", ":")) + "\n"
        self._sock.sendall(line.encode())
        reply = self._rfile.readline()
        if not reply:
            raise ConnectionError("daemon closed the connection")
        message = json.loads(reply)
        if message.get("id") != self._next_id:
            raise ValueError(f"reply id {message.get('id')!r} != {self._next_id}")
        return message

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()


class Daemon:
    """``python -m repro.service --port 0`` on a fresh cache directory."""

    def __init__(self, work: Workdir, trace_out: Optional[Path] = None) -> None:
        cache = work.fresh("service")
        argv = repro_argv(["--port", "0", "--cache-dir", str(cache)], trace_out,
                          module="repro.service")
        self.stderr = work.fresh("daemon") / "stderr.txt"
        self.proc, self.spawn = work.spawn(argv, self.stderr)
        killer = threading.Timer(60.0, self.proc.kill)
        killer.start()
        try:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            killer.cancel()
        match = _LISTEN_RE.search(line)
        if not match:
            raise RuntimeError(
                f"daemon did not start: {self.stderr.read_text(errors='replace')[-2000:]}"
            )
        self.address = (match.group(1), int(match.group(2)))

    def stop(self, outcome: Outcome) -> Tuple[float, float]:
        """SIGTERM and wait for the graceful drain, which must exit 0;
        returns (wall s since spawn, peak RSS MB)."""
        self.proc.send_signal(signal.SIGTERM)
        code, end, rss = _reap(self.proc, 60.0)
        assert self.proc.stdout is not None
        self.proc.stdout.close()
        outcome.check(code == 0, "daemon drain exit code")
        return end - self.spawn, rss


def hot_requests() -> List[Tuple[str, Dict[str, Any]]]:
    return [("simulate", dict(HOT_PARAMS, predictor=p)) for p in HOT_PREDICTORS] + [
        ("h2p", dict(HOT_PARAMS, predictor="tage-sc-l-8kb"))
    ]


def client_requests(seed: int, client: int) -> Iterator[Tuple[str, str, Dict[str, Any]]]:
    """One client's endless request stream, in blocks of ``BLOCK`` requests.

    Each block holds exactly one cold ``simulate`` request, at a seeded
    position, and hot-set requests elsewhere.  Cold requests walk a seeded
    order of every (workload, predictor family) pair and draw one
    instruction count from each equal stratum of ``COLD_INSTRUCTIONS``, so
    every run of a few seconds sees about the same mix and total work.  No
    other request uses a cold request's instruction count (each client
    keeps to its own residue class)."""
    rng = random.Random(f"service-mixed/{seed}/{client}")
    hot = hot_requests()
    pairs = [(w, p) for w in ALL_WORKLOADS for p in COLD_PREDICTORS]
    lo, hi = COLD_INSTRUCTIONS
    width = (hi - lo) / len(pairs)
    used = {HOT_PARAMS["instructions"]}
    while True:
        rng.shuffle(pairs)
        sizes = [int(lo + (i + rng.random()) * width) for i in range(len(pairs))]
        rng.shuffle(sizes)
        for (workload, predictor), n in zip(pairs, sizes):
            n += (client - n) % CLIENTS
            while n in used:
                n += CLIENTS
            used.add(n)
            miss_at = rng.randrange(BLOCK)
            for slot in range(BLOCK):
                if slot != miss_at:
                    method, params = hot[rng.randrange(len(hot))]
                    yield "hot", method, params
                    continue
                yield "cold", "simulate", {
                    "workload": workload,
                    "input": 0,
                    "predictor": predictor,
                    "instructions": n,
                    "slice_instructions": HOT_PARAMS["slice_instructions"],
                }


def reply_ok(kind: str, method: str, params: Dict[str, Any],
             message: Optional[Dict[str, Any]]) -> bool:
    if not message or not message.get("ok"):
        return False
    result = message["result"]
    if kind == "cold":
        return isinstance(result.get("digest"), str)
    if method == "h2p":
        return sha256(json.dumps(result, sort_keys=True)) == HOT_H2P_SHA256
    return result.get("digest") == HOT_DIGESTS[params["predictor"]]


@dataclass
class Reply:
    kind: str
    method: str
    params: Dict[str, Any]
    latency_s: float
    message: Optional[Dict[str, Any]]


def closed_loop(address: Tuple[str, int], seed: int, deadline_s: Optional[float],
                per_client: Optional[int]) -> Tuple[List[Reply], float]:
    """``CLIENTS`` threads, one connection each, each sending its next
    request only after the previous reply.  Stops at ``per_client``
    requests, or when ``deadline_s`` seconds have passed."""
    barrier = threading.Barrier(CLIENTS + 1, timeout=60.0)
    logs: List[List[Reply]] = [[] for _ in range(CLIENTS)]

    def client(slot: int) -> None:
        try:
            conn = Connection(address)
        except OSError:
            barrier.abort()  # the main thread's wait raises instead of hanging
            raise
        try:
            barrier.wait()
            start = time.monotonic()
            for kind, method, params in client_requests(seed, slot):
                if per_client is not None and len(logs[slot]) >= per_client:
                    break
                if deadline_s is not None and time.monotonic() - start >= deadline_s:
                    break
                t0 = time.perf_counter()
                try:
                    message: Optional[Dict[str, Any]] = conn.call(method, params)
                except (OSError, ValueError) as exc:
                    print(f"[e2e] request failed: {exc}", file=sys.stderr)
                    message = None
                logs[slot].append(
                    Reply(kind, method, params, time.perf_counter() - t0, message)
                )
                if message is None:
                    break
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.monotonic()
    for t in threads:
        t.join(CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - start
    return [reply for log in logs for reply in log], elapsed


def warm_hot_set(address: Tuple[str, int], outcome: Outcome) -> None:
    conn = Connection(address)
    try:
        for method, params in hot_requests():
            outcome.check(reply_ok("hot", method, params, conn.call(method, params)),
                          f"hot {method} {params['predictor']}")
    finally:
        conn.close()


def verify_cold(replies: List[Reply], seed: int, outcome: Outcome) -> None:
    """Re-simulate ``VERIFY_COLD`` cold replies, chosen by the seed, in a
    fresh in-process Lab and compare digests."""
    cold = [r for r in replies if r.kind == "cold" and r.message and r.message.get("ok")]
    chosen = random.Random(f"verify/{seed}").sample(cold, min(VERIFY_COLD, len(cold)))
    if not chosen:
        return
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.experiments.lab import Lab
    from repro.service import simulation_digest

    lab = Lab(cache_dir=None)
    for reply in chosen:
        p = reply.params
        result = lab.simulate(p["workload"], p["input"], p["predictor"],
                              instructions=p["instructions"],
                              slice_instructions=p["slice_instructions"])
        outcome.check(simulation_digest(result) == reply.message["result"]["digest"],
                      f"cold digest {p}")


def record_replies(replies: List[Reply], outcome: Outcome) -> None:
    for r in replies:
        outcome.check(reply_ok(r.kind, r.method, r.params, r.message),
                      f"{r.kind} {r.method} {r.params}")


def service_latency_metrics(replies: List[Reply]) -> Dict[str, float]:
    every = [r.latency_s for r in replies]
    hits = [r.latency_s for r in replies if r.kind == "hot"] or [0.0]
    misses = [r.latency_s for r in replies if r.kind == "cold"] or [0.0]
    return {
        "service.p99_ms": 1000 * percentile(every, 0.99),
        "service.hit_p99_ms": 1000 * percentile(hits, 0.99),
        "service.miss_p50_ms": 1000 * percentile(misses, 0.5),
        "service.miss_p90_ms": 1000 * percentile(misses, 0.9),
    }


def run_service(ctx: Ctx) -> Outcome:
    """Set up three times (spawn + warm the hot set) and keep the last
    daemon for the closed loop.  A traced run drives the same fixed-size
    load at an untraced daemon, then at a fresh daemon under ``traced.py``."""
    outcome = Outcome()
    daemon: Optional[Daemon] = None
    for _ in range(3):
        if daemon is not None:
            daemon.stop(outcome)
        t0 = time.monotonic()
        daemon = Daemon(ctx.work)
        warm_hot_set(daemon.address, outcome)
        outcome.setup_s.append(time.monotonic() - t0)
    assert daemon is not None
    fixed = None
    if ctx.smoke:
        fixed = SMOKE_REQUESTS_PER_CLIENT
    elif ctx.trace:
        fixed = TRACE_REQUESTS_PER_CLIENT
    replies, elapsed = closed_loop(daemon.address, ctx.seed,
                                   None if fixed else ctx.seconds, fixed)
    _, rss = daemon.stop(outcome)
    record_replies(replies, outcome)
    outcome.latencies_s = [r.latency_s for r in replies]
    outcome.busy_s = elapsed
    outcome.rss_mb.append(rss)
    if ctx.trace:
        path = ctx.work.root / "trace-daemon.json"
        traced = Daemon(ctx.work, trace_out=path)
        warm_hot_set(traced.address, outcome)
        traced_replies, traced_elapsed = closed_loop(traced.address, ctx.seed, None, fixed)
        wall, _ = traced.stop(outcome)
        record_replies(traced_replies, outcome)
        outcome.layer = layer_metrics(json.loads(path.read_text()), wall)
        outcome.layer["trace.overhead_s"] = traced_elapsed - elapsed
        outcome.layer.update(service_latency_metrics(replies))
        keep_trace(ctx, path)
    verify_cold(replies, ctx.seed, outcome)
    return outcome


#: Workload name -> runner.  Why each exists: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[Ctx], Outcome]] = {
    **{name: workload.run for name, workload in CLI_WORKLOADS.items()},
    "service-mixed": run_service,
}


# ---------------------------------------------------------------------------
# results, printing, comparison


def run_one(name: str, ctx: Ctx) -> Dict[str, Any]:
    outcome = WORKLOADS[name](ctx)
    if ctx.trace:
        units = {n: u for n, u, _ in LAYER_METRICS}
        values = outcome.layer
    else:
        units = {n: u for n, u, _, _ in E2E_METRICS}
        values = outcome.e2e()
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return {
        "workload": name,
        "seed": ctx.seed,
        "trace": int(ctx.trace),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "ops": len(outcome.latencies_s),
        "metrics": metrics,
    }


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        git_sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = None  # not a git checkout
    return {
        "git_sha": git_sha,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "tier": TIER,
    }


def compare(path_a: str, path_b: str) -> int:
    """Per (workload, metric): both medians and quartiles, and whether B is
    within the metric's bound of A.  A metric whose spread (quartile
    distance over median) exceeds its bound on either side is unresolved."""
    runs = [json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b)]
    workloads = sorted({r["workload"] for side in runs for r in side if not r["trace"]})
    print(f"{'workload':<15} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'quartiles A':>23} {'quartiles B':>23} {'spread':>7} {'worse':>7}  verdict")
    bad = 0
    for workload in workloads:
        for name, _, better, bound in E2E_METRICS:
            sides = [[r["metrics"][name]["value"] for r in side
                      if r["workload"] == workload and not r["trace"]] for side in runs]
            if min(len(s) for s in sides) < 2:
                print(f"{workload:<15} {name:<12} needs at least 2 runs per side")
                bad += 1
                continue
            medians = [statistics.median(s) for s in sides]
            quartiles = [statistics.quantiles(s, n=4) for s in sides]
            spread = max((q[2] - q[0]) / m for q, m in zip(quartiles, medians))
            sign = 1 if better == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            bad += verdict != "within bound"
            qa, qb = (f"{q[0]:.4g}..{q[2]:.4g}" for q in quartiles)
            print(f"{workload:<15} {name:<12} {medians[0]:>12.5g} {medians[1]:>12.5g} "
                  f"{qa:>23} {qb:>23} {spread:>7.3f} {worse:>+7.3f}  {verdict} "
                  f"(bound {bound})")
    return 1 if bad else 0


def print_run(run: Dict[str, Any]) -> None:
    print(f"== {run['workload']} seed={run['seed']} trace={run['trace']} "
          f"ops={run['ops']} attempted={run['attempted']} failed={run['failed']}")
    for name, m in run["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6f} {m['unit']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of the repro CLI and daemon.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of each timed phase (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="fixed small counts: 5 warm invocations, 100 requests, "
                        "1 fig7 invocation")
    parser.add_argument("--out", help="write every run and the environment to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"[e2e] no repro sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TIER"] = TIER
    # SIGTERM unwinds through ``work.close()``, which stops the children.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    names = [args.workload] if args.workload else list(WORKLOADS)
    out = Path(args.out) if args.out else None
    env = environment(args) if out else None
    runs: List[Dict[str, Any]] = []
    work = Workdir()
    try:
        for name in names:
            for i in range(args.repeat):
                seed = args.seed + i
                trace_copy = None
                if out is not None and args.trace:
                    trace_copy = out.with_name(f"{out.stem}.{name}.seed{seed}.trace.json")
                ctx = Ctx(seed, args.seconds, bool(args.trace), args.smoke, work, trace_copy)
                run = run_one(name, ctx)
                print_run(run)
                runs.append(run)
    finally:
        work.close()
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"schema": "repro.e2e/v1", "env": env, "runs": runs},
                                  indent=1) + "\n")
        print(f"[e2e] wrote {out}")

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {}
        for run in runs:
            for name, m in run["metrics"].items():
                metrics.setdefault(f"{run['workload']}/{name}", []).append(m)
        metrics = {k: {"value": statistics.median([m["value"] for m in ms]),
                       "unit": ms[0]["unit"]} for k, ms in metrics.items()}
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
