"""Benchmarks: parallel fan-out vs serial.

* The full fig7 request set (LCF suite x six TAGE-SC-L storage presets)
  runs twice — once through a serial Lab and once prefetched across
  worker processes — and both wall clocks plus the speedup land in
  ``extra_info``.  On a single-core runner the parallel pass measures
  scheduler overhead rather than speedup; see ``docs/performance.md``
  for the expected multi-core scaling.  Set ``REPRO_BENCH_JOBS`` to pin
  the worker count (default: all cores).
* A fixed batch of eight TAGE-SC-L simulations over a pre-warmed trace
  store must run at least 1.5x faster at ``--jobs 4`` than at
  ``--jobs 1`` on a machine with two or more cores.
"""

import os
from time import perf_counter

import pytest
from conftest import run_once

from repro.experiments.config import active_tier
from repro.experiments.lab import Lab
from repro.experiments.plans import EXPERIMENT_PLANS
from repro.workloads import WORKLOADS_BY_NAME, TraceStore, trace_workload

#: Floor for ``--jobs 4`` over ``--jobs 1`` on the scaling batch.
MIN_JOBS4_SPEEDUP = 1.5


def _fig7_sweep(lab):
    jobs = EXPERIMENT_PLANS["fig7"](lab)
    lab.prefetch(jobs)
    # fig7 plans batch jobs: read back each member predictor's result.
    keys = [key for job in jobs for key in job.sim_keys()]
    for workload, input_index, instructions, predictor, slice_instructions in keys:
        lab.simulate(
            workload, input_index, predictor,
            instructions=instructions, slice_instructions=slice_instructions,
        )
    return len(keys)


def test_fig7_sweep_parallel_vs_serial(benchmark):
    workers = int(os.environ.get("REPRO_BENCH_JOBS", "0") or 0) or (
        os.cpu_count() or 1
    )
    serial = Lab(tier=active_tier(), jobs=1)
    t0 = perf_counter()
    n_sims = _fig7_sweep(serial)
    serial_s = perf_counter() - t0

    with Lab(tier=active_tier(), jobs=workers) as parallel:
        t0 = perf_counter()
        run_once(benchmark, _fig7_sweep, parallel)
        parallel_s = perf_counter() - t0

    benchmark.extra_info["simulations"] = n_sims
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["serial_s"] = round(serial_s, 2)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 2)
    benchmark.extra_info["speedup"] = round(serial_s / parallel_s, 2)


def test_jobs4_scaling(tmp_path):
    """Eight TAGE-SC-L jobs (two workloads x four inputs), more than the
    deepest level, so the longest-job-first scheduler can pack workers.
    Each level gets a fresh cache dir whose trace store already holds
    every trace, so only the simulations are timed."""
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"{cores} core: no process pool can beat serial")
    n = active_tier().spec_instructions
    pairs = [(w, i) for w in ("605.mcf_s", "625.x264_s") for i in range(4)]
    traces = {
        (w, i): trace_workload(WORKLOADS_BY_NAME[w], i, instructions=n).trace
        for w, i in pairs
    }
    requests = [(w, i, "tage-sc-l-8kb", n) for w, i in pairs]

    wall_s = {}
    for jobs in (1, 4):
        cache_dir = tmp_path / f"jobs{jobs}"
        store = TraceStore(cache_dir)
        for (w, i), trace in traces.items():
            store.store(w, i, n, trace)
        with Lab(cache_dir=cache_dir, jobs=jobs) as lab:
            t0 = perf_counter()
            lab.prefetch(requests)
            for w, i, predictor, size in requests:
                lab.simulate(w, i, predictor, instructions=size)
            wall_s[jobs] = perf_counter() - t0

    speedup = wall_s[1] / wall_s[4]
    assert speedup >= MIN_JOBS4_SPEEDUP, (
        f"--jobs 4 only {speedup:.2f}x over --jobs 1 on {cores} cores "
        f"({wall_s[1]:.2f}s vs {wall_s[4]:.2f}s; bar: {MIN_JOBS4_SPEEDUP}x)"
    )
