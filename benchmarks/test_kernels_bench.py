"""Benchmarks: vectorized kernel throughput and the on-disk trace store.

Three measurements back the kernel work's acceptance bar:

* scalar vs. vectorized time for every kernel family and for the
  TAGE-SC-L batch-of-one replay over a quick-tier trace, each against
  its own floor (``MIN_SPEEDUP``);
* the fig. 7 storage sweep on one trace: six scalar TAGE-SC-L runs
  against one multi-config batched replay (at least 3x), and
* cold vs. warm trace acquisition through a :class:`TraceStore` (the warm
  path replaces interpreter execution with one ``.npz`` read).

Headline numbers land in ``benchmark.extra_info`` so the pytest-benchmark
JSON artifact (see the ``kernels`` CI job) records them per run.
"""

from time import perf_counter

import pytest
from conftest import run_once

from repro.experiments.config import active_tier
from repro.experiments.lab import PREDICTOR_FACTORIES
from repro.kernels import kernels_disabled, kernels_override
from repro.pipeline.simulator import simulate_trace, simulate_trace_batch
from repro.predictors.tagescl import STORAGE_PRESETS_KIB
from repro.workloads import WORKLOADS_BY_NAME, TraceStore, trace_workload

WORKLOAD = "605.mcf_s"

#: Floor on scalar time over vectorized time, per predictor label.  The
#: tabular kernels must clear 5x (see docs/performance.md); each other
#: floor is 0.6 of the ratio recorded when its kernel landed, so only a
#: real slip trips it on a noisy runner.
MIN_SPEEDUP = {
    "bimodal": 5.0,
    "gshare": 5.0,
    "two-level-local": 2.58,
    "perceptron": 1.01,
    "path-perceptron": 2.13,
    "o-gehl": 2.04,
    "tage-sc-l-8kb": 3.0,  # the batch-of-one replay
}

#: Floor for the fig. 7 sweep: six scalar runs over one batched replay.
MIN_FIG7_SPEEDUP = 3.0


def _quick_trace():
    tier = active_tier()
    return trace_workload(
        WORKLOADS_BY_NAME[WORKLOAD], 0, instructions=tier.spec_instructions
    )


#: Timing rounds per side in :func:`_speedup_for`.  The kernel side of the
#: tabular families takes ~25 ms, so a single slow round would swing the
#: ratio; the best of several interleaved rounds does not.
SPEEDUP_ROUNDS = 7


def _best_of(n, fn):
    times = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def _speedup_for(benchmark, label, traced):
    tier = active_tier()
    trace = traced.trace
    slice_instructions = tier.spec_instructions // tier.spec_slices
    make_predictor = PREDICTOR_FACTORIES[label]

    def run():
        simulate_trace(trace, make_predictor(), slice_instructions=slice_instructions)

    # Scalar and kernel rounds alternate, so a slow stretch on a shared
    # host lands on both sides instead of on one.
    scalar_s = kernel_s = float("inf")
    for _ in range(SPEEDUP_ROUNDS):
        with kernels_disabled():
            scalar_s = min(scalar_s, _best_of(1, run))
        with kernels_override(True):
            kernel_s = min(kernel_s, _best_of(1, run))
    with kernels_override(True):
        run_once(benchmark, run)

    speedup = scalar_s / kernel_s
    benchmark.extra_info["workload"] = WORKLOAD
    benchmark.extra_info["branches"] = len(trace)
    benchmark.extra_info["scalar_branches_per_sec"] = round(len(trace) / scalar_s)
    benchmark.extra_info["kernel_branches_per_sec"] = round(len(trace) / kernel_s)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP[label], (
        f"vectorized {label} only {speedup:.2f}x over scalar "
        f"(bar: {MIN_SPEEDUP[label]}x)"
    )


@pytest.mark.parametrize("label", list(MIN_SPEEDUP))
def test_kernel_speedup(benchmark, label):
    _speedup_for(benchmark, label, _quick_trace())


def test_fig7_sweep_batched_speedup(benchmark):
    """One workload's fig. 7 preset sweep: the scalar loop once per
    preset against one multi-config batched replay of the same trace."""
    tier = active_tier()
    trace = trace_workload(
        WORKLOADS_BY_NAME["nosql"], 0, instructions=tier.lcf_instructions
    ).trace
    sweep = [PREDICTOR_FACTORIES[f"tage-sc-l-{kib}kb"] for kib in STORAGE_PRESETS_KIB]

    with kernels_disabled():
        t0 = perf_counter()
        for make_predictor in sweep:
            simulate_trace(trace, make_predictor())
        scalar_s = perf_counter() - t0
    with kernels_override(True):
        t0 = perf_counter()
        run_once(benchmark, simulate_trace_batch, trace, [make() for make in sweep])
        batched_s = perf_counter() - t0

    speedup = scalar_s / batched_s
    benchmark.extra_info["branches"] = len(trace)
    benchmark.extra_info["scalar_sweep_s"] = round(scalar_s, 3)
    benchmark.extra_info["batched_sweep_s"] = round(batched_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_FIG7_SPEEDUP, (
        f"batched fig7 sweep only {speedup:.2f}x over the scalar loop "
        f"(bar: {MIN_FIG7_SPEEDUP}x)"
    )


def test_trace_store_cold_vs_warm(benchmark, tmp_path):
    tier = active_tier()
    n = tier.spec_instructions
    store = TraceStore(tmp_path)

    t0 = perf_counter()
    traced = trace_workload(WORKLOADS_BY_NAME[WORKLOAD], 0, instructions=n)
    generate_s = perf_counter() - t0

    t0 = perf_counter()
    store.store(WORKLOAD, 0, n, traced.trace)
    store_s = perf_counter() - t0

    warm_s = _best_of(3, lambda: store.load(WORKLOAD, 0, n))
    run_once(benchmark, store.load, WORKLOAD, 0, n)

    benchmark.extra_info["workload"] = WORKLOAD
    benchmark.extra_info["instructions"] = n
    benchmark.extra_info["generate_s"] = round(generate_s, 3)
    benchmark.extra_info["store_s"] = round(store_s, 3)
    benchmark.extra_info["warm_load_s"] = round(warm_s, 4)
    benchmark.extra_info["warm_speedup"] = round(generate_s / warm_s, 1)
    assert store.load(WORKLOAD, 0, n) is not None
