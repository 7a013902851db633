"""The content-addressed on-disk trace store and its Lab/worker read-through."""

import numpy as np
import pytest

from repro.core.types import BranchKind, BranchTrace
from repro.experiments.config import QUICK_TIER
from repro.experiments.lab import Lab
from repro.parallel.jobs import SimJob, run_sim_job, worker_init
from repro.pipeline.simulator import simulate_trace
from repro.predictors.simple import Bimodal
from repro.workloads import (
    ALL_WORKLOADS,
    TRACE_VERSION,
    WORKLOADS_BY_NAME,
    TraceStore,
    trace_store,
    trace_workload,
    workload_seed,
)

WORKLOAD = "605.mcf_s"
INSTRUCTIONS = 30_000


@pytest.fixture(scope="module")
def traced():
    return trace_workload(WORKLOADS_BY_NAME[WORKLOAD], 0, instructions=INSTRUCTIONS)


class TestStoreRoundTrip:
    def test_roundtrip_preserves_columns(self, tmp_path, traced):
        store = TraceStore(tmp_path)
        assert store.load(WORKLOAD, 0, INSTRUCTIONS) is None  # cold
        path = store.store(WORKLOAD, 0, INSTRUCTIONS, traced.trace)
        assert path is not None and path.exists()
        loaded = store.load(WORKLOAD, 0, INSTRUCTIONS)
        t = traced.trace
        assert np.array_equal(loaded.ips, t.ips)
        assert np.array_equal(loaded.taken, t.taken)
        assert np.array_equal(loaded.targets, t.targets)
        assert np.array_equal(loaded.kinds, t.kinds)
        assert np.array_equal(loaded.instr_indices, t.instr_indices)
        assert loaded.instr_count == t.instr_count

    def test_key_binds_identity_and_version(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key(WORKLOAD, 2, 500)
        assert f"v{TRACE_VERSION}" in key
        assert f"seed{workload_seed(2)}" in key
        assert "n500" in key
        # Distinct identities map to distinct files.
        paths = {
            store.path_for(WORKLOAD, 0, 500),
            store.path_for(WORKLOAD, 1, 500),
            store.path_for(WORKLOAD, 0, 501),
            store.path_for("641.leela_s", 0, 500),
        }
        assert len(paths) == 4

    def test_corrupt_entry_fails_soft(self, tmp_path, traced, obs_enabled):
        store = TraceStore(tmp_path)
        path = store.store(WORKLOAD, 0, INSTRUCTIONS, traced.trace)
        path.write_bytes(b"not an npz")
        assert store.load(WORKLOAD, 0, INSTRUCTIONS) is None
        counters = obs_enabled.counters_dict()
        assert counters["lab.trace_store.load_error"] == 1

    def test_foreign_key_rejected(self, tmp_path, traced, obs_enabled):
        store = TraceStore(tmp_path)
        real = store.path_for(WORKLOAD, 0, INSTRUCTIONS)
        other = store.store(WORKLOAD, 1, INSTRUCTIONS, traced.trace)
        other.rename(real)  # file contents claim a different identity
        assert store.load(WORKLOAD, 0, INSTRUCTIONS) is None
        assert obs_enabled.counters_dict()["lab.trace_store.load_error"] == 1

    def test_counters(self, tmp_path, traced, obs_enabled):
        store = TraceStore(tmp_path)
        store.load(WORKLOAD, 0, INSTRUCTIONS)
        store.store(WORKLOAD, 0, INSTRUCTIONS, traced.trace)
        store.load(WORKLOAD, 0, INSTRUCTIONS)
        counters = obs_enabled.counters_dict()
        assert counters["lab.trace_store.miss"] == 1
        assert counters["lab.trace_store.store"] == 1
        assert counters["lab.trace_store.hit"] == 1


COLUMNS = ("ips", "taken", "targets", "kinds", "instr_indices")


def assert_same_trace(loaded, want):
    for col in COLUMNS:
        assert np.array_equal(getattr(loaded, col), getattr(want, col)), col
    for col in ("ips", "targets", "instr_indices"):
        assert getattr(loaded, col).dtype == np.int64, col
    assert loaded.instr_count == want.instr_count


class TestNarrowColumns:
    @pytest.mark.parametrize("spec", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_every_workload_round_trips_as_int64(self, tmp_path, spec):
        n = 3_000
        want = trace_workload(spec, 0, instructions=n).trace
        store = TraceStore(tmp_path)
        store.store(spec.name, 0, n, want)
        assert_same_trace(store.load(spec.name, 0, n), want)

    def test_wide_values_round_trip_exactly(self, tmp_path):
        # IPs and targets past int16/int32, negative targets, and
        # instruction gaps that need wide deltas.
        ips = [70_000, 1 << 33, 5, (1 << 40) + 3, 40_000]
        want = BranchTrace(
            ips=ips,
            taken=[1, 0, 1, 1, 0],
            targets=[-70_000, 1 << 35, 0, 123_456, -(1 << 20)],
            kinds=[int(BranchKind.CONDITIONAL)] * 4 + [int(BranchKind.CALL)],
            instr_indices=[0, 1, 40_000, 1 << 34, (1 << 34) + 2],
        )
        store = TraceStore(tmp_path)
        store.store("synthetic", 0, 5, want)
        assert_same_trace(store.load("synthetic", 0, 5), want)

    def test_columns_are_stored_narrow(self, tmp_path, traced):
        store = TraceStore(tmp_path)
        path = store.store(WORKLOAD, 0, INSTRUCTIONS, traced.trace)
        with np.load(path) as data:
            assert data["ips"].dtype.itemsize < 8
            assert data["instr_deltas"].dtype.itemsize < 8

    def test_v1_file_is_a_clean_miss(self, tmp_path, traced, obs_enabled, monkeypatch):
        store = TraceStore(tmp_path)
        t = traced.trace
        with monkeypatch.context() as m:
            m.setattr(trace_store, "TRACE_VERSION", 1)
            v1_path = store.path_for(WORKLOAD, 0, INSTRUCTIONS)
            np.savez_compressed(
                v1_path,
                key=store.key(WORKLOAD, 0, INSTRUCTIONS),
                trace_version=np.int64(1),
                ips=t.ips,
                taken=t.taken,
                targets=t.targets,
                kinds=t.kinds,
                instr_indices=t.instr_indices,
                instr_count=np.int64(t.instr_count),
            )
        assert store.load(WORKLOAD, 0, INSTRUCTIONS) is None
        counters = obs_enabled.counters_dict()
        assert counters["lab.trace_store.miss"] == 1
        assert "lab.trace_store.load_error" not in counters
        assert v1_path.exists()  # a miss, not a quarantined entry


class TestLabReadThrough:
    def test_second_lab_skips_execution(self, tmp_path, obs_enabled):
        lab1 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        t1 = lab1.trace(WORKLOAD, 0, instructions=INSTRUCTIONS)
        counters = obs_enabled.counters_dict()
        assert counters["exec.instructions"] > 0
        assert counters["lab.trace_store.store"] == 1

        # A fresh Lab on the same cache_dir must not execute anything.
        obs_enabled.reset()
        lab2 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        t2 = lab2.trace(WORKLOAD, 0, instructions=INSTRUCTIONS)
        counters = obs_enabled.counters_dict()
        assert counters.get("exec.instructions", 0) == 0
        assert counters["lab.trace_store.hit"] == 1
        assert np.array_equal(t1.trace.ips, t2.trace.ips)
        assert np.array_equal(t1.trace.taken, t2.trace.taken)

    def test_store_hit_rebuilds_program_metadata(self, tmp_path):
        lab1 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        lab1.trace(WORKLOAD, 0, instructions=INSTRUCTIONS)
        lab2 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        t = lab2.trace(WORKLOAD, 0, instructions=INSTRUCTIONS)
        assert t.metadata["from_trace_store"] is True
        assert t.metadata["program"] is not None

    def test_simulations_identical_across_store_boundary(self, tmp_path):
        lab1 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        r1 = lab1.simulate(WORKLOAD, 0, "bimodal", instructions=INSTRUCTIONS)
        lab2 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        lab2._sims.clear()  # force re-simulation from the stored trace
        import os

        for p in tmp_path.iterdir():
            if p.name.startswith("sim_"):
                os.unlink(p)
        r2 = lab2.simulate(WORKLOAD, 0, "bimodal", instructions=INSTRUCTIONS)
        assert r1.stats._counts == r2.stats._counts

    def test_no_cache_dir_disables_store(self):
        lab = Lab(tier=QUICK_TIER)
        assert lab.trace_store is None


class TestWorkerReadThrough:
    def test_worker_loads_from_store(self, tmp_path, traced, obs_enabled):
        store = TraceStore(tmp_path)
        store.store(WORKLOAD, 0, INSTRUCTIONS, traced.trace)
        obs_enabled.reset()
        worker_init(True, None, trace_store_dir=str(tmp_path))
        try:
            import repro.parallel.jobs as jobs

            jobs._trace_cache.clear()
            job = SimJob(
                workload=WORKLOAD,
                input_index=0,
                instructions=INSTRUCTIONS,
                predictor="bimodal",
                slice_instructions=10_000,
            )
            _, result, report = run_sim_job(job)
        finally:
            worker_init(False, None)
        counters = report.metrics["counters"] if report.metrics else {}
        assert counters.get("exec.instructions", 0) == 0
        assert counters["lab.trace_store.hit"] == 1
        want = simulate_trace(traced.trace, Bimodal(), slice_instructions=10_000)
        assert result.stats._counts == want.stats._counts
