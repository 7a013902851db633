"""Metrics schema v2: run-metadata header, the v1-compatible reader, and
the cross-process merge fixes (timer samples, resilience counters)."""

import json

import pytest

from repro import obs
from repro.config import ExperimentTier
from repro.experiments.lab import Lab
from repro.obs.export import (
    METRICS_SCHEMA_VERSION,
    READABLE_SCHEMA_VERSIONS,
    read_metrics_json,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.runmeta import run_metadata
from repro.parallel.jobs import SimJob
from repro.resilience import faults as fault_mod

TEST_TIER = ExperimentTier(name="mtest", spec_inputs=1, spec_slices=1, lcf_slices=1)

JOBS = [
    SimJob("game", 0, 20_000, predictor, 10_000)
    for predictor in ("bimodal", "gshare")
]


class TestRunMetadata:
    def test_metadata_fields(self):
        meta = run_metadata()
        for key in ("git_sha", "git_dirty", "date", "tier", "seed",
                    "python", "numpy", "host", "platform"):
            assert key in meta
        assert meta["tier"] == "quick"
        assert meta["date"].endswith("+00:00") or "T" in meta["date"]

    def test_fresh_overrides_stale_cache(self, monkeypatch):
        """``fresh=True`` must re-resolve HEAD instead of replaying the
        per-process cache (the BENCH_core.json stale-SHA bug)."""
        import subprocess

        from repro.obs import runmeta

        stale_sha = "0" * 40
        monkeypatch.setattr(runmeta, "_git_cache", (stale_sha, True))
        assert run_metadata()["git_sha"] == stale_sha
        fresh = run_metadata(fresh=True)
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(runmeta.__file__).rsplit("/", 1)[0],
            capture_output=True, text=True,
        ).stdout.strip()
        if not head:
            pytest.skip("not running inside a git checkout")
        assert fresh["git_sha"] == head
        # The refreshed state becomes the new cache for later callers.
        assert runmeta._git_cache[0] == head

    def test_snapshot_carries_v2_header(self, obs_enabled):
        obs.counter("sim.branches", 1)
        doc = obs.snapshot()
        assert doc["schema"] == METRICS_SCHEMA_VERSION == "repro.obs/v2"
        assert doc["meta"]["tier"] == "quick"
        assert "host" in doc["meta"]


class TestReader:
    def test_reads_v2(self, obs_enabled, tmp_path):
        obs.counter("sim.branches", 42)
        out = obs.write_metrics_json(tmp_path / "m.json")
        doc = read_metrics_json(out)
        assert doc["counters"]["sim.branches"] == 42
        assert doc["meta"]

    def test_reads_v1_with_defaulted_meta(self, tmp_path):
        v1 = {"schema": "repro.obs/v1", "counters": {"x": 1}, "gauges": {},
              "timers": {}, "spans": []}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1))
        doc = read_metrics_json(path)
        assert doc["counters"] == {"x": 1}
        assert doc["meta"] == {}

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.obs/v99"}))
        with pytest.raises(ValueError, match="v99"):
            read_metrics_json(path)

    def test_current_schema_is_readable(self):
        assert METRICS_SCHEMA_VERSION in READABLE_SCHEMA_VERSIONS


class TestMergePreservesDistributions:
    def _worker(self, *durations):
        worker = MetricsRegistry(enabled=True)
        for d in durations:
            worker.observe("sim.trace", d)
        return worker.snapshot_for_merge()

    def test_samples_survive_merge(self, obs_enabled):
        obs_enabled.merge_snapshot(self._worker(1.0, 2.0, 3.0))
        t = obs_enabled.timer("sim.trace")
        assert t.count == 3
        assert sorted(t._ring) == [1.0, 2.0, 3.0]
        # Percentiles come from the merged samples, not just count/total.
        d = t.to_dict()
        assert d["p50_s"] == 2.0

    def test_min_max_and_samples_across_merges(self, obs_enabled):
        obs.observe_timer("sim.trace", 5.0)
        obs_enabled.merge_snapshot(self._worker(0.5))
        obs_enabled.merge_snapshot(self._worker(9.0, 1.0))
        t = obs_enabled.timer("sim.trace")
        assert t.count == 4
        assert t.min_s == 0.5 and t.max_s == 9.0
        assert sorted(t._ring) == [0.5, 1.0, 5.0, 9.0]

    def test_merged_registry_reexports_samples(self, obs_enabled):
        # Worker -> parent -> snapshot again: a two-hop merge must not
        # lose the distribution (the old bug collapsed it to aggregates).
        obs_enabled.merge_snapshot(self._worker(1.0, 4.0))
        again = obs_enabled.snapshot_for_merge()
        assert sorted(again["timers"]["sim.trace"]["samples"]) == [1.0, 4.0]

    def test_ring_stays_bounded_under_merge(self, obs_enabled):
        from repro.obs.registry import _TIMER_RING

        obs_enabled.merge_snapshot(self._worker(*[0.001] * (_TIMER_RING + 50)))
        t = obs_enabled.timer("sim.trace")
        assert len(t._ring) <= _TIMER_RING
        assert t.count == _TIMER_RING + 50


class TestResilienceCountersSurvive:
    @pytest.fixture
    def clean_faults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        fault_mod.uninstall()
        yield fault_mod
        fault_mod.uninstall()

    def test_serial_fallback_counters_reach_metrics_json(
        self, obs_enabled, clean_faults, tmp_path
    ):
        clean_faults.install("worker.crash")
        lab = Lab(tier=TEST_TIER, jobs=2)
        try:
            lab.prefetch(JOBS)
        finally:
            lab.close()
        doc = read_metrics_json(obs.write_metrics_json(tmp_path / "m.json"))
        counters = doc["counters"]
        assert counters["lab.parallel.serial_fallback"] == len(JOBS)
        assert counters["resilience.faults.injected"] >= 1
        # The degraded in-process jobs still publish their sim counters.
        assert counters["lab.parallel.jobs.completed"] == len(JOBS)
        assert counters["sim.branches"] > 0
