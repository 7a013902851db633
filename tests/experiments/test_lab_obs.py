"""Lab cache observability: hit/miss counters and invalid-cache handling."""

import logging
import pickle

import pytest

from repro.experiments.config import QUICK_TIER
from repro.experiments.lab import CACHE_VERSION, Lab

WORKLOAD = "605.mcf_s"
PREDICTOR = "tage-sc-l-8kb"
INSTRUCTIONS = 30_000


def _sim(lab):
    return lab.simulate(WORKLOAD, 0, PREDICTOR, instructions=INSTRUCTIONS)


def _disk_path(lab):
    from repro.experiments.config import SLICE_INSTRUCTIONS

    return lab._disk_path((WORKLOAD, 0, INSTRUCTIONS, PREDICTOR, SLICE_INSTRUCTIONS))


class TestCacheCounters:
    def test_miss_then_memory_hit(self, obs_enabled):
        lab = Lab(tier=QUICK_TIER)
        _sim(lab)
        counters = obs_enabled.counters_dict()
        assert counters["lab.sim.cache_miss"] == 1
        assert "lab.sim.cache_hit.memory" not in counters
        _sim(lab)
        _sim(lab)
        counters = obs_enabled.counters_dict()
        assert counters["lab.sim.cache_miss"] == 1
        assert counters["lab.sim.cache_hit.memory"] == 2

    def test_trace_counters(self, obs_enabled):
        lab = Lab(tier=QUICK_TIER)
        lab.trace(WORKLOAD, 0, instructions=INSTRUCTIONS)
        lab.trace(WORKLOAD, 0, instructions=INSTRUCTIONS)
        counters = obs_enabled.counters_dict()
        assert counters["lab.trace.build"] == 1
        assert counters["lab.trace.cache_hit"] == 1

    def test_disk_hit_and_store(self, obs_enabled, tmp_path):
        lab1 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        _sim(lab1)
        lab2 = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        _sim(lab2)
        counters = obs_enabled.counters_dict()
        assert counters["lab.sim.cache_store"] == 1
        assert counters["lab.sim.cache_hit.disk"] == 1
        assert counters["lab.sim.cache_miss"] == 1

    def test_phase_count_counts_as_phases_not_sims(self, obs_enabled, tmp_path):
        lab = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        lab.phase_count(WORKLOAD, 0, instructions=INSTRUCTIONS, bbv_interval=10_000)
        lab_counters = {
            name: value
            for name, value in obs_enabled.counters_dict().items()
            if name.startswith(("lab.sim.", "lab.phases."))
        }
        assert lab_counters == {"lab.phases.cache_miss": 1, "lab.phases.cache_store": 1}
        fresh = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        fresh.phase_count(WORKLOAD, 0, instructions=INSTRUCTIONS, bbv_interval=10_000)
        assert obs_enabled.counters_dict()["lab.phases.cache_hit.disk"] == 1

    def test_simulate_span_recorded(self, obs_enabled):
        from repro.obs.spans import span_trees

        lab = Lab(tier=QUICK_TIER)
        _sim(lab)
        roots = [t for t in span_trees() if t["name"] == "lab.simulate"]
        assert roots and roots[0]["attrs"]["workload"] == WORKLOAD

    def test_disabled_mode_collects_nothing(self, obs_disabled):
        lab = Lab(tier=QUICK_TIER)
        _sim(lab)
        _sim(lab)
        assert obs_disabled.counters_dict() == {}
        assert obs_disabled.timers_dict() == {}


class TestInvalidDiskCache:
    @pytest.fixture(autouse=True)
    def _propagate_to_caplog(self):
        # configure_logging() sets repro.propagate=False (own handler); undo
        # for the test so caplog's root-logger handler sees the warnings.
        root = logging.getLogger("repro")
        before = root.propagate
        root.propagate = True
        yield
        root.propagate = before

    @pytest.fixture
    def warm_cache(self, obs_enabled, tmp_path):
        lab = Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))
        reference = _sim(lab)
        return tmp_path, reference

    def _reload(self, tmp_path):
        return Lab(tier=QUICK_TIER, cache_dir=str(tmp_path))

    def test_corrupt_pickle_recomputes_with_warning(
        self, obs_enabled, warm_cache, caplog
    ):
        tmp_path, reference = warm_cache
        lab = self._reload(tmp_path)
        _disk_path(lab).write_bytes(b"not a pickle")
        with caplog.at_level(logging.WARNING, logger="repro.lab"):
            result = _sim(lab)
        assert result.mispredictions == reference.mispredictions
        counters = obs_enabled.counters_dict()
        assert counters["lab.cache.invalid"] == 1
        # An unreadable entry also increments the dedicated I/O-failure
        # counter (distinguishing it from well-formed-but-stale payloads).
        assert counters["lab.cache.load_error"] == 1
        assert any(
            "invalid disk cache" in rec.message and "unreadable" in rec.message
            for rec in caplog.records
        )

    def test_stale_version_recomputes_with_warning(
        self, obs_enabled, warm_cache, caplog
    ):
        tmp_path, reference = warm_cache
        lab = self._reload(tmp_path)
        path = _disk_path(lab)
        with open(path, "wb") as f:
            pickle.dump({"cache_version": CACHE_VERSION - 1, "result": reference}, f)
        with caplog.at_level(logging.WARNING, logger="repro.lab"):
            result = _sim(lab)
        assert result.mispredictions == reference.mispredictions
        counters = obs_enabled.counters_dict()
        assert counters["lab.cache.invalid"] == 1
        # Stale-but-readable payloads are not I/O failures.
        assert "lab.cache.load_error" not in counters
        assert any("stale cache version" in rec.message for rec in caplog.records)

    def test_recompute_overwrites_bad_entry(self, obs_enabled, warm_cache):
        tmp_path, reference = warm_cache
        lab = self._reload(tmp_path)
        path = _disk_path(lab)
        path.write_bytes(b"garbage")
        _sim(lab)
        # A fresh lab now loads the rewritten entry cleanly from disk.
        lab2 = self._reload(tmp_path)
        result = _sim(lab2)
        assert result.mispredictions == reference.mispredictions
        counters = obs_enabled.counters_dict()
        assert counters["lab.cache.invalid"] == 1
        assert counters["lab.sim.cache_hit.disk"] == 1
