"""Registry semantics: counters, gauges, timers, no-op paths."""

import time

from repro import obs
from repro.obs.registry import MetricsRegistry


class TestCounters:
    def test_increment_defaults_to_one(self, obs_enabled):
        obs.counter("x")
        obs.counter("x")
        assert obs_enabled.counters_dict() == {"x": 2}

    def test_increment_amount(self, obs_enabled):
        obs.counter("sim.branches", 500)
        obs.counter("sim.branches", 250)
        assert obs_enabled.counter("sim.branches").value == 750

    def test_gauge_last_write_wins(self, obs_enabled):
        obs.gauge("rate", 1.0)
        obs.gauge("rate", 2.5)
        assert obs_enabled.gauges_dict() == {"rate": 2.5}


class TestTimers:
    def test_timer_aggregates(self, obs_enabled):
        for _ in range(3):
            with obs.timer("op"):
                time.sleep(0.001)
        t = obs_enabled.timer("op")
        assert t.calls == 3 and t.count == 3
        assert t.total_s >= 0.003
        assert 0 < t.min_s <= t.mean_s <= t.max_s
        assert t.to_dict()["p50_s"] > 0

    def test_timer_elapsed_exposed(self, obs_enabled):
        with obs.timer("op") as tc:
            time.sleep(0.001)
        assert tc.elapsed_s >= 0.001

    def test_extra_names_share_duration(self, obs_enabled):
        with obs.timer("sim.trace", extra=("sim.predictor.tage",)):
            pass
        timers = obs_enabled.timers_dict()
        assert timers["sim.trace"]["calls"] == 1
        assert timers["sim.predictor.tage"]["calls"] == 1

    def test_observe_timer_records_external_duration(self, obs_enabled):
        obs.observe_timer("ext", 0.5)
        t = obs_enabled.timer("ext")
        assert t.count == 1 and t.total_s == 0.5


class TestDisabledFastPath:
    def test_counter_noop(self, obs_disabled):
        obs.counter("x", 10)
        assert obs_disabled.counters_dict() == {}

    def test_gauge_noop(self, obs_disabled):
        obs.gauge("g", 1.0)
        assert obs_disabled.gauges_dict() == {}

    def test_timer_noop_and_shared(self, obs_disabled):
        with obs.timer("op") as a:
            pass
        with obs.timer("op2") as b:
            pass
        assert a is b  # the shared no-op context manager
        assert a.elapsed_s == 0.0
        assert obs_disabled.timers_dict() == {}

    def test_observe_timer_noop(self, obs_disabled):
        obs.observe_timer("ext", 1.0)
        assert obs_disabled.timers_dict() == {}


class TestLifecycle:
    def test_reset_clears_metrics(self, obs_enabled):
        obs.counter("a")
        obs.gauge("b", 2)
        with obs.timer("c"):
            pass
        obs.reset()
        assert obs_enabled.counters_dict() == {}
        assert obs_enabled.gauges_dict() == {}
        assert obs_enabled.timers_dict() == {}

    def test_env_enables_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert MetricsRegistry().enabled
        monkeypatch.setenv("REPRO_METRICS", "0")
        assert not MetricsRegistry().enabled
        monkeypatch.delenv("REPRO_METRICS")
        assert not MetricsRegistry().enabled

    def test_timer_ring_bounded(self, obs_enabled):
        t = obs_enabled.timer("many")
        for _i in range(1000):
            t.observe(0.001)
        assert len(t._ring) <= 256
        assert t.count == 1000


class TestCrossProcessMerge:
    def _worker_like_snapshot(self):
        worker = MetricsRegistry(enabled=True)
        worker.inc("sim.branches", 100)
        worker.set_gauge("sim.branches_per_sec", 5.0)
        worker.observe("sim.trace", 2.0)
        worker.observe("sim.trace", 4.0)
        return worker.snapshot_for_merge()

    def test_snapshot_round_trips_through_merge(self, obs_enabled):
        obs.counter("sim.branches", 7)
        obs.observe_timer("sim.trace", 1.0)
        obs_enabled.merge_snapshot(self._worker_like_snapshot())
        assert obs_enabled.counters_dict()["sim.branches"] == 107
        assert obs_enabled.gauges_dict()["sim.branches_per_sec"] == 5.0
        t = obs_enabled.timer("sim.trace")
        assert t.calls == 3 and t.count == 3
        assert t.total_s == 7.0
        assert t.min_s == 1.0 and t.max_s == 4.0

    def test_snapshot_is_json_serializable(self, obs_enabled):
        import json

        obs.counter("a")
        with obs.timer("b"):
            pass
        json.dumps(obs_enabled.snapshot_for_merge())

    def test_merge_is_noop_when_disabled(self, obs_disabled):
        obs_disabled.merge_snapshot(self._worker_like_snapshot())
        assert obs_disabled.counters_dict() == {}
        assert obs_disabled.timers_dict() == {}
