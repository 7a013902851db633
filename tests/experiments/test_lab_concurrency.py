"""Lab under concurrency: per-key single-flight (for single simulations
and overlapping batches) and LRU cache bounds with eviction counters."""

import sys
import threading
import time
from collections import Counter

from repro.config import ExperimentTier
from repro.experiments import lab as lab_module
from repro.experiments.lab import Lab

TIER = ExperimentTier(name="labcc", spec_inputs=1, spec_slices=1, lcf_slices=1)
INSTR = 20_000
SLICE = 10_000


def _stats_tuple(result):
    return (
        result.instr_count,
        sorted((ip, c.executions, c.mispredictions) for ip, c in result.stats.items()),
    )


class TestSingleFlight:
    def test_concurrent_same_key_computes_once(self, monkeypatch):
        lab = Lab(tier=TIER, jobs=1)
        calls = []
        real = lab_module.simulate_trace_batch

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace_batch", counting)
        workers = 6
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def worker(slot):
            barrier.wait()
            results[slot] = lab.simulate(
                "game", 0, "tage-sc-l-8kb",
                instructions=INSTR, slice_instructions=SLICE,
            )

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        assert len(calls) == 1
        # Followers join the leader's flight and read its published result.
        assert all(r is results[0] for r in results)

    def test_concurrent_distinct_keys_all_resolve(self):
        lab = Lab(tier=TIER, jobs=1)
        predictors = ["bimodal", "gshare", "two-level-local", "tage-sc-l-8kb"]
        results = {}
        barrier = threading.Barrier(len(predictors))

        def worker(predictor):
            barrier.wait()
            results[predictor] = lab.simulate(
                "game", 0, predictor, instructions=INSTR, slice_instructions=SLICE
            )

        threads = [
            threading.Thread(target=worker, args=(p,)) for p in predictors
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        for predictor in predictors:
            assert results[predictor].predictor_name == predictor

    def test_failed_leader_releases_followers(self, monkeypatch):
        """A leader that raises must wake waiters, and a waiter must retry
        (becoming the new leader) instead of hanging or caching the error."""
        lab = Lab(tier=TIER, jobs=1)
        real = lab_module.simulate_trace_batch
        calls = []
        fail_first = threading.Event()

        def flaky(*args, **kwargs):
            calls.append(1)
            if not fail_first.is_set():
                fail_first.set()
                raise RuntimeError("injected leader failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace_batch", flaky)
        outcomes = []
        started = threading.Barrier(2)

        def worker():
            started.wait()
            try:
                outcomes.append(
                    lab.simulate(
                        "game", 0, "bimodal",
                        instructions=INSTR, slice_instructions=SLICE,
                    )
                )
            except RuntimeError:
                outcomes.append(None)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a waiter hung"
        successes = [o for o in outcomes if o is not None]
        assert successes, "no caller recovered after the injected failure"
        assert successes[0].predictor_name == "bimodal"


class TestOverlappingBatches:
    def test_each_key_computed_once(self, monkeypatch):
        lab = Lab(tier=TIER, jobs=1)
        real = lab_module.simulate_trace_batch
        computed = Counter()
        lock = threading.Lock()

        def counting(trace, predictors, *args, **kwargs):
            with lock:
                computed.update(p.name for p in predictors)
            time.sleep(0.05)  # widen the window in which the batches overlap
            return real(trace, predictors, *args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace_batch", counting)
        lists = {"a": ["bimodal", "gshare"], "b": ["gshare", "two-level-local"]}
        results = {}
        barrier = threading.Barrier(len(lists))

        def worker(name):
            barrier.wait()
            results[name] = lab.simulate_batch(
                "game", 0, lists[name], instructions=INSTR, slice_instructions=SLICE
            )

        threads = [threading.Thread(target=worker, args=(n,)) for n in lists]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a batch hung"
        assert computed == Counter(bimodal=1, gshare=1, **{"two-level-local": 1})
        for name, predictors in lists.items():
            assert [r.predictor_name for r in results[name]] == predictors
        # Both batches got the one published gshare result.
        assert results["a"][1] is results["b"][0]

    def test_stress_overlapping_batches_compute_each_key_once(self, monkeypatch):
        """More threads than cores, a short switch interval, and every
        rotation of three predictors: a lost flight or a double compute
        shows up as a count other than one per key."""
        lab = Lab(tier=TIER, jobs=1)
        real = lab_module.simulate_trace_batch
        computed = Counter()
        lock = threading.Lock()

        def counting(trace, predictors, *args, **kwargs):
            with lock:
                computed.update(p.name for p in predictors)
            return real(trace, predictors, *args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace_batch", counting)
        labels = ["bimodal", "gshare", "two-level-local"]
        workers = 8
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def worker(slot):
            barrier.wait()
            rotated = labels[slot % 3:] + labels[: slot % 3]
            results[slot] = dict(zip(rotated, lab.simulate_batch(
                "game", 0, rotated, instructions=INSTR, slice_instructions=SLICE
            )))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a batch hung"
        assert computed == Counter(labels)
        for label in labels:
            assert all(r[label] is results[0][label] for r in results)

    def test_failed_batch_leader_wakes_deferred_follower(
        self, monkeypatch, obs_enabled
    ):
        """Batch A leads gshare and fails; batch B, deferred on gshare,
        wakes, takes the key over and finishes.  Nothing hangs, and the
        error is not cached."""
        lab = Lab(tier=TIER, jobs=1)
        real = lab_module.simulate_trace_batch
        calls = []
        a_computing = threading.Event()

        def flaky(trace, predictors, *args, **kwargs):
            names = tuple(p.name for p in predictors)
            calls.append(names)
            if names == ("bimodal", "gshare"):
                a_computing.set()
                # Fail only once B is waiting on the gshare flight.
                deadline = time.monotonic() + 30
                while (
                    obs_enabled.counter("lab.singleflight.wait").value < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                raise RuntimeError("injected leader failure")
            return real(trace, predictors, *args, **kwargs)

        monkeypatch.setattr(lab_module, "simulate_trace_batch", flaky)
        outcomes = {}

        def batch_a():
            try:
                lab.simulate_batch(
                    "game", 0, ["bimodal", "gshare"],
                    instructions=INSTR, slice_instructions=SLICE,
                )
            except RuntimeError as exc:
                outcomes["a"] = exc

        def batch_b():
            assert a_computing.wait(timeout=30)
            outcomes["b"] = lab.simulate_batch(
                "game", 0, ["two-level-local", "gshare"],
                instructions=INSTR, slice_instructions=SLICE,
            )

        threads = [threading.Thread(target=batch_a), threading.Thread(target=batch_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a batch hung"
        assert isinstance(outcomes["a"], RuntimeError)
        assert [r.predictor_name for r in outcomes["b"]] == ["two-level-local", "gshare"]
        assert calls == [("bimodal", "gshare"), ("two-level-local",), ("gshare",)]
        # The failed key was never published: the next request computes it.
        again = lab.simulate(
            "game", 0, "bimodal", instructions=INSTR, slice_instructions=SLICE
        )
        assert again.predictor_name == "bimodal"
        assert calls[-1] == ("bimodal",)


class TestLruBounds:
    def test_trace_cache_bounded_with_eviction_counter(
        self, monkeypatch, obs_enabled
    ):
        monkeypatch.setenv("REPRO_LAB_TRACE_CACHE", "2")
        lab = Lab(tier=TIER, jobs=1)
        for extra in range(3):
            lab.trace("game", 0, 10_000 + extra * 1_000)
        assert len(lab._traces) == 2
        counters = obs_enabled.counters_dict()
        assert counters.get("lab.mem.evicted", 0) >= 1
        assert counters.get("lab.mem.evicted.traces", 0) >= 1

    def test_results_identical_after_eviction(self, monkeypatch):
        monkeypatch.setenv("REPRO_LAB_SIM_CACHE", "1")
        lab = Lab(tier=TIER, jobs=1)
        first = lab.simulate(
            "game", 0, "bimodal", instructions=INSTR, slice_instructions=SLICE
        )
        lab.simulate(
            "game", 0, "gshare", instructions=INSTR, slice_instructions=SLICE
        )
        # bimodal was evicted; the recompute must be bit-identical.
        again = lab.simulate(
            "game", 0, "bimodal", instructions=INSTR, slice_instructions=SLICE
        )
        assert again is not first
        assert _stats_tuple(again) == _stats_tuple(first)

    def test_nonpositive_cap_means_unbounded(self, monkeypatch, obs_enabled):
        monkeypatch.setenv("REPRO_LAB_TRACE_CACHE", "0")
        lab = Lab(tier=TIER, jobs=1)
        for extra in range(4):
            lab.trace("game", 0, 10_000 + extra * 1_000)
        assert len(lab._traces) == 4
        assert obs_enabled.counters_dict().get("lab.mem.evicted", 0) == 0
