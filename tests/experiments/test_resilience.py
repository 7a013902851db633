"""Fault-tolerance suite (`repro.resilience`): injected worker crashes,
transient I/O errors, corrupt cache/trace-store entries, ENOSPC, timeouts
with retry exhaustion, and rerun after an interrupt — every recovery path must
produce stats bit-identical to a clean serial run."""

import pickle

import pytest

from repro.config import ExperimentTier
from repro.experiments.lab import CACHE_VERSION, Lab
from repro.parallel.jobs import SimJob
from repro.parallel.scheduler import ParallelScheduler
from repro.resilience import (
    CORRUPT_PAYLOAD,
    FaultPlan,
    FaultRule,
)
from repro.resilience import faults as fault_mod
from repro.resilience.quarantine import QUARANTINE_DIRNAME
from repro.workloads.trace_store import TraceStore

TEST_TIER = ExperimentTier(name="rtest", spec_inputs=1, spec_slices=1, lcf_slices=1)

TINY_INSTRUCTIONS = 20_000
TINY_SLICE = 10_000

#: Three cheap independent jobs over one workload (kernel-bearing
#: predictors, so even worker-side recomputation is fast).
JOBS = [
    SimJob("game", 0, TINY_INSTRUCTIONS, predictor, TINY_SLICE)
    for predictor in ("bimodal", "gshare", "two-level-local")
]


def _stats_tuple(result):
    return (
        result.predictor_name,
        result.accuracy,
        result.mpki,
        result.instr_count,
        sorted(
            (ip, c.executions, c.mispredictions) for ip, c in result.stats.items()
        ),
        [
            sorted((ip, c.executions, c.mispredictions) for ip, c in s.items())
            for s in result.slice_stats
        ],
    )


def _simulate_all(lab, jobs=JOBS):
    return [
        _stats_tuple(
            lab.simulate(
                j.workload, j.input_index, j.predictor,
                instructions=j.instructions,
                slice_instructions=j.slice_instructions,
            )
        )
        for j in jobs
    ]


@pytest.fixture(scope="module")
def serial_reference():
    """Clean serial stats every recovery path must reproduce exactly."""
    return _simulate_all(Lab(tier=TEST_TIER, jobs=1))


@pytest.fixture
def clean_faults(monkeypatch):
    """No ambient fault plan before the test; none leaking after it."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    fault_mod.uninstall()
    yield fault_mod
    fault_mod.uninstall()


class TestFaultSpec:
    def test_parse_counts_and_after(self):
        plan = FaultPlan.parse("seed=7;worker.crash:n=2:after=1")
        assert plan.decide("worker.crash") is None  # skipped by after=1
        assert plan.decide("worker.crash") is not None
        assert plan.decide("worker.crash") is not None
        assert plan.decide("worker.crash") is None  # n=2 budget spent
        assert plan.fired("worker.crash") == 2

    def test_probability_is_seeded_and_reproducible(self):
        decisions = [
            [
                FaultPlan.parse("seed=42;job.delay:p=0.5:secs=0.1").decide("job.delay")
                is not None
                for _ in range(1)
            ]
            for _ in range(2)
        ]
        a = FaultPlan.parse("seed=42;job.delay:p=0.5")
        b = FaultPlan.parse("seed=42;job.delay:p=0.5")
        assert [a.decide("job.delay") is not None for _ in range(32)] == [
            b.decide("job.delay") is not None for _ in range(32)
        ]
        assert decisions[0] == decisions[1]

    def test_spec_round_trips(self):
        spec = "seed=9;worker.crash:n=1;job.delay:p=0.25:secs=0.5"
        assert FaultPlan.parse(FaultPlan.parse(spec).spec()).spec() == spec

    def test_unknown_site_and_param_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("not.a.site:n=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("worker.crash:bogus=1")
        with pytest.raises(ValueError):
            FaultPlan([FaultRule("worker.crash"), FaultRule("worker.crash")])

    def test_env_spec_activates(self, clean_faults, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1;worker.crash:n=1")
        plan = clean_faults.active()
        assert plan is not None and plan.seed == 1
        assert clean_faults.active() is plan  # cached per spec string


class TestWorkerCrashRecovery:
    def test_crash_mid_batch_retries_to_bit_identical_stats(
        self, clean_faults, obs_enabled, serial_reference
    ):
        clean_faults.install("seed=3;worker.crash:n=1")
        with Lab(tier=TEST_TIER, jobs=2) as lab:
            assert lab.prefetch(JOBS) == len(JOBS)
            stats = _simulate_all(lab)
        counters = obs_enabled.counters_dict()
        assert counters["resilience.faults.worker.crash"] == 1
        assert counters["lab.parallel.retries"] >= 1
        assert counters["lab.parallel.jobs.resubmitted"] >= 1
        assert counters.get("lab.parallel.jobs.failed", 0) == 0
        # Crash recovery must not recompute anything serially at render
        # time: every request was recovered by the resubmit.
        assert counters.get("lab.sim.cache_miss", 0) == 0
        assert stats == serial_reference

    def test_transient_oserror_is_resubmitted_not_failed(
        self, clean_faults, obs_enabled, serial_reference
    ):
        clean_faults.install("seed=3;worker.oserror:n=1")
        with Lab(tier=TEST_TIER, jobs=2) as lab:
            lab.prefetch(JOBS)
            stats = _simulate_all(lab)
        counters = obs_enabled.counters_dict()
        assert counters["lab.parallel.jobs.resubmitted"] >= 1
        assert counters.get("lab.parallel.jobs.failed", 0) == 0
        assert stats == serial_reference

    def test_deterministic_job_error_fails_fast(self, clean_faults, obs_enabled):
        clean_faults.install("seed=3;job.error:n=1")
        sched = ParallelScheduler(jobs=2, retries=2, backoff_s=0)
        delivered = []
        try:
            failed = sched.run(list(JOBS), lambda job, result: delivered.append(job))
        finally:
            sched.close()
        assert failed == 1
        assert len(delivered) == len(JOBS) - 1
        counters = obs_enabled.counters_dict()
        assert counters["lab.parallel.jobs.failed"] == 1
        # Deterministic failures are never resubmitted.
        assert "lab.parallel.jobs.resubmitted" not in counters


class TestTimeoutAndSerialFallback:
    def test_timeout_exhausts_retries_then_degrades_serially(
        self, clean_faults, obs_enabled, serial_reference
    ):
        # Every submitted job sleeps far past the 0.3s per-job timeout, so
        # both attempts expire; the scheduler must degrade to in-process
        # execution and still deliver bit-identical results.
        clean_faults.install("seed=3;job.delay:secs=60")
        sched = ParallelScheduler(jobs=2, retries=1, backoff_s=0, timeout_s=0.3)
        delivered = {}
        try:
            failed = sched.run(
                list(JOBS), lambda job, result: delivered.__setitem__(job, result)
            )
        finally:
            sched.close()
        assert failed == 0
        counters = obs_enabled.counters_dict()
        # At least one job is genuinely overdue per attempt (jobs that
        # merely shared the doomed pool are resubmitted, not counted).
        assert counters["lab.parallel.timeouts"] >= 2
        assert counters["lab.parallel.serial_fallback"] == len(JOBS)
        assert counters["lab.parallel.jobs.completed"] == len(JOBS)
        assert [_stats_tuple(delivered[j]) for j in JOBS] == serial_reference


class TestPublishFaults:
    def test_enospc_on_cache_publish_fails_soft(
        self, clean_faults, obs_enabled, tmp_path, serial_reference
    ):
        clean_faults.install("cache.enospc")
        lab = Lab(tier=TEST_TIER, cache_dir=str(tmp_path), jobs=1)
        stats = _simulate_all(lab, JOBS[:1])
        assert stats == serial_reference[:1]
        counters = obs_enabled.counters_dict()
        assert counters["lab.cache.store_failed"] >= 1
        assert "lab.sim.cache_store" not in counters
        # The entry never landed; a fresh lab recomputes to the same stats.
        clean_faults.uninstall()
        assert _simulate_all(Lab(tier=TEST_TIER, cache_dir=str(tmp_path)), JOBS[:1]) == stats

    def test_enospc_on_trace_store_publish_fails_soft(
        self, clean_faults, obs_enabled, tmp_path, mcf_trace
    ):
        clean_faults.install("trace_store.enospc")
        store = TraceStore(tmp_path)
        assert store.store("605.mcf_s", 0, 300_000, mcf_trace.trace) is None
        assert obs_enabled.counters_dict()["lab.trace_store.store_failed"] == 1

    def test_corrupted_cache_entry_is_quarantined_and_recomputed(
        self, clean_faults, obs_enabled, tmp_path, serial_reference
    ):
        # The fault corrupts the entry *after* publication (bit-rot / torn
        # write); the next lab must quarantine it and recompute.
        clean_faults.install("cache.corrupt:n=1")
        lab = Lab(tier=TEST_TIER, cache_dir=str(tmp_path))
        _simulate_all(lab, JOBS[:1])
        disk = lab._disk_path(JOBS[0].key())
        assert disk.read_bytes() == CORRUPT_PAYLOAD
        clean_faults.uninstall()

        fresh = Lab(tier=TEST_TIER, cache_dir=str(tmp_path))
        assert _simulate_all(fresh, JOBS[:1]) == serial_reference[:1]
        counters = obs_enabled.counters_dict()
        assert counters["lab.cache.quarantined"] == 1
        quarantined = list((tmp_path / QUARANTINE_DIRNAME).iterdir())
        assert [p.name for p in quarantined] == [disk.name]
        # The recompute re-published a valid entry at the original path.
        assert pickle.loads(disk.read_bytes())["cache_version"] == CACHE_VERSION


class TestTraceStoreQuarantine:
    def test_corrupt_npz_entry_quarantined_then_clean_miss(
        self, obs_enabled, tmp_path, mcf_trace
    ):
        store = TraceStore(tmp_path)
        path = store.store("605.mcf_s", 0, 300_000, mcf_trace.trace)
        path.write_bytes(b"not an npz")
        assert store.load("605.mcf_s", 0, 300_000) is None
        counters = obs_enabled.counters_dict()
        assert counters["lab.trace_store.load_error"] == 1
        assert counters["lab.cache.quarantined"] == 1
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIRNAME / path.name).exists()
        # Second load is a clean miss: no repeated warnings/errors.
        assert store.load("605.mcf_s", 0, 300_000) is None
        counters = obs_enabled.counters_dict()
        assert counters["lab.trace_store.load_error"] == 1
        assert counters["lab.trace_store.miss"] == 1


class TestCacheAliasRegression:
    OLD_STYLE = staticmethod(
        lambda key: f"v4_{key[0]}_{key[1]}_{key[2]}_{key[3]}_{key[4]}.pkl".replace(
            "/", "_"
        )
    )

    def test_old_encoding_aliased_distinct_keys(self):
        # The pre-v5 bug this guards against: replace("/", "_") maps the
        # distinct keys ("a/b", ...) and ("a_b", ...) onto one filename.
        a = self.OLD_STYLE(("a/b", 0, 1, "p", 1))
        b = self.OLD_STYLE(("a_b", 0, 1, "p", 1))
        assert a == b

    def test_new_encoding_is_injective(self, tmp_path):
        lab = Lab(tier=TEST_TIER, cache_dir=str(tmp_path))
        a = lab._disk_path(("a/b", 0, 1, "p", 1))
        b = lab._disk_path(("a_b", 0, 1, "p", 1))
        assert a != b
        # Same for the phase-count cache and across kinds.
        assert lab._cache_filename("phases", ("a/b", 0, 1, 2)) != lab._cache_filename(
            "phases", ("a_b", 0, 1, 2)
        )
        assert lab._cache_filename("sim", ("x", 0, 1, "p", 1)) != lab._cache_filename(
            "phases", ("x", 0, 1, "p", 1)
        )

    def test_aliased_payload_is_never_served(self, tmp_path, serial_reference):
        # End to end: warm one key, then request a would-have-aliased key;
        # it must be computed, not served from the other key's file.
        lab = Lab(tier=TEST_TIER, cache_dir=str(tmp_path))
        a = _simulate_all(lab, JOBS[:1])
        fresh = Lab(tier=TEST_TIER, cache_dir=str(tmp_path))
        b = fresh.simulate(
            JOBS[0].workload, JOBS[0].input_index, "gshare",
            instructions=JOBS[0].instructions,
            slice_instructions=JOBS[0].slice_instructions,
        )
        assert a == serial_reference[:1]
        assert _stats_tuple(b) == serial_reference[1]


class TestResumeAfterInterrupt:
    def test_resume_dispatches_only_missing_requests(
        self, obs_enabled, tmp_path, serial_reference
    ):
        # "Interrupted" sweep: only the first job completed (and was
        # published to the disk cache) before the kill.
        with Lab(tier=TEST_TIER, cache_dir=str(tmp_path), jobs=2) as lab:
            assert lab.prefetch(JOBS[:1]) == 1
        before = obs_enabled.counter("lab.parallel.jobs.dispatched").value
        # The restarted sweep (a plain rerun on the same cache dir) asks for
        # everything; the disk cache plans the finished request away and
        # only the two missing ones are dispatched.
        with Lab(tier=TEST_TIER, cache_dir=str(tmp_path), jobs=2) as lab:
            assert lab.prefetch(JOBS) == 2
            stats = _simulate_all(lab)
        assert obs_enabled.counter("lab.parallel.jobs.dispatched").value - before == 2
        assert obs_enabled.counter("lab.parallel.jobs.cache_planned").value == 1
        assert stats == serial_reference


class TestPoolLifecycle:
    def test_no_child_processes_outlive_lab_close(self):
        with Lab(tier=TEST_TIER, jobs=2) as lab:
            lab.prefetch(JOBS[:1])
            procs = list(lab._scheduler._pool._processes.values())
            assert procs and any(p.is_alive() for p in procs)
        assert all(not p.is_alive() for p in procs)

    def test_close_is_idempotent(self):
        lab = Lab(tier=TEST_TIER, jobs=2)
        lab.prefetch(JOBS[:1])
        lab.close()
        lab.close()

    def test_spawn_context_regression(self, serial_reference):
        # The docstring promises fork where available, but worker_init and
        # job pickling must also survive a spawn pool (macOS/Windows
        # platform defaults).
        sched = ParallelScheduler(jobs=1, start_method="spawn")
        delivered = {}
        try:
            failed = sched.run(
                JOBS[:1], lambda job, result: delivered.__setitem__(job, result)
            )
        finally:
            sched.close()
        assert failed == 0
        assert _stats_tuple(delivered[JOBS[0]]) == serial_reference[0]

    def test_default_start_method_is_fork_where_available(self):
        import multiprocessing

        sched = ParallelScheduler(jobs=1)
        if "fork" in multiprocessing.get_all_start_methods():
            assert sched.start_method == "fork"
        else:
            assert sched.start_method == "spawn"


class TestClockSkew:
    def test_negative_delta_counted_not_recorded(self, obs_enabled):
        sched = ParallelScheduler(jobs=1)
        sched._record_queue_wait(-0.25)
        assert obs_enabled.counters_dict()["lab.parallel.clock_skew"] == 1
        assert obs_enabled.timer("lab.parallel.queue_wait").calls == 0

    def test_positive_delta_recorded(self, obs_enabled):
        sched = ParallelScheduler(jobs=1)
        sched._record_queue_wait(0.125)
        timer = obs_enabled.timer("lab.parallel.queue_wait")
        assert timer.calls == 1
        assert timer.total_s == pytest.approx(0.125)
        assert "lab.parallel.clock_skew" not in obs_enabled.counters_dict()
