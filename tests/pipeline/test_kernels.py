"""Vectorized kernel path: scan primitives and scalar/kernel equivalence.

The contract under test (see :mod:`repro.kernels`) is *bit-identity*: for
every kernel-bearing predictor, the vectorized path must reproduce the
scalar loop's outputs exactly — aggregate and per-slice stats including
dict insertion order, mispredict positions, warmup semantics, and the
predictor's own final table/history state.
"""

import random

import numpy as np
import pytest

from repro.core.types import BranchTrace
from repro.kernels import kernels_enabled
from repro.kernels.batched import batchable
from repro.kernels.scan import (
    final_history,
    local_history,
    packed_history,
    saturating_counter_scan,
)
from repro.pipeline.simulator import simulate_trace, simulate_trace_batch
from repro.predictors.base import counter_update
from repro.predictors.gehl import OGehl
from repro.predictors.oracle import Perfect, PerfectFilter
from repro.predictors.perceptron import PathPerceptron, Perceptron
from repro.predictors.simple import (
    AlwaysTaken,
    Bimodal,
    GShare,
    NeverTaken,
    TwoLevelLocal,
)
from repro.predictors.tage import Tage
from repro.predictors.tagescl import STORAGE_PRESETS_KIB, TageScL, make_tage_sc_l
from repro.workloads import WORKLOADS_BY_NAME, trace_workload

SPECINT = [name for name, spec in WORKLOADS_BY_NAME.items() if spec.category == "specint"]


# ---------------------------------------------------------------------------
# scan primitives vs. direct scalar replay


def scalar_counter_replay(groups, taken, lo, hi, init):
    """Reference implementation: per-group counter_update loop."""
    if isinstance(init, np.ndarray):
        table = {}
        for g, v in zip(groups, init):
            table.setdefault(int(g), int(v))
    else:
        table = {int(g): int(init) for g in groups}
    before = []
    for g, t in zip(groups, taken):
        g = int(g)
        before.append(table[g])
        table[g] = counter_update(table[g], bool(t), lo, hi)
    return np.asarray(before, dtype=np.int64), table


class TestSaturatingCounterScan:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_replay_randomized(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 400)
        k = rng.randrange(1, 12)
        lo, hi = -rng.randrange(1, 4), rng.randrange(0, 4)
        groups = np.array([rng.randrange(k) for _ in range(n)], dtype=np.int64)
        taken = np.array([rng.random() < 0.6 for _ in range(n)], dtype=bool)
        if rng.random() < 0.5:
            table = np.array([rng.randrange(lo, hi + 1) for _ in range(k)], dtype=np.int64)
            init = table[groups]
        else:
            init = rng.randrange(lo, hi + 1)
        scan = saturating_counter_scan(groups, taken, lo, hi, init)
        want_before, want_table = scalar_counter_replay(groups, taken, lo, hi, init)
        assert np.array_equal(scan.states_before, want_before)
        got_table = dict(
            zip(scan.final_groups.tolist(), scan.final_states.tolist())
        )
        assert got_table == want_table

    def test_empty_stream(self):
        scan = saturating_counter_scan(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), -2, 1, 0
        )
        assert len(scan.states_before) == 0
        assert len(scan.final_groups) == 0

    def test_single_long_run_saturates(self):
        n = 100
        groups = np.zeros(n, dtype=np.int64)
        taken = np.ones(n, dtype=bool)
        scan = saturating_counter_scan(groups, taken, -2, 1, -2)
        # -2 -> -1 -> 0 -> 1 -> 1 -> ...
        assert scan.states_before[:4].tolist() == [-2, -1, 0, 1]
        assert scan.states_before[4:].tolist() == [1] * (n - 4)
        assert scan.final_states.tolist() == [1]


class TestHistoryHelpers:
    @pytest.mark.parametrize("seed,bits,init", [(0, 4, 0), (1, 8, 0b1011), (2, 3, 0b111)])
    def test_packed_history_matches_shift_register(self, seed, bits, init):
        rng = random.Random(seed)
        taken = np.array([rng.random() < 0.5 for _ in range(50)], dtype=bool)
        mask = (1 << bits) - 1
        h = init & mask
        for i, t in enumerate(taken):
            assert packed_history(taken, bits, init=init)[i] == h
            h = ((h << 1) | int(t)) & mask
        assert final_history(taken, bits, init=init) == h

    @pytest.mark.parametrize("seed", range(4))
    def test_local_history_matches_per_group_registers(self, seed):
        rng = random.Random(100 + seed)
        n, k, bits = 120, 5, 4
        groups = np.array([rng.randrange(k) for _ in range(n)], dtype=np.int64)
        taken = np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool)
        init_table = np.array([rng.randrange(1 << bits) for _ in range(k)], dtype=np.int64)
        lh = local_history(groups, taken, bits, init_table)
        mask = (1 << bits) - 1
        regs = {g: int(init_table[g]) for g in range(k)}
        for i in range(n):
            g = int(groups[i])
            assert int(lh.history[i]) == regs[g], f"position {i}"
            regs[g] = ((regs[g] << 1) | int(taken[i])) & mask
        final = dict(zip(lh.final_groups.tolist(), lh.final_registers.tolist()))
        assert final == {g: regs[g] for g in set(groups.tolist())}


# ---------------------------------------------------------------------------
# end-to-end equivalence: scalar loop vs. vectorized path


def kernel_predictors(trace):
    """Fresh instances of every kernel-bearing predictor."""
    perfect_ips = set(trace.static_branch_ips().tolist()[::2])
    return [
        AlwaysTaken(),
        NeverTaken(),
        Bimodal(),
        GShare(),
        TwoLevelLocal(),
        Perfect(),
        PerfectFilter(GShare(), perfect_ips=perfect_ips),
        Perceptron(),
        PathPerceptron(),
        OGehl(),
    ]


_STATE_ATTRS = (
    # tables / registers
    "_table", "_history", "_l1", "_l2", "_weights", "_tables",
    "_dir_history", "_path",
    # adaptive thresholds and per-prediction scratch (stale-value
    # semantics are part of the bit-identity contract)
    "threshold", "_tc", "_last_sum", "_last_index", "_last_indices",
    "_last_rows",
)


def predictor_state(p):
    state = {
        attr: getattr(p, attr) for attr in _STATE_ATTRS if hasattr(p, attr)
    }
    if getattr(p, "inner", None) is not None:
        state["inner"] = predictor_state(p.inner)
    return state


def full_state(obj, _depth=0):
    """Normalize an object graph for exact state comparison."""
    if isinstance(obj, (bool, int, float, str, bytes, type(None))):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [full_state(x, _depth + 1) for x in obj]
    if isinstance(obj, dict):
        # Key order is part of the contract (insertion-ordered tables).
        return [(k, full_state(v, _depth + 1)) for k, v in obj.items()]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if _depth > 8:  # defensive: predictor graphs are shallow
        return repr(obj)
    if hasattr(obj, "__dict__"):
        return {k: full_state(v, _depth + 1) for k, v in vars(obj).items()}
    slots = [
        s for klass in type(obj).__mro__ for s in getattr(klass, "__slots__", ())
    ]
    if slots:
        return {
            s: full_state(getattr(obj, s), _depth + 1)
            for s in slots
            if hasattr(obj, s)
        }
    return repr(obj)


def assert_identical(scalar, vectorized):
    assert scalar.stats._counts == vectorized.stats._counts
    assert list(scalar.stats._counts) == list(vectorized.stats._counts)
    s_slices = scalar.slice_stats
    v_slices = vectorized.slice_stats
    assert (s_slices is None) == (v_slices is None)
    if s_slices is not None:
        assert len(s_slices) == len(v_slices)
        for s, v in zip(s_slices, v_slices):
            assert s._counts == v._counts
            assert list(s._counts) == list(v._counts)
    s_pos = scalar.mispredict_positions
    v_pos = vectorized.mispredict_positions
    assert (s_pos is None) == (v_pos is None)
    if s_pos is not None:
        assert np.array_equal(np.asarray(s_pos), np.asarray(v_pos))


@pytest.fixture(scope="module")
def small_traces():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = trace_workload(
                WORKLOADS_BY_NAME[name], 0, instructions=30_000
            ).trace
        return cache[name]

    return get


class TestScalarKernelEquivalence:
    @pytest.mark.parametrize("workload", SPECINT)
    def test_all_predictors_bit_identical(self, workload, small_traces, monkeypatch):
        trace = small_traces(workload)
        scalars = kernel_predictors(trace)
        vectors = kernel_predictors(trace)
        for ps, pv in zip(scalars, vectors):
            monkeypatch.setenv("REPRO_KERNELS", "0")
            rs = simulate_trace(
                trace,
                ps,
                slice_instructions=10_000,
                record_mispredict_positions=True,
            )
            monkeypatch.setenv("REPRO_KERNELS", "1")
            rv = simulate_trace(
                trace,
                pv,
                slice_instructions=10_000,
                record_mispredict_positions=True,
            )
            assert_identical(rs, rv)
            assert predictor_state(ps) == predictor_state(pv), ps.name

    @pytest.mark.parametrize(
        "factory", [Bimodal, Perceptron, PathPerceptron, OGehl]
    )
    @pytest.mark.parametrize(
        "warmup,slices",
        [(0, None), (0, 7_777), (500, 10_000), (3, 10_000), (10**6, 10_000)],
    )
    def test_warmup_slice_combinations(
        self, factory, warmup, slices, small_traces, monkeypatch
    ):
        trace = small_traces("605.mcf_s")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        ps = factory()
        rs = simulate_trace(
            trace,
            ps,
            slice_instructions=slices,
            record_mispredict_positions=True,
            warmup_branches=warmup,
        )
        monkeypatch.setenv("REPRO_KERNELS", "1")
        pv = factory()
        rv = simulate_trace(
            trace,
            pv,
            slice_instructions=slices,
            record_mispredict_positions=True,
            warmup_branches=warmup,
        )
        assert_identical(rs, rv)
        assert full_state(ps) == full_state(pv)

    def test_cross_call_state_carries_over(self, small_traces, monkeypatch):
        # Simulating twice without reset must train through, identically.
        trace = small_traces("641.leela_s")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        ps = GShare()
        simulate_trace(trace, ps)
        rs = simulate_trace(trace, ps)
        monkeypatch.setenv("REPRO_KERNELS", "1")
        pv = GShare()
        simulate_trace(trace, pv)
        rv = simulate_trace(trace, pv)
        assert_identical(rs, rv)
        assert predictor_state(ps) == predictor_state(pv)


class TestDispatch:
    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        assert not kernels_enabled()
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert not kernels_enabled()
        monkeypatch.delenv("REPRO_KERNELS")
        assert kernels_enabled()

    def test_scalar_path_counts_fallback(self, monkeypatch, obs_enabled):
        trace = BranchTrace(ips=[0x40] * 10, taken=[True] * 10)
        monkeypatch.setenv("REPRO_KERNELS", "0")
        simulate_trace(trace, AlwaysTaken())
        counters = obs_enabled.counters_dict()
        assert counters["kernels.fallback_scalar"] == 10
        assert "kernels.branches" not in counters

    def test_kernel_path_counts_branches(self, monkeypatch, obs_enabled):
        trace = BranchTrace(ips=[0x40] * 10, taken=[True] * 10)
        monkeypatch.setenv("REPRO_KERNELS", "1")
        simulate_trace(trace, AlwaysTaken())
        counters = obs_enabled.counters_dict()
        assert counters["kernels.branches"] == 10
        assert "kernels.fallback_scalar" not in counters

    def test_tage_has_no_kernel(self):
        assert make_tage_sc_l(8).vectorized_kernel() is None

    def test_subclasses_fall_back_to_scalar(self):
        class Tweaked(Bimodal):
            def predict(self, ip):
                return not super().predict(ip)

        assert Tweaked().vectorized_kernel() is None
        assert GShare().vectorized_kernel() is not None

    def test_perfect_filter_with_predicate_falls_back(self):
        p = PerfectFilter(GShare(), predicate=lambda ip: ip % 2 == 0)
        assert p.vectorized_kernel() is None

    def test_fallback_counter_has_per_predictor_child(self, monkeypatch, obs_enabled):
        trace = BranchTrace(ips=[0x40] * 10, taken=[True] * 10)
        monkeypatch.setenv("REPRO_KERNELS", "0")
        simulate_trace(trace, AlwaysTaken())
        simulate_trace(trace, make_tage_sc_l(8))
        counters = obs_enabled.counters_dict()
        assert counters["kernels.fallback_scalar"] == 20
        assert counters["kernels.fallback_scalar.always-taken"] == 10
        assert counters["kernels.fallback_scalar.tage-sc-l-8kb"] == 10


# ---------------------------------------------------------------------------
# batched multi-config TAGE-SC-L replay


BATCH_PRESETS = (8, 64)


class TestBatchedTageScL:
    def _run_pair(self, trace, monkeypatch, **kwargs):
        """Scalar loop per preset vs. one batched replay over all presets."""
        monkeypatch.setenv("REPRO_KERNELS", "0")
        scalars = [make_tage_sc_l(k) for k in BATCH_PRESETS]
        rs = [
            simulate_trace(trace, p, **kwargs)
            for p in scalars
        ]
        monkeypatch.setenv("REPRO_KERNELS", "1")
        vectors = [make_tage_sc_l(k) for k in BATCH_PRESETS]
        rv = simulate_trace_batch(trace, vectors, **kwargs)
        return scalars, rs, vectors, rv

    def test_batchable_guards(self):
        assert batchable(make_tage_sc_l(8))

        class Tweaked(TageScL):
            pass

        assert not batchable(Tweaked())

    def test_stats_positions_and_full_state_identical(
        self, small_traces, monkeypatch
    ):
        trace = small_traces("605.mcf_s")
        scalars, rs, vectors, rv = self._run_pair(
            trace,
            monkeypatch,
            slice_instructions=10_000,
            record_mispredict_positions=True,
        )
        for ps, s, pv, v in zip(scalars, rs, vectors, rv):
            assert_identical(s, v)
            assert full_state(ps) == full_state(pv), ps.name
            # Insertion order of the composite's local-history table is
            # part of the contract (full_state already encodes it; this
            # makes a failure legible).
            assert list(ps._local) == list(pv._local)

    def test_warmup_and_slice_semantics_match(self, small_traces, monkeypatch):
        trace = small_traces("605.mcf_s")
        _, rs, _, rv = self._run_pair(
            trace,
            monkeypatch,
            slice_instructions=7_777,
            record_mispredict_positions=True,
            warmup_branches=500,
        )
        for s, v in zip(rs, rv):
            assert_identical(s, v)

    def test_batch_counts_batched_branches(self, small_traces, monkeypatch, obs_enabled):
        trace = small_traces("605.mcf_s")
        monkeypatch.setenv("REPRO_KERNELS", "1")
        simulate_trace_batch(trace, [make_tage_sc_l(k) for k in BATCH_PRESETS])
        counters = obs_enabled.counters_dict()
        cond = int(len(trace.conditional_columns()[0]))
        assert counters["kernels.batched"] == cond * len(BATCH_PRESETS)
        assert counters["kernels.branches"] == cond * len(BATCH_PRESETS)

    def test_disabled_kernels_fall_back_to_scalar_members(
        self, small_traces, monkeypatch, obs_enabled
    ):
        trace = small_traces("605.mcf_s")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        scalars = [make_tage_sc_l(k) for k in BATCH_PRESETS]
        rs = [simulate_trace(trace, p) for p in scalars]
        batch_preds = [make_tage_sc_l(k) for k in BATCH_PRESETS]
        rv = simulate_trace_batch(trace, batch_preds)
        for s, v in zip(rs, rv):
            assert_identical(s, v)
        counters = obs_enabled.counters_dict()
        assert "kernels.batched" not in counters
        assert counters["kernels.fallback_scalar.tage-sc-l-8kb"] > 0

    def test_non_batchable_member_falls_back(self, small_traces, monkeypatch):
        trace = small_traces("605.mcf_s")

        class Tweaked(TageScL):
            pass

        monkeypatch.setenv("REPRO_KERNELS", "0")
        want = simulate_trace(trace, TageScL())
        monkeypatch.setenv("REPRO_KERNELS", "1")
        got = simulate_trace_batch(trace, [Tweaked()])
        assert len(got) == 1
        assert_identical(want, got[0])

    def test_empty_batch(self):
        assert simulate_trace_batch(BranchTrace(ips=[], taken=[]), []) == []


#: warmup × slice configurations for the batch-of-one equivalence sweep.
BATCH_OF_ONE_CONFIGS = [
    {},
    {"slice_instructions": 10_000},
    {"warmup_branches": 500},
    {
        "slice_instructions": 7_777,
        "warmup_branches": 1_000,
        "record_mispredict_positions": True,
    },
]


class TestBatchOfOne:
    """``simulate_trace`` routes batchable predictors through the batched
    replay as a batch of one — stats, slices, positions, final predictor
    state, introspection, and counters must all match the scalar loop."""

    def _pair(self, trace, factory, monkeypatch, **kwargs):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        ps = factory()
        rs = simulate_trace(trace, ps, **kwargs)
        monkeypatch.setenv("REPRO_KERNELS", "1")
        pv = factory()
        rv = simulate_trace(trace, pv, **kwargs)
        return ps, rs, pv, rv

    def test_plain_tage_is_batchable(self):
        assert batchable(Tage())

        class Tweaked(Tage):
            pass

        assert not batchable(Tweaked())

    @pytest.mark.parametrize("kib", STORAGE_PRESETS_KIB)
    def test_tagescl_every_preset_bit_identical(
        self, small_traces, monkeypatch, kib
    ):
        trace = small_traces("605.mcf_s")
        ps, rs, pv, rv = self._pair(
            trace,
            lambda: make_tage_sc_l(kib),
            monkeypatch,
            slice_instructions=10_000,
            record_mispredict_positions=True,
        )
        assert_identical(rs, rv)
        assert full_state(ps) == full_state(pv)

    @pytest.mark.parametrize("config", BATCH_OF_ONE_CONFIGS)
    def test_tagescl_warmup_slice_grid(self, small_traces, monkeypatch, config):
        trace = small_traces("641.leela_s")
        ps, rs, pv, rv = self._pair(
            trace, lambda: make_tage_sc_l(8), monkeypatch, **config
        )
        assert_identical(rs, rv)
        assert full_state(ps) == full_state(pv)

    @pytest.mark.parametrize("config", BATCH_OF_ONE_CONFIGS)
    def test_plain_tage_warmup_slice_grid(self, small_traces, monkeypatch, config):
        trace = small_traces("605.mcf_s")
        ps, rs, pv, rv = self._pair(trace, Tage, monkeypatch, **config)
        assert_identical(rs, rv)
        assert full_state(ps) == full_state(pv)

    def test_batched_path_counters(self, small_traces, monkeypatch, obs_enabled):
        trace = small_traces("605.mcf_s")
        monkeypatch.setenv("REPRO_KERNELS", "1")
        simulate_trace(trace, make_tage_sc_l(8))
        counters = obs_enabled.counters_dict()
        cond = int(len(trace.conditional_columns()[0]))
        assert counters["kernels.batched"] == cond
        assert counters["kernels.branches"] == cond
        assert not any(k.startswith("kernels.fallback_scalar") for k in counters)

    def test_escape_hatch_counts_scalar_fallback(
        self, small_traces, monkeypatch, obs_enabled
    ):
        trace = small_traces("605.mcf_s")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        simulate_trace(trace, make_tage_sc_l(8))
        counters = obs_enabled.counters_dict()
        assert "kernels.batched" not in counters
        assert counters["kernels.fallback_scalar.tage-sc-l-8kb"] > 0

    def test_introspection_report_rides_batched_path(
        self, small_traces, monkeypatch
    ):
        from repro.obs import introspect

        trace = small_traces("605.mcf_s")
        saved = introspect._ENABLED
        introspect.reset_introspection()
        introspect.enable_introspection()
        try:
            monkeypatch.setenv("REPRO_KERNELS", "1")
            simulate_trace(trace, make_tage_sc_l(8))
            batched_report = introspect.reports()[-1]
            monkeypatch.setenv("REPRO_KERNELS", "0")
            simulate_trace(trace, make_tage_sc_l(8))
            scalar_report = introspect.reports()[-1]
        finally:
            introspect._ENABLED = saved
            introspect.reset_introspection()
        assert batched_report["path"] == "batched"
        assert scalar_report["path"] == "scalar"
        db = {k: v for k, v in batched_report.items() if k != "path"}
        ds = {k: v for k, v in scalar_report.items() if k != "path"}
        assert db == ds

    def test_empty_trace_batch_of_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "1")
        result = simulate_trace(BranchTrace(ips=[], taken=[]), make_tage_sc_l(8))
        assert result.stats.total_executions == 0
