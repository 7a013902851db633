"""Bounded plan residency and narrow plan dtypes.

Kernels memoize precomputed plans (folded history streams, packed bit
windows, scoring groupings) on each trace; only the
:data:`~repro.kernels.engine.PLAN_RESIDENCY` most recently replayed traces
keep them.  These tests pin that bound deterministically (no RSS
sampling), check that concurrent replays stay bit-identical while other
threads evict plans, and hold the narrowed plan arrays equal to int64
references.
"""

import random
import threading

import numpy as np
import pytest

from repro.core.types import BranchKind, BranchTrace
from repro.experiments.lab import SLICE_INSTRUCTIONS, Lab
from repro.kernels import engine, kernels_override, stream_bits
from repro.kernels.scan import packed_bit_windows
from repro.pipeline.simulator import simulate_trace, simulate_trace_batch
from repro.predictors.gehl import folded_stream_history
from repro.predictors.tagescl import make_tage_sc_l
from repro.service import simulation_digest
from repro.workloads import WORKLOADS_BY_NAME, trace_workload

INSTRUCTIONS = 20_000
WORKLOADS = ("605.mcf_s", "641.leela_s", "625.x264_s", "657.xz_s", "game", "rdbms")

#: Resident plan bytes allowed for TAGE-SC-L 8KB replays at
#: ``INSTRUCTIONS``, summed over every resident trace: about 1.9 MB with
#: narrow folds and windows, about 6.7 MB with int64 ones.
PLAN_BYTES_CEILING = 3 * 1024 * 1024


def _fresh_copy(trace):
    """The same records as ``trace`` in a new object with no plans."""
    return BranchTrace(
        ips=trace.ips,
        taken=trace.taken,
        targets=trace.targets,
        kinds=trace.kinds,
        instr_indices=trace.instr_indices,
        instr_count=trace.instr_count,
    )


@pytest.fixture(scope="module")
def small_trace():
    return trace_workload(WORKLOADS_BY_NAME["605.mcf_s"], 0, instructions=INSTRUCTIONS).trace


@pytest.fixture
def memory_lab(monkeypatch):
    """A Lab with no disk cache, so every simulation replays."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    return Lab()


class TestResidencyBound:
    def test_lab_keeps_plans_for_recent_traces_only(self, obs_enabled, memory_lab):
        assert len(WORKLOADS) > engine.PLAN_RESIDENCY
        lab = memory_lab
        with kernels_override(True):
            for name in WORKLOADS:
                lab.simulate(name, 0, "tage-sc-l-8kb", instructions=INSTRUCTIONS)
        traces = [lab.trace(name, 0, INSTRUCTIONS).trace for name in WORKLOADS]

        holding = [t for t in traces if t._plan_cache is not None]
        assert len(holding) <= engine.PLAN_RESIDENCY
        assert holding == traces[-len(holding):]
        total = sum(engine.plan_nbytes(t) for t in holding)
        assert 0 < total < PLAN_BYTES_CEILING
        assert obs_enabled.counters_dict()["kernels.plan.evicted"] >= (
            len(WORKLOADS) - engine.PLAN_RESIDENCY
        )

        # Re-simulating the most recent trace reuses every plan.
        last = traces[-1]
        cache = last._plan_cache
        keys = set(cache)
        with kernels_override(True):
            simulate_trace(last, make_tage_sc_l(8), slice_instructions=SLICE_INSTRUCTIONS)
        assert last._plan_cache is cache
        assert set(cache) == keys

    def test_gauge_matches_resident_plans(self, obs_enabled, small_trace):
        with kernels_override(True):
            simulate_trace(_fresh_copy(small_trace), make_tage_sc_l(8))
        resident = engine.resident_plan_traces()
        assert obs_enabled.gauges_dict()["kernels.plan.bytes"] == sum(
            engine.plan_nbytes(t) for t in resident
        )

    def test_evicted_trace_rebuilds_on_next_replay(self, monkeypatch, small_trace):
        monkeypatch.setattr(engine, "PLAN_RESIDENCY", 1)
        a = _fresh_copy(small_trace)
        b = _fresh_copy(small_trace)
        with kernels_override(True):
            want = simulation_digest(simulate_trace(a, make_tage_sc_l(8)))
            simulate_trace(b, make_tage_sc_l(8))
            assert a._plan_cache is None
            assert simulation_digest(simulate_trace(a, make_tage_sc_l(8))) == want
        assert b._plan_cache is None
        assert engine.resident_plan_traces() == [a]


class TestConcurrentEviction:
    @pytest.mark.parametrize("bound", [1, None])
    def test_threads_match_serial_digests(self, monkeypatch, memory_lab, bound):
        if bound is not None:
            monkeypatch.setattr(engine, "PLAN_RESIDENCY", bound)
        lab = memory_lab
        traces = [lab.trace(name, 0, INSTRUCTIONS).trace for name in WORKLOADS[:4]]

        def replay(trace):
            with kernels_override(True):
                results = simulate_trace_batch(
                    trace, [make_tage_sc_l(8), make_tage_sc_l(64)], slice_instructions=5_000
                )
            return [simulation_digest(r) for r in results]

        serial = [replay(_fresh_copy(t)) for t in traces]

        barrier = threading.Barrier(len(traces))
        got = [None] * len(traces)
        errors = []

        def worker(i, trace):
            try:
                barrier.wait()
                for _ in range(2):  # the second pass races other threads' evictions
                    got[i] = replay(trace)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, _fresh_copy(t)))
            for i, t in enumerate(traces)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert got == serial
        assert len(engine.resident_plan_traces()) <= engine.PLAN_RESIDENCY


def _random_trace(n, seed):
    rng = random.Random(seed)
    kinds = [
        int(BranchKind.CONDITIONAL) if rng.random() < 0.7 else int(BranchKind.CALL)
        for _ in range(n)
    ]
    return BranchTrace(
        ips=[rng.randrange(1 << 20) for _ in range(n)],
        taken=[rng.random() < 0.5 for _ in range(n)],
        kinds=kinds,
    )


def _reference_windows(bits, width):
    n = len(bits)
    out = np.zeros(n + 1, dtype=np.int64)
    for m in range(n + 1):
        for u in range(width):
            if m - 1 - u >= 0:
                out[m] |= int(bits[m - 1 - u]) << u
    return out


def _reference_folds(prefix, stream, length, width):
    """``fold(history, length)`` before each record, via Python ints."""
    mask = (1 << width) - 1
    hist = 0
    for b in prefix:
        hist = (hist << 1) | int(b)
    out = []
    for k in range(len(stream) + 1):
        bits = hist & ((1 << length) - 1)
        folded = 0
        while bits:
            folded ^= bits & mask
            bits >>= width
        out.append(folded)
        if k < len(stream):
            hist = (hist << 1) | int(stream[k])
    return np.array(out, dtype=np.int64)


def _expected_dtype(width):
    return np.uint8 if width <= 8 else np.uint16


class TestNarrowPlanDtypes:
    @pytest.mark.parametrize("width", range(1, 17))
    @pytest.mark.parametrize("n", [0, 3, 200])
    def test_packed_bit_windows(self, width, n):
        bits = np.array(
            [random.Random(width * 1000 + n).random() < 0.5 for _ in range(n)],
            dtype=np.uint8,
        )
        got = packed_bit_windows(bits, width)
        assert got.dtype == _expected_dtype(width)
        assert np.array_equal(got.astype(np.int64), _reference_windows(bits, width))

    @pytest.mark.parametrize("width", range(1, 17))
    @pytest.mark.parametrize("warm", [False, True], ids=["cold-prefix", "warm-prefix"])
    @pytest.mark.parametrize("n", [3, 150])
    def test_folded_stream_history(self, width, warm, n):
        trace = _random_trace(n, seed=width)
        pre = 40
        rng = random.Random(width + 7)
        prefix = np.array(
            [rng.random() < 0.5 if warm else 0 for _ in range(pre)], dtype=np.uint8
        )
        stream = stream_bits(trace)
        for length in sorted({1, width, 2 * width + 1, pre}):
            got = folded_stream_history(trace, length, width, prefix, (warm, pre))
            assert got.dtype == _expected_dtype(width)
            want = _reference_folds(prefix, stream, length, width)
            assert np.array_equal(got.astype(np.int64), want), (length, width)
