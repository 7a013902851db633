"""Tests for branch traces and slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import BranchKind, BranchRecord, BranchTrace, WorkloadTrace


def make_trace(n=100, instr_stride=5, kind=BranchKind.CONDITIONAL):
    ips = [0x1000 + 16 * (i % 7) for i in range(n)]
    taken = [i % 3 == 0 for i in range(n)]
    instr = [i * instr_stride for i in range(n)]
    return BranchTrace(
        ips=ips,
        taken=taken,
        kinds=[int(kind)] * n,
        instr_indices=instr,
        instr_count=n * instr_stride,
    )


class TestBranchRecord:
    def test_conditional_flag(self):
        r = BranchRecord(ip=4, taken=True, target=8)
        assert r.is_conditional

    def test_non_conditional(self):
        r = BranchRecord(ip=4, taken=True, target=8, kind=BranchKind.CALL)
        assert not r.is_conditional


class TestBranchTrace:
    def test_length_and_iteration(self):
        t = make_trace(10)
        assert len(t) == 10
        records = list(t)
        assert len(records) == 10
        assert records[0].ip == 0x1000
        assert records[0].taken is True

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            BranchTrace(ips=[1, 2], taken=[True])

    def test_instr_count_must_exceed_last_index(self):
        with pytest.raises(ValueError):
            BranchTrace(
                ips=[1], taken=[True], instr_indices=[10], instr_count=5
            )

    def test_default_instr_count(self):
        t = BranchTrace(ips=[1, 2], taken=[True, False])
        assert t.instr_count == 2

    def test_static_branch_ips_unique_sorted(self):
        t = make_trace(50)
        ips = t.static_branch_ips()
        assert list(ips) == sorted(set(ips))
        assert len(ips) == 7

    def test_static_ips_exclude_non_conditional(self):
        t = BranchTrace(
            ips=[1, 2], taken=[True, True],
            kinds=[int(BranchKind.CONDITIONAL), int(BranchKind.CALL)],
        )
        assert list(t.static_branch_ips()) == [1]

    def test_num_conditional(self):
        t = BranchTrace(
            ips=[1, 2, 3], taken=[1, 1, 0],
            kinds=[0, 2, 0],
        )
        assert t.num_conditional() == 2


class TestSlicing:
    def test_slices_cover_all_branches(self):
        t = make_trace(100, instr_stride=5)  # 500 instructions
        slices = t.slices(100)
        assert sum(len(s) for s in slices) == len(t)
        assert slices[0].start == 0
        assert slices[-1].stop == len(t)

    def test_slice_instruction_windows(self):
        t = make_trace(100, instr_stride=5)
        slices = t.slices(100)
        assert len(slices) == 5
        for k, s in enumerate(slices):
            assert s.instr_start == k * 100
            assert s.instr_count == 100

    def test_short_tail_dropped(self):
        # 60 branches * stride 5 = 300 instructions; slice length 200 ->
        # one full slice + 100-instruction tail (>= half) kept.
        t = make_trace(60, instr_stride=5)
        slices = t.slices(200)
        assert len(slices) == 2

    def test_tiny_tail_dropped(self):
        # 220 instructions, slice 200: 20-instruction tail dropped.
        t = make_trace(44, instr_stride=5)
        slices = t.slices(200)
        assert len(slices) == 1

    def test_invalid_slice_length(self):
        with pytest.raises(ValueError):
            make_trace(10).slices(0)

    def test_slice_views_match_parent(self):
        t = make_trace(40, instr_stride=5)
        s = t.slices(100)[1]
        np.testing.assert_array_equal(s.ips, t.ips[s.start : s.stop])
        np.testing.assert_array_equal(s.taken, t.taken[s.start : s.stop])

    @given(
        n=st.integers(1, 300),
        stride=st.integers(1, 9),
        slice_len=st.integers(10, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_slices_partition_property(self, n, stride, slice_len):
        t = make_trace(n, instr_stride=stride)
        slices = t.slices(slice_len)
        # Slices are contiguous and non-overlapping from the start.
        prev_stop = 0
        for s in slices:
            assert s.start == prev_stop
            prev_stop = s.stop
        # Every branch inside a slice's window belongs to that slice.
        for s in slices:
            inside = (t.instr_indices >= s.instr_start) & (
                t.instr_indices < s.instr_stop
            )
            assert inside.sum() == len(s)


class TestWorkloadTrace:
    def test_label(self):
        wt = WorkloadTrace(
            benchmark="b", input_name="i", trace=make_trace(5)
        )
        assert wt.label == "b/i"
