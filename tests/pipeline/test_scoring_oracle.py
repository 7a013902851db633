"""``score_predictions`` against an independent per-branch reference scorer.

Every simulation backend is scored by
:func:`repro.kernels.engine.score_predictions`, so the backend equivalence
suites compare that scorer with itself.  Here it must match a plain
``BranchStats.record`` loop exactly: aggregate and per-slice counts
(including key order), slice count, totals and mispredict positions.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import BranchStats
from repro.core.types import BranchKind, BranchTrace
from repro.kernels.engine import score_predictions
from repro.workloads import WORKLOADS_BY_NAME, trace_workload

SPECINT = [name for name, spec in WORKLOADS_BY_NAME.items() if spec.category == "specint"]
COND, CALL = int(BranchKind.CONDITIONAL), int(BranchKind.CALL)


def reference_score(
    trace, preds, slice_instructions=None, record_mispredict_positions=False, warmup_branches=0
):
    """Score ``preds`` record by record: ``(stats, slices, positions)``."""
    stats, slices, cur, boundary = BranchStats(), None, None, float("inf")
    if slice_instructions is not None:
        slices, cur, boundary = [], BranchStats(), slice_instructions
    positions = [] if record_mispredict_positions else None
    pending, seen = iter(preds), 0
    columns = (trace.ips, trace.taken.astype(bool), trace.kinds, trace.instr_indices)
    for ip, taken, kind, pos in zip(*(c.tolist() for c in columns)):
        while pos >= boundary:  # a record of any kind closes the slice
            slices.append(cur)
            cur = BranchStats()
            boundary += slice_instructions
        if kind != COND:
            continue
        correct = bool(next(pending)) == taken
        seen += 1
        if seen <= warmup_branches:
            continue
        stats.record(ip, correct)
        if cur is not None:
            cur.record(ip, correct)
        if not correct and positions is not None:
            positions.append(pos)
    if slices is not None and (len(cur) or not slices):
        slices.append(cur)
    return stats, slices, positions


def _view(stats):
    return list(stats._counts.items()), stats.total_executions, stats.total_mispredictions


def assert_matches_reference(trace, preds, **options):
    stats, slices, positions = reference_score(trace, preds, **options)
    got_stats, got_slices, got_positions = score_predictions(
        trace, np.asarray(preds, dtype=bool), **options
    )
    assert _view(got_stats) == _view(stats)
    assert (got_slices is None) == (slices is None)
    assert [_view(s) for s in got_slices or []] == [_view(s) for s in slices or []]
    assert (None if got_positions is None else got_positions.tolist()) == positions


@pytest.fixture(scope="module")
def specint_traces():
    return {
        name: trace_workload(WORKLOADS_BY_NAME[name], 0, instructions=30_000).trace
        for name in SPECINT
    }


@pytest.mark.parametrize(
    "warmup,slices", [(0, None), (0, 7_777), (500, 10_000), (3, 10_000), (10**6, 10_000)]
)
@pytest.mark.parametrize("workload", SPECINT)
def test_specint_traces_match_reference(specint_traces, workload, warmup, slices):
    trace = specint_traces[workload]
    rng = random.Random(workload)  # about 15% of the predictions are wrong
    preds = [t != (rng.random() < 0.15) for t in trace.conditional_columns()[1].tolist()]
    assert_matches_reference(
        trace,
        preds,
        slice_instructions=slices,
        record_mispredict_positions=True,
        warmup_branches=warmup,
    )


@st.composite
def scoring_cases(draw):
    """Columns of a small trace (eight static IPs, every branch kind), one
    prediction per conditional, and scoring options."""
    n = draw(st.integers(0, 40))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    kinds = column(st.sampled_from([COND] * 3 + [int(k) for k in BranchKind]))
    instr_indices = np.cumsum(column(st.integers(1, 40))).tolist()
    columns = {
        "ips": column(st.sampled_from(range(0x400, 0x420, 4))),
        "taken": column(st.booleans()),
        "kinds": kinds,
        "instr_indices": instr_indices,
        "instr_count": (instr_indices[-1] if n else 0) + draw(st.integers(1, 50)),
    }
    n_cond = kinds.count(COND)
    preds = draw(st.lists(st.booleans(), min_size=n_cond, max_size=n_cond))
    options = {
        "warmup_branches": draw(st.integers(-2, n_cond + 3)),
        "slice_instructions": draw(st.none() | st.integers(1, 60)),
        "record_mispredict_positions": draw(st.booleans()),
    }
    return columns, preds, options


SLICED = {"slice_instructions": 10, "record_mispredict_positions": True}


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
@example(({"ips": [], "taken": [], "instr_count": 100}, [], SLICED))  # empty trace
@example(  # no conditional branches
    ({"ips": [1, 2], "taken": [True] * 2, "kinds": [CALL] * 2, "instr_indices": [4, 33]},
     [], SLICED)
)
@example(  # warmup covers every conditional
    ({"ips": [64] * 4, "taken": [True, False] * 2, "instr_indices": [0, 9, 18, 27]},
     [True] * 4, {**SLICED, "warmup_branches": 4})
)
@example(  # only calls cross the slice boundaries after the conditionals
    ({"ips": [16, 32, 16, 48, 64], "taken": [True, False, False, True, True],
      "kinds": [COND] * 3 + [CALL] * 2, "instr_indices": [1, 3, 5, 25, 47], "instr_count": 60},
     [True, True, False], {**SLICED, "warmup_branches": 1})
)
def test_generated_traces_match_reference(case):
    columns, preds, options = case
    assert_matches_reference(BranchTrace(**columns), preds, **options)
