"""Vectorized scoring: one prediction vector → every simulation output.

:func:`score_predictions` is the only scorer.  Every simulation backend
(per-predictor numpy kernel, batched TAGE-SC-L replay, drive-only scalar
loop) yields one predicted direction per conditional branch, and this turns
that vector into aggregate and per-slice
:class:`~repro.core.metrics.BranchStats` (in first-appearance insertion
order, so downstream float reductions see a fixed operand order), warmup
exclusion, empty-slice emission at boundary crossings, and the recorded
mispredict positions.  ``tests/pipeline/test_scoring_oracle.py`` holds it
equal to a plain per-branch ``BranchStats.record`` reference.

Scoring splits into a *plan* — every grouping that depends only on
``(trace, warmup, slice length)``: unique IPs, execution counts, stats
insertion orders, slice keys — and the per-call part that depends on the
predictor's predictions (the misprediction bincounts).  The plan is built
once and memoized on the trace, so the normal experiment shape (many
predictors over one trace) pays the sorts once.

Memoized plans are bounded: only the :data:`PLAN_RESIDENCY` most recently
replayed traces keep theirs (see :func:`plan_memo`).
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.metrics import BranchStats
from repro.core.types import BranchTrace

#: A trace kernel: (conditional ips, conditional taken) -> predicted
#: directions.  The arrays cover exactly the conditional subsequence of the
#: trace, in temporal order; the kernel must treat them as read-only and is
#: responsible for leaving the predictor's own state (tables, histories) as
#: the scalar loop would.
#:
#: A kernel with a truthy ``wants_trace`` attribute is instead invoked as
#: ``kernel(ips_c, taken_c, trace)`` — the full trace lets predictors whose
#: ``note_branch`` is *not* a no-op (path/global-history predictors that
#: observe unconditional branches) reconstruct their history streams.
TraceKernel = Callable[..., np.ndarray]

#: A predictor's ``introspect_last()`` attribution of one prediction:
#: (provider table or -1 for the base, used_alt, loop_used, sc_flipped).
Attribution = Tuple[int, bool, bool, bool]

#: What every simulation backend yields for one predictor: the predicted
#: direction of each conditional branch and, when introspecting, each
#: prediction's attribution (``None`` for predictors without one).
Predictions = Tuple[np.ndarray, Optional[List[Optional[Attribution]]]]


#: :func:`score_predictions`'s result: aggregate stats, per-slice stats
#: (``None`` without slicing), mispredict positions (``None`` unless asked).
Score = Tuple[BranchStats, Optional[List[BranchStats]], Optional[np.ndarray]]


@dataclass(frozen=True)
class _ScoringPlan:
    """Predictor-independent grouping for one (trace, warmup, slice length).

    Aggregate fields list the scored static branches in per-branch
    :meth:`BranchStats.record` insertion order (first appearance in the
    scored stream); ``inv`` recodes each scored branch to its 0-based rank
    in sorted-unique IP order, exactly like ``np.unique``'s inverse, for
    the per-call misprediction bincount.  Slice fields do the same per
    ``(slice, branch)`` key.
    """

    agg_ips: List[int]  # unique IPs, insertion order
    agg_exec: List[int]  # executions per IP, same order
    agg_pick: np.ndarray  # insertion order -> code, to index bincounts
    inv: np.ndarray  # scored stream recoded to 0..width-1
    width: int
    n_closed: int  # closed slices (boundary crossings)
    key_inv: Optional[np.ndarray]  # scored stream -> slice-key rank
    key_slice: Optional[List[int]]  # per key (insertion order): slice index
    key_ips: Optional[List[int]]  # per key: IP
    key_exec: Optional[List[int]]  # per key: executions
    key_pick: Optional[np.ndarray]  # insertion order -> key rank


def _build_plan(
    trace: BranchTrace, w: int, slice_instructions: Optional[int]
) -> _ScoringPlan:
    all_uniq, codes = trace.conditional_ip_codes()
    s_codes = codes[w:]
    s_pos = trace.conditional_columns()[2][w:]

    agg_ips: List[int] = []
    agg_exec: List[int] = []
    agg_pick = np.empty(0, dtype=np.int64)
    inv = np.empty(0, dtype=np.int32)
    width = 0
    present_ips = np.empty(0, dtype=np.int64)  # scored unique IPs, sorted
    if len(s_codes):
        # The int64 IP sort is memoized on the trace; grouping here works
        # on the small int32 codes (radix-sorted inside np.unique).
        present, first_idx = np.unique(s_codes, return_index=True)
        executions = np.bincount(s_codes, minlength=len(all_uniq))[present]
        order = np.argsort(first_idx, kind="stable")
        agg_pick = order
        present_ips = all_uniq[present]
        agg_ips = present_ips[order].tolist()
        agg_exec = executions[order].tolist()
        width = len(present)
        if width == len(all_uniq):
            inv = s_codes
        else:
            # Warmup can hide some static branches entirely; recode the
            # survivors to 0..width-1 like np.unique's inverse would.
            remap = np.zeros(len(all_uniq), dtype=np.int32)
            remap[present] = np.arange(width, dtype=np.int32)
            inv = remap[s_codes]

    n_closed = 0
    key_inv = key_pick = None
    key_slice = key_ips = key_exec = None
    if slice_instructions is not None:
        # A slice closes whenever *any* branch record (of any kind) crosses
        # its boundary, so the number of closed slices is set by the last
        # record's instruction index; the trailing partial slice is kept
        # only if it scored something (or the list would otherwise be
        # empty).
        n_closed = (
            int(trace.instr_indices[-1]) // slice_instructions if len(trace) else 0
        )
        if len(s_codes):
            s_slice = s_pos // slice_instructions
            keys = s_slice * width + inv
            if (int(s_slice[-1]) + 1) * width < (1 << 31):
                # int32 keys sort via radix inside np.unique.
                keys = keys.astype(np.int32)
            kuniq, kfirst, key_inv = np.unique(
                keys, return_index=True, return_inverse=True
            )
            key_inv = key_inv.astype(np.int32, copy=False).reshape(keys.shape)
            kexec = np.bincount(key_inv, minlength=len(kuniq))
            korder = np.argsort(kfirst, kind="stable")
            # First-appearance order across the whole stream is also
            # first-appearance order within each slice (positions are
            # nondecreasing), matching a per-branch record() sequence.
            key_pick = korder
            kslice, kip = np.divmod(kuniq[korder].astype(np.int64), width)
            key_slice = kslice.tolist()
            key_ips = present_ips[kip].tolist()
            key_exec = kexec[korder].tolist()

    return _ScoringPlan(
        agg_ips=agg_ips,
        agg_exec=agg_exec,
        agg_pick=agg_pick,
        inv=inv,
        width=width,
        n_closed=n_closed,
        key_inv=key_inv,
        key_slice=key_slice,
        key_ips=key_ips,
        key_exec=key_exec,
        key_pick=key_pick,
    )


def run_kernel(trace: BranchTrace, kernel: TraceKernel) -> np.ndarray:
    """Drive ``kernel`` over ``trace``'s conditional branches; return its
    predicted directions."""
    ips_c, taken_c, _ = trace.conditional_columns()
    if getattr(kernel, "wants_trace", False):
        return kernel(ips_c, taken_c, trace)
    return kernel(ips_c, taken_c)


def score_with_kernel(
    trace: BranchTrace,
    kernel: TraceKernel,
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
) -> Score:
    """Drive ``kernel`` over ``trace`` and score its predictions."""
    return score_predictions(
        trace,
        run_kernel(trace, kernel),
        slice_instructions=slice_instructions,
        record_mispredict_positions=record_mispredict_positions,
        warmup_branches=warmup_branches,
    )


def score_predictions(
    trace: BranchTrace,
    preds: np.ndarray,
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
) -> Score:
    """Score a vector of per-conditional-branch predicted directions.

    ``warmup_branches`` initial conditional branches are excluded from
    scoring; ``slice_instructions`` adds one :class:`BranchStats` per slice
    of that many instructions; ``record_mispredict_positions`` keeps the
    instruction index of every scored misprediction.
    """
    if slice_instructions is not None and slice_instructions <= 0:
        raise ValueError("slice_instructions must be positive")
    _, taken_c, pos_c = trace.conditional_columns()
    preds = np.asarray(preds, dtype=bool)
    if preds.shape != taken_c.shape:
        raise ValueError(
            f"got {preds.shape} predictions for {taken_c.shape} conditional branches"
        )

    w = max(0, warmup_branches)
    s_wrong = preds[w:] != taken_c[w:]
    plan = plan_memo(
        trace,
        ("scoring_plan", w, slice_instructions),
        lambda: _build_plan(trace, w, slice_instructions),
    )

    stats = BranchStats()
    if plan.width:
        wrong = np.bincount(plan.inv[s_wrong], minlength=plan.width)
        wrong_by_ip = wrong[plan.agg_pick].tolist()
        record = stats.record_bulk
        for ip, ex, wr in zip(plan.agg_ips, plan.agg_exec, wrong_by_ip):
            record(ip, ex, wr)

    slice_list: Optional[List[BranchStats]] = None
    if slice_instructions is not None:
        slice_list = [BranchStats() for _ in range(plan.n_closed)]
        trailing = BranchStats()
        if plan.key_inv is not None:
            kwrong = np.bincount(
                plan.key_inv[s_wrong], minlength=len(plan.key_exec)
            )
            kwrong_ordered = kwrong[plan.key_pick].tolist()
            n_closed = plan.n_closed
            for sl, ip, ex, wr in zip(
                plan.key_slice, plan.key_ips, plan.key_exec, kwrong_ordered
            ):
                target = slice_list[sl] if sl < n_closed else trailing
                target.record_bulk(ip, ex, wr)
        if len(trailing) or plan.n_closed == 0:
            slice_list.append(trailing)

    mis_positions: Optional[np.ndarray] = None
    if record_mispredict_positions:
        mis_positions = pos_c[w:][s_wrong].astype(np.int64, copy=True)

    return stats, slice_list, mis_positions


# ---------------------------------------------------------------------------
# Per-trace memoized reconstructions
#
# Kernels for history predictors all start from the same raw materials —
# the trace's push-bit stream, its conditional positions, a signed-history
# window matrix — so these live on the same per-trace cache as the scoring
# plan.  The normal experiment shape (several predictors / presets replayed
# over one trace) pays each reconstruction once.
#
# Plans are several times larger than the trace they describe, and a Lab
# keeps dozens of traces alive, so plan lifetime is bounded separately: a
# process-wide recency list holds the traces whose plans are resident, and
# touching a trace beyond the bound drops the least recent one's plans.

#: How many traces keep their plans at once, process-wide.  At least the
#: daemon's default compute-thread count, so concurrent requests over
#: distinct traces do not evict each other's plans mid-replay.
PLAN_RESIDENCY = 4


class _PlanCache(Dict[Any, Any]):
    """A trace's memoized plans plus the array bytes they hold."""

    nbytes = 0


#: Traces whose ``_plan_cache`` is set, least recently used first.  Traces
#: are compared by identity; the list holds them only while resident.
_resident: List[BranchTrace] = []
_resident_lock = threading.Lock()


def _array_nbytes(val: Any) -> int:
    """Bytes of the numpy buffers directly inside one plan value (arrays,
    tuples of them, dataclass fields); decoded Python lists count 0."""
    if isinstance(val, np.ndarray):
        return int(val.nbytes)
    if isinstance(val, tuple):
        return sum(_array_nbytes(v) for v in val)
    if dataclasses.is_dataclass(val):
        return sum(_array_nbytes(getattr(val, f.name)) for f in dataclasses.fields(val))
    return 0


def _publish_bytes() -> None:
    """Set the ``kernels.plan.bytes`` gauge (caller holds the lock)."""
    obs.gauge("kernels.plan.bytes", sum(plan_nbytes(t) for t in _resident))


def _touch(trace: BranchTrace) -> _PlanCache:
    """Mark ``trace`` most recently replayed; return its plan cache,
    evicting the least recent trace's plans beyond :data:`PLAN_RESIDENCY`."""
    with _resident_lock:
        cache = trace._plan_cache
        if _resident and _resident[-1] is trace and isinstance(cache, _PlanCache):
            return cache
        if not isinstance(cache, _PlanCache):
            cache = trace._plan_cache = _PlanCache()
        for i, t in enumerate(_resident):
            if t is trace:
                del _resident[i]
                break
        _resident.append(trace)
        while len(_resident) > PLAN_RESIDENCY:
            _resident.pop(0)._plan_cache = None
            obs.counter("kernels.plan.evicted")
        _publish_bytes()
        return cache


def plan_memo(trace: BranchTrace, key: Tuple, build: Callable[[], Any]) -> Any:
    """Memoize ``build()`` on ``trace._plan_cache`` under ``key``.

    Cached values are shared across predictors and must be treated as
    immutable by every consumer.  Each call marks ``trace`` most recently
    replayed; only :data:`PLAN_RESIDENCY` traces keep their plans, so a
    long-evicted trace rebuilds on its next replay.  A concurrent eviction
    never invalidates a value already returned, only the cache it lives in.
    """
    cache = _touch(trace)
    val = cache.get(key)
    if val is None:
        val = cache[key] = build()
        nbytes = _array_nbytes(val)
        with _resident_lock:
            cache.nbytes += nbytes
            _publish_bytes()
    return val


def resident_plan_traces() -> List[BranchTrace]:
    """The traces currently holding plans, least recently replayed first."""
    with _resident_lock:
        return list(_resident)


def plan_nbytes(trace: BranchTrace) -> int:
    """Bytes of numpy arrays in ``trace``'s resident plans (0 if none)."""
    cache = trace._plan_cache
    return cache.nbytes if isinstance(cache, _PlanCache) else 0


def cond_positions(trace: BranchTrace) -> np.ndarray:
    """Full-stream record index of each conditional branch (memoized)."""
    return plan_memo(
        trace,
        ("cond_positions",),
        lambda: np.flatnonzero(trace.conditional_mask),
    )


def stream_bits(trace: BranchTrace) -> np.ndarray:
    """The full-stream history push bits, as ``note_branch``-style
    predictors see them: conditional records push their outcome,
    every other kind pushes 1 (memoized, uint8)."""

    def build() -> np.ndarray:
        cond = trace.conditional_mask
        bits = np.ones(len(trace), dtype=np.uint8)
        np.copyto(bits, trace.taken != 0, where=cond)
        return bits

    return plan_memo(trace, ("stream_bits",), build)


def signed_history_matrix(
    trace: BranchTrace,
    h: int,
    init_signs: Tuple[int, ...],
    full_stream: bool = False,
) -> np.ndarray:
    """The rolling ±1 history matrix for dot-product predictors (memoized).

    Row ``i`` describes conditional branch ``i`` *before* it resolves:
    column 0 is the bias (+1), column ``j+1`` the sign of the ``j``-th
    newest history entry.  ``init_signs[j]`` seeds entries older than the
    trace (sign of the predictor's ``j``-th newest pre-trace entry; length
    ``h``).  With ``full_stream`` the history advances on *every* record —
    unconditional kinds contribute +1, matching ``note_branch`` pushes —
    instead of only on conditional outcomes.
    """
    init_signs = tuple(init_signs)
    if len(init_signs) != h:
        raise ValueError(f"init_signs must have length {h}")

    def build() -> np.ndarray:
        one, neg = np.int8(1), np.int8(-1)
        if full_stream:
            signs = np.where(
                trace.conditional_mask, np.where(trace.taken != 0, one, neg), one
            )
            pos = cond_positions(trace)
        else:
            signs = np.where(trace.conditional_columns()[1], one, neg)
            pos = np.arange(len(signs))
        # ext[p + h - a] is the sign ``a`` steps back from record ``p``;
        # the init block is oldest-first so a > p reads pre-trace signs.
        ext = np.concatenate([np.asarray(init_signs, dtype=np.int8)[::-1], signs])
        X = np.empty((len(pos), h + 1), dtype=np.int8)
        X[:, 0] = 1
        if h:
            offsets = (h - 1 - np.arange(h))[None, :]
            X[:, 1:] = ext[pos[:, None] + offsets]
        return X

    return plan_memo(trace, ("signed_hist", h, init_signs, bool(full_stream)), build)


def signed_history_lists(
    trace: BranchTrace,
    h: int,
    init_signs: Tuple[int, ...],
    full_stream: bool = False,
) -> List[List[int]]:
    """:func:`signed_history_matrix` decoded to plain lists (memoized).

    The sequential parts of the dot-product kernels walk the matrix row by
    row, where list indexing beats ndarray access; decoding is O(n·h), so
    replays of the same trace share one conversion.
    """
    init_signs = tuple(init_signs)
    return plan_memo(
        trace,
        ("signed_hist_list", h, init_signs, bool(full_stream)),
        lambda: signed_history_matrix(trace, h, init_signs, full_stream).tolist(),
    )
