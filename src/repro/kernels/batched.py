"""Batched multi-config TAGE-SC-L replay (the fig. 7/8 heavy tail).

Scoring every storage preset of TAGE-SC-L over the same trace dominates the
wall clock of the limit-study experiments: the scalar loop re-derives folded
histories, the path hash, and corrector features branch by branch, per
preset.  Trace-driven simulation makes all of those *inputs* pure functions
of the recorded stream, so this module reconstructs them once, as arrays —

* the push-bit stream and its packed windows → every tagged table's folded
  index/tag stream (memoized on the trace, shared between presets that read
  the same geometric history lengths and fold widths),
* the 16-bit path register in closed form,
* the SC's global-history folds, per-IP local histories, and the IMLI
  count stream

— and then replays each preset with a lean sequential walk that touches
only what genuinely feeds back: tagged-table counters, usefulness bits,
allocation, the corrector's adaptive threshold, and the loop predictor.

The replay is bit-identical to the scalar path: same predictions, same
final predictor state (tables, histories, telemetry counters, and the
per-prediction scratch fields including their stale-value semantics), and
the same ``introspect_last`` attribution stream when asked to collect it.
``REPRO_KERNELS=0`` disables this path along with the per-predictor
kernels (the dispatch lives in ``repro.pipeline.simulator``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import BranchTrace
from repro.kernels.engine import (
    Attribution,
    Predictions,
    cond_positions,
    plan_memo,
    stream_bits,
)
from repro.kernels.scan import final_history, local_history, packed_history

if TYPE_CHECKING:  # imported lazily at runtime to avoid predictor cycles
    from repro.predictors.loop import ImliCounter
    from repro.predictors.tagescl import TageScL

_CHUNK = 1 << 16  # rows decoded to Python lists at a time (bounds memory)


def batchable(predictor: Any) -> bool:
    """Whether the batched replay reproduces ``predictor`` exactly.

    Exact types only — a subclass may override behavior the replay would
    silently miss (same rule as the ``vectorized_kernel`` type guards).
    Plain :class:`~repro.predictors.tage.Tage` replays too (the composite
    stages are simply absent), so single-config TAGE runs also leave the
    scalar loop.
    """
    from repro.predictors.loop import ImliCounter, LoopPredictor
    from repro.predictors.statistical_corrector import StatisticalCorrector
    from repro.predictors.tage import Tage
    from repro.predictors.tagescl import TageScL

    if type(predictor) is Tage:
        return True
    if type(predictor) is not TageScL:
        return False
    if type(predictor.tage) is not Tage:
        return False
    if predictor.sc is not None and type(predictor.sc) is not StatisticalCorrector:
        return False
    if predictor.loop is not None and type(predictor.loop) is not LoopPredictor:
        return False
    if type(predictor.imli) is not ImliCounter:
        return False
    # ``predict_with_target`` threads IMLI differently; the simulator never
    # uses it, but a pending target would change the next update.
    return predictor._last_target is None


def replay_tagescl_batch(
    trace: BranchTrace,
    predictors: Sequence,
    collect_introspection: bool = False,
) -> List[Predictions]:
    """Replay every predictor (a TAGE-SC-L preset) over ``trace`` at once.

    Returns one :data:`~repro.kernels.engine.Predictions` per predictor, in
    order (attributions only with ``collect_introspection``), and leaves
    each predictor in exactly the state the scalar loop would.  Callers
    score the prediction vectors with
    :func:`repro.kernels.engine.score_predictions` (one shared scoring
    plan per trace).
    """
    ips_c, taken_c, _ = trace.conditional_columns()
    # Decoded lists are memoized on the trace: batch-of-one dispatch calls
    # this once per preset per experiment, and the decode would otherwise
    # recur per call.
    ips_l = plan_memo(trace, ("cond_ips_list",), ips_c.tolist)
    taken_l = plan_memo(
        trace,
        ("cond_taken_list",),
        lambda: np.asarray(taken_c, dtype=bool).tolist(),
    )
    pos = cond_positions(trace)
    return [
        _replay_preset(p, trace, ips_c, taken_c, ips_l, taken_l, pos, collect_introspection)
        for p in predictors
    ]


# ---------------------------------------------------------------------------
# Shared feature streams (memoized on the trace's plan cache)


def _path_stream(trace: BranchTrace, init_path: int) -> np.ndarray:
    """The 16-bit path register before each record, in closed form.

    Each push folds in ``(ip & 0xFFF) << 2`` shifts, so only the newest 8
    records can still contribute; the warm register self-extinguishes the
    same way.
    """

    def build() -> np.ndarray:
        ips = np.asarray(trace.ips, dtype=np.int64) & 0xFFF
        n = len(ips)
        path = np.zeros(n + 1, dtype=np.int64)
        for a in range(1, 9):
            if a > n:
                break
            path[a:] ^= ips[: n + 1 - a] << (2 * (a - 1))
        path &= 0xFFFF
        if init_path:
            m = min(8, n + 1)
            path[:m] ^= (int(init_path) << (2 * np.arange(m, dtype=np.int64))) & 0xFFFF
        return path

    return plan_memo(trace, ("path_stream", int(init_path)), build)


def _ghist_stream(trace: BranchTrace, taken_c: np.ndarray, init: int) -> np.ndarray:
    """The SC's 32-bit conditional-outcome history before each branch."""
    return plan_memo(
        trace,
        ("ghist32", int(init)),
        lambda: packed_history(taken_c, 32, init=int(init)),
    )


def _imli_stream(
    trace: BranchTrace, ips_c: np.ndarray, taken_c: np.ndarray, imli: "ImliCounter"
) -> Tuple[np.ndarray, Optional[int], int]:
    """IMLI count before each conditional branch, plus the final state.

    The simulator path feeds the IMLI only taken conditionals (as backward
    branches of themselves), so the count is a saturated run-position over
    the taken subsequence's IPs — with the head run optionally continuing
    the warm counter.
    """
    init_count = int(imli.count)
    init_ip = imli._last_backward_ip
    key = ("imli_stream", init_count, init_ip, imli.max_count)

    def build() -> Tuple[np.ndarray, Optional[int], int]:
        t = np.asarray(taken_c, dtype=bool)
        t_ips = ips_c[t]
        m = len(t_ips)
        counts_after = np.empty(0, dtype=np.int64)
        if m:
            same = np.empty(m, dtype=bool)
            same[0] = init_ip is not None and int(t_ips[0]) == init_ip
            np.equal(t_ips[1:], t_ips[:-1], out=same[1:])
            head_continues = bool(same[0])
            starts = ~same
            starts[0] = True
            idx = np.arange(m, dtype=np.int64)
            seg_first = np.maximum.accumulate(np.where(starts, idx, 0))
            counts_after = idx - seg_first + 1
            if head_continues:
                nxt = np.flatnonzero(starts[1:])
                head_end = int(nxt[0]) + 1 if len(nxt) else m
                counts_after[:head_end] += init_count
            np.minimum(counts_after, imli.max_count - 1, out=counts_after)
        before_cnt = np.cumsum(t) - t
        before = np.concatenate(
            [np.array([init_count], dtype=np.int64), counts_after]
        )[before_cnt]
        final_ip = int(t_ips[-1]) if m else init_ip
        final_count = int(counts_after[-1]) if m else init_count
        return before, final_ip, final_count

    return plan_memo(trace, key, build)


# ---------------------------------------------------------------------------
# Per-preset replay


@dataclass
class _Precomp:
    """Everything array-shaped one preset's sequential walk consumes."""

    matrix: np.ndarray  # (n, 1 + T [+ sc]) int32: base | (idx<<16|tag)[T] | sc
    sc_packed: bool  # SC columns packed pairwise into three int32 columns
    ci_final: List[int]
    c0_final: List[int]
    c1_final: List[int]
    path_final: int
    local_touch_order: List[int]
    local_final: dict
    imli_final_ip: Optional[int]
    imli_final_count: int
    ghist_final: int


def _precompute(
    p: Any,
    trace: BranchTrace,
    ips_c: np.ndarray,
    taken_c: np.ndarray,
    pos: np.ndarray,
) -> _Precomp:
    from repro.predictors.gehl import folded_stream_history
    from repro.predictors.tagescl import TageScL

    ens = p if type(p) is TageScL else None
    tage = p.tage if ens is not None else p
    cfg = tage.config
    T = cfg.num_tables

    # Pre-trace push bits, oldest first, read out of the circular buffer.
    # The buffer retains max_history + 8 bits, so every bit a fold of
    # length <= max_history can see is genuine; cold buffers are all
    # zeros, which is also what the closed form assumes pre-power-on.
    pre = cfg.max_history
    size = tage._hist_size
    hist = np.asarray(tage._hist, dtype=np.uint8)
    ages = (tage._head + np.arange(pre, dtype=np.int64)) % size
    prefix = hist[ages][::-1].copy()
    prefix_key = prefix.tobytes()

    path = _path_stream(trace, tage._path)
    path_c = path[pos]
    ip11 = ips_c ^ (ips_c >> 11)
    cols = [(ips_c ^ (ips_c >> cfg.log_base_entries)) & tage._base_mask]
    ci_final: List[int] = []
    c0_final: List[int] = []
    c1_final: List[int] = []
    # Index and tag share one packed int32 column (``idx << 16 | tag``):
    # halving the TAGE column count halves the dominant matrix→list decode
    # cost, and the walk unpacks with constant shifts/masks.
    if max(cfg.log_entries) > 15 or max(cfg.tag_bits) > 16:
        raise ValueError("table geometry too large for packed batched replay")
    for t in range(T):
        length = tage.history_lengths[t]
        ci_f = folded_stream_history(trace, length, cfg.log_entries[t], prefix, prefix_key)
        c0_f = folded_stream_history(trace, length, cfg.tag_bits[t], prefix, prefix_key)
        c1_f = folded_stream_history(trace, length, cfg.tag_bits[t] - 1, prefix, prefix_key)
        idx_col = (
            ips_c ^ (ips_c >> tage._idx_shifts[t]) ^ ci_f[pos] ^ (path_c >> (t & 3))
        ) & tage._idx_masks[t]
        c1_col = c1_f[pos].astype(np.int64)
        tag_col = (ip11 ^ c0_f[pos] ^ (c1_col << 1)) & tage._tag_masks[t]
        cols.append((idx_col << 16) | tag_col)
        ci_final.append(int(ci_f[-1]))
        c0_final.append(int(c0_f[-1]))
        c1_final.append(int(c1_f[-1]))

    # Composite-level feature streams: always replayed for final-state
    # writeback (when the composite exists); decoded into SC index columns
    # only when the SC exists.  Plain TAGE skips all of them.
    keys = np.empty(0, dtype=np.int64)
    imli_final_ip: Optional[int] = None
    imli_final_count = 0
    lh = None
    if ens is not None:
        keys = ips_c & ens._local_mask_entries
        init_tbl = np.zeros(ens._local_mask_entries + 1, dtype=np.int64)
        for k, v in ens._local.items():
            init_tbl[k] = v
        lh = local_history(keys, taken_c, ens._local_bits, init_tbl)
        imli_before, imli_final_ip, imli_final_count = _imli_stream(
            trace, ips_c, taken_c, ens.imli
        )

    sc = ens.sc if ens is not None else None
    sc_packed = False
    if sc is not None:
        g = _ghist_stream(trace, taken_c, ens._ghist_bits)
        comps = [sc._bias] + list(sc._ghist_components) + [sc._local, sc._imli]
        feats = [None] + [
            g & ((1 << fold) - 1) for fold in sc.history_folds
        ] + [lh.history, imli_before]
        sc_cols = []
        for comp, f in zip(comps, feats):
            base_v = (ips_c ^ (ips_c >> comp.log_entries)) & comp._mask
            if f is None:
                # Bias: feature is the TAGE prediction (0/1), folded in at
                # replay time as ``col ^ tp`` (bit 0 is inside the mask).
                sc_cols.append(base_v)
            else:
                sc_cols.append((base_v ^ f ^ (f >> 5)) & comp._mask)
        # The standard six-component shape packs pairwise into three
        # columns — (g1|g2), (g3|local), (bias|imli) — so the matrix
        # decode touches half the SC elements; the walk unpacks with
        # constant shifts.  Odd shapes keep one column per component.
        sc_packed = len(sc_cols) == 6 and all(c._mask <= 65535 for c in comps)
        if sc_packed:
            cols.append((sc_cols[1] << 16) | sc_cols[2])
            cols.append((sc_cols[3] << 16) | sc_cols[4])
            cols.append((sc_cols[0] << 16) | sc_cols[5])
        else:
            cols.extend(sc_cols)

    # Column-wise fill of a preallocated int32 matrix (cheaper than
    # stacking int64 intermediates and converting).
    matrix = np.empty((len(ips_c), len(cols)), dtype=np.int32)
    for j, col in enumerate(cols):
        matrix[:, j] = col

    touch_order: List[int] = []
    local_final: dict = {}
    if len(keys):
        uniq, first_idx = np.unique(keys, return_index=True)
        touch_order = uniq[np.argsort(first_idx, kind="stable")].tolist()
        local_final = dict(
            zip(lh.final_groups.tolist(), lh.final_registers.tolist())
        )

    return _Precomp(
        matrix=matrix,
        sc_packed=sc_packed,
        ci_final=ci_final,
        c0_final=c0_final,
        c1_final=c1_final,
        path_final=int(path[-1]),
        local_touch_order=touch_order,
        local_final=local_final,
        imli_final_ip=imli_final_ip,
        imli_final_count=imli_final_count,
        ghist_final=(
            final_history(taken_c, 32, init=ens._ghist_bits)
            if ens is not None
            else 0
        ),
    )


def _replay_preset(
    p: Any,
    trace: BranchTrace,
    ips_c: np.ndarray,
    taken_c: np.ndarray,
    ips_l: List[int],
    taken_l: List[bool],
    pos: np.ndarray,
    collect: bool,
) -> Predictions:
    from repro.predictors.tagescl import TageScL

    n = len(ips_c)
    ens = p if type(p) is TageScL else None
    tage = p.tage if ens is not None else p
    cfg = tage.config
    T = cfg.num_tables
    pre_c = _precompute(p, trace, ips_c, taken_c, pos)
    M = pre_c.matrix
    off_sc = 1 + T  # packed idx/tag columns end; sc columns follow

    # TAGE state, bound to locals (table lists are mutated in place).
    tags_l = tage._tags
    ctrs_l = tage._ctrs
    useful_l = tage._useful
    # Longest-match scan order, with the per-table list lookups hoisted
    # out of the per-branch walk: (table, packed column, tags, ctrs,
    # useful) from the longest history down.
    tables_rev = tuple(
        (t, 1 + t, tags_l[t], ctrs_l[t], useful_l[t])
        for t in range(cfg.num_tables - 1, -1, -1)
    )
    base = tage._base
    ctr_lo, ctr_hi = tage._ctr_lo, tage._ctr_hi
    u_hi = tage._u_hi
    use_alt = tage._use_alt_on_na
    rand_state = tage._rand_state
    tick = tage._tick
    reset_period = cfg.useful_reset_period
    alloc_stats = tage.allocation_stats
    alloc_record = alloc_stats.record if alloc_stats is not None else None
    alloc_count = tage.alloc_count
    evict_count = tage.evict_count
    alloc_fail = tage.alloc_fail_count
    n_provider = tage.pred_provider_count
    n_alt = tage.pred_alt_count
    n_base = tage.pred_base_count

    # Per-prediction scratch: ``idx``/``provider_pred`` only move on the
    # provider path, exactly like the scalar fields they mirror.
    p_idx = tage._p_idx
    p_provider_pred = tage._p_provider_pred

    sc = ens.sc if ens is not None else None
    sc_on = sc is not None
    if sc_on:
        comps = [sc._bias] + list(sc._ghist_components) + [sc._local, sc._imli]
        comp_tables = [c.table for c in comps]
        n_comp = len(comps)
        sc_lo, sc_hi = sc._bias._lo, sc._bias._hi
        sc_threshold = sc.threshold
        sc_tc = sc._threshold_counter
        tage_w = sc._tage_weight
        # The standard shape (bias + 3 ghist folds + local + IMLI) gets an
        # unrolled walk body over the packed columns; any other fold count
        # takes the generic loop over one column per component.
        sc6 = pre_c.sc_packed
        if sc6:
            tb0, tb1, tb2, tb3, tb4, tb5 = comp_tables
            oB, oC = off_sc + 1, off_sc + 2
        si1 = si2 = si3 = si4 = si5 = 0

    # Loop predictor, decomposed into parallel field lists: the dataclass
    # entries cost two method calls plus attribute chains per branch in the
    # scalar path; the walk reads/writes flat lists and the entry objects
    # are refilled at the end (values, not identities, are the contract).
    lp = ens.loop if ens is not None else None
    loop_on = lp is not None
    if loop_on:
        l_tag = [e.tag for e in lp._table]
        l_past = [e.past_iter for e in lp._table]
        l_cur = [e.current_iter for e in lp._table]
        l_conf = [e.confidence for e in lp._table]
        l_age = [e.age for e in lp._table]
        l_dir = [e.direction for e in lp._table]
        l_mask = lp._mask
        l_tagmask = lp._tag_mask
        l_log = lp.log_entries
        l_rand = lp._rand_state
        l_confident = lp.is_confident
        l_lastpred = lp._last_pred
        l_have = lp._last_entry is not None
        l_slot = 0
    pred_loop_count = ens.pred_loop_count if ens is not None else 0

    preds: List[bool] = []
    preds_append = preds.append
    attrs: Optional[List[Optional[Attribution]]] = [] if collect else None
    attrs_append = attrs.append if attrs is not None else None

    # Loop locals that outlive the walk feed the final-state writeback.
    provider = tage._p_provider
    tage_pred = tage._p_pred
    alt_pred = tage._p_alt_pred
    weak = tage._p_weak
    pred = ens._last_pred if ens is not None else tage._p_pred
    sc_flipped = ens._last_sc_flipped if ens is not None else False
    loop_used = ens._last_loop_used if ens is not None else False
    row = None
    s = 0
    bi0 = 0

    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + _CHUNK)
        for row, tk, ip in zip(M[i0:i1].tolist(), taken_l[i0:i1], ips_l[i0:i1]):
            # ---- TAGE predict: longest/second-longest tag match.
            provider = -1
            alt = -1
            pv = 0
            for t, col, tags_t, ctrs_t, useful_t in tables_rev:
                v = row[col]
                if tags_t[v >> 16] == v & 65535:
                    if provider < 0:
                        provider = t
                        pv = v
                        ctrs_p = ctrs_t
                        useful_p = useful_t
                    else:
                        alt = t
                        alt_ctrs = ctrs_t
                        break
            if provider < 0:
                base_pred = base[row[0]] >= 0
                n_base += 1
                tage_pred = base_pred
                alt_pred = base_pred
                weak = False
            else:
                idx = pv >> 16
                ctr = ctrs_p[idx]
                provider_pred = ctr >= 0
                alt_pred = (
                    alt_ctrs[v >> 16] >= 0
                    if alt >= 0
                    else base[row[0]] >= 0
                )
                weak = (ctr == 0 or ctr == -1) and useful_p[idx] == 0
                if weak and use_alt >= 0:
                    tage_pred = alt_pred
                    n_alt += 1
                else:
                    tage_pred = provider_pred
                    n_provider += 1
                p_idx = idx
                p_provider_pred = provider_pred

            # ---- SC classify.
            pred = tage_pred
            if sc_on:
                tp = 1 if tage_pred else 0
                if sc6:
                    va = row[off_sc]
                    vb = row[oB]
                    vc = row[oC]
                    si1 = va >> 16
                    si2 = va & 65535
                    si3 = vb >> 16
                    si4 = vb & 65535
                    si5 = vc & 65535
                    bi0 = (vc >> 16) ^ tp
                    ssum = (
                        tb0[bi0]
                        + tb1[si1]
                        + tb2[si2]
                        + tb3[si3]
                        + tb4[si4]
                        + tb5[si5]
                    )
                else:
                    bi0 = row[off_sc] ^ tp
                    ssum = comp_tables[0][bi0]
                    for j in range(1, n_comp):
                        ssum += comp_tables[j][row[off_sc + j]]
                s = 2 * ssum + n_comp
                if tage_pred:
                    s += tage_w
                    if provider >= 0 and not weak:
                        s += tage_w
                else:
                    s -= tage_w
                    if provider >= 0 and not weak:
                        s -= tage_w
                if (s >= 0) != tage_pred:
                    abs_s = s if s >= 0 else -s
                    if abs_s >= sc_threshold:
                        pred = not tage_pred
            sc_flipped = pred != tage_pred

            # ---- Loop-predictor override.
            loop_used = False
            if loop_on:
                l_slot = (ip ^ (ip >> l_log)) & l_mask
                l_have = l_tag[l_slot] == (ip >> 2) & l_tagmask
                if l_have and l_conf[l_slot] >= 3 and l_past[l_slot] >= 2:
                    l_confident = True
                    l_lastpred = (
                        (not l_dir[l_slot])
                        if l_cur[l_slot] + 1 >= l_past[l_slot]
                        else l_dir[l_slot]
                    )
                    pred = l_lastpred
                    loop_used = True
                    pred_loop_count += 1
                else:
                    l_confident = False
                    l_lastpred = True

            preds_append(pred)
            if attrs_append is not None:
                attrs_append(
                    (
                        provider,
                        provider >= 0 and weak and use_alt >= 0,
                        loop_used,
                        sc_flipped,
                    )
                )

            # ---- SC train.
            if sc_on:
                sc_pred = s >= 0
                abs_s = s if s >= 0 else -s
                if sc_pred != tk or abs_s < (sc_threshold << 2):
                    d = 1 if tk else -1
                    if sc6:
                        v = tb0[bi0] + d
                        tb0[bi0] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                        v = tb1[si1] + d
                        tb1[si1] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                        v = tb2[si2] + d
                        tb2[si2] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                        v = tb3[si3] + d
                        tb3[si3] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                        v = tb4[si4] + d
                        tb4[si4] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                        v = tb5[si5] + d
                        tb5[si5] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                    else:
                        v = comp_tables[0][bi0] + d
                        comp_tables[0][bi0] = (
                            sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                        )
                        for j in range(1, n_comp):
                            tbl = comp_tables[j]
                            ii = row[off_sc + j]
                            v = tbl[ii] + d
                            tbl[ii] = sc_hi if v > sc_hi else (sc_lo if v < sc_lo else v)
                if sc_pred != tk:
                    if abs_s >= sc_threshold:
                        sc_tc += 1
                        if sc_tc >= 32:
                            sc_tc = 0
                            if sc_threshold < 128:
                                sc_threshold += 1
                elif abs_s < sc_threshold:
                    sc_tc -= 1
                    if sc_tc <= -32:
                        sc_tc = 0
                        if sc_threshold > 4:
                            sc_threshold -= 1

            # ---- Loop-predictor train (gated on the composite's miss).
            if loop_on:
                if l_have:
                    if tk == l_dir[l_slot]:
                        ci = l_cur[l_slot] + 1
                        if ci > 16383:
                            ci = 16383
                        l_cur[l_slot] = ci
                        if ci > l_past[l_slot] and l_conf[l_slot] == 3:
                            l_conf[l_slot] = 0
                            l_past[l_slot] = 0
                    else:
                        observed = l_cur[l_slot] + 1
                        if observed == l_past[l_slot]:
                            if l_conf[l_slot] < 3:
                                l_conf[l_slot] += 1
                            if l_age[l_slot] < 7:
                                l_age[l_slot] += 1
                        else:
                            l_past[l_slot] = observed
                            l_conf[l_slot] = 0
                        l_cur[l_slot] = 0
                elif pred != tk:
                    x = l_rand
                    x ^= (x << 13) & 0xFFFFFFFF
                    x ^= x >> 17
                    x ^= (x << 5) & 0xFFFFFFFF
                    l_rand = x
                    if x & 7 == 0:
                        if l_tag[l_slot] == -1 or l_age[l_slot] == 0:
                            l_tag[l_slot] = (ip >> 2) & l_tagmask
                            l_past[l_slot] = 0
                            l_cur[l_slot] = 0
                            l_conf[l_slot] = 0
                            l_age[l_slot] = 3
                            l_dir[l_slot] = not tk
                        else:
                            l_age[l_slot] -= 1

            # ---- TAGE train.
            if provider >= 0:
                if weak and p_provider_pred != alt_pred:
                    if alt_pred == tk:
                        if use_alt < 7:
                            use_alt += 1
                    elif use_alt > -8:
                        use_alt -= 1
                if p_provider_pred != alt_pred:
                    u = useful_p[idx]
                    if p_provider_pred == tk:
                        if u < u_hi:
                            useful_p[idx] = u + 1
                    elif u > 0:
                        useful_p[idx] = u - 1
                c = ctrs_p[idx] + (1 if tk else -1)
                if c > ctr_hi:
                    c = ctr_hi
                elif c < ctr_lo:
                    c = ctr_lo
                ctrs_p[idx] = c
                if useful_p[idx] == 0 and (c == 0 or c == -1):
                    bi = row[0]
                    b = base[bi] + (1 if tk else -1)
                    base[bi] = 1 if b > 1 else (-2 if b < -2 else b)
            else:
                bi = row[0]
                b = base[bi] + (1 if tk else -1)
                base[bi] = 1 if b > 1 else (-2 if b < -2 else b)

            # ---- Allocation on a TAGE miss (TAGE's own prediction).
            if tage_pred != tk and provider < T - 1:
                x = rand_state
                x ^= (x << 13) & 0xFFFFFFFF
                x ^= x >> 17
                x ^= (x << 5) & 0xFFFFFFFF
                rand_state = x
                start = provider + 1
                if (x & 3) == 0 and start + 1 < T:
                    start += 1
                allocated = False
                t = start
                while t < T:
                    v = row[1 + t]
                    aidx = v >> 16
                    if useful_l[t][aidx] == 0:
                        if tags_l[t][aidx] != -1:
                            evict_count += 1
                        tags_l[t][aidx] = v & 65535
                        ctrs_l[t][aidx] = 0 if tk else -1
                        alloc_count += 1
                        if alloc_record is not None:
                            alloc_record(ip, t, aidx)
                        allocated = True
                        break
                    t += 1
                if not allocated:
                    alloc_fail += 1
                    for t in range(start, T):
                        aidx = row[1 + t] >> 16
                        u = useful_l[t][aidx]
                        if u > 0:
                            useful_l[t][aidx] = u - 1
                tick += 1
                if tick >= reset_period:
                    tick = 0
                    for t in range(T):
                        ul = useful_l[t]
                        for j2 in range(len(ul)):
                            ul[j2] >>= 1
        i0 = i1

    # ---- Final-state writeback: TAGE registers and telemetry.
    tage._use_alt_on_na = use_alt
    tage._rand_state = rand_state
    tage._tick = tick
    tage.alloc_count = alloc_count
    tage.evict_count = evict_count
    tage.alloc_fail_count = alloc_fail
    tage.pred_provider_count = n_provider
    tage.pred_alt_count = n_alt
    tage.pred_base_count = n_base
    tage._p_provider = provider
    tage._p_idx = p_idx
    tage._p_pred = tage_pred
    tage._p_provider_pred = p_provider_pred
    tage._p_alt_pred = alt_pred
    tage._p_weak = weak
    if row is not None:
        packed = row[1:off_sc]
        tage._p_indices[:] = [v >> 16 for v in packed]
        tage._p_tags[:] = [v & 65535 for v in packed]

    # History advances on every record (note_branch pushes too), so the
    # registers move even when the trace had no conditional branches.
    N = len(trace)
    if N:
        bits = stream_bits(trace)
        size = tage._hist_size
        head = (tage._head - N) % size
        m = min(N, size)
        idxs = (head + np.arange(m, dtype=np.int64)) % size
        hist_arr = np.asarray(tage._hist, dtype=np.int64)
        hist_arr[idxs] = bits[N - m :][::-1]
        tage._hist = hist_arr.tolist()
        tage._head = head
        tage._ci[:] = pre_c.ci_final
        tage._c0[:] = pre_c.c0_final
        tage._c1[:] = pre_c.c1_final
        tage._path = pre_c.path_final

    # ---- Composite-level writeback.
    if sc_on:
        sc.threshold = sc_threshold
        sc._threshold_counter = sc_tc
        if n:
            sc._last_sum = s
            sc._last_tage_pred = tage_pred
            if sc6:
                va = row[off_sc]
                vb = row[oB]
                vc = row[oC]
                tail = [va >> 16, va & 65535, vb >> 16, vb & 65535, vc & 65535]
            else:
                tail = [row[off_sc + j] for j in range(1, n_comp)]
            last_indices = [(comps[0], bi0)]
            for comp, ii in zip(comps[1:], tail):
                last_indices.append((comp, ii))
            sc._last_indices = last_indices
    if loop_on:
        for e, tg, pi, cu, cf, ag, dr in zip(
            lp._table, l_tag, l_past, l_cur, l_conf, l_age, l_dir
        ):
            e.tag = tg
            e.past_iter = pi
            e.current_iter = cu
            e.confidence = cf
            e.age = ag
            e.direction = dr
        lp._rand_state = l_rand
        if n:
            lp.is_confident = l_confident
            lp._last_pred = l_lastpred
            lp._last_entry = lp._table[l_slot] if l_have else None
    if ens is not None:
        ens.pred_loop_count = pred_loop_count
        if n:
            ens._last_pred = pred
            ens._last_sc_flipped = sc_flipped
            ens._last_loop_used = loop_used
            ens._ghist_bits = pre_c.ghist_final
            for k in pre_c.local_touch_order:
                ens._local[k] = pre_c.local_final[k]
            ens.imli.count = pre_c.imli_final_count
            ens.imli._last_backward_ip = pre_c.imli_final_ip

    return np.array(preds, dtype=bool), attrs
