"""O-GEHL: Optimized GEometric History Length predictor (Seznec 2005).

The bridge between perceptrons and TAGE in the lineage the paper sketches:
several tables of signed counters, each indexed by the IP hashed with a
*geometrically growing* slice of global history; the prediction is the sign
of the summed counter votes, trained perceptron-style against an adaptive
threshold.  Unlike TAGE there are no tags — aliasing is fought statistically
rather than by exact matching — which makes it an informative ablation
partner for TAGE's tagged tables.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.types import BranchKind, BranchTrace
from repro.predictors.base import BranchPredictor, saturate
from repro.predictors.tage import geometric_history_lengths


class OGehl(BranchPredictor):
    """O-GEHL with adaptive threshold (simplified)."""

    name = "o-gehl"

    def __init__(
        self,
        num_tables: int = 8,
        log_entries: int = 10,
        min_history: int = 3,
        max_history: int = 200,
        counter_bits: int = 5,
    ) -> None:
        if num_tables < 2 or log_entries <= 0 or counter_bits < 2:
            raise ValueError("invalid O-GEHL shape")
        self.num_tables = num_tables
        self.log_entries = log_entries
        self.counter_bits = counter_bits
        # Table 0 is indexed by IP alone (bias); the rest use history.
        self.history_lengths = [0] + geometric_history_lengths(
            min_history, max_history, num_tables - 1
        )
        self._mask = (1 << log_entries) - 1
        self._lo = -(1 << (counter_bits - 1))
        self._hi = (1 << (counter_bits - 1)) - 1
        self._tables: List[List[int]] = [
            [0] * (1 << log_entries) for _ in range(num_tables)
        ]
        self._history = 0  # packed global history, newest bit = LSB
        self._max_history = max_history
        self.threshold = num_tables
        self._tc = 0  # threshold-training counter
        self._last_indices: List[int] = [0] * num_tables
        self._last_sum = 0

    def _fold(self, length: int) -> int:
        bits = self._history & ((1 << length) - 1)
        folded = 0
        while bits:
            folded ^= bits & self._mask
            bits >>= self.log_entries
        return folded

    def predict(self, ip: int) -> bool:
        s = 0
        for t in range(self.num_tables):
            h = self.history_lengths[t]
            idx = (ip ^ (ip >> (t + 1)) ^ self._fold(h)) & self._mask if h else (
                ip ^ (ip >> self.log_entries)
            ) & self._mask
            self._last_indices[t] = idx
            s += 2 * self._tables[t][idx] + 1
        self._last_sum = s
        return s >= 0

    def update(self, ip: int, taken: bool) -> None:
        s = self._last_sum
        pred = s >= 0
        if pred != taken or abs(s) < self.threshold:
            for t in range(self.num_tables):
                idx = self._last_indices[t]
                self._tables[t][idx] = saturate(
                    self._tables[t][idx] + (1 if taken else -1),
                    self._lo, self._hi,
                )
        # Adaptive threshold (Seznec's TC scheme).
        if pred != taken:
            self._tc += 1
            if self._tc >= 64:
                self._tc = 0
                self.threshold = min(self.threshold + 1, 4 * self.num_tables)
        elif abs(s) < self.threshold:
            self._tc -= 1
            if self._tc <= -64:
                self._tc = 0
                self.threshold = max(self.threshold - 1, 1)
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self._max_history) - 1
        )

    def note_branch(
        self, ip: int, target: int, kind: BranchKind, taken: bool = True
    ) -> None:
        self._history = ((self._history << 1) | 1) & ((1 << self._max_history) - 1)

    def storage_bits(self) -> int:
        return (
            self.num_tables * (1 << self.log_entries) * self.counter_bits
            + self._max_history
            + 16
        )

    def reset(self) -> None:
        for table in self._tables:
            for i in range(len(table)):
                table[i] = 0
        self._history = 0
        self._tc = 0
        self.threshold = self.num_tables

    def vectorized_kernel(self) -> Optional[object]:
        if type(self) is not OGehl:
            return None

        def kernel(ips: np.ndarray, taken: np.ndarray, trace: BranchTrace):
            return _replay_ogehl(self, ips, taken, trace)

        kernel.wants_trace = True  # type: ignore[attr-defined]
        return kernel


def folded_stream_history(
    trace: BranchTrace,
    length: int,
    width: int,
    prefix_bits: "np.ndarray",
    prefix_key: object,
) -> np.ndarray:
    """Folded global history before each record, for the whole stream.

    ``out[k]`` equals ``fold(history, length)`` — the low ``length`` bits of
    the packed push-bit history, XOR-compressed in ``width``-bit chunks —
    as a predictor that pushed ``prefix_bits`` (oldest first) before the
    trace and then the trace's own push bits would see it before record
    ``k`` (``out[n]`` is the post-trace value).  Chunk ``q`` of the fold is
    just the masked ``width``-bit window ending ``q*width`` bits back, so
    the whole stream costs one memoized packed-window pass per ``width``
    plus ``ceil(length/width)`` XORs; the fold arrays themselves are
    memoized per ``(length, width, prefix)`` and shared across predictors
    reading the same geometric history lengths.  Both are stored in the
    narrowest unsigned dtype holding ``width`` bits
    (:func:`repro.kernels.scan.uint_dtype`), so callers widen before
    shifting a fold left.
    """
    from repro.kernels import packed_bit_windows, plan_memo, stream_bits

    pre = len(prefix_bits)
    if length > pre:
        raise ValueError("prefix must cover the longest folded history")

    def build_windows() -> np.ndarray:
        ext = np.concatenate(
            [np.asarray(prefix_bits, dtype=np.uint8), stream_bits(trace)]
        )
        return packed_bit_windows(ext, width)

    windows = plan_memo(
        trace, ("packed_windows", width, pre, prefix_key), build_windows
    )

    def build_fold() -> np.ndarray:
        n = len(trace)
        q_total = -(-length // width)
        # Window values are already ``width``-bit packed, so only the last
        # (oldest, possibly partial) chunk needs masking; the full-width
        # chunks XOR-reduce in one pass over a backward-strided view.
        rem = length - (q_total - 1) * width
        full = q_total if rem == width else q_total - 1
        if full:
            base = windows[pre - (full - 1) * width :]
            s = windows.strides[0]
            view = np.lib.stride_tricks.as_strided(
                base, shape=(full, n + 1), strides=(width * s, s),
                writeable=False,
            )
            fold = np.bitwise_xor.reduce(view, axis=0)
        else:
            fold = np.zeros(n + 1, dtype=windows.dtype)
        if rem != width:
            lo = pre - (q_total - 1) * width
            fold ^= windows[lo : lo + n + 1] & ((1 << rem) - 1)
        return fold

    return plan_memo(
        trace, ("folded_stream", length, width, pre, prefix_key), build_fold
    )


def _replay_ogehl(
    p: "OGehl", ips: np.ndarray, taken: np.ndarray, trace: BranchTrace
) -> np.ndarray:
    """O-GEHL replay: vectorized index streams, sequential vote loop.

    The scalar loop's cost is dominated by re-folding geometric history
    slices per table per branch; here every table's full index stream is
    reconstructed up front from memoized packed-bit windows (shared across
    replays of this trace), leaving a lean per-branch walk over plain
    lists for the sequential part that actually feeds back — counter
    votes, training, and the adaptive threshold.
    """
    from repro.kernels import cond_positions

    n = len(ips)
    num_tables = p.num_tables
    pre = p._max_history
    # Pre-trace history bits, oldest first: prefix[pre - a] is the bit
    # pushed ``a`` records before the trace began.
    prefix = np.zeros(pre, dtype=np.uint8)
    hbits = p._history  # arbitrary-precision: may exceed 64 bits
    a = 1
    while hbits and a <= pre:
        prefix[pre - a] = hbits & 1
        hbits >>= 1
        a += 1
    prefix_key = p._history

    if n:
        pos = cond_positions(trace)
        width = p.log_entries
        idx_cols = []
        for t in range(num_tables):
            h = p.history_lengths[t]
            if h:
                fold = folded_stream_history(trace, h, width, prefix, prefix_key)
                col = (ips ^ (ips >> (t + 1)) ^ fold[pos]) & p._mask
            else:
                col = (ips ^ (ips >> p.log_entries)) & p._mask
            idx_cols.append(col)
        indices = np.stack(idx_cols, axis=1).tolist()
        taken_l = np.asarray(taken, dtype=bool).tolist()

        tables = p._tables
        lo, hi = p._lo, p._hi
        threshold, tc = p.threshold, p._tc
        tc_hi = 4 * num_tables
        preds: List[bool] = []
        append = preds.append
        s = 0
        for i in range(n):
            row = indices[i]
            s = num_tables
            for t in range(num_tables):
                s += 2 * tables[t][row[t]]
            pred = s >= 0
            append(pred)
            tk = taken_l[i]
            mag = s if s >= 0 else -s
            if pred != tk:
                for t in range(num_tables):
                    idx = row[t]
                    v = tables[t][idx] + (1 if tk else -1)
                    if v > hi:
                        v = hi
                    elif v < lo:
                        v = lo
                    tables[t][idx] = v
                tc += 1
                if tc >= 64:
                    tc = 0
                    if threshold < tc_hi:
                        threshold += 1
            elif mag < threshold:
                for t in range(num_tables):
                    idx = row[t]
                    v = tables[t][idx] + (1 if tk else -1)
                    if v > hi:
                        v = hi
                    elif v < lo:
                        v = lo
                    tables[t][idx] = v
                tc -= 1
                if tc <= -64:
                    tc = 0
                    if threshold > 1:
                        threshold = threshold - 1
        p.threshold, p._tc = threshold, tc
        p._last_indices = indices[-1]
        p._last_sum = s
        out = np.array(preds, dtype=bool)
    else:
        out = np.zeros(0, dtype=bool)

    # History advances on every record (note_branch pushes 1s).
    n_full = len(trace)
    if n_full:
        from repro.kernels import stream_bits

        bits = stream_bits(trace)
        m = min(pre, n_full)
        packed = 0
        for j in range(m):
            packed |= int(bits[n_full - 1 - j]) << j
        if n_full < pre:
            packed |= (p._history << n_full) & ((1 << pre) - 1)
        p._history = packed
    return out
