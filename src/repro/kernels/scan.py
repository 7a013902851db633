"""Segmented numpy primitives for vectorized predictor replay.

The interesting problem is replaying a table of saturating counters over a
recorded branch stream without visiting branches one at a time.  A ±1
saturating counter is a clamped running sum, and a clamped-addition step

    f(x) = min(c, max(b, x + a))

is closed under composition: composing two such steps yields a third of the
same three-parameter shape.  That makes the per-table-entry replay a
*segmented inclusive prefix scan* over an associative operator, computable
with Hillis–Steele doubling in ``O(log max-run-length)`` vectorized passes:
sort the stream by table index (stable, so each entry's branches stay in
temporal order), scan within segments, and read each branch's pre-update
counter state — the value ``predict()`` would have seen — straight out of
the shifted scan.

The history helpers cover the other half of the reduction: for trace-driven
simulation the global history register (gshare) and the per-entry local
history registers (two-level-local) are pure functions of the recorded
``taken`` array, so the full index stream is computable up front with a few
shift-and-add passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

import numpy as np

_INT = np.int64


@dataclass(frozen=True)
class CounterScan:
    """Result of replaying grouped saturating counters over a stream.

    Attributes:
        states_before: per-branch counter value *before* that branch's
            update, in the original stream order (what ``predict()`` sees).
        final_groups: the distinct group ids that were touched.
        final_states: the counter value of each touched group after the
            whole stream (for writing the table back).
    """

    states_before: np.ndarray
    final_groups: np.ndarray
    final_states: np.ndarray


@dataclass(frozen=True)
class LocalHistory:
    """Per-branch local-history values plus final register contents."""

    history: np.ndarray  # pattern before each branch, original order
    final_groups: np.ndarray  # touched first-level entries
    final_registers: np.ndarray  # their history registers after the stream


def _segment_starts(sorted_groups: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each group run."""
    n = len(sorted_groups)
    starts = np.empty(n, dtype=bool)
    if n:
        starts[0] = True
        np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=starts[1:])
    return starts


def saturating_counter_scan(
    groups: np.ndarray,
    taken: np.ndarray,
    lo: int,
    hi: int,
    init: Union[int, np.ndarray],
) -> CounterScan:
    """Replay one ±1 saturating counter per group over a branch stream.

    Args:
        groups: table index of each branch (temporal order).
        taken: resolved direction of each branch (the counter trains up on
            taken, down on not-taken, clamped to ``[lo, hi]``).
        init: starting counter value — a scalar, or a per-branch array
            giving each branch its group's starting value (must be constant
            within a group; pass ``table[groups]`` for a warm table).

    Exactly equivalent to the scalar ``counter_update`` loop, including for
    non-zero starting tables.
    """
    n = len(groups)
    if n == 0:
        empty = np.empty(0, dtype=_INT)
        return CounterScan(empty, empty.copy(), empty.copy())
    # Sort by (run length, group): stable, so each group's branches keep
    # temporal order, and groups stay contiguous (equal group => equal
    # length => equal key).  Length-major ordering lets each doubling round
    # drop the prefix of already-finished segments — a position's composed
    # map is complete once ``d`` reaches its segment length — so total work
    # is ~sum(len * log len) per segment instead of n * log(longest run).
    counts = np.bincount(groups)
    lengths = counts[groups]
    key = lengths * (len(counts) + 1) + groups
    if int(key.max()) < (1 << 31):
        key = key.astype(np.int32)  # int32 stable argsort is radix-based
    order = np.argsort(key, kind="stable")
    g = groups[order]
    t = np.asarray(taken, dtype=bool)[order]
    sorted_lengths = lengths[order]
    init_arr = (
        np.asarray(init, dtype=_INT)[order]
        if isinstance(init, np.ndarray)
        else np.full(n, int(init), dtype=_INT)
    )

    starts = _segment_starts(g)
    start_idx = np.flatnonzero(starts)
    max_run = int(sorted_lengths[-1])

    # Each position starts as its own one-step map (a, b, c) with
    # f(x) = min(c, max(b, x + a)); doubling composes runs of them.  The
    # loop is memory-bound, so map parameters live in int32 (|a| <= n and
    # |b|, |c| <= |lo| + |hi| + 2n, far inside int32 for any real trace)
    # and each round writes into preallocated buffers.
    step = np.int32 if n < (1 << 30) else _INT
    gs = g.astype(step, copy=False) if g.dtype != step else g
    a = np.where(t, step(1), step(-1))
    b = np.full(n, lo, dtype=step)
    c = np.full(n, hi, dtype=step)
    buf_a = np.empty(n, dtype=step)
    buf_b = np.empty(n, dtype=step)
    buf_c = np.empty(n, dtype=step)
    buf_m = np.empty(n, dtype=bool)

    d = 1
    while d < max_run:
        # Positions in segments of length <= d already hold their full
        # prefix map; they still serve as read-only composition sources.
        first = max(int(np.searchsorted(sorted_lengths, d, side="right")), d)
        if first >= n:
            break
        m = n - first
        same = np.equal(gs[first:], gs[first - d : n - d], out=buf_m[:m])
        # Compose: later map (this position) after earlier map (d back);
        # positions whose source lies in another segment keep their map.
        ae, be, ce = a[first - d : n - d], b[first - d : n - d], c[first - d : n - d]
        al, bl, cl = a[first:], b[first:], c[first:]
        na = np.add(ae, al, out=buf_a[:m])
        nc = np.add(ce, al, out=buf_c[:m])
        np.maximum(bl, nc, out=nc)
        np.minimum(cl, nc, out=nc)
        nb = np.add(be, al, out=buf_b[:m])
        np.maximum(bl, nb, out=nb)
        np.copyto(al, na, where=same)
        np.copyto(cl, nc, where=same)
        np.copyto(bl, nb, where=same)
        d <<= 1

    states_after = np.minimum(c, np.maximum(b, init_arr + a))
    states_before = np.empty(n, dtype=_INT)
    states_before[0] = init_arr[0]
    states_before[1:] = states_after[:-1]
    states_before[starts] = init_arr[starts]

    out = np.empty(n, dtype=_INT)
    out[order] = states_before

    end_idx = np.append(start_idx[1:] - 1, n - 1)
    return CounterScan(out, g[start_idx], states_after[end_idx])


def packed_history(taken: np.ndarray, bits: int, init: int = 0) -> np.ndarray:
    """Global-history register value seen by each branch.

    ``h[i]`` is the masked shift register *before* branch ``i`` trains it:
    outcome ``i-1`` in the LSB, back through outcome ``i-bits``.  ``init``
    seeds the register (a warm predictor), contributing the high bits of
    the first ``bits`` positions.
    """
    n = len(taken)
    h = np.zeros(n, dtype=_INT)
    t = np.asarray(taken, dtype=_INT)
    for k in range(1, min(bits, n) + 1):
        h[k:] += t[:-k] << (k - 1)
    if init:
        mask = (1 << bits) - 1
        m = min(bits, n)
        h[:m] |= (int(init) << np.arange(m, dtype=_INT)) & mask
    return h


def final_history(taken: np.ndarray, bits: int, init: int = 0) -> int:
    """Register value after training on the whole stream (for writeback)."""
    n = len(taken)
    mask = (1 << bits) - 1
    t = np.asarray(taken, dtype=_INT)
    m = min(bits, n)
    packed = 0
    for j in range(m):
        packed |= int(t[n - 1 - j]) << j
    if n < bits:
        packed |= int(init) << n
    return packed & mask


def local_history(
    groups: np.ndarray,
    taken: np.ndarray,
    bits: int,
    init_table: np.ndarray,
) -> LocalHistory:
    """Per-branch local-history patterns for a two-level predictor.

    Each first-level entry (``groups``) keeps a ``bits``-wide shift
    register of its own branches' outcomes; ``history[i]`` is the register
    value branch ``i``'s ``predict()``/``update()`` read (i.e. *excluding*
    branch ``i`` itself).  ``init_table`` supplies warm register contents.
    """
    n = len(groups)
    if n == 0:
        empty = np.empty(0, dtype=_INT)
        return LocalHistory(empty, empty.copy(), empty.copy())
    mask = (1 << bits) - 1
    order = np.argsort(groups, kind="stable")
    g = groups[order]
    t = np.asarray(taken, dtype=_INT)[order]

    starts = _segment_starts(g)
    positions = np.arange(n, dtype=_INT)
    seg_first = np.maximum.accumulate(np.where(starts, positions, 0))

    h = np.zeros(n, dtype=_INT)
    for k in range(1, min(bits, n) + 1):
        in_seg = positions[k:] - k >= seg_first[k:]
        h[k:] += np.where(in_seg, t[:-k] << (k - 1), 0)
    # Warm registers: bits the stream has not yet displaced.  At within-run
    # offset o the initial register contributes (init << o) & mask, which
    # self-extinguishes once o >= bits.
    offset = positions - seg_first
    init_vals = np.asarray(init_table, dtype=_INT)[g]
    h += (init_vals << np.minimum(offset, bits)) & mask

    out = np.empty(n, dtype=_INT)
    out[order] = h

    start_idx = np.flatnonzero(starts)
    end_idx = np.append(start_idx[1:] - 1, n - 1)
    final_regs = ((h[end_idx] << 1) | t[end_idx]) & mask
    return LocalHistory(out, g[start_idx], final_regs)


def uint_dtype(width: int) -> "np.dtype[Any]":
    """The narrowest unsigned integer dtype that holds ``width`` bits."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if width <= np.iinfo(dt).bits:
            return np.dtype(dt)
    raise ValueError(f"no unsigned dtype holds {width} bits")


def packed_bit_windows(bits: np.ndarray, width: int) -> np.ndarray:
    """Sliding ``width``-bit windows over a 0/1 stream, packed LSB-first.

    ``P[m] = sum_{u < width} bits[m-1-u] << u`` — the ``width`` newest bits
    *before* position ``m``, newest in the LSB; positions before the stream
    read as 0.  One such array per distinct compressed length is all a
    folded-history reconstruction needs: the fold register of a
    geometric-history predictor before record ``k`` is the XOR of masked
    chunks ``P[k - q*width]`` (see ``repro.kernels.batched``).  Stored in
    :func:`uint_dtype` of ``width``: these arrays are memoized per trace,
    and every shipped geometry packs into ``uint8`` or ``uint16``.
    """
    n = len(bits)
    dt = uint_dtype(width)
    P = np.zeros(n + 1, dtype=dt)
    b = np.asarray(bits, dtype=dt)
    for u in range(width):
        if u >= n:
            break
        P[u + 1 :] += b[: n - u] << u
    return P

