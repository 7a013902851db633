"""``repro.kernels``: numpy-vectorized trace-driven simulation.

For *trace-driven* simulation the global and per-branch histories are fully
determined by the recorded ``taken`` stream, so history-indexed table
predictors (bimodal, gshare, two-level-local) and the oracle family reduce
to precomputed index streams followed by a grouped per-table-entry
saturating-counter replay — no per-branch Python dispatch.  Predictors
advertise a kernel via :meth:`repro.predictors.base.BranchPredictor.
vectorized_kernel`; TAGE/TAGE-SC-L use the batched replay in
:mod:`repro.kernels.batched`.  Each backend that
:func:`repro.pipeline.simulator.simulate_trace` dispatches to — a kernel,
the batched replay, or the drive-only scalar loop — yields one prediction
per conditional branch, which :func:`score_predictions` alone scores.
Kernels leave the predictor in the scalar loop's final state, so results
are **bit-identical** on every path.  ``REPRO_KERNELS=0`` forces the
scalar loop everywhere.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from typing import Iterator, Tuple

from repro.kernels.engine import (
    cond_positions,
    plan_memo,
    score_predictions,
    score_with_kernel,
    signed_history_lists,
    signed_history_matrix,
    stream_bits,
)
from repro.kernels.scan import (
    CounterScan,
    LocalHistory,
    final_history,
    local_history,
    packed_bit_windows,
    packed_history,
    saturating_counter_scan,
)

__all__ = [
    "CounterScan",
    "LocalHistory",
    "cond_positions",
    "final_history",
    "kernels_disabled",
    "kernels_enabled",
    "kernels_override",
    "local_history",
    "packed_bit_windows",
    "packed_history",
    "plan_memo",
    "saturating_counter_scan",
    "score_predictions",
    "score_with_kernel",
    "signed_history_lists",
    "signed_history_matrix",
    "stream_bits",
]


#: Context-local override stack for :func:`kernels_enabled`.  ``None``
#: entries mean "no override"; the innermost non-``None`` entry wins.  A
#: context variable — not ``os.environ`` — so one request's scalar-path
#: measurement can never flip the flag under a concurrent request in
#: another thread or asyncio task.
_KERNELS_OVERRIDE: "contextvars.ContextVar[Tuple[bool, ...]]" = contextvars.ContextVar(
    "repro_kernels_override", default=()
)


def kernels_enabled() -> bool:
    """Whether the vectorized fast path may be used (``REPRO_KERNELS``).

    Enabled by default; set ``REPRO_KERNELS=0`` (or ``false``/``no``/``off``)
    to force the scalar loop — the escape hatch restores the pre-kernel
    behavior byte-for-byte.  A :func:`kernels_disabled` /
    :func:`kernels_override` block takes precedence over the environment,
    and only within the calling context.
    """
    stack = _KERNELS_OVERRIDE.get()
    if stack:
        return stack[-1]
    raw = os.environ.get("REPRO_KERNELS", "1").strip().lower()
    return raw not in ("0", "false", "no", "off")


@contextlib.contextmanager
def kernels_override(enabled: bool) -> "Iterator[None]":
    """Force the kernel dispatch decision to ``enabled`` inside the block.

    Reentrant (blocks nest; the innermost wins) and context-local: unlike
    the hand-rolled ``REPRO_KERNELS`` save/restore pattern it replaces,
    the override is invisible to concurrent threads/tasks and can never
    leak a flipped global flag past an exception.
    """
    token = _KERNELS_OVERRIDE.set(_KERNELS_OVERRIDE.get() + (enabled,))
    try:
        yield
    finally:
        _KERNELS_OVERRIDE.reset(token)


def kernels_disabled() -> "contextlib.AbstractContextManager[None]":
    """Force the scalar loop inside the block (see :func:`kernels_override`)."""
    return kernels_override(False)
