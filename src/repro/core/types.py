"""Core datatypes shared across the library.

The whole measurement pipeline in the paper operates on a *dynamic branch
stream*: the ordered sequence of (instruction pointer, branch kind, taken
direction, target) tuples produced as a program retires instructions.  These
types model that stream plus the slicing discipline the paper uses
(30M-instruction slices, scaled down here; see
:mod:`repro.experiments.config`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class BranchKind(enum.IntEnum):
    """Kinds of control-flow instructions the BPU observes.

    Only :attr:`CONDITIONAL` branches are predicted for direction; the other
    kinds participate in the path history and instruction accounting.
    """

    CONDITIONAL = 0
    UNCONDITIONAL = 1
    CALL = 2
    RETURN = 3
    INDIRECT = 4


@dataclass(frozen=True)
class BranchRecord:
    """A single dynamic branch execution as seen by the BPU.

    Attributes:
        ip: instruction pointer (virtual address) of the branch.
        taken: observed direction (always True for unconditional kinds).
        target: branch target address.
        kind: the :class:`BranchKind`.
        instr_index: index of this branch in the retired instruction stream
            (used for recurrence-interval and slicing analyses).
    """

    ip: int
    taken: bool
    target: int
    kind: BranchKind = BranchKind.CONDITIONAL
    instr_index: int = 0

    @property
    def is_conditional(self) -> bool:
        return self.kind == BranchKind.CONDITIONAL


class BranchTrace:
    """A columnar dynamic branch trace.

    Stores the branch stream as parallel numpy arrays for speed, while still
    exposing a record-oriented iteration interface.  ``instr_count`` is the
    total number of retired instructions the trace spans (branches plus
    non-branch instructions), which the IPC model and slicing logic need.
    """

    __slots__ = (
        "ips",
        "taken",
        "targets",
        "kinds",
        "instr_indices",
        "instr_count",
        "_cond_cols",
        "_cond_codes",
        "_plan_cache",
    )

    def __init__(
        self,
        ips: Sequence[int],
        taken: Sequence[bool],
        targets: Optional[Sequence[int]] = None,
        kinds: Optional[Sequence[int]] = None,
        instr_indices: Optional[Sequence[int]] = None,
        instr_count: Optional[int] = None,
    ) -> None:
        self.ips = np.asarray(ips, dtype=np.int64)
        self.taken = np.asarray(taken, dtype=np.uint8)
        n = len(self.ips)
        if len(self.taken) != n:
            raise ValueError("ips and taken must have equal length")
        self.targets = (
            np.asarray(targets, dtype=np.int64)
            if targets is not None
            else np.zeros(n, dtype=np.int64)
        )
        self.kinds = (
            np.asarray(kinds, dtype=np.int8)
            if kinds is not None
            else np.full(n, int(BranchKind.CONDITIONAL), dtype=np.int8)
        )
        self.instr_indices = (
            np.asarray(instr_indices, dtype=np.int64)
            if instr_indices is not None
            else np.arange(n, dtype=np.int64)
        )
        if len(self.targets) != n or len(self.kinds) != n or len(self.instr_indices) != n:
            raise ValueError("all trace columns must have equal length")
        if instr_count is None:
            instr_count = int(self.instr_indices[-1]) + 1 if n else 0
        if n and instr_count <= int(self.instr_indices[-1]):
            raise ValueError("instr_count must exceed the last instruction index")
        self.instr_count = int(instr_count)
        self._cond_cols: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._cond_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Kernel-plan memo owned by repro.kernels.engine.plan_memo: scoring
        # groupings, history streams and other predictor-independent
        # precomputes.  Set back to None when the trace falls out of the
        # engine's bounded set of plan-holding traces.
        self._plan_cache: Optional[Dict[Any, Any]] = None

    def __len__(self) -> int:
        return len(self.ips)

    def __iter__(self) -> Iterator[BranchRecord]:
        for i in range(len(self.ips)):
            yield BranchRecord(
                ip=int(self.ips[i]),
                taken=bool(self.taken[i]),
                target=int(self.targets[i]),
                kind=BranchKind(int(self.kinds[i])),
                instr_index=int(self.instr_indices[i]),
            )

    def conditional_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ips, taken, instr_indices)`` of the conditional subsequence.

        Memoized: simulating several predictors over one trace (the normal
        experiment shape) pays the boolean extraction once.  Columns are
        treated as immutable after construction — callers must not mutate
        the returned arrays (or the backing ones).
        """
        if self._cond_cols is None:
            cond = self.conditional_mask
            self._cond_cols = (
                self.ips[cond],
                self.taken[cond].astype(bool),
                self.instr_indices[cond],
            )
        return self._cond_cols

    def conditional_ip_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Factorized conditional IPs: ``(unique_ips, codes)``, memoized.

        ``unique_ips`` is sorted ascending and ``codes[i]`` indexes into it
        for conditional branch ``i`` (int32: static branch counts are tiny).
        The expensive sort over wide int64 IPs happens once per trace; the
        vectorized scoring path re-derives per-call groupings from the
        small codes instead.
        """
        if self._cond_codes is None:
            ips_c = self.conditional_columns()[0]
            uniq, inv = np.unique(ips_c, return_inverse=True)
            self._cond_codes = (uniq, inv.reshape(ips_c.shape).astype(np.int32))
        return self._cond_codes

    @property
    def conditional_mask(self) -> np.ndarray:
        return self.kinds == int(BranchKind.CONDITIONAL)

    def num_conditional(self) -> int:
        return int(self.conditional_mask.sum())

    def static_branch_ips(self, conditional_only: bool = True) -> np.ndarray:
        """Unique static branch IPs appearing in the trace."""
        ips = self.ips[self.conditional_mask] if conditional_only else self.ips
        return np.unique(ips)

    def slices(self, slice_instructions: int) -> List["TraceSlice"]:
        """Cut the trace into fixed-instruction-length slices.

        Mirrors the paper's post-processing of 10B-instruction traces into
        30M-instruction slices.  The final partial slice is kept only if it
        covers at least half a slice, so short tails do not distort per-slice
        statistics.
        """
        if slice_instructions <= 0:
            raise ValueError("slice_instructions must be positive")
        out: List[TraceSlice] = []
        n_slices = self.instr_count // slice_instructions
        remainder = self.instr_count - n_slices * slice_instructions
        if remainder >= slice_instructions // 2:
            n_slices += 1
        boundaries = np.searchsorted(
            self.instr_indices,
            [(k + 1) * slice_instructions for k in range(n_slices)],
        )
        start = 0
        for k in range(n_slices):
            stop = int(boundaries[k])
            out.append(
                TraceSlice(
                    trace=self,
                    index=k,
                    start=start,
                    stop=stop,
                    instr_start=k * slice_instructions,
                    instr_stop=min((k + 1) * slice_instructions, self.instr_count),
                )
            )
            start = stop
        return out


@dataclass(frozen=True)
class TraceSlice:
    """A contiguous window of a :class:`BranchTrace` covering a fixed number
    of retired instructions (the paper's 30M-instruction slice, scaled)."""

    trace: BranchTrace
    index: int
    start: int  # first branch index in the parent trace (inclusive)
    stop: int  # last branch index (exclusive)
    instr_start: int
    instr_stop: int

    @property
    def instr_count(self) -> int:
        return self.instr_stop - self.instr_start

    @property
    def ips(self) -> np.ndarray:
        return self.trace.ips[self.start : self.stop]

    @property
    def taken(self) -> np.ndarray:
        return self.trace.taken[self.start : self.stop]

    @property
    def kinds(self) -> np.ndarray:
        return self.trace.kinds[self.start : self.stop]

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass
class WorkloadTrace:
    """A traced (benchmark, input) pair: the paper's unit of data collection.

    Attributes:
        benchmark: benchmark name (e.g. ``"641.leela_s"``).
        input_name: application-input identifier (the paper expands each
            benchmark with multiple inputs, after Amaral et al.).
        trace: the dynamic branch trace.
    """

    benchmark: str
    input_name: str
    trace: BranchTrace
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.input_name}"
