"""Trace-driven branch prediction simulation.

This is the CBP-style driver: it feeds a recorded dynamic branch stream to a
predictor (IP, type, target in; direction out), scores the predictions, and
accumulates per-static-branch statistics — in aggregate and per
fixed-instruction-length slice, matching the paper's methodology of
collecting statistics "across all 30M-instruction slices of each workload
trace".

Simulation is one path: a *backend* drives the predictor over the trace and
yields its predicted direction for every conditional branch, and
:func:`~repro.kernels.engine.score_predictions` alone scores that vector.
The backends are the predictor's numpy kernel, the batched TAGE-SC-L replay
(:mod:`repro.kernels.batched`; a batch of one for single configurations),
and the drive-only scalar loop (every other predictor, or everything under
``REPRO_KERNELS=0``).  All three leave the predictor in the same final
state, so results are bit-identical whichever one runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.metrics import BranchStats
from repro.core.types import BranchKind, BranchTrace
from repro.kernels import kernels_enabled
from repro.kernels.engine import Attribution, Predictions, run_kernel, score_predictions
# Re-exported: the kernel adapter, which only delegates to score_predictions.
from repro.kernels.engine import score_with_kernel  # noqa: F401
from repro.obs import introspect
from repro.predictors.base import BranchPredictor

_COND = int(BranchKind.CONDITIONAL)
# Enum construction is surprisingly costly in the hot loop; index instead.
_KINDS = {int(k): k for k in BranchKind}

_log = obs.get_logger("sim")


@dataclass
class SimulationResult:
    """Outcome of driving one predictor over one trace."""

    predictor_name: str
    stats: BranchStats
    instr_count: int
    slice_stats: Optional[List[BranchStats]] = None
    mispredict_positions: Optional[np.ndarray] = None

    @property
    def accuracy(self) -> float:
        return self.stats.accuracy

    @property
    def mispredictions(self) -> int:
        return self.stats.total_mispredictions

    @property
    def mpki(self) -> float:
        return self.stats.mpki(self.instr_count)


def simulate_trace(
    trace: BranchTrace,
    predictor: BranchPredictor,
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and score it.

    Args:
        trace: the dynamic branch stream.
        slice_instructions: if set, also accumulate one
            :class:`BranchStats` per slice of this many instructions.
        record_mispredict_positions: capture the instruction index of every
            misprediction (needed by the event-level IPC model).
        warmup_branches: number of initial conditional branches excluded
            from scoring (the predictor still trains on them).

    The predictor is *not* reset; callers own lifecycle (this allows
    deliberate cross-slice training, as on real hardware).
    """
    return simulate_trace_batch(
        trace, [predictor], slice_instructions, record_mispredict_positions, warmup_branches
    )[0]


def simulate_trace_batch(
    trace: BranchTrace,
    predictors: Sequence[BranchPredictor],
    slice_instructions: Optional[int] = None,
    record_mispredict_positions: bool = False,
    warmup_branches: int = 0,
) -> List[SimulationResult]:
    """Simulate several predictors over one trace (arguments as
    :func:`simulate_trace`); one result per predictor, in order.

    When kernels are enabled and every predictor is a batchable TAGE-SC-L
    configuration (see :func:`repro.kernels.batched.batchable`), one replay
    pass reconstructs the trace's history/feature streams once and replays
    all of them — the fig. 7/8 shape, where the same workload is scored at
    every storage budget.  Otherwise each predictor runs on its own.
    """
    if slice_instructions is not None and slice_instructions <= 0:
        raise ValueError("slice_instructions must be positive")
    from repro.kernels.batched import batchable

    use_kernels = kernels_enabled()
    if use_kernels and predictors and all(batchable(p) for p in predictors):
        groups = [list(predictors)]
    else:
        groups = [[p] for p in predictors]
    introspecting = introspect.is_enabled()
    results: List[SimulationResult] = []
    for group in groups:
        t_start = perf_counter()
        path, drives = _drive(trace, group, use_kernels, introspecting)
        scored = []
        for predictor, (preds, _) in zip(group, drives):
            stats, slices, positions = score_predictions(
                trace, preds, slice_instructions, record_mispredict_positions, warmup_branches
            )
            scored.append(
                SimulationResult(predictor.name, stats, trace.instr_count, slices, positions)
            )
        elapsed = perf_counter() - t_start
        if introspecting:
            _introspect(trace, group, drives, path, slice_instructions, warmup_branches)
        _publish(trace, group, scored, path, elapsed)
        results.extend(scored)
    return results


def _drive(
    trace: BranchTrace,
    group: List[BranchPredictor],
    use_kernels: bool,
    introspecting: bool,
) -> Tuple[str, List[Predictions]]:
    """Run the backend for ``group``: ``(path name, Predictions per member)``.

    A group of more than one predictor is always a batchable batch.
    """
    if use_kernels:
        from repro.kernels.batched import batchable, replay_tagescl_batch

        if all(batchable(p) for p in group):
            return "batched", replay_tagescl_batch(
                trace, group, collect_introspection=introspecting
            )
        kernel = group[0].vectorized_kernel()
        if kernel is not None:
            return "kernel", [(run_kernel(trace, kernel), None)]
    return "scalar", [_drive_scalar(trace, group[0], introspecting)]


def _drive_scalar(
    trace: BranchTrace, predictor: BranchPredictor, introspecting: bool
) -> Predictions:
    """Feed every record to ``predictor`` in order and collect its
    predictions: conditionals go through ``set_outcome`` (oracles only),
    ``predict`` and ``update``, every other kind through ``note_branch``."""
    set_outcome = getattr(predictor, "set_outcome", None)
    introspect_last = getattr(predictor, "introspect_last", None)
    predict = predictor.predict
    update = predictor.update
    note = predictor.note_branch
    preds: List[bool] = []
    append = preds.append
    attrs: Optional[List[Optional[Attribution]]] = [] if introspecting else None
    # Iterating decoded lists beats ndarray access; ``taken`` as Python bools.
    columns = (trace.ips, trace.taken.astype(bool), trace.targets, trace.kinds)
    for ip, taken, target, kind in zip(*(c.tolist() for c in columns)):
        if kind != _COND:
            note(ip, target, _KINDS[kind], taken)
            continue
        if set_outcome is not None:
            set_outcome(taken)
        append(predict(ip))
        if attrs is not None:
            attrs.append(introspect_last() if introspect_last is not None else None)
        update(ip, taken)
    return np.array(preds, dtype=bool), attrs


def _introspect(
    trace: BranchTrace,
    group: List[BranchPredictor],
    drives: List[Predictions],
    path: str,
    slice_instructions: Optional[int],
    warmup_branches: int,
) -> None:
    """Record one introspection report per member from its scored stream."""
    ips_c, taken_c, pos_c = trace.conditional_columns()
    w = max(0, warmup_branches)
    ips_w, pos_w = ips_c[w:].tolist(), pos_c[w:].tolist()
    for predictor, (preds, attrs) in zip(group, drives):
        chan = introspect.BranchIntrospector(predictor.name, slice_instructions, path)
        correct = (preds[w:] == taken_c[w:]).tolist()
        chan.record_stream(ips_w, pos_w, correct, attrs[w:] if attrs is not None else None)
        chan.finish(predictor)


def _publish(
    trace: BranchTrace,
    group: List[BranchPredictor],
    results: List[SimulationResult],
    path: str,
    elapsed: float,
) -> None:
    """Record one backend run's timers, counters and log line.

    ``elapsed`` is measured once for the whole group; a group of more than
    one predictor reports it as ``sim.batch``, never as per-member time.
    """
    if obs.is_enabled():
        cond = int(len(trace.conditional_columns()[0]))
        obs.observe_timer("sim.trace", elapsed)
        if len(group) == 1:
            obs.observe_timer(f"sim.predictor.{group[0].name}", elapsed)
        else:
            obs.observe_timer("sim.batch", elapsed)
        for predictor, result in zip(group, results):
            obs.counter("sim.branches", len(trace))
            obs.counter("sim.cond_branches", cond)
            obs.counter("sim.instructions", trace.instr_count)
            obs.counter("sim.mispredictions", result.stats.total_mispredictions)
            if path == "scalar":
                obs.counter("kernels.fallback_scalar", cond)
                obs.counter(f"kernels.fallback_scalar.{predictor.name}", cond)
            else:
                obs.counter("kernels.branches", cond)
                if path == "batched":
                    obs.counter("kernels.batched", cond)
            publish = getattr(predictor, "publish_obs_counters", None)
            if publish is not None:
                publish()
        if elapsed > 0:
            obs.gauge("sim.branches_per_sec", len(trace) * len(group) / elapsed)
    if _log.isEnabledFor(logging.INFO):
        _log.info(
            "%s: %d branches in %s (%s, %s path), accuracy %s",
            ", ".join(p.name for p in group),
            len(trace),
            obs.format_duration(elapsed),
            obs.format_rate(len(trace) * len(group), elapsed, "/s"),
            path,
            ", ".join(f"{r.accuracy:.4f}" for r in results),
        )
