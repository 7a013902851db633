"""Content-addressed on-disk store for generated branch traces.

Executing a synthetic workload through the pure-Python interpreter is the
single most expensive step of the pipeline, and it is fully deterministic:
the trace is a pure function of (workload name, executor seed, instruction
budget).  The store persists each :class:`~repro.core.types.BranchTrace`'s
columns as a compressed ``.npz`` under the shared cache directory
(``REPRO_CACHE_DIR``), addressed by a digest of that key plus
:data:`TRACE_VERSION` — so the interpreter runs once per (workload, seed,
budget) *ever*, across Labs, worker processes, and repository checkouts
sharing the directory.  Each column is written in the narrowest integer
dtype its values fit (``instr_indices`` as first differences), and
:class:`~repro.core.types.BranchTrace` widens them back on load.

Concurrency follows the sim cache's discipline: entries are published
atomically (unique sibling tempfile + ``os.replace``), racing writers of
one deterministic key converge on identical bytes, and corrupt or
mismatched files are WARNING-logged, counted, and recomputed — an I/O
failure costs the cache entry, never the run.

Bump :data:`TRACE_VERSION` whenever trace *content* for an existing key
can change: executor semantics, workload program construction, seeding, or
the serialized column set.  (Pure performance changes don't qualify.)
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.core.types import BranchTrace
from repro.resilience import faults
from repro.resilience.quarantine import quarantine_file
from repro.workloads.base import workload_seed

#: Bump after any change that alters generated trace content for an
#: existing (workload, seed, instructions) key, or the stored encoding.
TRACE_VERSION = 2

_NARROW_DTYPES = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32)


def _narrow(col: np.ndarray) -> np.ndarray:
    """``col`` in the narrowest integer dtype holding its min and max."""
    if not len(col):
        return col
    lo, hi = int(col.min()), int(col.max())
    for dt in _NARROW_DTYPES:
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return col.astype(dt)
    return col

_log = obs.get_logger("lab.trace_store")


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


class TraceStore:
    """A directory of content-addressed serialized branch traces."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing --------------------------------------------------------

    def key(self, workload: str, input_index: int, instructions: int) -> str:
        """Canonical identity of one trace: everything that determines its
        content, including the format version."""
        return (
            f"repro.trace/v{TRACE_VERSION}/{workload}"
            f"/seed{workload_seed(input_index)}/n{instructions}"
        )

    def path_for(self, workload: str, input_index: int, instructions: int) -> Path:
        key = self.key(workload, input_index, instructions)
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:20]
        fname = (
            f"trace_{_slug(workload)}_i{input_index}_n{instructions}_{digest}.npz"
        )
        return self.root / fname

    # -- access ------------------------------------------------------------

    def load(
        self, workload: str, input_index: int, instructions: int
    ) -> Optional[BranchTrace]:
        """Load one trace, or ``None`` on a miss / unreadable entry."""
        path = self.path_for(workload, input_index, instructions)
        if not path.exists():
            obs.counter("lab.trace_store.miss")
            return None
        key = self.key(workload, input_index, instructions)
        try:
            with np.load(path) as data:
                stored_key = str(data["key"])
                if stored_key != key:
                    raise ValueError(
                        f"key mismatch: file holds {stored_key!r}, want {key!r}"
                    )
                trace = BranchTrace(
                    ips=data["ips"],
                    taken=data["taken"],
                    targets=data["targets"],
                    kinds=data["kinds"],
                    instr_indices=np.cumsum(data["instr_deltas"], dtype=np.int64),
                    instr_count=int(data["instr_count"]),
                )
        except Exception as exc:
            # Fail-soft: a torn write, a foreign file landing on our name,
            # or a column mismatch must cost a re-execution, never the run.
            # The bad entry is quarantined so the *next* run gets a clean
            # miss instead of re-reading and re-warning about it.
            obs.counter("lab.trace_store.load_error")
            _log.warning(
                "ignoring unreadable trace-store entry %s (%s: %s); regenerating",
                path, type(exc).__name__, exc,
            )
            quarantine_file(path, self.root, f"{type(exc).__name__}: {exc}")
            return None
        obs.counter("lab.trace_store.hit")
        _log.debug("trace store hit: %s", path)
        return trace

    def store(
        self, workload: str, input_index: int, instructions: int, trace: BranchTrace
    ) -> Optional[Path]:
        """Atomically publish one trace; returns its path (None on failure)."""
        path = self.path_for(workload, input_index, instructions)
        key = self.key(workload, input_index, instructions)
        try:
            faults.check_enospc("trace_store.enospc")
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    np.savez_compressed(
                        f,
                        key=key,
                        trace_version=np.int64(TRACE_VERSION),
                        ips=_narrow(trace.ips),
                        taken=trace.taken,
                        targets=_narrow(trace.targets),
                        kinds=trace.kinds,
                        instr_deltas=_narrow(np.diff(trace.instr_indices, prepend=0)),
                        instr_count=np.int64(trace.instr_count),
                    )
                os.replace(tmp_name, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
        except OSError as exc:
            obs.counter("lab.trace_store.store_failed")
            _log.warning("could not write trace-store entry %s: %s", path, exc)
            return None
        faults.corrupt_file("trace_store.corrupt", path)
        obs.counter("lab.trace_store.store")
        _log.debug("trace store publish: %s", path)
        return path
