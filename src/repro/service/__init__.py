"""``repro.service``: prediction-as-a-service over one long-lived Lab.

The batch engine built by the earlier layers (prefetch planners, batched
TAGE-SC-L replay, the content-addressed trace store) answers exactly the
queries downstream H2P studies want to issue repeatedly — ``simulate``,
``h2p`` screens, Table I cells, ``staticcheck`` reports — but only as
one-shot processes that pay trace generation and kernel planning on every
invocation.  This package wraps a single :class:`~repro.experiments.lab.
Lab` in an asyncio JSON-over-socket daemon that keeps traces, kernel
plans, and the trace store warm across requests and serves many
concurrent clients:

* **request batching** — compatible ``simulate`` requests arriving within
  one dispatch window coalesce into a single
  :meth:`~repro.experiments.lab.Lab.simulate_batch` call, so a burst of
  TAGE-SC-L preset queries for one trace replays it once (the same
  machinery behind the fig. 7 sweep planners);
* **single-flight dedupe** — an identical request already in flight is
  joined, not recomputed (``service.singleflight``), on top of the Lab's
  own per-key single-flight;
* **admission control** — a bounded dispatch queue; requests beyond it
  are shed with a ``503``-style error (``service.shed``) instead of
  growing latency without bound;
* **graceful drain** — SIGTERM/SIGINT stops accepting work, finishes
  what is in flight, and closes the Lab (worker pool included).

Run the daemon with ``python -m repro.service``.  Protocol, ops knobs
and the load test: ``docs/service.md``.
"""

from __future__ import annotations

import hashlib

from repro.pipeline.simulator import SimulationResult

#: Protocol identifier echoed by ``ping`` (bump on breaking changes).
PROTOCOL_VERSION = "repro.service/v1"

#: Error codes (HTTP-flavored so clients can pattern-match familiarly).
BAD_REQUEST = 400
NOT_FOUND = 404
INTERNAL_ERROR = 500
SHED = 503


class ServiceError(Exception):
    """A request-level failure, carried as ``{"code", "message"}`` on the
    wire.  Raised by :class:`~repro.service.client.ServiceClient` when the
    daemon answers ``ok: false``, and raised inside the daemon's handlers
    to produce exactly that answer."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def simulation_digest(result: SimulationResult) -> str:
    """Canonical digest of one simulation's complete scored statistics.

    Covers the instruction count, every per-branch (ip, executions,
    mispredictions) triple in insertion order, and the same for every
    slice — i.e. everything the render paths consume.  Two results are
    bit-identical iff their digests match, which is how the service's
    concurrency tests compare daemon responses against fresh serial
    :class:`~repro.experiments.lab.Lab` runs without shipping the full
    stats over the wire.
    """
    h = hashlib.sha256()
    h.update(f"{result.predictor_name}\x1f{result.instr_count}".encode())
    for ip, counts in result.stats.items():
        h.update(f";{ip}:{counts.executions}:{counts.mispredictions}".encode())
    for slice_stats in result.slice_stats or ():
        h.update(b"|")
        for ip, counts in slice_stats.items():
            h.update(f";{ip}:{counts.executions}:{counts.mispredictions}".encode())
    return h.hexdigest()


__all__ = [
    "BAD_REQUEST",
    "INTERNAL_ERROR",
    "NOT_FOUND",
    "PROTOCOL_VERSION",
    "SHED",
    "ServiceError",
    "simulation_digest",
]
