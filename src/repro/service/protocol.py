"""Wire framing shared by the daemon and the client.

One JSON object per line, UTF-8, ``\\n``-terminated.  Requests are
``{"id", "method", "params"}``; responses are ``{"id", "ok", "result"}``
or ``{"id", "ok": false, "error": {"code", "message"}}``.  The ``id`` is
client-chosen and opaque to the server — it only has to be a JSON scalar
the client can match responses back with, so pipelined requests may be
answered out of order.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from repro.service import BAD_REQUEST, ServiceError

#: Upper bound on one request line; anything larger is a protocol error
#: (the service's payloads are all far smaller — this bounds memory per
#: connection, it is not a tuning knob).
MAX_LINE_BYTES = 1 << 20


def parse_line(line: bytes) -> Tuple[Any, str, Dict[str, Any]]:
    """Parse one request line into ``(id, method, params)``.

    Raises :class:`~repro.service.ServiceError` (400) on malformed input;
    the request ``id`` is best-effort recovered so the error response can
    still be correlated.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(BAD_REQUEST, "request line too large")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(BAD_REQUEST, f"invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ServiceError(BAD_REQUEST, f"invalid UTF-8: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(BAD_REQUEST, "request must be a JSON object")
    rid = message.get("id")
    if rid is not None and not isinstance(rid, (str, int, float)):
        raise ServiceError(BAD_REQUEST, "id must be a JSON scalar")
    method = message.get("method")
    if not isinstance(method, str) or not method:
        raise ServiceError(BAD_REQUEST, "method must be a non-empty string")
    params = message.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ServiceError(BAD_REQUEST, "params must be an object")
    unknown = set(message) - {"id", "method", "params"}
    if unknown:
        raise ServiceError(BAD_REQUEST, f"unknown request fields {sorted(unknown)}")
    return rid, method, params


def dump_line(payload: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire form (compact, newline-framed)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


__all__ = ["MAX_LINE_BYTES", "dump_line", "parse_line"]
