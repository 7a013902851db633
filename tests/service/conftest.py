"""Helpers for tests that run the real daemon process."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
_LISTEN_RE = re.compile(r"repro\.service listening on ([\w\.\-]+):(\d+)")


def spawn_daemon(extra_args=(), timeout=60.0):
    """Start ``python -m repro.service --port 0``; return it and its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _LISTEN_RE.search(line)
        if match:
            return proc, (match.group(1), int(match.group(2)))
    proc.kill()
    proc.wait()
    raise RuntimeError("daemon did not announce a listening address")


def stop_daemon(proc, timeout=60.0):
    """SIGTERM the daemon and wait for the graceful-drain exit code."""
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()
