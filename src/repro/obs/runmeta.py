"""Run metadata embedded in every exported artifact.

Metrics files, timeline traces, and introspection reports from different
commits are only comparable if each one records *what* produced it.
:func:`run_metadata` gathers that provenance once per process — git SHA,
ISO date, config tier, seed, interpreter and numpy versions, host — and
every exporter embeds it verbatim.

The git lookup shells out once and caches; outside a git checkout (e.g.
an installed wheel or an exported tarball) the SHA fields degrade to
``None`` rather than failing.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Dict, Optional, Tuple

_git_cache: Optional[Tuple[Optional[str], bool]] = None


def _git_state() -> Tuple[Optional[str], bool]:
    """``(sha, dirty)`` for the enclosing git checkout, cached per process."""
    global _git_cache
    if _git_cache is not None:
        return _git_cache
    sha: Optional[str] = None
    dirty = False
    try:
        repo_dir = os.path.dirname(os.path.abspath(__file__))
        sha = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=repo_dir,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or None
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
        dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        sha = None
        dirty = False
    _git_cache = (sha, dirty)
    return _git_cache


def _numpy_version() -> Optional[str]:
    try:
        import numpy

        return numpy.__version__
    except Exception:
        return None


def run_metadata() -> Dict[str, Any]:
    """Provenance header for exported artifacts (fresh timestamp each call)."""
    from repro.config import active_tier

    sha, dirty = _git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tier": active_tier().name,
        "seed": int(os.environ.get("REPRO_SEED", "0") or 0),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "host": platform.node(),
        "platform": sys.platform,
    }
