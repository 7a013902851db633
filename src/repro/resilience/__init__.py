"""``repro.resilience``: fault injection and cache quarantine.

The experiment engine's failure-handling toolkit (``docs/resilience.md``):

* :mod:`repro.resilience.faults` — a deterministic, seeded fault-injection
  harness (``REPRO_FAULTS`` or :func:`faults.install`) that can crash
  workers mid-job, raise transient/deterministic job errors, delay jobs,
  corrupt cache and trace-store entries, and fake ``ENOSPC`` on publish;
* :mod:`repro.resilience.quarantine` — corrupt/stale on-disk cache
  payloads are moved to a ``quarantine/`` subdirectory (counted under
  ``lab.cache.quarantined``) instead of being re-read every run.

An interrupted sweep needs no checkpoint of its own: every finished
simulation is already published to the disk cache, so rerunning on the
same cache directory recomputes only the missing work.

Every recovery path preserves the engine's core invariant: recovered
runs produce **bit-identical** statistics to a clean serial run.
"""

from repro.resilience.faults import (
    CORRUPT_PAYLOAD,
    KNOWN_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
)
from repro.resilience.faults import active as active_faults
from repro.resilience.faults import install as install_faults
from repro.resilience.faults import uninstall as uninstall_faults
from repro.resilience.quarantine import QUARANTINE_DIRNAME, quarantine_file

__all__ = [
    "CORRUPT_PAYLOAD",
    "KNOWN_SITES",
    "QUARANTINE_DIRNAME",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_faults",
    "install_faults",
    "quarantine_file",
    "uninstall_faults",
]
