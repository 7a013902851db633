"""Regenerate every table and figure of the paper in one run.

Thin wrapper over :mod:`repro.experiments.runner` (also available as
``python -m repro``).  Executes each experiment at the active tier
(``REPRO_TIER=quick`` by default; set ``full`` for the complete runs) and
prints the same rows/series the paper reports.

Usage::

    python examples/reproduce_paper.py               # everything
    python examples/reproduce_paper.py fig1 table2   # a subset
    REPRO_TIER=full python examples/reproduce_paper.py
    python examples/reproduce_paper.py fig7 --jobs 8 # parallel fan-out
    REPRO_JOBS=0 python examples/reproduce_paper.py  # 0 = all cores

``--jobs/-j N`` (or ``REPRO_JOBS``) fans the simulations of each
experiment out across N worker processes; results are bit-identical to
the default serial run (see ``docs/performance.md``).  With a cache
directory configured, every finished simulation is published to disk, so
an interrupted sweep rerun on the same directory dispatches only the
missing work (see ``docs/resilience.md``)::

    REPRO_CACHE_DIR=cache python examples/reproduce_paper.py --jobs 8
"""

import sys

from repro.experiments.runner import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
