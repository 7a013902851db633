"""Command-line experiment runner.

``python -m repro [names...]`` regenerates the paper's tables and figures
(all of them by default) at the active tier and prints the rendered results.
The ``examples/reproduce_paper.py`` script is a thin wrapper over this
module.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.obs.trace import trace_out_path
from repro.experiments.allocation_study import compute_allocation_study
from repro.experiments.cnn_study import compute_cnn_study
from repro.experiments.fig1 import compute_fig1
from repro.experiments.fig2 import compute_fig2
from repro.experiments.fig3 import compute_fig3, compute_fig4
from repro.experiments.fig5 import compute_fig5
from repro.experiments.fig7 import compute_fig7
from repro.experiments.fig8 import compute_fig8
from repro.experiments.fig9 import compute_fig9
from repro.experiments.fig10 import compute_fig10
from repro.experiments.introspect import compute_introspect
from repro.experiments.lab import Lab
from repro.experiments.phase_study import compute_phase_study
from repro.experiments.plans import EXPERIMENT_PLANS
from repro.experiments.staticcheck_check import compute_staticcheck_report
from repro.experiments.staticpred import compute_staticpred_report
from repro.experiments.table1 import compute_table1
from repro.experiments.table2 import compute_table2
from repro.experiments.table3 import compute_table3

_log = obs.get_logger("experiments")


def _fig6(lab: Lab) -> str:
    return "\n".join(
        f"{name}: {points[:6]}"
        for name, points in compute_table3(lab).fig6_series().items()
    )


#: Experiment name -> callable(lab) -> printable text.
EXPERIMENTS: Dict[str, Callable[[Lab], str]] = {
    "table1": lambda lab: compute_table1(lab).render(),
    "table2": lambda lab: compute_table2(lab).render(),
    "table3": lambda lab: compute_table3(lab).render(),
    "fig1": lambda lab: compute_fig1(lab).render(),
    "fig2": lambda lab: compute_fig2(lab).render(),
    "fig3": lambda lab: compute_fig3(lab).render(),
    "fig4": lambda lab: compute_fig4(lab).render(),
    "fig5": lambda lab: compute_fig5(lab).render(),
    "fig6": _fig6,
    "fig7": lambda lab: compute_fig7(lab).render(),
    "fig8": lambda lab: compute_fig8(lab).render(),
    "fig9": lambda lab: compute_fig9(lab).render(),
    "fig10": lambda lab: compute_fig10(lab).render(),
    "introspect": lambda lab: compute_introspect(lab).render(),
    "allocation": lambda lab: compute_allocation_study(lab).render(),
    "cnn": lambda lab: compute_cnn_study(lab).render(),
    "phase": lambda lab: compute_phase_study(lab).render(),
    "staticcheck": lambda lab: compute_staticcheck_report(lab).render(),
    "staticpred": lambda lab: compute_staticpred_report(lab).render(),
}


def run_experiments(
    names: Optional[Sequence[str]] = None,
    lab: Optional[Lab] = None,
    echo: Callable[[str], None] = print,
) -> List[str]:
    """Run experiments by name; returns the rendered outputs in order."""
    selected = list(names) if names else list(EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiments: {unknown}; choose from {sorted(EXPERIMENTS)}"
        )
    lab = lab or Lab()
    outputs: List[str] = []
    workers = f" with {lab.jobs} workers" if lab.jobs > 1 else ""
    echo(f"Running {len(selected)} experiment(s) at tier '{lab.tier.name}'{workers}\n")
    for name in selected:
        _log.info("starting experiment %s", name)
        # Span-based timing: the span lands in the exported tree (with lab
        # simulate children) and also backs the elapsed display.
        with obs.span(name, tier=lab.tier.name) as sp:
            # Fan the experiment's planned simulations out across the
            # worker pool first; the serial driver below then renders
            # entirely from cache hits.
            plan = EXPERIMENT_PLANS.get(name) if lab.jobs > 1 else None
            if plan is not None:
                lab.prefetch(plan(lab))
            output = EXPERIMENTS[name](lab)
        _log.info("finished %s in %s", name, obs.format_duration(sp.duration_s))
        echo(f"{'=' * 72}\n{name} ({obs.format_duration(sp.duration_s)})\n{'=' * 72}")
        echo(output)
        echo("")
        outputs.append(output)
    return outputs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Branch Prediction Is Not "
            "A Solved Problem' (Lin & Tarsa, IISWC 2019)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help=f"experiments to run (default: all). Choices: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk simulation cache",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the simulation fan-out "
        "(default: $REPRO_JOBS or 1 = serial; 0 means all cores)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="logging level for the repro.* hierarchy "
        "(default: $REPRO_LOG_LEVEL or warning)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable metrics collection and write the registry + span trees "
        "as JSON to PATH at end of run",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace-event/Perfetto timeline of the run to "
        "PATH (also enabled by REPRO_TRACE_OUT; implies metrics collection)",
    )
    parser.add_argument(
        "--introspect-out",
        default=None,
        metavar="PATH",
        help="enable per-branch prediction introspection (REPRO_INTROSPECT=1) "
        "and write the collected reports as JSON to PATH",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    obs.configure_logging(args.log_level)
    if args.metrics_out:
        obs.enable()
    trace_out = args.trace_out or trace_out_path()
    if trace_out:
        # Spans only record while metrics collection is on, so the timeline
        # implies it; the collector itself starts here (epoch = run start).
        obs.enable()
        obs.enable_tracing()
    if args.introspect_out:
        obs.enable_introspection()

    lab = Lab(cache_dir=args.cache_dir, jobs=args.jobs)
    try:
        run_experiments(args.experiments or None, lab)
    except ValueError as exc:
        parser.error(str(exc))
    finally:
        lab.close()

    if obs.is_enabled():
        print(obs.render_summary())
    if args.metrics_out:
        path = obs.write_metrics_json(args.metrics_out)
        _log.info("wrote metrics JSON to %s", path)
    if trace_out:
        path = obs.write_trace_json(trace_out)
        print(f"timeline trace written to {path} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.introspect_out:
        path = obs.write_introspect_json(args.introspect_out)
        _log.info("wrote introspection JSON to %s", path)
    return 0
