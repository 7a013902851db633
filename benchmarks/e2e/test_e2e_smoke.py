"""Smoke tests for the end-to-end benchmark (``python -m pytest benchmarks/e2e``).

Each workload runs once untraced and once traced at ``--smoke`` counts, which
shrink only how many operations are timed (5 warm invocations, 100 service
requests, 1 fig7 invocation), never the programs themselves.  The full pass
takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("e2e_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


e2e = _load_harness()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _result(proc: subprocess.CompletedProcess) -> Dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(e2e.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [tuple(m) for m in e2e.E2E_METRICS]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [tuple(m) for m in e2e.LAYER_METRICS]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


def _self_times_from_chrome(events: List[Dict]) -> float:
    """Sum of span self times, recomputed from the Chrome trace."""
    child: Dict[int, float] = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + event["dur"]
    return sum(e["dur"] - child.get(e["args"]["id"], 0.0) for e in events) / 1e6


@pytest.mark.parametrize("workload", list(e2e.WORKLOADS))
def test_workload_smoke(workload, tmp_path):
    plain = _result(_run("--workload", workload, "--seed", "0", "--smoke", "--trace", "0"))
    out = tmp_path / "traced.json"
    traced = _result(_run("--workload", workload, "--seed", "0", "--smoke", "--trace", "1",
                          "--out", str(out)))
    for result, declared in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[declared]
        }
    for name, m in plain["metrics"].items():
        assert m["value"] > 0, name

    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    attributed = sum(layers[name] for name in e2e.SELF_TIME_METRICS)
    assert attributed + layers["unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], rel=0.01
    )
    # The shim's self times agree with the spans it exported.
    chrome = json.loads(
        (tmp_path / f"traced.{workload}.seed0.trace.json").read_text()
    )
    startup = chrome["e2e"]["startup_s"]
    assert layers["startup.import_s"] == startup
    assert attributed - startup == pytest.approx(
        _self_times_from_chrome(chrome["traceEvents"]), rel=1e-6, abs=1e-6
    )


def test_fails_without_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table1-warm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_output_checks_reject_wrong_outputs():
    stdout = "\n".join([
        "Running 1 experiment(s) at tier 'quick'", "", "=" * 72, "fig7 (6.1s)", "=" * 72,
        "Fig. 7: body", "row", "", "summary after a blank line",
    ])
    assert e2e.rendered_body(stdout) == "Fig. 7: body\nrow"
    params = dict(e2e.HOT_PARAMS, predictor="gshare")
    good = {"ok": True, "result": {"digest": e2e.HOT_DIGESTS["gshare"]}}
    assert e2e.reply_ok("hot", "simulate", params, good)
    assert not e2e.reply_ok("hot", "simulate", params, {"ok": True, "result": {"digest": "0"}})
    assert not e2e.reply_ok("hot", "simulate", params, {"ok": False, "error": {}})


def _results_file(path: Path, values: Dict[str, List[float]]) -> str:
    runs = [
        {"workload": "table1-warm", "trace": 0,
         "metrics": {name: {"value": v[i]} for name, v in values.items()}}
        for i in range(3)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_reports_bounds_and_unresolved(tmp_path, capsys):
    steady = {name: [100.0, 101.0, 99.0] for name, *_ in e2e.E2E_METRICS}
    a = _results_file(tmp_path / "a.json", steady)
    assert e2e.compare(a, _results_file(tmp_path / "b.json", steady)) == 0

    slower = dict(steady, p50_ms=[150.0, 151.0, 149.0])
    assert e2e.compare(a, _results_file(tmp_path / "c.json", slower)) == 1
    assert "worse" in capsys.readouterr().out

    noisy = dict(steady, p50_ms=[50.0, 100.0, 150.0])
    assert e2e.compare(a, _results_file(tmp_path / "d.json", noisy)) == 1
    assert "unresolved" in capsys.readouterr().out
