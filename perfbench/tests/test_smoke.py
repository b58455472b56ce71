"""Short runs of every workload: output schema and correctness gates.

Run with ``python3 -m pytest perfbench/tests`` from the repository root
(about three minutes on two cores).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Recorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_passes_its_gates(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = _run("verify-dcn", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _smoke_run():
    from workloads import Run

    return Run(seed=3, seconds=0.1, trace=False, smoke=True, recorder=Recorder())


def test_query_gate_counts_wrong_verdicts(monkeypatch):
    import workloads

    ask = workloads._ask
    monkeypatch.setattr(workloads, "_ask", lambda checker, query: not ask(checker, query))
    out = workloads.query_clos(_smoke_run())
    assert out.attempted == len(workloads.QUERY_KINDS)
    assert len(out.failures) == out.attempted


def test_verify_gate_counts_a_wrong_route_total(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "DCN_ROUTES", workloads.DCN_ROUTES + 1)
    out = workloads.verify_dcn(_smoke_run())
    assert out.attempted == 1
    assert len(out.failures) == 1 and "routes" in out.failures[0]
