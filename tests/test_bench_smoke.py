"""Smoke test of the traced benchmark: each gated workload runs to a checked result.

A traced run reads a self time for every span in ``run.LAYER_TIME_SPANS``;
this test fails when a library change stops a workload from completing,
from passing its output checks, or from reporting one of those spans.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402


@pytest.mark.parametrize("workload", ["infer", "solve"])
def test_traced_run_completes_with_every_layer_span(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [n for n in run.LAYER_TIME_SPANS if f"{n}.self_ms" not in result["metrics"]]
    assert not missing
