"""Smoke run of the gates-lift benchmark workload, whose oracle checks every gate output."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gates_lift_benchmark_outputs_pass_its_oracle():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gates-lift",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
