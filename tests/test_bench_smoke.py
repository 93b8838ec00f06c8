"""Smoke runs of benchmark workloads whose oracles check every output.

gates-lift checks every gate; normal-form checks that each report's U/V pass
``validate_bogoliubov`` and that alpha_plus matches the generating f_plus.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["gates-lift", "normal-form"])
def test_benchmark_outputs_pass_its_oracle(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
