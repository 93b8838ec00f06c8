"""Smoke runs of benchmark workloads whose oracles check every output.

gates-lift checks every gate; normal-form checks that each report's U/V pass
``validate_bogoliubov`` and that alpha_plus matches the generating f_plus;
mode-scaling checks every entropy and reduced spectrum at n = 8, 10 and 12 on
both splits against numpy references. The
span tracer of traced runs is checked in process: it must find every function
and method it wraps, and put every binding back.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["gates-lift", "normal-form", "mode-scaling"])
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


def test_span_tracer_wraps_every_listed_binding_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import fermient.cli  # noqa: F401  (the benchmark loads the package and its CLI)

    modules = {
        key: mod for key, mod in sys.modules.items()
        if mod is not None and (key == "fermient" or key.startswith("fermient."))
    }

    def bindings():
        functions = {
            (key, attr): value for key, mod in modules.items() for attr, value in vars(mod).items()
        }
        methods = {
            (home, cname, mname): vars(getattr(modules[f"fermient.{home}"], cname)).get(mname)
            for home, cname, mname in spans.METHODS
        }
        return functions, methods

    functions, methods = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()  # a renamed or moved function or method fails here
        wrapped, wrapped_methods = bindings()
    finally:
        tracer.uninstall()
    for home, fname in spans.FUNCTIONS:
        assert wrapped[(f"fermient.{home}", fname)] is not functions[(f"fermient.{home}", fname)]
    for key, original in methods.items():
        assert original is not None and wrapped_methods[key] is not original
    restored, restored_methods = bindings()
    assert restored.keys() == functions.keys()
    assert all(restored[key] is value for key, value in functions.items())
    assert all(restored_methods[key] is value for key, value in methods.items())
