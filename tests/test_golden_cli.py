"""Golden CLI reports: exit codes and report schemas exactly, numbers within 1e-9.

The expected reports in ``golden/cli_reports.json`` were captured with the
package's earlier cyclic-Jacobi eigensolver, before the switch to LAPACK, so
they also pin that a change of eigensolver moves numbers by no more than the
README tolerance. The one exception is ``normal-form``: its (U, V) blocks are
a basis choice that depends on the eigensolver, so instead of the blocks this
test checks that they form a valid Bogoliubov map and that they send the
input state onto the reported two-mask amplitudes.

Regenerate the fixture (only for a deliberate change of report content) with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fermient.cli import build_parser, main
from fermient.io import load_state
from fermient.transforms import transformed_amplitudes, validate_bogoliubov

GOLDEN = Path(__file__).parent / "golden"
REPORTS = GOLDEN / "cli_reports.json"
TOL = 1e-9

#: case id -> argv; "{golden}" expands to the directory of the input states.
CASES = {
    "rho-sp": ["rho-sp", "{golden}/even4.json"],
    "rho-qsp": ["rho-qsp", "{golden}/odd4.json"],
    "entropy": ["entropy", "{golden}/even4.json"],
    "concurrence": ["concurrence", "{golden}/odd4.json"],
    "concurrence-even": ["concurrence", "{golden}/even4.json"],
    "normal-form-even": ["normal-form", "{golden}/even4.json"],
    "normal-form-odd": ["normal-form", "{golden}/odd4.json"],
    "bipartition-2+2": ["bipartition", "{golden}/even4.json", "--a", "0,2"],
    "bipartition-1+3": ["bipartition", "{golden}/odd4.json", "--a", "1"],
    "check-lemma2": ["check-lemma2", "--samples", "8", "--seed", "3"],
    "random-state": ["random-state", "--modes", "6", "--parity", "odd", "--seed", "4"],
    "teleport-odd": ["teleport", "--alpha-re", "0.6", "--alpha-im", "0.3", "--kind", "odd"],
    "teleport-even-branch": ["teleport", "--alpha-re", "0.6", "--kind", "even", "--branch", "2"],
    "sdc": ["sdc", "--message", "101"],
    "sdc-prime": ["sdc", "--message", "110", "--seed-state", "psi00prime"],
}


def _argv(case: str) -> list[str]:
    return [arg.replace("{golden}", str(GOLDEN)) for arg in CASES[case]]


def _run(case: str, capsys) -> tuple[int, dict]:
    code = main(_argv(case))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


def assert_matches(got, want, where: str = "report") -> None:
    """Same keys in the same order, same list lengths, floats within TOL."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= TOL, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _matrix(block: dict) -> np.ndarray:
    return np.array(block["re"]) + 1j * np.array(block["im"])


def _dense(entries: list[dict]) -> np.ndarray:
    vec = np.zeros(16, dtype=np.complex128)
    for entry in entries:
        assert list(entry) == ["mask", "re", "im"]
        vec[entry["mask"]] = complex(entry["re"], entry["im"])
    return vec


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(REPORTS.read_text(encoding="utf-8"))


def test_fixture_covers_every_subcommand(golden):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in CASES.values()} == set(sub.choices)
    assert {case: golden[case]["argv"] for case in golden} == CASES


@pytest.mark.parametrize("case", [c for c in CASES if not c.startswith("normal-form")])
def test_report_matches_golden(case, golden, capsys):
    code, report = _run(case, capsys)
    assert code == golden[case]["exit_code"]
    assert_matches(report, golden[case]["report"])


@pytest.mark.parametrize("case", ["normal-form-even", "normal-form-odd"])
def test_normal_form_matches_golden_up_to_gauge(case, golden, capsys):
    code, report = _run(case, capsys)
    want = golden[case]["report"]
    assert code == golden[case]["exit_code"]
    assert list(report) == list(want)
    gauge = ("U", "V", "transformed_amplitudes")
    for key in want:
        if key not in gauge:
            assert_matches(report[key], want[key], f"report.{key}")
    for key in ("U", "V"):
        assert list(report[key]) == ["re", "im"]
    bmap = validate_bogoliubov(_matrix(report["U"]), _matrix(report["V"]))
    phi = _dense(report["transformed_amplitudes"])
    assert np.max(np.abs(phi - _dense(want["transformed_amplitudes"]))) <= TOL
    state = load_state(_argv(case)[1])
    assert np.max(np.abs(transformed_amplitudes(state, bmap) - phi)) <= TOL


def _capture() -> None:
    out = {}
    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(case))
        out[case] = {"argv": CASES[case], "exit_code": code, "report": json.loads(buf.getvalue())}
    REPORTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _capture()
