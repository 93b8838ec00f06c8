"""CLI dispatch, report shapes, exit codes, and determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from fermient import basis_state, cli, make_state, random_state
from fermient.cli import main
from fermient.correlations import extended_density, one_body
from fermient.io import dump_state, load_state, state_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    dump_state(state, path)
    return str(path)


def walk_finite(node):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        assert math.isfinite(node)
    elif isinstance(node, dict):
        for v in node.values():
            walk_finite(v)
    else:
        for v in node:
            walk_finite(v)


def test_entropy_on_slater_determinant(tmp_path, capsys):
    path = write_state(tmp_path, basis_state(4, 0b0011))
    code, out, err = run_cli(capsys, "entropy", path)
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["command"] == "entropy"
    assert report["S_sp"] == 0.0
    assert report["S_qsp"] == 0.0
    assert "tolerances" in report["conventions"]


def test_rho_sp_matches_module(tmp_path, capsys, rng):
    state = random_state(4, rng=rng)
    path = write_state(tmp_path, state)
    code, out, _ = run_cli(capsys, "rho-sp", path)
    report = json.loads(out)
    assert code == 0
    ob = one_body(state)
    got = np.array(report["rho"]["re"]) + 1j * np.array(report["rho"]["im"])
    assert np.max(np.abs(got - ob.rho)) < 1e-12
    got = np.array(report["kappa"]["re"]) + 1j * np.array(report["kappa"]["im"])
    assert np.max(np.abs(got - ob.kappa)) < 1e-12
    eig = report["eigenvalues"]
    assert eig == sorted(eig, reverse=True)


def test_rho_qsp_matches_module(tmp_path, capsys, rng):
    state = random_state(4, rng=rng)
    path = write_state(tmp_path, state)
    code, out, _ = run_cli(capsys, "rho-qsp", path)
    report = json.loads(out)
    assert code == 0
    want = extended_density(state).spectrum().values
    assert np.max(np.abs(np.array(report["eigenvalues"]) - want)) < 1e-12


def test_concurrence_on_paired_state(tmp_path, capsys):
    state = make_state(4, {0b0011: 1.0, 0b1100: 1.0})
    path = write_state(tmp_path, state)
    code, out, _ = run_cli(capsys, "concurrence", path)
    report = json.loads(out)
    assert code == 0
    assert abs(report["C"] - 1.0) < 1e-9
    assert abs(report["f_plus"] - 0.5) < 1e-9
    assert report["parity"] == "even"


def test_normal_form_report(tmp_path, capsys, rng):
    state = random_state(4, parity="even", rng=rng)
    path = write_state(tmp_path, state)
    code, out, _ = run_cli(capsys, "normal-form", path)
    report = json.loads(out)
    assert code == 0
    masks = {entry["mask"] for entry in report["transformed_amplitudes"]}
    assert masks <= {0b0011, 0b1100}
    a_plus = complex(report["alpha_plus"]["re"], report["alpha_plus"]["im"])
    a_minus = complex(report["alpha_minus"]["re"], report["alpha_minus"]["im"])
    assert abs(abs(a_plus) ** 2 + abs(a_minus) ** 2 - 1.0) < 1e-9
    assert abs(report["f_plus"] - abs(a_plus) ** 2) < 1e-8
    u = np.array(report["U"]["re"]) + 1j * np.array(report["U"]["im"])
    v = np.array(report["V"]["re"]) + 1j * np.array(report["V"]["im"])
    assert np.max(np.abs(u @ u.conj().T + v @ v.conj().T - np.eye(4))) < 1e-9
    assert np.max(np.abs(u @ v.T + v @ u.T)) < 1e-9


def test_bipartition_verdict(tmp_path, capsys, rng):
    state = random_state(4, parity="even", rng=rng)
    path = write_state(tmp_path, state)
    code, out, _ = run_cli(capsys, "bipartition", path, "--a", "0,2")
    report = json.loads(out)
    assert code == 0
    assert report["side_a"] == [0, 2] and report["side_b"] == [1, 3]
    assert report["holds"] is True
    assert report["lambda_max"] <= report["f_plus"] + 1e-9
    assert set(report["entropies"]) == {"von_neumann", "quadratic"}
    walk_finite(report)


def test_bipartition_rejects_unknown_tolerance(tmp_path, capsys):
    path = write_state(tmp_path, basis_state(4, 0b0101))
    code, out, err = run_cli(capsys, "bipartition", path, "--a", "0", "--tol", "bogus=0.1")
    assert code == 2
    assert "bogus" in err


def test_check_lemma2_clean_sweep(capsys):
    code, out, _ = run_cli(capsys, "check-lemma2", "--samples", "40", "--seed", "7")
    report = json.loads(out)
    assert code == 0
    assert report["violations"] == 0
    assert report["checks"] == 40 * 7
    assert report["max_lambda_excess"] <= 1e-9
    assert report["min_entropy_margin"] >= -1e-9
    walk_finite(report)


def test_check_lemma2_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "check-lemma2", "--samples", "12", "--seed", "5")
    _, second, _ = run_cli(capsys, "check-lemma2", "--samples", "12", "--seed", "5")
    assert first == second
    _, third, _ = run_cli(capsys, "check-lemma2", "--samples", "12", "--seed", "6")
    assert third != first


def test_check_lemma2_chunks_give_the_same_report(capsys, monkeypatch):
    _, whole, _ = run_cli(capsys, "check-lemma2", "--samples", "10", "--seed", "9")
    firsts = []
    stack = cli.majorization_stack

    def spy(vectors, parts, first):
        firsts.append((first, len(vectors)))
        return stack(vectors, parts, first)

    monkeypatch.setattr(cli, "_LEMMA_CHUNK", 4)
    monkeypatch.setattr(cli, "majorization_stack", spy)
    _, chunked, _ = run_cli(capsys, "check-lemma2", "--samples", "10", "--seed", "9")
    assert firsts == [(0, 4), (4, 4), (8, 2)]
    assert chunked == whole


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FERMI_ENT_SEED", "31")
    _, via_env, _ = run_cli(capsys, "random-state")
    monkeypatch.delenv("FERMI_ENT_SEED")
    _, via_flag, _ = run_cli(capsys, "random-state", "--seed", "31")
    assert via_env == via_flag
    monkeypatch.setenv("FERMI_ENT_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "random-state")
    assert code == 2 and "FERMI_ENT_SEED" in err


def test_random_state_writes_loadable_file(tmp_path, capsys):
    out_path = tmp_path / "sampled.json"
    code, out, _ = run_cli(
        capsys, "random-state", "--seed", "11", "--parity", "odd", "--out", str(out_path)
    )
    report = json.loads(out)
    assert code == 0
    assert report["parity"] == "odd"
    on_disk = load_state(out_path)
    from_report = state_from_dict(report["state"])
    assert np.max(np.abs(on_disk.vector - from_report.vector)) < 1e-15
    assert on_disk.parity == "odd"


def test_teleport_report(capsys):
    code, out, _ = run_cli(
        capsys, "teleport", "--alpha-re", "0.6", "--beta-re", "0.8", "--kind", "odd"
    )
    report = json.loads(out)
    assert code == 0
    assert len(report["branches"]) == 4
    for row in report["branches"]:
        assert abs(row["probability"] - 0.25) < 1e-9
        assert row["fidelity"] > 1.0 - 1e-9
    assert report["min_fidelity"] > 1.0 - 1e-9
    walk_finite(report)


def test_teleport_default_beta_and_single_branch(capsys):
    code, out, _ = run_cli(
        capsys, "teleport", "--alpha-re", "0.6", "--kind", "even", "--branch", "2"
    )
    report = json.loads(out)
    assert code == 0
    assert abs(report["beta"]["re"] - 0.8) < 1e-12
    assert len(report["branches"]) == 1
    assert report["branches"][0]["index"] == 2
    assert "bob_block" in report and "state" in report
    post = state_from_dict(report["state"])
    assert abs(post.norm() - 1.0) < 1e-9


def test_teleport_rejects_unnormalized(capsys):
    code, _, err = run_cli(
        capsys, "teleport", "--alpha-re", "0.9", "--beta-re", "0.9", "--kind", "odd"
    )
    assert code == 2 and err != ""


@pytest.mark.parametrize("message", ["000", "110", "101"])
def test_sdc_round_trip(capsys, message):
    code, out, _ = run_cli(capsys, "sdc", "--message", message)
    report = json.loads(out)
    assert code == 0
    assert report["decoded"] == message
    assert abs(report["S_A"] - 2.0) < 1e-9
    assert abs(report["C"] - 1.0) < 1e-9
    walk_finite(report)


def test_sdc_primed_variant(capsys):
    code, out, _ = run_cli(capsys, "sdc", "--message", "011", "--seed-state", "psi00prime")
    report = json.loads(out)
    assert code == 0
    assert report["decoded"] == "011"
    assert abs(report["S_A"] - 2.0) < 1e-9
    assert report["C"] < 1e-9


def test_sdc_bad_message(capsys):
    code, _, err = run_cli(capsys, "sdc", "--message", "20")
    assert code == 2 and err != ""


def test_missing_state_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "entropy", str(tmp_path / "absent.json"))
    assert code == 2 and "absent.json" in err


def test_malformed_state_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n_modes": 2}', encoding="utf-8")
    code, _, err = run_cli(capsys, "entropy", str(path))
    assert code == 2 and err != ""


def test_unknown_subcommand_and_bad_samples(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run_cli(capsys, "check-lemma2", "--samples", "0")
    assert code == 2


def test_pretty_output(tmp_path, capsys):
    path = write_state(tmp_path, basis_state(4, 0b0011))
    code, out, _ = run_cli(capsys, "entropy", path, "--output", "pretty")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "S_sp: 0.0" in out


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "fermient" in out


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_state_file_exits_2_without_warning(tmp_path, capsys, token):
    path = tmp_path / "state.json"
    path.write_text(
        '{"n_modes": 4, "amplitudes": [{"mask": 3, "re": %s, "im": 0.0}]}' % token,
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "entropy", str(path))
    assert code == 2 and out == ""
    assert "amplitude #0 (mask 3)" in err and "finite" in err


@pytest.mark.parametrize("flag", ["--alpha-re", "--alpha-im", "--beta-re", "--beta-im"])
def test_teleport_rejects_nan_coefficients(capsys, flag):
    argv = ["teleport", "--alpha-re", "0.6", "--beta-re", "0.8", "--kind", "odd", flag, "nan"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "|alpha|^2 + |beta|^2 = nan" in err
