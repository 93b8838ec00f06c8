"""JSON state round-trips and format validation."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fermient import make_state, random_state
from fermient.errors import NotNormalizedError, StateFormatError
from fermient.io import dump_state, load_state, state_from_dict, state_to_dict


def test_round_trip_exact(tmp_path, rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        state = random_state(n, rng=rng)
        path = tmp_path / "state.json"
        dump_state(state, path)
        back = load_state(path)
        assert back.n_modes == n
        assert np.max(np.abs(back.vector - state.vector)) < 1e-15


def test_document_layout():
    state = make_state(2, {0b11: 1.0 / math.sqrt(2), 0b00: 1j / math.sqrt(2)})
    doc = state_to_dict(state)
    assert doc["n_modes"] == 2
    assert doc["amplitudes"] == [
        {"mask": 0, "re": 0.0, "im": 0.7071067811865476},
        {"mask": 3, "re": 0.7071067811865476, "im": 0.0},
    ]


def test_written_text_is_canonical(tmp_path, rng):
    state = random_state(4, rng=rng)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_state(state, a)
    dump_state(state, b)
    assert a.read_bytes() == b.read_bytes()
    # the repr round-trips doubles exactly
    doc = json.loads(a.read_text())
    for entry in doc["amplitudes"]:
        assert complex(entry["re"], entry["im"]) == state.amplitude(entry["mask"])


def test_zero_entries_pruned():
    state = make_state(3, {0b001: 1.0, 0b100: 0.0})
    masks = [e["mask"] for e in state_to_dict(state)["amplitudes"]]
    assert masks == [1]


def test_normalize_flag():
    # default reads renormalize; strict mode insists the document is unit norm
    doc = {"n_modes": 1, "amplitudes": [{"mask": 1, "re": 2.0, "im": 0.0}]}
    assert abs(state_from_dict(doc).norm() - 1.0) < 1e-12
    with pytest.raises(NotNormalizedError):
        state_from_dict(doc, normalize=False)


@pytest.mark.parametrize("doc", [
    [],
    {"amplitudes": []},
    {"n_modes": 2},
    {"n_modes": 0, "amplitudes": [{"mask": 0, "re": 1.0, "im": 0.0}]},
    {"n_modes": True, "amplitudes": [{"mask": 0, "re": 1.0, "im": 0.0}]},
    {"n_modes": 2, "amplitudes": []},
    {"n_modes": 2, "amplitudes": [3]},
    {"n_modes": 2, "amplitudes": [{"mask": 4, "re": 1.0, "im": 0.0}]},
    {"n_modes": 2, "amplitudes": [{"mask": -1, "re": 1.0, "im": 0.0}]},
    {"n_modes": 2, "amplitudes": [{"mask": 1, "re": "x", "im": 0.0}]},
    {"n_modes": 2, "amplitudes": [{"mask": 1, "re": 1.0}]},
    {"n_modes": 2, "amplitudes": [{"mask": 1, "re": 1.0, "im": 0.0},
                                  {"mask": 1, "re": 0.5, "im": 0.0}]},
    {"n_modes": 2, "amplitudes": [{"mask": 1.0, "re": 1.0, "im": 0.0}]},
    {"n_modes": 2, "amplitudes": [{"mask": True, "re": 1.0, "im": 0.0}]},
])
def test_malformed_documents_rejected(doc):
    with pytest.raises(StateFormatError):
        state_from_dict(doc)


def test_unreadable_path_and_bad_json(tmp_path):
    with pytest.raises(StateFormatError):
        load_state(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(StateFormatError):
        load_state(bad)


@pytest.mark.parametrize("field", ["re", "im"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_non_finite_amplitudes_rejected(field, value):
    entry = {"mask": 2, "re": 0.6, "im": 0.0}
    entry[field] = value
    doc = {"n_modes": 2, "amplitudes": [{"mask": 1, "re": 0.8, "im": 0.0}, entry]}
    with pytest.raises(StateFormatError, match=r"amplitude #1 \(mask 2\)"):
        state_from_dict(doc)


@pytest.mark.parametrize("n_modes, message", [
    (13, "n_modes: mode count 13 out of range 1..12"),
    (10**10, "n_modes: mode count 10000000000 out of range 1..12"),
    (4.0, "n_modes: mode count 4.0 is not an integer"),
])
def test_mode_count_is_read_before_the_space_is_sized(n_modes, message):
    doc = {"n_modes": n_modes, "amplitudes": [{"mask": 0, "re": 1.0, "im": 0.0}]}
    tracemalloc.start()
    try:
        with pytest.raises(StateFormatError, match=f"^{message}$"):
            state_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
