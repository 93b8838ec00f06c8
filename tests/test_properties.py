"""Property tests for the eigensolver, the fermionic partial trace and the gates."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fermient.entanglement as ent
from fermient import ModePartition, NotHermitianError, random_state
from fermient.entanglement import bipartite_entropy, majorization_check, reduced_state
from fermient.linalg import hermitian_eigensystem
from fermient.protocols import QubitEncoding, cnot, hadamard, pauli, rotation
from fermient.transforms import normal_form

from conftest import oracle_cnot, oracle_pauli, oracle_reduced, oracle_rotation

#: Levels drawn from a short list repeat often, forcing degenerate eigenspaces.
_LEVELS = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@st.composite
def hermitian_matrices(draw) -> tuple[np.ndarray, list[float]]:
    n = draw(st.integers(1, 8))
    levels = draw(st.lists(_LEVELS, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ np.diag(levels) @ q.conj().T, levels


@given(hermitian_matrices())
def test_eigensystem_on_generated_hermitian_matrices(case):
    m, levels = case
    spec = hermitian_eigensystem(m)
    v = spec.vectors
    assert np.max(np.abs(m @ v - v * spec.values)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(levels)))) <= 1e-10
    assert np.all(np.diff(spec.values) <= 0.0)
    assert np.max(np.abs(spec.values - sorted(levels, reverse=True))) <= 1e-10
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(m + 1e-8j * np.eye(len(levels)))


@given(
    n=st.integers(2, 8),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_partial_trace_on_shuffled_partitions(n, parity, seed, data):
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, n - 1))
    side_a, side_b = tuple(order[:k]), tuple(order[k:])
    state = random_state(n, parity=parity, seed=seed)
    part = ModePartition(n, side_a, side_b)
    rho_a = reduced_state(state, part, "a")
    rho_b = reduced_state(state, part, "b")

    assert np.max(np.abs(rho_a.matrix - oracle_reduced(state, part))) <= 1e-12
    assert abs(rho_a.entropy() - rho_b.entropy()) <= 1e-9
    assert bipartite_entropy(state, part) == rho_a.entropy()

    # diag rho_A carries the occupation <n_m> of each mode on side A
    weights = np.abs(state.vector) ** 2
    masks = np.arange(state.dim)
    local = np.diag(rho_a.matrix).real
    for bit, mode in enumerate(side_a):
        occupied = weights[(masks >> mode) & 1 == 1].sum()
        assert abs(local[(np.arange(local.size) >> bit) & 1 == 1].sum() - occupied) <= 1e-12

    relisted = ModePartition(n, data.draw(st.permutations(side_a)), side_b)
    spectrum = reduced_state(state, relisted, "a").spectrum()
    assert np.max(np.abs(spectrum - rho_a.spectrum())) <= 1e-10


def _counting(calls: list, fn):
    def wrapper(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fn(*args, **kwargs)
    return wrapper


def _count_eigensolves(monkeypatch) -> list:
    """Record the input shape of every eigensolve made through any package module."""
    calls: list = []
    for module in [m for name, m in sys.modules.items() if name.startswith("fermient.")]:
        if hasattr(module, "hermitian_eigensystem"):
            monkeypatch.setattr(
                module, "hermitian_eigensystem", _counting(calls, module.hermitian_eigensystem)
            )
    return calls


def test_majorization_check_diagonalizes_each_matrix_once(monkeypatch):
    eigensolves = _count_eigensolves(monkeypatch)
    calls: dict[str, list] = {"reduced_state": [], "extended_density": []}
    for name in calls:
        monkeypatch.setattr(ent, name, _counting(calls[name], getattr(ent, name)))

    verdict = majorization_check(random_state(4, seed=5), ModePartition(4, (0, 2)))
    assert verdict["holds"]
    assert eigensolves == [(4, 4), (4, 4), (8, 8)]
    assert len(calls["reduced_state"]) == 2
    assert len(calls["extended_density"]) == 1


def test_normal_form_diagonalizes_the_extended_matrix_once(monkeypatch):
    eigensolves = _count_eigensolves(monkeypatch)
    normal_form(random_state(4, parity="even", seed=3))
    # one 8x8 extended spectrum, then one 16x16 number operator per lift
    assert eigensolves == [(8, 8), (16, 16), (16, 16)]


# ---------------------------------------------------------------------------
# closed-form gates against the exponential of their dense generators
# ---------------------------------------------------------------------------

#: Weights include 0 and multiples of pi/2, where cos and sin hit 0 and +-1.
_WEIGHT = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
_KIND = st.sampled_from(["odd", "even"])
_GATE_TOL = 1e-12


@st.composite
def distinct_modes(draw, count: int) -> tuple[int, tuple[int, ...]]:
    """A mode count n <= 6 and ``count`` distinct modes in any order."""
    n = draw(st.integers(max(count, 2), 6))
    return n, tuple(draw(st.permutations(range(n)))[:count])


@given(distinct_modes(2), _KIND, st.booleans(), st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
@example((6, (5, 0)), "odd", False, (0.0, 0.0, 0.0))
@example((6, (4, 1)), "even", True, (0.0, 0.0, 0.0))
@example((5, (3, 1)), "odd", False, (0.0, 0.6 * math.pi, 0.8 * math.pi))
@example((5, (0, 4)), "even", False, (math.pi, 0.0, 0.0))
@example((4, (2, 0)), "odd", True, (0.0, 0.0, -math.pi))
def test_rotation_matches_exponential_oracle(case, kind, both_kinds, weights):
    n, pair = case
    gate = rotation(QubitEncoding(pair, kind), weights, n, both_kinds=both_kinds).matrix
    want = oracle_rotation(pair, kind, weights, n, both_kinds)
    assert np.max(np.abs(gate - want)) <= _GATE_TOL


@given(distinct_modes(2), _KIND, st.sampled_from("xyz"))
def test_pauli_and_hadamard_match_oracle(case, kind, axis):
    n, pair = case
    enc = QubitEncoding(pair, kind)
    assert np.max(np.abs(pauli(enc, axis, n).matrix - oracle_pauli(pair, kind, axis, n))) == 0.0
    w = math.pi / (2.0 * math.sqrt(2.0))
    want = 1j * oracle_rotation(pair, kind, (-w, 0.0, w), n)
    assert np.max(np.abs(hadamard(enc, n).matrix - want)) <= _GATE_TOL


@given(distinct_modes(4), _KIND, st.booleans())
@example((4, (3, 1, 0, 2)), "even", False)
@example((6, (5, 0, 1, 4)), "odd", True)
def test_cnot_matches_exponential_oracle(case, kind, both_kinds):
    n, (a, b, c, d) = case
    gate = cnot(QubitEncoding((a, b), kind), QubitEncoding((c, d), kind), n, both_kinds).matrix
    want = oracle_cnot((a, b), (c, d), kind, n, both_kinds)
    assert np.max(np.abs(gate - want)) <= _GATE_TOL


def test_gates_make_no_eigensolve(monkeypatch):
    eigensolves = _count_eigensolves(monkeypatch)
    for kind in ("odd", "even"):
        enc, other = QubitEncoding((3, 0), kind), QubitEncoding((1, 4), kind)
        rotation(enc, (0.3, -0.2, 0.9), 5)
        rotation(enc, (0.3, -0.2, 0.9), 5, both_kinds=True)
        hadamard(enc, 5)
        cnot(enc, other, 5)
        cnot(enc, other, 5, both_kinds=True)
        for axis in "xyz":
            pauli(enc, axis, 5)
    assert eigensolves == []
