"""Property tests for the eigensolver and the fermionic partial trace."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fermient.entanglement as ent
from fermient import ModePartition, NotHermitianError, random_state
from fermient.entanglement import bipartite_entropy, majorization_check, reduced_state
from fermient.linalg import hermitian_eigensystem

from conftest import oracle_reduced

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


def test_majorization_check_diagonalizes_each_matrix_once(monkeypatch):
    calls: dict[str, list] = {"eigensolve": [], "reduced_state": [], "extended_density": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(np.shape(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.startswith("fermient.")]:
        if hasattr(module, "hermitian_eigensystem"):
            monkeypatch.setattr(
                module, "hermitian_eigensystem",
                counting("eigensolve", module.hermitian_eigensystem),
            )
    for name in ("reduced_state", "extended_density"):
        monkeypatch.setattr(ent, name, counting(name, getattr(ent, name)))

    verdict = majorization_check(random_state(4, seed=5), ModePartition(4, (0, 2)))
    assert verdict["holds"]
    assert calls["eigensolve"] == [(4, 4), (4, 4), (8, 8)]
    assert len(calls["reduced_state"]) == 2
    assert len(calls["extended_density"]) == 1
