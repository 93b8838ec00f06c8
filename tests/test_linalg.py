import numpy as np
import pytest

from fermient import NotHermitianError
from fermient.linalg import hermitian_eigensystem, hermitian_eigenvalues


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 24])
def test_matches_numpy_eigh(rng, n):
    for _ in range(5):
        m = random_hermitian(rng, n)
        spec = hermitian_eigensystem(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        np.testing.assert_allclose(spec.values, ref, atol=1e-11)


def test_eigenvectors_reconstruct(rng):
    for n in (2, 6, 12):
        m = random_hermitian(rng, n)
        spec = hermitian_eigensystem(m)
        v = spec.vectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(m @ v, v @ np.diag(spec.values), atol=1e-11)


def test_values_descending(rng):
    spec = hermitian_eigensystem(random_hermitian(rng, 9))
    assert np.all(np.diff(spec.values) <= 1e-13)


def test_degenerate_spectrum(rng):
    # projector-like matrix with a fourfold-degenerate pair of levels
    u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    d = np.diag([0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1])
    m = u @ d @ u.conj().T
    spec = hermitian_eigensystem(m)
    np.testing.assert_allclose(spec.values, np.diag(d), atol=1e-11)
    np.testing.assert_allclose(
        m @ spec.vectors, spec.vectors @ np.diag(spec.values), atol=1e-11
    )


def test_real_symmetric_input(rng):
    m = rng.normal(size=(7, 7))
    m = m + m.T
    spec = hermitian_eigensystem(m)
    np.testing.assert_allclose(spec.values, np.linalg.eigvalsh(m)[::-1], atol=1e-11)


def test_diagonal_input_is_fixed_point():
    spec = hermitian_eigensystem(np.diag([3.0, -1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(spec.values, [3.0, 2.0, -1.0], atol=0)


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [None, (0, 1), (2, 2)])
def test_nan_entries_fail_the_hermiticity_check(entry):
    m = np.eye(3, dtype=complex)
    if entry is None:
        m[:] = np.nan
    else:
        m[entry] = np.nan
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(m)
    with pytest.raises(NotHermitianError, match="in matrix 1"):
        hermitian_eigenvalues(np.stack([np.eye(3), m]))
    # a stack of block pairs names the leading index, not the flat index of the block
    pairs = np.stack([np.stack([np.eye(3), np.eye(3)])] * 2 + [np.stack([np.eye(3), m])])
    with pytest.raises(NotHermitianError, match="in matrix 2$"):
        hermitian_eigenvalues(pairs)
