"""Hermitian eigensolver used throughout the package.

A checked front end to LAPACK: both functions reject input that is not
Hermitian within HERMITICITY_TOL and return eigenvalues in descending order.
``hermitian_eigensystem`` (``numpy.linalg.eigh``) diagonalizes one matrix,
such as an extended one-body matrix or a Bogoliubov generator.
``hermitian_eigenvalues`` (``numpy.linalg.eigvalsh``) returns only the
eigenvalues of a stack of matrices, such as the reduced states of the
Lemma-2 sweep, from one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError

#: Hermiticity defect (max abs entry of M - M^H) tolerated on input.
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition, eigenvalues descending.

    ``values[k]`` pairs with column ``vectors[:, k]``; columns are
    orthonormal and satisfy ``M @ vectors = vectors @ diag(values)``.
    """

    values: np.ndarray
    vectors: np.ndarray


def _hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(M + M^H)/2 of each matrix on the last two axes, after the Hermiticity check.

    A failed check of a stack names the first offending matrix by its index on
    the leading axis.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitianError(f"expected square matrices, got shape {a.shape}")
    ah = a.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(a - ah), axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(~(defect <= HERMITICITY_TOL))
    if bad.size:
        where = f" in matrix {np.unravel_index(bad[0], defect.shape)[0]}" if a.ndim > 2 else ""
        raise NotHermitianError(
            f"hermiticity defect {defect.flat[bad[0]]:.3e} exceeds tolerance{where}"
        )
    return (a + ah) / 2.0


def hermitian_eigensystem(matrix: np.ndarray) -> Spectrum:
    """Diagonalize the Hermitian part of a matrix that is Hermitian within tolerance.

    Parameters
    ----------
    matrix:
        Square complex array, Hermitian within HERMITICITY_TOL.

    Returns
    -------
    Spectrum
        Real eigenvalues sorted descending with matching orthonormal columns.

    Raises
    ------
    NotHermitianError
        Input fails the Hermiticity check.
    """
    if np.ndim(matrix) != 2:
        raise NotHermitianError(f"expected a square matrix, got shape {np.shape(matrix)}")
    values, vectors = np.linalg.eigh(_hermitian_part(matrix))
    return Spectrum(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())


def hermitian_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of matrices, each Hermitian within tolerance.

    ``stack`` has shape (..., k, k); the result has shape (..., k), descending
    along the last axis. One batched LAPACK call serves the whole stack, and
    the Hermiticity check is the one ``hermitian_eigensystem`` applies.

    Raises
    ------
    NotHermitianError
        A matrix of the stack fails the Hermiticity check.
    """
    return np.linalg.eigvalsh(_hermitian_part(stack))[..., ::-1].copy()
