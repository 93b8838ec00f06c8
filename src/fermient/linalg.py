"""Hermitian eigensolver used throughout the package.

A checked front end to LAPACK (``numpy.linalg.eigh``): it rejects input that
is not Hermitian within HERMITICITY_TOL and returns eigenvalues in descending
order. It serves every size the package diagonalizes, from 2x2 reduced
states to the 2^n x 2^n Fock-space operators of ``transforms.lift_to_fock``.
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
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    return Spectrum(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())
