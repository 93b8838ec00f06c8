"""One-body and extended one-body correlation matrices and their entropies.

The one-body matrix is ``rho[i, j] = <cdag_j c_i>`` and the anomalous block is
``kappa[i, j] = <c_j c_i>``. The extended matrix stacks them in the 2n x 2n
block form ``[[rho, kappa], [-conj(kappa), 1 - conj(rho)]]``, whose spectrum is
invariant under Bogoliubov transformations and comes in (f, 1-f) pairs.

Both blocks are built on the state's tagged parity sector: c_i psi and
cdag_i psi lie in the other sector, so the kernel gathers, signs and
contracts only its 2^(n-1) masks, read from per-n tables (``_sector_tables``)
built on first use. Weight outside the tagged sector, at most TOL_NORM of the
total for a FockState, is dropped.

Two entropy conventions coexist deliberately and are NOT interchangeable:

- ``sp_entropy`` sums the binary entropy h over the one-body eigenvalues
  (``Tr h(rho)``); it measures mode-occupation uncertainty and is 4 for the
  half-filled n=4 Bell-type state.
- ``matrix_entropy`` is the plain trace-form entropy ``Tr f(rho)`` of a matrix
  (von Neumann by default); it is the quantity entering the factor-of-two
  relations with bipartite entanglement, and is 2 for the same one-body matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, HermiticityDefectError
from .fock import FockState, _mode_tables, _raise_first, _require_unit_norm, _sector_masks
from .linalg import Spectrum, hermitian_eigensystem

__all__ = [
    "OneBodyDensity",
    "ExtendedDensity",
    "Spectrum",
    "hermitian_eigensystem",
    "one_body",
    "extended_density",
    "sp_entropy",
    "qsp_entropy",
    "binary_entropy",
    "von_neumann_term",
    "quadratic_term",
    "spectrum_entropy",
    "matrix_entropy",
]

_EIG_TOL = 1e-9


def _check_one_body(rho: np.ndarray, kappa: np.ndarray, first: int | None = None) -> np.ndarray:
    """Hermitian rho, antisymmetric kappa, occupations in [0, 1]; stacks (S, n, n).
    Returns the (S, n) occupation eigenvalues, descending."""
    _raise_first(
        np.max(np.abs(rho - rho.conj().swapaxes(1, 2)), axis=(1, 2)) > 1e-10,
        HermiticityDefectError, "one-body matrix is not Hermitian", first,
    )
    _raise_first(
        np.max(np.abs(kappa + kappa.swapaxes(1, 2)), axis=(1, 2)) > 1e-12,
        HermiticityDefectError, "pair matrix is not antisymmetric", first,
    )
    occ = np.linalg.eigvalsh(rho)
    low, high = occ[:, 0], occ[:, -1]
    _raise_first(
        (low < -_EIG_TOL) | (high > 1 + _EIG_TOL), HermiticityDefectError,
        "occupation eigenvalues outside [0,1]: [{}, {}]", first, low, high,
    )
    return occ[:, ::-1]


@dataclass(frozen=True)
class OneBodyDensity:
    """Normal and anomalous one-body contractions of a pure state; ``spectrum()`` holds
    the occupations, descending, from the one diagonalization of the construction check.

    Blocks that are not equal non-empty n x n squares raise DimensionMismatchError;
    a non-Hermitian rho, a kappa that is not antisymmetric, or an occupation
    outside [0, 1] raises HermiticityDefectError.
    """

    rho: np.ndarray = field(repr=False)
    kappa: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("rho", "kappa"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
        shape = self.rho.shape
        if len(shape) != 2 or shape[0] != shape[1] or self.kappa.shape != shape or not shape[0]:
            raise DimensionMismatchError(
                f"expected equal non-empty square blocks, got {shape} and {self.kappa.shape}"
            )
        values = _check_one_body(self.rho[None], self.kappa[None])[0].copy()
        self.rho.setflags(write=False)
        self.kappa.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "_values", values)

    @property
    def n_modes(self) -> int:
        return self.rho.shape[0]

    def spectrum(self) -> np.ndarray:
        return self._values


@dataclass(frozen=True)
class ExtendedDensity:
    """2n x 2n particle-hole extended density matrix."""

    m: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.m.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.m.shape[0] // 2

    def spectrum(self) -> Spectrum:
        return hermitian_eigensystem(self.m)


@functools.cache
def _sector_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where c_i and cdag_i take a state of each parity, read off ``_mode_tables``.

    A state of parity p (0 even, 1 odd) is mapped by c_i and cdag_i onto the
    2^(n-1) masks q of parity 1 - p, ascending. Returns read-only (index, c,
    cdag), each (2, n, 2^(n-1)), with row [p, i] serving parity p: column k
    holds the source mask index[p, i, k] = q[k] ^ (1 << i) of the amplitude
    that lands on q[k], in the narrowest unsigned type that holds it, and the
    int8 signs c[i, q[k]] and cdag[i, q[k]].
    """
    c, cdag = _mode_tables(n)
    targets = _sector_masks(n)[::-1]  # row p: the masks of parity 1 - p
    index = targets[:, None, :] ^ (1 << np.arange(n))[:, None]
    tables = (
        index.astype(np.min_scalar_type((1 << n) - 1)),
        np.stack([c[:, q] for q in targets]),
        np.stack([cdag[:, q] for q in targets]),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _sector_gather(vectors: np.ndarray, table: np.ndarray, odd) -> np.ndarray:
    """``vectors[s, table[odd_s]]`` for each row s of an (S, 2^n) stack. ``odd`` (1 odd,
    0 even) is one int for the stack, read as a view of ``table``, or one per row."""
    if not isinstance(odd, np.ndarray):
        return vectors.take(table[odd], axis=1)
    rows = np.arange(0, vectors.size, vectors.shape[1]).reshape((-1,) + (1,) * (table.ndim - 1))
    return vectors.ravel().take(table.take(odd, axis=0) + rows)


def _one_body_stack(vectors: np.ndarray, n: int, odd) -> tuple[np.ndarray, np.ndarray]:
    """rho and kappa of every state vector in an (S, 2^n) stack, as (S, n, n) stacks.

    rho[s, i, j] = <c_j psi | c_i psi> and kappa[s, i, j] = <cdag_j psi | c_i psi>,
    which equal <cdag_j c_i> and <c_j c_i> respectively. ``odd`` (1 odd, 0 even) is
    one int for the stack, whose tables are then read as views, or one per sample.
    c_i psi and cdag_i psi are formed only on the other sector; weight outside is dropped.
    """
    index, c, cdag = _sector_tables(n)
    # row [s, i] of ann is c_i applied to vectors[s], and of cre cdag_i, on the opposite sector
    moved = _sector_gather(vectors, index, odd)
    ann = c[odd] * moved
    cre = np.multiply(moved, cdag[odd], out=moved)  # reuses the gather's buffer
    kappa = ann @ np.conjugate(cre, out=cre).swapaxes(1, 2)
    rho = ann @ np.conjugate(ann, out=cre).swapaxes(1, 2)  # cre is spent; its buffer takes ann*
    rho = (rho + rho.conj().swapaxes(1, 2)) / 2.0
    kappa = (kappa - kappa.swapaxes(1, 2)) / 2.0
    return rho, kappa


def _extended_stack(rho: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """(S, 2n, 2n) extended matrices [[rho, kappa], [-conj(kappa), 1 - conj(rho)]]."""
    s, n = rho.shape[0], rho.shape[1]
    m = np.zeros((s, 2 * n, 2 * n), dtype=np.complex128)
    m[:, :n, :n] = rho
    m[:, :n, n:] = kappa
    m[:, n:, :n] = -kappa.conj()
    m[:, n:, n:] = np.eye(n) - rho.conj()
    # exactly Hermitian already; symmetrizing turns -0.0 entries into the 0.0 that reports print
    return (m + m.conj().swapaxes(1, 2)) / 2.0


def one_body(state: FockState) -> OneBodyDensity:
    """Both one-body blocks of a unit-norm state; a stack of one through ``_one_body_stack``."""
    _require_unit_norm(state)
    rho, kappa = _one_body_stack(state.vector[None], state.n_modes, int(state.parity == "odd"))
    return OneBodyDensity(rho=rho[0], kappa=kappa[0])


def extended_density(state: FockState) -> ExtendedDensity:
    """Assemble the extended matrix from the one-body blocks."""
    ob = one_body(state)
    return ExtendedDensity(m=_extended_stack(ob.rho[None], ob.kappa[None])[0])


# ---------------------------------------------------------------------------
# entropy functionals
# ---------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with 0 log 0 := 0; elementwise on arrays."""
    return von_neumann_term(p) + von_neumann_term(1.0 - p)


def _float_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def von_neumann_term(p: float) -> float:
    """f(p) = -p log2 p, clipped so spectral noise below 0 or above 1 is inert.

    A scalar gives a float; an array gives an array of the same shape. NaN
    stays NaN.
    """
    q = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _float_or_array(np.where(q <= 0.0, 0.0, -q * np.log2(q)))


def quadratic_term(p: float) -> float:
    """f(p) = 2 p (1-p), the quadratic (linear-entropy) kernel, clipped to [0, 1].

    A scalar gives a float; an array gives an array of the same shape.
    """
    q = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    return _float_or_array(2.0 * q * (1.0 - q))


#: Entropy kernels that accept arrays; any other callable is applied element by element.
_ARRAY_FORMS = (von_neumann_term, quadratic_term, binary_entropy)


def _elementwise(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """fn applied to every entry of ``values``, in one call for the array forms."""
    values = np.asarray(values, dtype=np.float64)
    if fn in _ARRAY_FORMS:
        return fn(values)
    return np.vectorize(fn, otypes=[np.float64])(values)


def spectrum_entropy(values: np.ndarray, fn: Callable[[float], float] = von_neumann_term) -> float:
    """Sum of fn over a list of eigenvalues; fn may be any scalar callable."""
    return float(np.sum(_elementwise(fn, values)))


def matrix_entropy(matrix: np.ndarray, fn: Callable[[float], float] = von_neumann_term) -> float:
    """Trace-form entropy Tr f(M) of a Hermitian matrix."""
    return spectrum_entropy(hermitian_eigensystem(matrix).values, fn)


def sp_entropy(state: FockState) -> float:
    """Sum of binary entropies of the one-body eigenvalues, Tr h(rho).

    Zero iff the state is a Slater determinant in some mode basis.
    """
    return spectrum_entropy(one_body(state).spectrum(), binary_entropy)


def qsp_entropy(state: FockState, fn: Callable[[float], float] = von_neumann_term) -> float:
    """Trace-form entropy of the extended matrix; von Neumann by default.

    Zero iff the state is a quasiparticle vacuum or Slater determinant.
    The optional ``fn`` must be concave with f(0) = f(1) = 0.
    """
    return spectrum_entropy(extended_density(state).spectrum().values, fn)
