"""Dense Fock-space states and mode operators for small fermion systems.

Basis and sign conventions
--------------------------
A system of ``n`` fermionic modes is represented on the full Fock space of
dimension ``2**n``. Basis states are labelled by occupation bitmasks: bit ``i``
of the integer label is the occupation of mode ``i``, with mode 0 stored in the
least significant bit. The reference ordering of creation operators is
ascending mode index, i.e. the basis state with mask ``m`` is

    ``|m> = cdag_{i1} cdag_{i2} ... cdag_{ik} |0>``,  ``i1 < i2 < ... < ik``,

with coefficient +1. Consequently ``cdag_i`` acting on a basis state picks up the
sign ``(-1)**(number of occupied modes with index < i)``. All other conventions
in the package (correlation matrices, Bogoliubov lifts, protocol gates) are
derived from this one choice.

States carry a number-parity tag (``"even"`` or ``"odd"``); superpositions of
different parity sectors are rejected at construction time, mirroring the
superselection rule obeyed by physical fermionic systems.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DimensionMismatchError,
    MixedParityError,
    NotNormalizedError,
    OperatorPropertyError,
    WrongParityError,
    ZeroNormError,
)

#: Deviation from unit norm / unitarity tolerated before raising.
TOL_NORM = 1e-10
#: Magnitude below which an amplitude is treated as exactly zero.
TOL_ZERO = 1e-12

Parity = Literal["even", "odd"]

_MAX_MODES = 12


def _dim(n_modes: int) -> int:
    if not 1 <= n_modes <= _MAX_MODES:
        raise DimensionMismatchError(
            f"n_modes must be between 1 and {_MAX_MODES}, got {n_modes}"
        )
    return 1 << n_modes


@functools.cache
def _sector_masks(n_modes: int) -> np.ndarray:
    """Basis masks of each parity sector, ascending: read-only (2, 2^(n-1)), row 0 even, row 1 odd."""
    masks = np.arange(1 << n_modes)
    odd = (np.bitwise_count(masks) & 1).astype(bool)
    sectors = np.stack([masks[~odd], masks[odd]])
    sectors.setflags(write=False)
    return sectors


def _raise_first(
    bad: np.ndarray, error: type[Exception], message: str, first: int | None, *details: np.ndarray
) -> None:
    """Raise ``error`` if any entry of ``bad`` is set, one entry per sample of a stack.

    The message is ``message`` formatted with the entries of ``details`` at the
    first set index k. With ``first`` given it also names the sample ``first + k``.
    """
    hits = np.flatnonzero(bad)
    if hits.size:
        k = int(hits[0])
        text = message.format(*(d[k] for d in details))
        raise error(text if first is None else f"{text} at sample {first + k}")


def _sector_parities(vectors: np.ndarray, n_modes: int, first: int | None = None) -> np.ndarray:
    """Parity (0 even, 1 odd) of every row of an (S, 2^n) stack, from one pass over its weights.

    A row with total weight at most TOL_ZERO^2 raises ZeroNormError. A row is
    even if at most TOL_NORM of its weight is odd, else odd if at most TOL_NORM
    is even; otherwise (NaN too) it raises MixedParityError. Errors name the
    sample ``first + k`` when ``first`` is given.
    """
    w_even, w_odd = np.take(np.abs(vectors) ** 2, _sector_masks(n_modes), axis=1).sum(axis=2).T
    total = w_even + w_odd
    _raise_first(total <= TOL_ZERO**2, ZeroNormError, "cannot assign a parity to the zero vector", first)
    limit = TOL_NORM * total
    odd = w_odd > limit
    _raise_first(
        ~(w_even <= limit) & ~(w_odd <= limit), MixedParityError,
        "state mixes parity sectors (even weight {:.3e}, odd weight {:.3e})", first, w_even, w_odd,
    )
    return odd.astype(np.intp)


def vector_parity(vector: np.ndarray, n_modes: int) -> Parity:
    """Parity tag of ``vector``; raises MixedParityError if both sectors hold weight."""
    return ("even", "odd")[_sector_parities(np.asarray(vector)[None], n_modes)[0]]


@dataclass(frozen=True)
class FockState:
    """Immutable dense state vector on ``2**n_modes`` Fock basis states.

    Attributes
    ----------
    n_modes:
        Number of fermionic modes (1..12).
    vector:
        Complex amplitudes indexed by occupation mask. A read-only private
        copy of the array passed in.
    parity:
        Number-parity tag of the support, ``"even"`` or ``"odd"``.

    Construction rejects a non-finite weight total ``sum |v|^2`` (a NaN or
    infinite amplitude, or finite amplitudes whose squares overflow, from
    about 1e154) with NotNormalizedError, and a tag that contradicts the
    support: more than TOL_NORM of the weight outside the tagged sector
    raises WrongParityError. The zero vector is accepted under either tag,
    because ``apply_creation`` and ``apply_annihilation`` may return it by
    design; for the same reason the norm is not checked.
    """

    n_modes: int
    vector: np.ndarray = field(repr=False)
    parity: Parity

    def __post_init__(self) -> None:
        dim = _dim(self.n_modes)
        vector = np.array(self.vector, dtype=np.complex128)
        if vector.shape != (dim,):
            raise DimensionMismatchError(
                f"expected vector of length {dim}, got shape {vector.shape}"
            )
        if self.parity not in ("even", "odd"):
            raise WrongParityError(f"parity tag must be 'even' or 'odd', got {self.parity!r}")
        weights = np.abs(vector) ** 2
        total = float(np.sum(weights))
        if not math.isfinite(total):  # a NaN or infinite amplitude, or overflowing weights
            raise NotNormalizedError(f"state vector has non-finite weight {total}")
        outside = _sector_masks(self.n_modes)[1 if self.parity == "even" else 0]
        w_out = float(np.sum(weights[outside]))
        if w_out > TOL_NORM * total:
            raise WrongParityError(
                f"state tagged {self.parity!r} holds weight {w_out:.3e} outside its sector"
            )
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def amplitude(self, mask: int) -> complex:
        return complex(self.vector[mask])

    def nonzero_amplitudes(self) -> list[tuple[int, complex]]:
        """(mask, amplitude) pairs with magnitude above TOL_ZERO, mask-ascending."""
        idx = np.flatnonzero(np.abs(self.vector) > TOL_ZERO)
        return [(int(m), complex(self.vector[m])) for m in idx]

    def is_zero(self) -> bool:
        return self.norm() <= TOL_ZERO

    def overlap(self, other: "FockState") -> complex:
        """Inner product <self|other>."""
        if self.n_modes != other.n_modes:
            raise DimensionMismatchError(
                f"mode counts differ: {self.n_modes} vs {other.n_modes}"
            )
        return complex(np.vdot(self.vector, other.vector))


def _require_unit_norm(state: FockState) -> None:
    """Raise NotNormalizedError unless the state's norm is 1 within TOL_NORM."""
    if not abs(state.norm() - 1.0) <= TOL_NORM:
        raise NotNormalizedError(f"state norm {state.norm()!r} is not 1 within {TOL_NORM}")


def _is_unit_weight(weight):
    """Whether a squared norm meets the unit-norm rule: its square root is 1 within TOL_NORM.

    Elementwise on arrays; NaN fails.
    """
    return np.abs(np.sqrt(np.maximum(weight, 0.0)) - 1.0) <= TOL_NORM


def _mode_index(mode) -> int:
    """``mode`` as an int; a float, string or other non-integer raises ArgumentError."""
    try:
        return operator.index(mode)
    except TypeError:
        raise ArgumentError(f"mode {mode!r} is not an integer") from None


def make_state(
    n_modes: int,
    amplitudes: dict[int, complex] | Sequence[complex] | np.ndarray,
    normalize: bool = True,
) -> FockState:
    """Build a FockState from a mask->amplitude map or a full coefficient vector.

    Parameters
    ----------
    n_modes:
        Number of modes; fixes the vector length ``2**n_modes``.
    amplitudes:
        Either a dict mapping occupation masks to complex amplitudes, or a
        sequence/array of length ``2**n_modes``.
    normalize:
        When true (default) the vector is scaled to unit norm. When false the
        norm must already be 1 within TOL_NORM.

    Raises
    ------
    ZeroNormError
        All amplitudes vanish.
    MixedParityError
        Support straddles both parity sectors.
    NotNormalizedError
        An amplitude is NaN or infinite.
    DimensionMismatchError
        Mask out of range or wrong vector length.
    """
    dim = _dim(n_modes)
    vec = np.zeros(dim, dtype=np.complex128)
    if isinstance(amplitudes, dict):
        for mask, amp in amplitudes.items():
            if not 0 <= int(mask) < dim:
                raise DimensionMismatchError(
                    f"mask {mask} out of range for {n_modes} modes"
                )
            vec[int(mask)] = complex(amp)
    else:
        arr = np.asarray(amplitudes, dtype=np.complex128)
        if arr.shape != (dim,):
            raise DimensionMismatchError(
                f"expected vector of length {dim}, got shape {arr.shape}"
            )
        vec[:] = arr

    non_finite = np.flatnonzero(~np.isfinite(vec))
    if non_finite.size:
        raise NotNormalizedError(f"amplitude of mask {non_finite[0]} is not finite")
    nrm = float(np.linalg.norm(vec))
    if nrm <= TOL_ZERO:
        raise ZeroNormError("state vector has zero norm")
    if normalize:
        vec = vec / nrm
    elif abs(nrm - 1.0) > TOL_NORM:
        raise ZeroNormError(f"state vector norm {nrm!r} is not 1 within {TOL_NORM}")

    parity = vector_parity(vec, n_modes)
    return FockState(n_modes=n_modes, vector=vec, parity=parity)


def vacuum_state(n_modes: int) -> FockState:
    return make_state(n_modes, {0: 1.0}, normalize=False)


def basis_state(n_modes: int, mask: int) -> FockState:
    """Slater determinant with the modes of ``mask`` occupied (ascending order)."""
    return make_state(n_modes, {mask: 1.0}, normalize=False)


# ---------------------------------------------------------------------------
# mode operators on raw vectors
# ---------------------------------------------------------------------------


@functools.cache
def _mode_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of all n annihilators and creators, read off the bits.

    Returns read-only int8 tables (c, cdag), each (n, 2^n), of -1, 0 or +1:
    c_i maps amplitude ``v[m ^ (1 << i)]`` to ``c[i, m] * v[m ^ (1 << i)]`` at
    mask m, and cdag_i likewise with ``cdag[i, m]``; 0 marks a mask the
    operator does not reach. So ``c[i, m]`` is nonzero exactly where mode i
    is empty in m, ``cdag[i, m]`` where it is occupied, and the nonzero
    entry is the Jordan-Wigner sign (-1)^popcount(m & ((1 << i) - 1)).
    """
    masks = np.arange(1 << n)
    bits = 1 << np.arange(n)[:, None]
    sign = 1 - 2 * (np.bitwise_count(masks & (bits - 1)) & 1).astype(np.int8)
    occupied = (masks & bits) != 0
    tables = (np.where(occupied, 0, sign), np.where(occupied, sign, 0))
    for coef in tables:
        coef.setflags(write=False)
    return tables


def _mode_entries(n_modes: int, mode: int, dagger: bool) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sign) of c_mode or cdag_mode, which moves the amplitude at
    ``rows ^ (1 << mode)`` to ``rows`` with factor ``sign``."""
    if not 0 <= mode < n_modes:
        raise DimensionMismatchError(f"mode {mode} out of range for {n_modes} modes")
    coef = _mode_tables(n_modes)[dagger][mode]
    rows = np.flatnonzero(coef)
    return rows, coef[rows]


def raw_apply(vector: np.ndarray, n_modes: int, mode: int, dagger: bool) -> np.ndarray:
    """Apply c_mode (or cdag_mode) to a bare coefficient vector. May return zero."""
    rows, sign = _mode_entries(n_modes, mode, dagger)
    out = np.zeros_like(vector)
    out[rows] = sign * vector[rows ^ (1 << mode)]
    return out


def _flip(parity: Parity) -> Parity:
    return "odd" if parity == "even" else "even"


def apply_creation(state: FockState, mode: int) -> FockState:
    """Apply cdag_mode. The result is NOT renormalized and may be the zero state."""
    out = raw_apply(state.vector, state.n_modes, mode, dagger=True)
    return FockState(n_modes=state.n_modes, vector=out, parity=_flip(state.parity))


def apply_annihilation(state: FockState, mode: int) -> FockState:
    """Apply c_mode. The result is NOT renormalized and may be the zero state."""
    out = raw_apply(state.vector, state.n_modes, mode, dagger=False)
    return FockState(n_modes=state.n_modes, vector=out, parity=_flip(state.parity))


def apply_operator_string(
    state: FockState, factors: Iterable[tuple[str, int]]
) -> FockState:
    """Apply a product of mode operators written in math order.

    ``factors`` lists the product left-to-right, e.g.
    ``[("create", 0), ("annihilate", 1)]`` means ``cdag_0 c_1``; the rightmost
    factor acts first. Each factor is ``("create", mode)`` or
    ``("annihilate", mode)``.
    """
    seq = list(factors)
    for kind, mode in reversed(seq):
        if kind == "create":
            state = apply_creation(state, mode)
        elif kind == "annihilate":
            state = apply_annihilation(state, mode)
        else:
            raise ArgumentError(f"unknown factor kind {kind!r}")
    return state


# ---------------------------------------------------------------------------
# dense operator matrices
# ---------------------------------------------------------------------------


def creation_matrix(n_modes: int, mode: int) -> np.ndarray:
    """Dense ``2**n x 2**n`` matrix of cdag_mode."""
    dim = _dim(n_modes)
    rows, sign = _mode_entries(n_modes, mode, dagger=True)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, rows ^ (1 << mode)] = sign
    return mat


def annihilation_matrix(n_modes: int, mode: int) -> np.ndarray:
    """Dense ``2**n x 2**n`` matrix of c_mode."""
    dim = _dim(n_modes)
    rows, sign = _mode_entries(n_modes, mode, dagger=False)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, rows ^ (1 << mode)] = sign
    return mat


def number_matrix(n_modes: int, mode: int) -> np.ndarray:
    """Dense matrix of the occupation-number operator n_mode = cdag_mode c_mode."""
    dim = _dim(n_modes)
    if not 0 <= mode < n_modes:
        raise DimensionMismatchError(f"mode {mode} out of range for {n_modes} modes")
    masks = np.arange(dim, dtype=np.uint64)
    occ = ((masks >> np.uint64(mode)) & np.uint64(1)).astype(np.float64)
    return np.diag(occ).astype(np.complex128)


def parity_matrix(n_modes: int) -> np.ndarray:
    """Dense matrix of the number-parity operator exp(i pi sum_k n_k)."""
    dim = _dim(n_modes)
    masks = np.arange(dim, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(masks) & 1).astype(np.float64)
    return np.diag(signs).astype(np.complex128)


def _defect(kind: str, stack: np.ndarray) -> float:
    """Largest max |M^dag M - 1| (unitary), |M - M^dag| (Hermitian), or that and |M M - M|
    (projector) over a (K, d, d) stack; 0 for an empty stack, NaN for a NaN entry."""
    if kind == "unitary":
        gram = stack.conj().swapaxes(1, 2) @ stack
        diag = np.arange(stack.shape[1])
        gram[:, diag, diag] -= 1.0
        return float(np.max(np.abs(gram), initial=0.0))
    if kind not in ("hermitian", "projector"):
        raise ValueError(f"unknown operator kind {kind!r}")
    defect = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), initial=0.0)
    if kind == "projector":
        defect = np.maximum(defect, np.max(np.abs(stack @ stack - stack), initial=0.0))
    return float(defect)


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the full Fock space with a declared kind.

    ``kind`` is one of ``"unitary"``, ``"hermitian"``, ``"projector"``; the
    corresponding algebraic property is checked at construction within
    TOL_NORM, and a violation (NaN entries included) raises
    OperatorPropertyError. ``matrix`` is a read-only private complex copy of
    the array passed in; input that does not convert to a 2^n x 2^n array
    raises DimensionMismatchError.

    Inside the package, ``_from_blocks`` checks the protocol operators on their
    2x2 blocks and ``lift_to_fock`` its own unitarity; both then pass the
    measured defect to ``_checked``, which holds it to the same TOL_NORM.
    """

    n_modes: int
    matrix: np.ndarray = field(repr=False)
    kind: Literal["unitary", "hermitian", "projector"]

    def __post_init__(self) -> None:
        dim = _dim(self.n_modes)
        try:
            matrix = np.array(self.matrix, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(f"operator matrix is not a numeric array: {exc}") from None
        if matrix.shape != (dim, dim):
            raise DimensionMismatchError(
                f"operator shape {matrix.shape} does not match {self.n_modes} modes"
            )
        self._seal(matrix, _defect(self.kind, matrix[None]))

    def _seal(self, matrix: np.ndarray, defect: float) -> None:
        """Store ``matrix`` read-only once its dense ``_defect`` passes TOL_NORM."""
        if not defect <= TOL_NORM:  # also rejects NaN
            raise OperatorPropertyError(f"matrix violates {self.kind} property by {defect:.3e}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _checked(
        cls, n_modes: int, matrix: np.ndarray, kind: str, defect: float
    ) -> "FockOperator":
        """Operator whose caller measured ``defect``; ``matrix`` is kept without a copy."""
        op = object.__new__(cls)
        object.__setattr__(op, "n_modes", n_modes)
        object.__setattr__(op, "kind", kind)
        op._seal(matrix, defect)
        return op

    @classmethod
    def _from_blocks(
        cls, n_modes: int, kind: str, diagonal: np.ndarray, pairs=(), hop=(), back=()
    ) -> "FockOperator":
        """Operator M with full ``diagonal`` and, for each mask pair (p, q) in the
        (K, 2) ``pairs``, ``M[q, p] = hop[k]`` and ``M[p, q] = back[k]``; zero elsewhere.

        A mask in two blocks raises OperatorPropertyError. M is then a direct
        sum of the (K, 2, 2) blocks and the 1x1 diagonal singles, and so are
        M^dag M, M - M^dag and M M - M, so the blocks give the dense defect in
        O(2^n). The one 2^n x 2^n array allocated is M itself.
        """
        dim = _dim(n_modes)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        p, q = pairs.T
        single = np.bincount(pairs.ravel(), minlength=dim) == 0
        if np.count_nonzero(single) != dim - 2 * len(pairs):
            raise OperatorPropertyError(f"{kind} operator has a mask in two 2x2 blocks")
        blocks = np.stack([diagonal[p], back, hop, diagonal[q]], axis=-1).reshape(-1, 2, 2)
        singles = diagonal[single].reshape(-1, 1, 1)
        defect = float(np.maximum(_defect(kind, blocks), _defect(kind, singles)))
        matrix = np.zeros((dim, dim), dtype=np.complex128)
        np.fill_diagonal(matrix, diagonal)
        matrix[q, p] = hop
        matrix[p, q] = back
        return cls._checked(n_modes, matrix, kind, defect)

    def apply(self, state: FockState) -> FockState:
        if state.n_modes != self.n_modes:
            raise DimensionMismatchError(
                f"operator on {self.n_modes} modes applied to {state.n_modes}-mode state"
            )
        out = self.matrix @ state.vector
        nrm = float(np.linalg.norm(out))
        if nrm <= TOL_ZERO:
            raise ZeroNormError("operator annihilated the state")
        parity = vector_parity(out, state.n_modes)
        return FockState(n_modes=state.n_modes, vector=out, parity=parity)


def expectation(state: FockState, matrix: np.ndarray) -> complex:
    """<psi| M |psi> / <psi|psi> for a dense matrix M."""
    v = state.vector
    return complex(np.vdot(v, matrix @ v) / np.vdot(v, v))


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    return a.overlap(b)


def number_parity(state: FockState) -> int:
    """Eigenvalue of exp(i pi N) on the state: +1 for even, -1 for odd."""
    return 1 if state.parity == "even" else -1


def random_state(
    n_modes: int,
    parity: Parity | None = None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> FockState:
    """Haar-like random pure state in one parity sector.

    Gaussian amplitudes on the chosen sector, normalized. ``parity=None``
    picks even or odd with equal probability. Pass either ``seed`` or an
    existing ``rng``.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if parity is None:
        parity = "even" if rng.integers(2) == 0 else "odd"
    dim = _dim(n_modes)
    vec = np.zeros(dim, dtype=np.complex128)
    sector = _sector_masks(n_modes)[0 if parity == "even" else 1]
    vec[sector] = rng.normal(size=sector.size) + 1j * rng.normal(size=sector.size)
    vec /= np.linalg.norm(vec)
    return FockState(n_modes=n_modes, vector=vec, parity=parity)
