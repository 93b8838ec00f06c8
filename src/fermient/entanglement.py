"""Mode bipartitions: reduced states, entropies, concurrence, parity splits.

The fermionic partial trace reorders modes so side A occupies the
low-significance bits, dressing each amplitude with the sign of the
restriction of that permutation to occupied modes; after the dressing the
trace is the ordinary tensor-factor trace. All reduced-state expectations of
side-local operators then agree with full-state expectations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .correlations import (
    _check_one_body,
    _elementwise,
    _extended_stack,
    _one_body_stack,
    one_body,
    quadratic_term,
    spectrum_entropy,
    von_neumann_term,
)
from .errors import (
    DimensionMismatchError,
    FermionError,
    NotNormalizedError,
    SideMismatchError,
    WrongParityError,
    WrongShapeError,
)
from .fock import (
    FockState,
    _is_unit_weight,
    _mode_index,
    _raise_first,
    _require_unit_norm,
    _sector_parities,
)
from .linalg import hermitian_eigenvalues

__all__ = [
    "ModePartition",
    "ReducedDensity",
    "LocalParitySplit",
    "reduced_state",
    "bipartite_entropy",
    "concurrence",
    "concurrence_even",
    "concurrence_odd",
    "local_parity_split",
    "majorization_check",
    "majorization_stack",
    "MajorizationStack",
    "schmidt_concurrence",
]

_ENTROPY_MATCH_TOL = 1e-9
#: Slack of the Lemma-2 bounds in MajorizationStack.holds; ``--tol lemma=`` overrides it.
LEMMA_TOL = 1e-9
#: Entropy functions reported by majorization_check.
REGISTERED_ENTROPIES: dict[str, Callable[[float], float]] = {
    "von_neumann": von_neumann_term,
    "quadratic": quadratic_term,
}


@dataclass(frozen=True)
class ModePartition:
    """Ordered split of the modes into non-empty sides A and B."""

    n_modes: int
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __init__(
        self,
        n_modes: int,
        side_a: Iterable[int],
        side_b: Iterable[int] | None = None,
    ) -> None:
        n_modes = _mode_index(n_modes)
        a = tuple(_mode_index(m) for m in side_a)
        if side_b is None:
            b = tuple(m for m in range(n_modes) if m not in a)
        else:
            b = tuple(_mode_index(m) for m in side_b)
        if not a or not b:
            raise SideMismatchError("both sides must be non-empty")
        if len(set(a)) != len(a) or len(set(b)) != len(b) or set(a) & set(b):
            raise SideMismatchError("sides must be disjoint without repeats")
        if set(a) | set(b) != set(range(n_modes)):
            raise SideMismatchError("sides must cover every mode exactly once")
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)


def _reduced_spectra(matrices: np.ndarray, first: int | None = None) -> np.ndarray:
    """Eigenvalues, descending, of a stack (S, k, k) of reduced matrices.

    ``linalg`` judges Hermiticity first (NotHermitianError). Each matrix must
    then have a trace whose square root is 1 within TOL_NORM, the unit-norm
    rule, and no eigenvalue below -1e-10; a failure raises FermionError
    (naming the sample ``first + s`` when ``first`` is given).
    """
    values = hermitian_eigenvalues(matrices)
    _raise_first(
        ~_is_unit_weight(np.trace(matrices, axis1=1, axis2=2).real),
        FermionError, "reduced matrix trace differs from 1", first,
    )
    _raise_first(
        values[:, -1] < -1e-10, FermionError, "reduced matrix has a negative eigenvalue", first
    )
    return values


@dataclass(frozen=True)
class ReducedDensity:
    """Reduced density matrix over the local occupation basis of one side.

    Construction checks the matrix and diagonalizes it once; ``spectrum()``
    and ``entropy()`` share those eigenvalues.
    """

    modes: tuple[int, ...]
    side: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = _reduced_spectra(self.matrix[None])[0]
        self.matrix.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "_values", values)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        return self._values

    def entropy(self, fn: Callable[[float], float] = von_neumann_term) -> float:
        return spectrum_entropy(self._values, fn)


@functools.lru_cache(maxsize=64)
def _partition_table(side_a: tuple[int, ...], side_b: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where every basis mask lands in the coefficient matrix of a partition.

    Returns read-only (flat, sign) over all 2^n masks: the amplitude of mask m
    goes, times sign[m], to flat index flat[m] = a_index * 2^nB + b_index of
    the (2^nA, 2^nB) matrix. The sign is the parity of the reordering of the
    occupied modes from ascending order into partition order (A, then B).
    """
    order = np.array(side_a + side_b)
    n_a, n_b = len(side_a), len(side_b)
    masks = np.arange(1 << order.size)
    # occupation of each mask in partition order, one row per mask
    bits = (masks[:, None] >> order) & 1
    # pairs p < q of partition positions whose modes appear out of ascending order
    inverted = np.triu(order[:, None] > order[None, :], k=1).astype(np.int64)
    inversions = np.sum((bits @ inverted) * bits, axis=1)
    a_idx = bits[:, :n_a] @ (1 << np.arange(n_a))
    b_idx = bits[:, n_a:] @ (1 << np.arange(n_b))
    flat = (a_idx << n_b) | b_idx
    sign = np.where(inversions & 1, -1.0, 1.0)
    flat.setflags(write=False)
    sign.setflags(write=False)
    return flat, sign


def _coefficient_stack(vectors: np.ndarray, part: ModePartition) -> np.ndarray:
    """Sign-dressed amplitudes of an (S, 2^n) stack as (S, local A, local B) matrices."""
    if vectors.shape[1] != 1 << part.n_modes:
        raise DimensionMismatchError(
            f"partition of {part.n_modes} modes given states of {vectors.shape[1]} amplitudes"
        )
    flat, sign = _partition_table(part.side_a, part.side_b)
    t = np.empty(vectors.shape, dtype=np.complex128)
    t[:, flat] = sign * vectors
    return t.reshape(len(vectors), 1 << len(part.side_a), 1 << len(part.side_b))


def _coefficient_matrix(state: FockState, part: ModePartition) -> np.ndarray:
    """Sign-dressed amplitudes as a (local A) x (local B) matrix."""
    return _coefficient_stack(state.vector[None], part)[0]


def reduced_state(state: FockState, part: ModePartition, side: str = "a") -> ReducedDensity:
    """Fermionic partial trace onto one side of the partition."""
    label = side.lower()
    if label not in ("a", "b"):
        raise SideMismatchError(f"unknown side {side!r}")
    t = _coefficient_matrix(state, part)
    if label == "a":
        matrix = t @ t.conj().T
        modes = part.side_a
    else:
        matrix = t.T @ t.conj()
        modes = part.side_b
    return ReducedDensity(modes=modes, side=label, matrix=matrix)


def _side_spectra(
    vectors: np.ndarray, part: ModePartition, first: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Checked rho_A and rho_B spectra, descending, of an (S, 2^n) stack of pure states."""
    t = _coefficient_stack(vectors, part)
    spec_a = _reduced_spectra(t @ t.conj().swapaxes(1, 2), first)
    return spec_a, _reduced_spectra(t.swapaxes(1, 2) @ t.conj(), first)


def _matched_entropies(
    spec_a: np.ndarray, spec_b: np.ndarray, fn: Callable[[float], float], first: int | None = None
) -> np.ndarray:
    """S(rho_A) of each state, after checking that it equals S(rho_B) as a pure state requires."""
    s_a = _elementwise(fn, spec_a).sum(axis=1)
    s_b = _elementwise(fn, spec_b).sum(axis=1)
    _raise_first(
        np.abs(s_a - s_b) > _ENTROPY_MATCH_TOL,
        SideMismatchError, "side entropies differ: {} vs {}", first, s_a, s_b,
    )
    return s_a


def bipartite_entropy(
    state: FockState,
    part: ModePartition,
    entropy_fn: Callable[[float], float] = von_neumann_term,
) -> float:
    """Entanglement entropy of the partition; checks S(rho_A) = S(rho_B)."""
    spec_a, spec_b = _side_spectra(state.vector[None], part)
    return float(_matched_entropies(spec_a, spec_b, entropy_fn)[0])


def _require_four_modes(state: FockState) -> None:
    if state.n_modes != 4:
        raise DimensionMismatchError("concurrence formulas are defined for 4 modes")


#: Sign s(m) = -(-1)^(bit_0(m) + bit_2(m)) of the pair (m, m ^ 15) in the invariant bilinear
#: B, Schliemann's 2 (psi_3 psi_12 - psi_5 psi_10 + psi_9 psi_6 - psi_0 psi_15) for even states.
_COMPLEMENT_SIGN = -((-1.0) ** np.bitwise_count(np.arange(16) & 0b0101))
_COMPLEMENT_SIGN.setflags(write=False)


def _bilinear(vectors: np.ndarray) -> np.ndarray:
    """B = sum_m s(m) psi_m psi_{m ^ 15} of (..., 16) amplitudes; partner m ^ 15 is 15 - m."""
    return np.sum(_COMPLEMENT_SIGN * vectors * vectors[..., ::-1], axis=-1)


def concurrence(state: FockState) -> float:
    """Concurrence C = min(|B|, 1) of a four-mode state of unit norm, either parity."""
    _require_four_modes(state)
    _require_unit_norm(state)
    return min(abs(complex(_bilinear(state.vector))), 1.0)


def concurrence_even(state: FockState) -> float:
    """``concurrence`` of an even four-mode state; an odd one raises WrongParityError."""
    value = concurrence(state)  # the four-mode and unit-norm checks come first
    if state.parity != "even":
        raise WrongParityError("state is not even-parity")
    return value


def concurrence_odd(state: FockState) -> float:
    """``concurrence`` of an odd four-mode state; an even one raises WrongParityError."""
    value = concurrence(state)  # the four-mode and unit-norm checks come first
    if state.parity != "odd":
        raise WrongParityError("state is not odd-parity")
    return value


@dataclass(frozen=True)
class LocalParitySplit:
    """Decomposition of an even state over the local parity of side A."""

    p_minus: float
    p_plus: float
    c_minus: float
    c_plus: float
    beta: np.ndarray = field(repr=False)
    beta_tilde: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not _is_unit_weight(self.p_minus + self.p_plus):
            raise FermionError("local parity weights do not sum to 1")
        for c in (self.c_minus, self.c_plus):
            if not -1e-12 <= c <= 1.0 + 1e-12:
                raise FermionError("component concurrence out of range")
        self.beta.setflags(write=False)
        self.beta_tilde.setflags(write=False)

    def concurrence(self) -> float:
        value = 2.0 * abs(np.linalg.det(self.beta) + np.linalg.det(self.beta_tilde))
        return min(value, 1.0)


def local_parity_split(state: FockState, part: ModePartition) -> LocalParitySplit:
    """Odd/even local-parity components of an even state of unit norm on a 2+2 partition.

    The returned concurrences obey the sandwich |p_- c_- − p_+ c_+| <= C <=
    p_- c_- + p_+ c_+, checked within 1e-9 with C from the invariant bilinear,
    a second route that a wrong sign dressing of the blocks can fail.
    """
    total = concurrence(state)  # the four-mode and unit-norm checks come first
    if state.parity != "even":
        raise WrongParityError("local parity split expects an even state")
    if len(part.side_a) != 2 or len(part.side_b) != 2:
        raise WrongShapeError("local parity split needs a 2+2 partition")
    t = _coefficient_matrix(state, part)
    beta = t[np.ix_([1, 2], [1, 2])].copy()
    beta_tilde = t[np.ix_([0, 3], [0, 3])].copy()
    p_minus = float(np.sum(np.abs(beta) ** 2))
    p_plus = float(np.sum(np.abs(beta_tilde) ** 2))
    det_minus = complex(np.linalg.det(beta))
    det_plus = complex(np.linalg.det(beta_tilde))
    c_minus = min(2.0 * abs(det_minus) / p_minus, 1.0) if p_minus > 1e-12 else 0.0
    c_plus = min(2.0 * abs(det_plus) / p_plus, 1.0) if p_plus > 1e-12 else 0.0
    split = LocalParitySplit(
        p_minus=p_minus,
        p_plus=p_plus,
        c_minus=c_minus,
        c_plus=c_plus,
        beta=beta,
        beta_tilde=beta_tilde,
    )
    low = abs(p_minus * c_minus - p_plus * c_plus)
    high = p_minus * c_minus + p_plus * c_plus
    if not low - 1e-9 <= total <= high + 1e-9:
        raise FermionError("concurrence sandwich violated; split is inconsistent")
    return split


class MajorizationStack(NamedTuple):
    """Lemma-2 quantities of S four-mode states on P partitions, and the one verdict on them.

    ``spectra[p][s]`` is the spectrum of rho_A of state s on partition p,
    descending, and ``lambda_max[s, p]`` its first entry; ``f_plus[s]`` is the
    mean of the top four extended-matrix eigenvalues. For each name in
    REGISTERED_ENTROPIES, ``values[name][s, p]`` is S(rho_A) (checked equal to
    S(rho_B)) and ``bounds[name][s]`` is a quarter of the entropy of the
    extended spectrum.
    """

    lambda_max: np.ndarray
    f_plus: np.ndarray
    values: dict[str, np.ndarray]
    bounds: dict[str, np.ndarray]
    spectra: tuple[np.ndarray, ...]

    @property
    def lambda_excess(self) -> np.ndarray:
        """(S, P) margins lambda_max - f_plus; the bound wants them <= 0."""
        return self.lambda_max - self.f_plus[:, None]

    @property
    def entropy_margins(self) -> dict[str, np.ndarray]:
        """(S, P) margins S(rho_A) - bound per entropy; the bounds want them >= 0."""
        return {name: value - self.bounds[name][:, None] for name, value in self.values.items()}

    def holds(self, tol: float) -> dict[str, np.ndarray]:
        """(S, P) verdicts, "lambda_max" then each entropy: margin misses by <= tol; NaN fails."""
        verdicts = {"lambda_max": self.lambda_excess <= tol}
        verdicts.update((name, m >= -tol) for name, m in self.entropy_margins.items())
        return verdicts

    def verdict(self, tol: float) -> dict:
        """Report of a stack of one state on one partition: lambda_max, f_plus, holds, entropies."""
        holds = self.holds(tol)
        return {
            "lambda_max": float(self.lambda_max[0, 0]),
            "f_plus": float(self.f_plus[0]),
            "holds": all(bool(h[0, 0]) for h in holds.values()),
            "entropies": {
                name: {"value": float(value[0, 0]), "bound": float(self.bounds[name][0]),
                       "holds": bool(holds[name][0, 0])}
                for name, value in self.values.items()
            },
        }


def majorization_stack(
    vectors: np.ndarray, parts: Sequence[ModePartition], first: int | None = 0
) -> MajorizationStack:
    """The quantities of Lemma 2 for a stack of four-mode states, in one pass.

    ``vectors`` is an (S, 16) stack of state vectors. The one-body, extended
    and reduced matrices of all states are built and diagonalized as stacks.
    Every check of ``one_body``, ``extended_density`` and ``reduced_state``
    runs on each matrix at the same tolerance, as does S(rho_A) = S(rho_B); a
    failure raises the same FermionError subclass and names the sample index,
    counted from ``first`` (``None`` names none).
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    if vectors.ndim != 2 or vectors.shape[1] != 16:
        raise DimensionMismatchError(
            f"expected an (S, 16) stack of four-mode states, got shape {vectors.shape}"
        )
    # reduced-state checks come first, so an unnormalized state fails on its trace
    shape = (len(vectors), len(parts))
    lambda_max = np.empty(shape)
    values = {name: np.empty(shape) for name in REGISTERED_ENTROPIES}
    spectra = []
    for p, part in enumerate(parts):
        spec_a, spec_b = _side_spectra(vectors, part, first)
        spectra.append(spec_a)
        lambda_max[:, p] = spec_a[:, 0]
        for name, fn in REGISTERED_ENTROPIES.items():
            values[name][:, p] = _matched_entropies(spec_a, spec_b, fn, first)
    rho, kappa = _one_body_stack(vectors, 4, _sector_parities(vectors, 4, first))
    _check_one_body(rho, kappa, first)
    extended = hermitian_eigenvalues(_extended_stack(rho, kappa))
    return MajorizationStack(
        lambda_max=lambda_max,
        f_plus=extended[:, :4].mean(axis=1),
        values=values,
        bounds={
            name: _elementwise(fn, extended).sum(axis=1) / 4.0
            for name, fn in REGISTERED_ENTROPIES.items()
        },
        spectra=tuple(spectra),
    )


def majorization_check(state: FockState, part: ModePartition) -> dict:
    """Verdict on lambda_max(rho_A) <= f_+ and the quarter-entropy bounds.

    A stack of one through ``majorization_stack``, judged at LEMMA_TOL.
    """
    _require_four_modes(state)
    return majorization_stack(state.vector[None], [part], first=None).verdict(LEMMA_TOL)


def schmidt_concurrence(beta1, beta2, bt1, bt2) -> float:
    """Concurrence of a state given in local-parity Schmidt coefficients."""
    norm = abs(beta1) ** 2 + abs(beta2) ** 2 + abs(bt1) ** 2 + abs(bt2) ** 2
    if not _is_unit_weight(norm):  # also rejects NaN
        raise NotNormalizedError(f"coefficient norm {norm!r} differs from 1")
    return min(2.0 * abs(beta1 * beta2 + bt1 * bt2), 1.0)


def occupations_cross_check(state: FockState, part: ModePartition) -> float:
    """Largest cross-side contraction; vanishes for fixed local parity."""
    blocks = one_body(state)
    worst = 0.0
    for a in part.side_a:
        for b in part.side_b:
            worst = max(
                worst,
                abs(blocks.rho[a, b]),
                abs(blocks.rho[b, a]),
                abs(blocks.kappa[a, b]),
            )
    return worst
