"""Bogoliubov transformations, their Fock-space lifts, and normal forms.

A map with blocks (U, V) sends ``c_i -> a_i = sum_k conj(U[k,i]) c_k +
V[k,i] cdag_k``. Stacked as ``(a; adag) = W^dag (c; cdag)`` with
``W = [[U, V], [conj(V), conj(U)]]`` unitary. Applying map 1 and then map 2
(written in map-1 quasiparticle operators) composes to ``W = W1 @ W2``.

``lift_to_fock`` realizes a map as the 2^n x 2^n unitary that conjugates mode
operators into quasiparticle operators, without an eigensolve. The new vacuum
is Thouless's (Ring & Schuck, The Nuclear Many-Body Problem, ch. 7): the
product a_0 a_1 ... a_{n-1} of all quasiparticle annihilators is the rank-one
|vac><full|, so its column of largest norm is the vacuum up to scale. Its
global phase is pinned by making the largest-magnitude amplitude real
positive (magnitudes within TOL_ZERO of the largest tie, and the lowest mask
wins). The remaining columns come in n blocks, one per quasiparticle
creator. The vacuum residual max_i ||a_i vac||, the unitarity defect and the
conjugation residuals are each computed once, densely, and checked.

``normal_form`` takes one route for every four-mode state: a core map from
the invariant bilinear in the magic basis (Hill & Wootters), then one lift
for the state's amplitudes phi in that basis (odd input needs one more, for
its particle-hole pre-map). The two maps composed after the core keep the
vacuum, so they act on phi in closed form: the swap of quasiparticle pairs
(0, 1) <-> (2, 3) gives phi'[m] = (-1)^(popcount(m & 3) popcount(m >> 2))
phi[(m & 3) << 2 | m >> 2], and the phase map diag(exp(-i theta)) gives
phi'[m] = phi[m] exp(i sum_k theta_k bit_k(m)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .correlations import extended_density
from .entanglement import _COMPLEMENT_SIGN
from .errors import (
    DimensionMismatchError,
    LiftFailureError,
    MemoryBudgetError,
    NotSymplecticError,
    NotTwoFermionError,
)
from .fock import (
    FockOperator,
    FockState,
    TOL_ZERO,
    _defect,
    _dim,
    _is_unit_weight,
    _mode_count,
    _mode_set,
    _mode_tables,
    _require_unit_norm,
    make_state,
)
from .linalg import Spectrum, hermitian_eigensystem

__all__ = [
    "BogoliubovMap",
    "SchmidtForm",
    "TwoFermionForm",
    "validate_bogoliubov",
    "identity_map",
    "particle_hole_map",
    "random_bogoliubov",
    "compose",
    "lift_to_fock",
    "particle_hole",
    "normal_form",
    "two_fermion_schmidt",
]

_MAP_TOL = 1e-10
_LIFT_TOL = 1e-9
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class BogoliubovMap:
    """Validated (U, V) block pair; construct through validate_bogoliubov."""

    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.U.setflags(write=False)
        self.V.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.U.shape[0]

    def w_matrix(self) -> np.ndarray:
        n = self.n_modes
        w = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        w[:n, :n] = self.U
        w[:n, n:] = self.V
        w[n:, :n] = self.V.conj()
        w[n:, n:] = self.U.conj()
        return w


def validate_bogoliubov(U: np.ndarray, V: np.ndarray) -> BogoliubovMap:
    """Check the anticommutation-preserving constraints and wrap the blocks.

    Raises DimensionMismatchError unless U and V are equal non-empty squares,
    and NotSymplecticError with the largest constraint residual if
    UU^dag + VV^dag != 1, UV^T + VU^T != 0, or the stacked W is not unitary.
    """
    U = np.asarray(U, dtype=np.complex128)
    V = np.asarray(V, dtype=np.complex128)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape != V.shape or U.size == 0:
        raise DimensionMismatchError(
            f"expected equal non-empty square blocks, got {U.shape} and {V.shape}"
        )
    n = U.shape[0]
    eye = np.eye(n)
    r1 = np.max(np.abs(U @ U.conj().T + V @ V.conj().T - eye))
    r2 = np.max(np.abs(U @ V.T + V @ U.T))
    m = BogoliubovMap(U=U.copy(), V=V.copy())
    w = m.w_matrix()
    r3 = np.max(np.abs(w.conj().T @ w - np.eye(2 * n)))
    worst = float(np.max([r1, r2, r3]))
    if not worst <= _MAP_TOL:
        raise NotSymplecticError(f"constraint residual {worst:.3e} exceeds {_MAP_TOL}")
    return m


def identity_map(n_modes: int) -> BogoliubovMap:
    n = _mode_count(n_modes)
    return validate_bogoliubov(np.eye(n), np.zeros((n, n)))


def particle_hole_map(n_modes: int, modes: Iterable[int]) -> BogoliubovMap:
    """Map with a_i = cdag_i on the listed modes and a_i = c_i elsewhere."""
    n = _mode_count(n_modes)
    sel = np.zeros(n)
    sel[list(_mode_set(modes, "modes", n))] = 1.0
    return validate_bogoliubov(np.diag(1.0 - sel), np.diag(sel))


def _unitary_map(u: np.ndarray) -> BogoliubovMap:
    return validate_bogoliubov(u, np.zeros_like(u))


def random_bogoliubov(
    n_modes: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> BogoliubovMap:
    """Random valid map, as the exponential of a random structured generator."""
    n_modes = _mode_count(n_modes)
    if rng is None:
        rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    y = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    p = (x - x.conj().T) / 2.0
    q = (y - y.T) / 2.0
    k = np.zeros((2 * n_modes, 2 * n_modes), dtype=np.complex128)
    k[:n_modes, :n_modes] = p
    k[:n_modes, n_modes:] = q
    k[n_modes:, :n_modes] = q.conj()
    k[n_modes:, n_modes:] = p.conj()
    spec = hermitian_eigensystem(1j * k)
    w = spec.vectors @ np.diag(np.exp(-1j * spec.values)) @ spec.vectors.conj().T
    return validate_bogoliubov(w[:n_modes, :n_modes], w[:n_modes, n_modes:])


def compose(first: BogoliubovMap, second: BogoliubovMap) -> BogoliubovMap:
    """Map equivalent to applying ``first`` and then ``second``."""
    if first.n_modes != second.n_modes:
        raise DimensionMismatchError("cannot compose maps of different sizes")
    n = first.n_modes
    w = first.w_matrix() @ second.w_matrix()
    return validate_bogoliubov(w[:n, :n], w[:n, n:])


# ---------------------------------------------------------------------------
# Fock-space lift
# ---------------------------------------------------------------------------


#: Largest estimated peak memory, in bytes, that ``lift_to_fock`` will
#: allocate (1.5 GiB): n = 11 needs 1 GiB, n = 12 about 4.3 GiB.
_LIFT_BUDGET = 3 << 29


def lift_to_fock(bmap: BogoliubovMap, n_modes: int) -> FockOperator:
    """Unitary Fock-space representative of a Bogoliubov map.

    The returned operator satisfies ``Ue c_i Ue^dag = a_i`` as dense matrices,
    with residual below 1e-9. Column ``m`` is the ascending quasiparticle
    string ``adag_{i1} ... adag_{ik}`` applied to the new vacuum; the vacuum
    phase is fixed by making its largest-magnitude amplitude real positive,
    where magnitudes within TOL_ZERO of the largest tie and the lowest mask
    wins, so that rounding cannot move the anchor.

    The dense a_i are filled from the mode tables of ``fock._mode_tables``,
    mode k writing the entries (m, m ^ 2^k), so nothing is summed. The vacuum
    is Thouless's: a_0 a_1 ... a_{n-1} = |vac><full| has rank one, and its
    column of largest norm (lowest mask on ties), at least 2^(-n/2) for a
    valid map, is normalized; no eigensolve is made. The columns then grow
    in n blocks: moving the highest creator to the front gives
    ``cols[:, 2^h + r] = (-1)^popcount(r) adag_h cols[:, r]`` for r < 2^h.

    Checks, each computed once: the vacuum residual max_i ||a_i vac|| and
    the dense defects max |cols^dag cols - 1| and max |cols c_i cols^dag -
    a_i|, all within 1e-9, then the unitarity defect within TOL_NORM as
    ``FockOperator`` requires. c_i is never built: column m of ``cols c_i``
    is the signed column ``m ^ 2^i`` where mode i is occupied in m and zero
    elsewhere.

    Raises MemoryBudgetError, before any allocation, if the estimated peak
    memory exceeds 1.5 GiB (n = 12). Raises LiftFailureError if the
    annihilator product has no column of the expected norm or a check fails,
    and OperatorPropertyError if unitarity misses TOL_NORM alone.
    """
    dim = _dim(n_modes)
    if bmap.n_modes != n_modes:
        raise DimensionMismatchError(
            f"map on {bmap.n_modes} modes does not match n_modes={n_modes}"
        )
    # the (n, 2^n, 2^n) stack of a_i, the columns, and at most four more
    # complex 2^n x 2^n arrays alive at once (the annihilator product and its
    # next factor, or the Gram matrix or a conjugation residual with temporaries)
    need = 16 * (n_modes + 5) << 2 * n_modes
    if need > _LIFT_BUDGET:
        raise MemoryBudgetError(
            f"lift of {n_modes} modes needs an estimated {need} bytes "
            f"({need / 2**30:.1f} GiB), above the {_LIFT_BUDGET} byte budget"
        )
    c, cdag = _mode_tables(n_modes)
    masks = np.arange(dim)
    flipped = masks ^ (1 << np.arange(n_modes))[:, None]
    # a_ops[i, m, m ^ 2^k] = conj(U[k, i]) c[k, m] + V[k, i] cdag[k, m]
    a_ops = np.zeros((n_modes, dim, dim), dtype=np.complex128)
    a_ops[:, masks, flipped] = bmap.U.conj().T[:, :, None] * c + bmap.V.T[:, :, None] * cdag

    product = a_ops[-1]
    for i in range(n_modes - 2, -1, -1):
        product = a_ops[i] @ product
    norms = np.linalg.norm(product, axis=0)
    best = int(np.argmax(norms))
    floor = 0.5 * 2.0 ** (-n_modes / 2)
    if not norms[best] >= floor:
        raise LiftFailureError(
            f"no quasiparticle vacuum: annihilator product column norm "
            f"{norms[best]:.3e} below {floor:.3e}"
        )
    vacuum = product[:, best] / norms[best]
    del product
    size = np.abs(vacuum)
    anchor = int(np.flatnonzero(size >= size.max() - TOL_ZERO)[0])
    vacuum *= size[anchor] / vacuum[anchor]
    residual = float(np.max(np.linalg.norm(a_ops @ vacuum, axis=1)))
    if not residual <= _LIFT_TOL:
        raise LiftFailureError(f"vacuum residual {residual:.3e} exceeds {_LIFT_TOL}")

    cols = np.empty((dim, dim), dtype=np.complex128)
    cols[:, 0] = vacuum
    for h in range(n_modes):
        half = 1 << h
        # adag_h cols[:, :half], signed by cdag[h, half + r] = (-1)^popcount(r)
        block = (cols[:, :half].conj().T @ a_ops[h]).conj().T
        cols[:, half : 2 * half] = block * cdag[h, half : 2 * half]

    unit_defect = _defect("unitary", cols[None])
    if not unit_defect <= _LIFT_TOL:
        raise LiftFailureError(f"lift not unitary, defect {unit_defect:.3e}")
    for i in range(n_modes):
        empty = np.flatnonzero(c[i])
        # cols c_i cols^dag = sum over m empty at i of c[i, m] cols[:, m] cols[:, m ^ 2^i]^dag
        diff = (cols[:, empty] * c[i, empty]) @ cols[:, empty ^ (1 << i)].conj().T
        diff -= a_ops[i]
        conj_defect = float(np.max(np.abs(diff)))
        if not conj_defect <= _LIFT_TOL:
            raise LiftFailureError(
                f"conjugation residual {conj_defect:.3e} on mode {i}"
            )
    return FockOperator._checked(n_modes, "unitary", unit_defect, matrix=cols)


def particle_hole(state: FockState, modes: Iterable[int]) -> FockState:
    """Particle-hole transform of the state on the given modes."""
    bmap = particle_hole_map(state.n_modes, modes)
    return lift_to_fock(bmap, state.n_modes).apply(state)


def transformed_amplitudes(state: FockState, bmap: BogoliubovMap) -> np.ndarray:
    """Coefficients of the state in the quasiparticle Slater basis of ``bmap``."""
    lifted = lift_to_fock(bmap, state.n_modes)
    return lifted.matrix.conj().T @ state.vector


# ---------------------------------------------------------------------------
# normal form (n = 4)
# ---------------------------------------------------------------------------

_MASK_PLUS = 0b0011
_MASK_MINUS = 0b1100

#: Quasiparticle mode pairings that split the normal form into two qubits.
PAIRINGS = {
    "odd_local": ((0, 2), (1, 3)),
    "even_local": ((0, 1), (2, 3)),
}

_EVEN_MASKS = (0, 3, 5, 6, 9, 10, 12, 15)
#: Complement pairs of even masks, signed as in B = z^T Q z; the magic basis has M^T Q M = 1.
_MAGIC_PAIRS = tuple(((a, 15 ^ a), float(_COMPLEMENT_SIGN[a])) for a in (3, 5, 9, 0))


@dataclass(frozen=True)
class SchmidtForm:
    """Two-amplitude normal form of a definite-parity four-mode state."""

    alpha_plus: float
    alpha_minus: float
    map: BogoliubovMap
    pairing: dict
    transformed: FockState = field(repr=False)
    f_plus: float
    f_minus: float

    def __post_init__(self) -> None:
        if not (self.alpha_plus >= self.alpha_minus >= 0.0):
            raise LiftFailureError("normal-form amplitudes out of order")
        if not _is_unit_weight(self.alpha_plus**2 + self.alpha_minus**2):
            raise LiftFailureError("normal-form amplitudes not normalized")
        if (
            abs(self.alpha_plus**2 - self.f_plus) > 1e-9
            or abs(self.alpha_minus**2 - self.f_minus) > 1e-9
        ):
            raise LiftFailureError(
                "normal-form amplitudes disagree with the extended spectrum"
            )


def _swap_halves(vec: np.ndarray) -> np.ndarray:
    n = vec.shape[0] // 2
    return np.concatenate([vec[n:], vec[:n]])


def _assemble_pairing_map(spec: Spectrum) -> BogoliubovMap:
    """Build a diagonalizing map from particle-hole-paired eigenvector quartets.

    ``spec`` is the spectrum of the 8x8 extended matrix, eigenvalues descending.
    """
    e_plus = spec.vectors[:, :4]
    w3 = spec.vectors[:, 4]
    w4 = spec.vectors[:, 5]
    # coordinates of the conjugated pair inside the f_+ eigenspace
    b = e_plus.conj().T @ np.column_stack([_swap_halves(w3.conj()), _swap_halves(w4.conj())])
    u, _, _ = np.linalg.svd(b)
    cols = np.column_stack([e_plus @ u[:, 2], e_plus @ u[:, 3], w3, w4])
    return validate_bogoliubov(cols[:4], np.conj(cols[4:]))


@functools.cache
def _magic_matrix() -> np.ndarray:
    m = np.zeros((8, 8), dtype=np.complex128)
    block = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2)
    for k, ((a, b), sign) in enumerate(_MAGIC_PAIRS):
        rows = [_EVEN_MASKS.index(a), _EVEN_MASKS.index(b)]
        m[np.ix_(rows, [2 * k, 2 * k + 1])] = np.exp(-1j * sign * np.pi / 4) * block
    m.setflags(write=False)
    return m


def _core_map(state: FockState) -> BogoliubovMap:
    """Map sending an even four-mode state onto the plane of masks {0b0011, 0b1100}.

    Works in the magic basis of the even sector (Hill & Wootters), where every
    lift acts as a real rotation times a phase. After a global phase that makes
    the invariant bilinear z^T Q z real, the real and imaginary coordinate
    vectors of the state are orthogonal. An auxiliary state on the same real
    plane, with concurrence 1 - 2 delta = 0.96 and so f_+ - f_- = 0.28, is
    normal-formed from the eigenvector quartets of its extended matrix; that
    map sends the whole plane, and with it the state, onto the two masks.
    """
    m = _magic_matrix()
    c = m.conj().T @ state.vector[list(_EVEN_MASKS)]
    bil = complex(c @ c)
    chi = -np.angle(bil) / 2.0 if abs(bil) > TOL_ZERO else 0.0
    c = c * np.exp(1j * chi)
    x = np.real(c)
    y = np.imag(c)
    xn = np.linalg.norm(x)
    if xn <= TOL_ZERO:
        raise LiftFailureError("normal form lost the dominant magic coordinate")
    xh = x / xn
    yn = np.linalg.norm(y)
    if yn >= 1e-9:
        u = y / yn
    else:
        u = np.zeros(8)
        u[int(np.argmin(np.abs(xh)))] = 1.0
    u = u - (u @ xh) * xh
    u /= np.linalg.norm(u)
    delta = 0.02
    c_aux = np.sqrt(1 - delta) * xh + 1j * np.sqrt(delta) * u
    z_aux = m @ c_aux
    aux = make_state(4, {mask: z_aux[k] for k, mask in enumerate(_EVEN_MASKS)})
    return _assemble_pairing_map(hermitian_eigensystem(extended_density(aux).m))


def normal_form(state: FockState) -> SchmidtForm:
    """Quasiparticle basis in which the state has exactly two amplitudes.

    The returned map sends the state onto masks {0b0011, 0b1100} with real
    amplitudes alpha_plus >= alpha_minus >= 0 whose squares equal the distinct
    eigenvalues of the extended one-body matrix. Odd-parity input is first
    converted to even parity by a particle-hole transform on mode 0, which the
    returned composite map includes.

    Every state takes one route: the core map (``_core_map``), one lift for
    the amplitudes phi and the off-plane residual check on them, then the
    swap (when |phi[0b0011]| < |phi[0b1100]|) and the phase fix applied to phi
    in closed form (module docstring), their maps still composed into ``map``.
    alpha_plus and alpha_minus are the magnitudes that decided the swap,
    written into the transformed vector exactly.
    """
    if state.n_modes != 4:
        raise DimensionMismatchError("normal form is defined for 4 modes")

    total = identity_map(4)
    work = state
    if state.parity == "odd":
        total = particle_hole_map(4, {0})
        work = FockState(4, transformed_amplitudes(state, total), "even")

    spec = hermitian_eigensystem(extended_density(work).m)
    f_plus = float(np.mean(spec.values[:4]))
    f_minus = float(np.mean(spec.values[4:]))
    total = compose(total, _core_map(work))
    phi = transformed_amplitudes(state, total)
    off = np.linalg.norm(np.delete(phi, [_MASK_PLUS, _MASK_MINUS]))
    if off > _RESIDUAL_TOL:
        raise LiftFailureError(f"normal form residual {off:.3e}")

    masks = np.arange(16)
    low, high = masks & 3, masks >> 2
    alpha_plus, alpha_minus = float(abs(phi[_MASK_PLUS])), float(abs(phi[_MASK_MINUS]))
    if alpha_plus < alpha_minus:
        total = compose(total, _unitary_map(np.eye(4)[[2, 3, 0, 1]]))
        sign = (-1.0) ** (np.bitwise_count(low) * np.bitwise_count(high))
        phi = sign * phi[low << 2 | high]
        alpha_plus, alpha_minus = alpha_minus, alpha_plus

    theta = np.zeros(4)
    theta[0] = -np.angle(phi[_MASK_PLUS]) if alpha_plus > TOL_ZERO else 0.0
    theta[2] = -np.angle(phi[_MASK_MINUS]) if alpha_minus > TOL_ZERO else 0.0
    total = compose(total, _unitary_map(np.diag(np.exp(-1j * theta))))
    phi = phi * np.exp(1j * (theta[0] * (masks & 1) + theta[2] * (high & 1)))
    phi[_MASK_PLUS], phi[_MASK_MINUS] = alpha_plus, alpha_minus

    return SchmidtForm(
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        map=total,
        pairing=dict(PAIRINGS),
        transformed=FockState(4, phi, "even"),
        f_plus=f_plus,
        f_minus=f_minus,
    )


# ---------------------------------------------------------------------------
# fixed-number two-fermion Schmidt pairs (any n)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoFermionForm:
    """Pairwise Schmidt data of a fixed-number two-fermion state."""

    coefficients: tuple[float, ...]
    pairs: tuple[tuple[int, int], ...]
    map: BogoliubovMap
    transformed_alpha: np.ndarray = field(repr=False)


def _amplitude_matrix(state: FockState) -> np.ndarray:
    n = state.n_modes
    alpha = np.zeros((n, n), dtype=np.complex128)
    weight = 0.0
    for mask, amp in state.nonzero_amplitudes():
        bits = [b for b in range(n) if mask >> b & 1]
        if len(bits) != 2:
            weight += abs(amp) ** 2
            continue
        i, j = bits
        alpha[i, j] = amp
        alpha[j, i] = -amp
    if weight > 1e-10:
        raise NotTwoFermionError(
            f"state carries weight {weight:.3e} outside the two-particle sector"
        )
    return alpha


def two_fermion_schmidt(state: FockState) -> TwoFermionForm:
    """Rotate a two-fermion state into paired form sum_k s_k adag_{2k} adag_{2k+1}.

    The unitary is number-conserving (V = 0); the transformed amplitude matrix
    is block diagonal with 2x2 antisymmetric blocks carrying the coefficients
    s_k >= 0, whose squares are the (pairwise degenerate) one-body eigenvalues.
    The state must have unit norm.
    """
    _require_unit_norm(state)
    alpha = _amplitude_matrix(state)
    n = state.n_modes
    remaining = np.eye(n, dtype=np.complex128)
    columns: list[np.ndarray] = []
    coeffs: list[float] = []
    a_work = alpha
    while remaining.shape[1] >= 2:
        m = a_work @ a_work.conj().T
        spec = hermitian_eigensystem(m)
        s2 = float(spec.values[0])
        if s2 <= 1e-14:
            break
        s = np.sqrt(s2)
        u1 = spec.vectors[:, 0]
        u2 = a_work @ u1.conj() / s
        q1 = u1.conj()
        q2 = u2.conj()
        columns.append(remaining @ q2)
        columns.append(remaining @ q1)
        coeffs.append(s)
        # restrict to the orthocomplement of the extracted pair
        basis = np.column_stack([q1, q2])
        proj = np.eye(remaining.shape[1]) - basis @ basis.conj().T
        u, _, _ = np.linalg.svd(proj)
        keep = u[:, : remaining.shape[1] - 2]
        a_work = keep.T @ a_work @ keep
        remaining = remaining @ keep
    if remaining.shape[1] > 0:
        for k in range(remaining.shape[1]):
            columns.append(remaining[:, k])
    qmat = np.column_stack(columns)
    bmap = validate_bogoliubov(qmat.conj(), np.zeros_like(qmat))

    alpha_prime = qmat.T @ alpha @ qmat
    pairs = tuple((2 * k, 2 * k + 1) for k in range(n // 2))
    coefficients = tuple(coeffs + [0.0] * (n // 2 - len(coeffs)))
    target = np.zeros_like(alpha_prime)
    for k, (i, j) in enumerate(pairs):
        target[i, j] = coefficients[k]
        target[j, i] = -coefficients[k]
    if np.max(np.abs(alpha_prime - target)) > _RESIDUAL_TOL:
        raise LiftFailureError("two-fermion pairing failed its reconstruction check")
    return TwoFermionForm(
        coefficients=coefficients,
        pairs=pairs,
        map=bmap,
        transformed_alpha=alpha_prime,
    )
