import functools
import math

import numpy as np
import pytest
from hypothesis import settings

from fermient import compose, lift_to_fock, make_state, particle_hole_map, random_bogoliubov
from fermient.fock import TOL_ZERO, annihilation_matrix, creation_matrix, number_matrix

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("fermient", derandomize=True, deadline=None)
settings.load_profile("fermient")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def slow_popcount(m: int) -> int:
    return bin(m).count("1")


def oracle_creation_matrix(n_modes: int, mode: int) -> np.ndarray:
    """Reference cdag_mode built entry-by-entry, independent of the library."""
    dim = 2**n_modes
    out = np.zeros((dim, dim), dtype=complex)
    bit = 1 << mode
    for m in range(dim):
        if m & bit:
            continue
        sign = (-1) ** slow_popcount(m & (bit - 1))
        out[m | bit, m] = sign
    return out


def oracle_annihilation_matrix(n_modes: int, mode: int) -> np.ndarray:
    return oracle_creation_matrix(n_modes, mode).conj().T


@functools.cache
def _popcounts(n_modes: int) -> np.ndarray:
    return np.array([slow_popcount(m) for m in range(2**n_modes)])


def _oracle_apply(vector, n_modes: int, mode: int, create: bool) -> np.ndarray:
    """cdag_mode or c_mode on a full coefficient vector, every mask at once.

    The operator sets (creation) or clears (annihilation) bit ``mode`` of each
    mask that allows it, with sign (-1)^(occupied modes below ``mode``).
    """
    masks = np.arange(2**n_modes)
    bit = 1 << mode
    source = masks[((masks & bit) == 0) == create]
    out = np.zeros(2**n_modes, dtype=complex)
    out[source ^ bit] = (-1.0) ** _popcounts(n_modes)[source & (bit - 1)] * vector[source]
    return out


def oracle_one_body(vector, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """rho[i, j] = <psi| cdag_j c_i |psi> and kappa[i, j] = <psi| c_j c_i |psi> on all 2^n masks.

    Both operators of each (i, j) act on the full vector by the bit rule, so
    weight outside the state's parity sector is kept.
    """
    v = np.asarray(vector, dtype=complex)
    rho = np.zeros((n_modes, n_modes), dtype=complex)
    kappa = np.zeros((n_modes, n_modes), dtype=complex)
    for i in range(n_modes):
        ci = _oracle_apply(v, n_modes, i, create=False)
        for j in range(n_modes):
            rho[i, j] = np.vdot(v, _oracle_apply(ci, n_modes, j, create=True))
            kappa[i, j] = np.vdot(v, _oracle_apply(ci, n_modes, j, create=False))
    return rho, kappa


def oracle_quasiparticles(bmap):
    """Dense a_i = sum_k conj(U[k, i]) c_k + V[k, i] cdag_k from the entry-by-entry oracles."""
    n = bmap.n_modes
    cs = [oracle_annihilation_matrix(n, k) for k in range(n)]
    cds = [oracle_creation_matrix(n, k) for k in range(n)]
    return [
        sum(np.conj(bmap.U[k, i]) * cs[k] + bmap.V[k, i] * cds[k] for k in range(n))
        for i in range(n)
    ]


def oracle_lift(bmap):
    """Lift columns by the number-operator route, kept independent of lift_to_fock.

    The vacuum is the null vector of sum_i adag_i a_i (one dense eigensolve),
    its phase pinned as the library documents; column m applies the creators
    of m to it one at a time, lowest mode last.
    """
    a_ops = oracle_quasiparticles(bmap)
    _, vectors = np.linalg.eigh(sum(a.conj().T @ a for a in a_ops))
    vac = vectors[:, 0]
    size = np.abs(vac)
    anchor = np.flatnonzero(size >= size.max() - TOL_ZERO)[0]
    vac = vac * size[anchor] / vac[anchor]
    cols = np.zeros((vac.size, vac.size), dtype=complex)
    cols[:, 0] = vac
    for mask in range(1, vac.size):
        low = (mask & -mask).bit_length() - 1
        cols[:, mask] = a_ops[low].conj().T @ cols[:, mask ^ (1 << low)]
    return cols


def oracle_reduced(state, part):
    """Partial trace by explicit sign-dressed reordering, kept independent."""
    order = list(part.side_a) + list(part.side_b)
    na = len(part.side_a)
    out = np.zeros((2 ** len(part.side_b), 2**na), dtype=complex)
    for mask in range(state.dim):
        amp = state.vector[mask]
        occ = [m for m in order if mask >> m & 1]
        sign = 1
        for i in range(len(occ)):
            for j in range(i + 1, len(occ)):
                if occ[i] > occ[j]:
                    sign = -sign
        a_idx = sum(((mask >> m) & 1) << k for k, m in enumerate(part.side_a))
        b_idx = sum(((mask >> m) & 1) << k for k, m in enumerate(part.side_b))
        out[b_idx, a_idx] += sign * amp
    rho_a = np.zeros((2**na, 2**na), dtype=complex)
    for row in out:
        rho_a += np.outer(row, row.conj())
    return rho_a


def oracle_pauli(pair, kind, axis, n_modes):
    """Pauli matrix of a pair dictionary assembled from dense mode-operator products."""
    i, j = pair
    if axis == "z":
        if kind == "odd":
            return number_matrix(n_modes, i) - number_matrix(n_modes, j)
        return number_matrix(n_modes, i) + number_matrix(n_modes, j) - np.eye(2**n_modes)
    second = annihilation_matrix if kind == "odd" else creation_matrix
    hop = creation_matrix(n_modes, i) @ second(n_modes, j)
    if axis == "x":
        return hop + hop.conj().T
    return -1j * (hop - hop.conj().T)


def oracle_exp(generator):
    """exp(i G) of a Hermitian generator by a dense eigendecomposition."""
    values, vectors = np.linalg.eigh(generator)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def oracle_rotation(pair, kind, weights, n_modes, both_kinds=False):
    kinds = ("odd", "even") if both_kinds else (kind,)
    generator = sum(
        w * oracle_pauli(pair, k, axis, n_modes)
        for w, axis in zip(weights, "xyz")
        for k in kinds
    )
    return oracle_exp(generator)


def oracle_cnot(control, target, kind, n_modes, both_kinds=False):
    """exp[i pi/4 (1 + sigma_z^ctrl)(1 - sigma_x^tgt)], or its dual form."""
    eye = np.eye(2**n_modes)
    if both_kinds:
        ctrl = eye - sum(oracle_pauli(control, k, "z", n_modes) for k in ("odd", "even"))
        tgt = eye - sum(oracle_pauli(target, k, "x", n_modes) for k in ("odd", "even"))
    else:
        ctrl = eye + oracle_pauli(control, kind, "z", n_modes)
        tgt = eye - oracle_pauli(target, kind, "x", n_modes)
    return oracle_exp((math.pi / 4.0) * ctrl @ tgt)


def oracle_extended_spectrum(vector, n_modes):
    """Extended-matrix eigenvalues, descending, from dense entry-by-entry mode operators."""
    c = [oracle_annihilation_matrix(n_modes, i) for i in range(n_modes)]
    v = np.asarray(vector, dtype=complex)
    rho = np.array([[v.conj() @ c[j].conj().T @ c[i] @ v for j in range(n_modes)]
                    for i in range(n_modes)])
    kappa = np.array([[v.conj() @ c[j] @ c[i] @ v for j in range(n_modes)]
                      for i in range(n_modes)])
    m = np.block([[rho, kappa], [-kappa.conj(), np.eye(n_modes) - rho.conj()]])
    return np.linalg.eigvalsh(m)[::-1]


def oracle_entropies(spectrum):
    """(von Neumann, quadratic) entropies of a spectrum, eigenvalues clipped to [0, 1]."""
    p = [min(max(float(x), 0.0), 1.0) for x in spectrum]
    von_neumann = -sum(x * math.log2(x) for x in p if x > 0.0)
    quadratic = sum(2.0 * x * (1.0 - x) for x in p)
    return von_neumann, quadratic


def oracle_bilinear_even(vector):
    """Invariant bilinear of an even four-mode state: twice the quartic over named masks."""
    amp = vector
    quartic = (
        amp[0b0011] * amp[0b1100]
        - amp[0b0101] * amp[0b1010]
        + amp[0b1001] * amp[0b0110]
        - amp[0b0000] * amp[0b1111]
    )
    return 2.0 * quartic


def oracle_bilinear_odd(vector):
    """Invariant bilinear of an odd four-mode state: twice sum_i beta_i beta~_i over complements."""
    total = 0.0 + 0.0j
    for i in range(4):
        beta = vector[1 << i]
        beta_tilde = (-1) ** i * vector[0b1111 ^ (1 << i)]
        total += beta * beta_tilde
    return 2.0 * total


def paired_image(f_plus, parity, rng):
    """Bogoliubov image of sqrt(f)|0011> + sqrt(1 - f)|1100>; odd by a particle-hole flip."""
    bmap = random_bogoliubov(4, rng=rng)
    if parity == "odd":
        bmap = compose(particle_hole_map(4, {int(rng.integers(4))}), bmap)
    base = make_state(4, {0b0011: math.sqrt(f_plus), 0b1100: math.sqrt(1.0 - f_plus)})
    return lift_to_fock(bmap, 4).apply(base)
