import functools
import math

import numpy as np
import pytest
from hypothesis import settings

from fermient import (
    compose,
    extended_density,
    lift_to_fock,
    make_state,
    one_body,
    particle_hole_map,
    random_bogoliubov,
)
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


def oracle_creator(vector, n_modes: int, column) -> np.ndarray:
    """b^dag v for b^dag = sum_j column[j] cdag_j, each cdag_j applied by the bit rule."""
    return sum(column[j] * _oracle_apply(vector, n_modes, j, create=True) for j in range(n_modes))


def bloch_messiah_state(n_modes: int, odd: bool, rng):
    """A random Gaussian pure state and its one-body blocks in closed form (Bloch-Messiah).

    With a Haar unitary U0 and b^dag_k = sum_j U0[j, k] cdag_j the state is
    prod_{k < P} (cos t_k + e^{i f_k} sin t_k b^dag_{2k} b^dag_{2k+1}) |0>,
    P = (n - odd) // 2, with b^dag_{2P} applied too when ``odd`` (Bloch & Messiah,
    Nucl. Phys. 39, 95, 1962; Ring & Schuck ch. 7). In the b modes <b^dag_q b_p>
    is diagonal, sin^2 t_k on both modes of pair k and 1 on the odd mode, and
    <b_{2k+1} b_{2k}> = -<b_{2k} b_{2k+1}> = e^{i f_k} sin t_k cos t_k; with
    c = U0 b this gives rho[i, j] = <cdag_j c_i> and kappa[i, j] = <c_j c_i>.
    Returns (vector, rho, kappa); the vector is built from the creators alone.
    """
    n = n_modes
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u0 = q * (np.diag(r) / np.abs(np.diag(r)))
    vector = np.zeros(2**n, dtype=complex)
    vector[0] = 1.0
    occupation = np.zeros(n)
    pairing = np.zeros((n, n), dtype=complex)
    pairs = (n - odd) // 2
    for k in range(pairs):
        t, f = rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, 2 * math.pi)
        pair = oracle_creator(oracle_creator(vector, n, u0[:, 2 * k + 1]), n, u0[:, 2 * k])
        vector = math.cos(t) * vector + np.exp(1j * f) * math.sin(t) * pair
        occupation[2 * k : 2 * k + 2] = math.sin(t) ** 2
        pairing[2 * k, 2 * k + 1] = np.exp(1j * f) * math.sin(t) * math.cos(t)
        pairing[2 * k + 1, 2 * k] = -pairing[2 * k, 2 * k + 1]
    if odd:
        vector = oracle_creator(vector, n, u0[:, 2 * pairs])
        occupation[2 * pairs] = 1.0
    return vector, u0 @ np.diag(occupation) @ u0.conj().T, u0 @ pairing @ u0.T


def peschel_spectrum(rho, kappa, side) -> np.ndarray:
    """Spectrum, descending, of the reduced state on the modes ``side`` of a Gaussian state.

    Peschel (J. Phys. A 36, L205, 2003): the reduced state is Gaussian with the
    restricted blocks, so with nu_k the upper half of the eigenvalues of the
    restricted 2|A| x 2|A| extended matrix its spectrum is every product of
    nu_k or 1 - nu_k, one factor per k.
    """
    m = len(side)
    r, k = rho[np.ix_(side, side)], kappa[np.ix_(side, side)]
    nu = np.linalg.eigvalsh(np.block([[r, k], [-k.conj(), np.eye(m) - r.conj()]]))[m:]
    spectrum = np.ones(1)
    for x in nu:
        spectrum = np.concatenate([spectrum * x, spectrum * (1.0 - x)])
    return np.sort(spectrum)[::-1]


def oracle_sector_weights(vector, n_modes: int) -> tuple[float, float]:
    """Even and odd weight sum |v_m|^2 of ``vector``, summed mask by mask by popcount."""
    weights = [0.0, 0.0]
    for m in range(2**n_modes):
        weights[slow_popcount(m) & 1] += abs(complex(vector[m])) ** 2
    return weights[0], weights[1]


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


def expectation(state, matrix: np.ndarray) -> complex:
    """<psi| M |psi> / <psi|psi> for a dense matrix M."""
    v = state.vector
    return complex(np.vdot(v, matrix @ v) / np.vdot(v, v))


def occupations_cross_check(state, part) -> float:
    """Largest cross-side contraction |rho[a, b]|, |rho[b, a]|, |kappa[a, b]|; it vanishes
    for fixed local parity."""
    blocks = one_body(state)
    return max(
        max(abs(blocks.rho[a, b]), abs(blocks.rho[b, a]), abs(blocks.kappa[a, b]))
        for a in part.side_a
        for b in part.side_b
    )


def concurrence_from_spectrum(state) -> float:
    """C = 2 sqrt(f_+ f_-) read off the extended-matrix eigenvalues."""
    values = extended_density(state).spectrum().values
    return 2.0 * math.sqrt(max(float(values[0]) * float(values[-1]), 0.0))
