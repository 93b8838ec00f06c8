import tracemalloc

import numpy as np
import pytest

from fermient import basis_state, make_state, random_state, vacuum_state
from fermient.correlations import (
    binary_entropy,
    concurrence_from_spectrum,
    extended_density,
    matrix_entropy,
    one_body,
    qsp_entropy,
    quadratic_term,
    sp_entropy,
    spectrum_entropy,
    von_neumann_term,
)

from conftest import oracle_annihilation_matrix, oracle_creation_matrix


def oracle_blocks(state):
    """rho and kappa via dense operator matrices, no library shortcuts."""
    n = state.n_modes
    v = state.vector
    cs = [oracle_annihilation_matrix(n, i) for i in range(n)]
    cds = [oracle_creation_matrix(n, i) for i in range(n)]
    rho = np.zeros((n, n), dtype=complex)
    kappa = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            rho[i, j] = v.conj() @ cds[j] @ cs[i] @ v
            kappa[i, j] = v.conj() @ cs[j] @ cs[i] @ v
    return rho, kappa


def test_one_body_at_twelve_modes_stays_within_its_memory_budget():
    # the kernel holds two (12, 2048) complex buffers of the opposite sector; a full-space
    # gather over all 4096 masks peaked at 2.3 MB
    state = random_state(12, parity="odd", seed=12)
    one_body(state)  # builds the per-n tables outside the measurement
    tracemalloc.start()
    one_body(state)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5e6


def bell_type_state():
    return make_state(4, {0b0011: 1.0, 0b1100: 1.0})


def test_sd_occupations():
    ob = one_body(basis_state(4, 0b0011))
    np.testing.assert_allclose(ob.rho, np.diag([1, 1, 0, 0]), atol=1e-14)
    np.testing.assert_allclose(ob.kappa, 0, atol=1e-14)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_blocks_match_dense_oracle(parity, rng):
    for _ in range(20):
        st = random_state(4, parity=parity, rng=rng)
        rho, kappa = oracle_blocks(st)
        ob = one_body(st)
        np.testing.assert_allclose(ob.rho, rho, atol=1e-12)
        np.testing.assert_allclose(ob.kappa, kappa, atol=1e-12)


def test_two_fermion_rho_is_alpha_alpha_dagger(rng):
    # even state with no vacuum/full component: rho = alpha alpha^dagger
    two_masks = [m for m in range(16) if bin(m).count("1") == 2]
    amps = {m: complex(rng.normal(), rng.normal()) for m in two_masks}
    st = make_state(4, amps)
    alpha = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            a = st.amplitude((1 << i) | (1 << j))
            alpha[i, j] = a
            alpha[j, i] = -a
    ob = one_body(st)
    np.testing.assert_allclose(ob.rho, alpha @ alpha.conj().T, atol=1e-12)
    np.testing.assert_allclose(ob.kappa, 0, atol=1e-12)


def test_general_even_state_identities(rng):
    # rho = alpha alpha^dag + |a4|^2, kappa = conj(a0) alpha + a4 conj(alpha-dual)
    st = random_state(4, parity="even", rng=rng)
    a0 = st.amplitude(0)
    a4 = st.amplitude(0b1111)
    alpha = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            a = st.amplitude((1 << i) | (1 << j))
            alpha[i, j] = a
            alpha[j, i] = -a
    eps = np.zeros((4, 4, 4, 4))
    for p in range(4):
        for q in range(4):
            for r in range(4):
                for s in range(4):
                    perm = [p, q, r, s]
                    if sorted(perm) == [0, 1, 2, 3]:
                        sign = 1
                        arr = perm[:]
                        for x in range(4):
                            for y in range(x + 1, 4):
                                if arr[x] > arr[y]:
                                    sign = -sign
                        eps[p, q, r, s] = sign
    dual = 0.5 * np.einsum("ijkl,kl->ij", eps, alpha)
    ob = one_body(st)
    np.testing.assert_allclose(
        ob.rho, alpha @ alpha.conj().T + abs(a4) ** 2 * np.eye(4), atol=1e-12
    )
    np.testing.assert_allclose(
        ob.kappa, np.conj(a0) * alpha + a4 * dual.conj(), atol=1e-12
    )


def test_extended_matrix_block_layout(rng):
    st = random_state(4, parity="odd", rng=rng)
    ob = one_body(st)
    m = extended_density(st).m
    np.testing.assert_allclose(m[:4, :4], ob.rho, atol=1e-13)
    np.testing.assert_allclose(m[:4, 4:], ob.kappa, atol=1e-13)
    np.testing.assert_allclose(m[4:, :4], -ob.kappa.conj(), atol=1e-13)
    np.testing.assert_allclose(m[4:, 4:], np.eye(4) - ob.rho.conj(), atol=1e-13)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_vacuum_extended_spectrum():
    values = extended_density(vacuum_state(4)).spectrum().values
    np.testing.assert_allclose(values, [1, 1, 1, 1, 0, 0, 0, 0], atol=1e-12)


def test_particle_hole_symmetric_spectrum(rng):
    for parity in ("even", "odd"):
        st = random_state(4, parity=parity, rng=rng)
        values = extended_density(st).spectrum().values
        np.testing.assert_allclose(values, (1 - values)[::-1], atol=1e-9)


def test_fourfold_degeneracy(rng):
    for _ in range(10):
        st = random_state(4, parity="even", rng=rng)
        values = extended_density(st).spectrum().values
        assert np.ptp(values[:4]) < 1e-8
        assert np.ptp(values[4:]) < 1e-8


def test_bell_type_spectrum_and_concurrence():
    st = bell_type_state()
    values = extended_density(st).spectrum().values
    np.testing.assert_allclose(values, [0.5] * 8, atol=1e-12)
    assert concurrence_from_spectrum(st) == pytest.approx(1.0)


def test_entropy_kernels():
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.0) == 0.0
    assert von_neumann_term(0.5) == pytest.approx(0.5)
    assert quadratic_term(0.5) == pytest.approx(0.5)
    assert von_neumann_term(-1e-15) == 0.0
    assert spectrum_entropy([0.5, 0.5]) == pytest.approx(1.0)


def test_spectrum_entropy_accepts_scalar_only_callables():
    def step(p):
        return 1.0 if p > 0.25 else 0.0  # truth test of an array would raise

    assert spectrum_entropy([0.1, 0.5, 0.9], step) == 2.0
    assert spectrum_entropy(np.array([0.5, 0.5])) == 1.0


def test_sp_entropy_values():
    assert sp_entropy(basis_state(4, 0b0101)) == pytest.approx(0.0, abs=1e-12)
    st = bell_type_state()
    # occupation spectrum is (1/2, 1/2, 1/2, 1/2): sum of binary entropies
    assert sp_entropy(st) == pytest.approx(4.0, abs=1e-12)
    # the trace-form von Neumann entropy of the same matrix is half that
    assert matrix_entropy(one_body(st).rho) == pytest.approx(2.0, abs=1e-12)


def test_split_single_fermion_sp_entropy_zero():
    st = make_state(4, {0b0001: 1.0, 0b0100: 1.0})
    assert sp_entropy(st) == pytest.approx(0.0, abs=1e-10)


def test_qsp_entropy_values():
    assert qsp_entropy(vacuum_state(4)) == pytest.approx(0.0, abs=1e-12)
    assert qsp_entropy(bell_type_state()) == pytest.approx(4.0, abs=1e-12)
    assert qsp_entropy(bell_type_state(), quadratic_term) == pytest.approx(
        8 * 0.5, abs=1e-12
    )


def test_qsp_below_sp_with_equality_iff_no_pairing(rng):
    for _ in range(10):
        st = random_state(4, parity="even", rng=rng)
        s_sp = sp_entropy(st)
        s_qsp = qsp_entropy(st)
        assert s_qsp <= s_sp + 1e-9
    # a fixed-number state has kappa = 0, so the two agree
    two_masks = [m for m in range(16) if bin(m).count("1") == 2]
    st = make_state(4, {m: complex(rng.normal(), rng.normal()) for m in two_masks})
    assert qsp_entropy(st) == pytest.approx(sp_entropy(st), abs=1e-9)
