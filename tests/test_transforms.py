"""Bogoliubov maps, lifts, particle-hole transforms, and normal forms."""

import time
import tracemalloc

import numpy as np
import pytest
from conftest import oracle_annihilation_matrix, oracle_quasiparticles, paired_image

from fermient import (
    FockState,
    basis_state,
    concurrence,
    inner_product,
    make_state,
    random_state,
    vacuum_state,
)
from fermient.correlations import extended_density, one_body
from fermient.errors import (
    ArgumentError,
    DimensionMismatchError,
    LiftFailureError,
    MemoryBudgetError,
    NotSymplecticError,
    NotTwoFermionError,
    OperatorPropertyError,
)
from fermient.transforms import (
    BogoliubovMap,
    compose,
    identity_map,
    lift_to_fock,
    normal_form,
    particle_hole,
    particle_hole_map,
    random_bogoliubov,
    transformed_amplitudes,
    two_fermion_schmidt,
    validate_bogoliubov,
)


def test_validate_accepts_identity_and_particle_hole():
    m = identity_map(4)
    assert np.allclose(m.U, np.eye(4))
    ph = particle_hole_map(4, {1, 3})
    assert np.allclose(ph.U, np.diag([1.0, 0.0, 1.0, 0.0]))
    assert np.allclose(ph.V, np.diag([0.0, 1.0, 0.0, 1.0]))


def test_validate_rejects_scaled_blocks():
    with pytest.raises(NotSymplecticError) as err:
        validate_bogoliubov(1.1 * np.eye(3), np.zeros((3, 3)))
    assert "residual" in str(err.value)


@pytest.mark.parametrize("block, entry", [("U", None), ("U", (1, 2)), ("V", (0, 0))])
def test_validate_rejects_nan_entries(block, entry):
    blocks = {"U": np.eye(3, dtype=complex), "V": np.zeros((3, 3), dtype=complex)}
    if entry is None:
        blocks[block][:] = np.nan
    else:
        blocks[block][entry] = np.nan
    with pytest.raises(NotSymplecticError):
        validate_bogoliubov(blocks["U"], blocks["V"])


def test_validate_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_bogoliubov(np.eye(3), np.zeros((4, 4)))


@pytest.mark.parametrize("build, message", [
    (lambda: identity_map(0), "^mode count 0 out of range 1..12$"),
    (lambda: random_bogoliubov(0, seed=1), "^mode count 0 out of range 1..12$"),
    (lambda: validate_bogoliubov(np.zeros((0, 0)), np.zeros((0, 0))), "non-empty"),
], ids=["identity_map", "random_bogoliubov", "validate_bogoliubov"])
def test_empty_maps_are_rejected(build, message):
    # the mode count is read first; blocks are checked before any residual is reduced over them
    with pytest.raises(DimensionMismatchError, match=message):
        build()


def test_particle_hole_map_rejects_non_integer_modes():
    for bad in ([1.5], ["1"], [0, 2.0]):
        with pytest.raises(ArgumentError, match="is not an integer$"):
            particle_hole_map(4, bad)
    assert np.array_equal(particle_hole_map(4, [np.int64(2)]).V, np.diag([0.0, 0.0, 1.0, 0.0]))


def test_random_map_satisfies_constraints_and_is_seeded():
    m1 = random_bogoliubov(5, seed=11)
    m2 = random_bogoliubov(5, seed=11)
    assert np.array_equal(m1.U, m2.U)
    assert np.array_equal(m1.V, m2.V)
    w = m1.w_matrix()
    assert np.max(np.abs(w.conj().T @ w - np.eye(10))) < 1e-12


def test_compose_identity_is_neutral():
    m = random_bogoliubov(4, seed=3)
    left = compose(identity_map(4), m)
    right = compose(m, identity_map(4))
    assert np.allclose(left.w_matrix(), m.w_matrix())
    assert np.allclose(right.w_matrix(), m.w_matrix())


def test_lift_of_identity_is_identity():
    op = lift_to_fock(identity_map(3), 3)
    assert np.allclose(op.matrix, np.eye(8))


def test_lift_conjugates_mode_operators():
    for seed in (0, 1, 2):
        bmap = random_bogoliubov(4, seed=seed)
        op = lift_to_fock(bmap, 4)
        a_ops = oracle_quasiparticles(bmap)
        for i in range(4):
            c = oracle_annihilation_matrix(4, i)
            assert (
                np.max(np.abs(op.matrix @ c @ op.matrix.conj().T - a_ops[i])) < 1e-9
            )


def test_lift_vacuum_phase_anchor():
    bmap = random_bogoliubov(4, seed=7)
    vac = lift_to_fock(bmap, 4).matrix[:, 0]
    anchor = np.argmax(np.abs(vac))
    assert vac[anchor].real > 0
    assert abs(vac[anchor].imag) < 1e-12


def test_lift_is_projectively_multiplicative():
    m1 = random_bogoliubov(3, seed=5)
    m2 = random_bogoliubov(3, seed=6)
    u12 = lift_to_fock(compose(m1, m2), 3).matrix
    prod = lift_to_fock(m1, 3).matrix @ lift_to_fock(m2, 3).matrix
    rel = u12.conj().T @ prod
    phases = np.diag(rel)
    assert np.max(np.abs(rel - phases[0] * np.eye(8))) < 1e-9
    assert abs(abs(phases[0]) - 1.0) < 1e-9


def test_particle_hole_on_vacuum_creates_the_mode():
    out = particle_hole(vacuum_state(4), {1})
    expect = basis_state(4, 0b0010)
    assert abs(inner_product(expect, out) - 1.0) < 1e-12
    assert out.parity == "odd"


def test_particle_hole_squares_to_a_phase(rng):
    psi = random_state(4, parity="even", rng=rng)
    back = particle_hole(particle_hole(psi, {0, 2}), {0, 2})
    assert abs(abs(inner_product(psi, back)) - 1.0) < 1e-10


def test_particle_hole_pair_maps_paired_state_to_even_vacuum_form():
    # a_plus cdag_0 cdag_2 + a_minus cdag_1 cdag_3 on the vacuum
    psi = make_state(4, {0b0101: 0.8, 0b1010: 0.6})
    out = particle_hole(psi, {1, 3})
    assert abs(out.amplitude(0b0000) - (-0.6)) < 1e-12
    assert abs(out.amplitude(0b1111) - (-0.8)) < 1e-12
    assert out.norm() == pytest.approx(1.0)


def test_particle_hole_mode0_dictionary(rng):
    psi = random_state(4, parity="odd", rng=rng)
    beta = [psi.amplitude(1 << i) for i in range(4)]
    btil = [(-1) ** i * psi.amplitude(0b1111 ^ (1 << i)) for i in range(4)]
    out = particle_hole(psi, {0})
    assert out.parity == "even"
    assert abs(out.amplitude(0b0000) - beta[0]) < 1e-10
    assert abs(out.amplitude(0b1111) - (-btil[0])) < 1e-10
    for j in (1, 2, 3):
        assert abs(out.amplitude(0b0001 | (1 << j)) - (-beta[j])) < 1e-10
    assert abs(out.amplitude(0b0110) - (-btil[3])) < 1e-10  # modes {1,2}
    assert abs(out.amplitude(0b1010) - btil[2]) < 1e-10  # modes {1,3}
    assert abs(out.amplitude(0b1100) - (-btil[1])) < 1e-10  # modes {2,3}


def test_transform_preserves_extended_spectrum(rng):
    for parity in ("even", "odd"):
        psi = random_state(4, parity=parity, rng=rng)
        before = extended_density(psi).spectrum().values
        bmap = random_bogoliubov(4, rng=rng)
        moved = lift_to_fock(bmap, 4).apply(psi)
        after = extended_density(moved).spectrum().values
        assert np.max(np.abs(before - after)) < 1e-9


def test_magic_bilinear_frame(rng):
    from fermient.transforms import _EVEN_MASKS, _magic_matrix

    m = _magic_matrix()
    # the concurrence bilinear z^T Q z pairs complementary even masks with signs
    q = np.zeros((8, 8))
    for (a, b), sign in (((3, 12), 1.0), ((5, 10), -1.0), ((9, 6), 1.0), ((0, 15), -1.0)):
        i, j = _EVEN_MASKS.index(a), _EVEN_MASKS.index(b)
        q[i, j] = q[j, i] = sign
    assert np.max(np.abs(m.conj().T @ m - np.eye(8))) < 1e-12
    assert np.max(np.abs(m.T @ q @ m - np.eye(8))) < 1e-12
    psi = random_state(4, parity="even", rng=rng)
    c = m.conj().T @ psi.vector[list(_EVEN_MASKS)]
    assert abs(c @ c) == pytest.approx(concurrence(psi), abs=1e-12)


def test_magic_matrix_is_built_once_as_before():
    from fermient.transforms import _EVEN_MASKS, _magic_matrix

    # the construction with literal signs, before they were read from the bilinear's table
    want = np.zeros((8, 8), dtype=np.complex128)
    block = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2)
    for k, ((a, b), sign) in enumerate(
        (((3, 12), 1.0), ((5, 10), -1.0), ((9, 6), 1.0), ((0, 15), -1.0))
    ):
        rows = [_EVEN_MASKS.index(a), _EVEN_MASKS.index(b)]
        want[np.ix_(rows, [2 * k, 2 * k + 1])] = np.exp(-1j * sign * np.pi / 4) * block
    m = _magic_matrix()
    assert m.tobytes() == want.tobytes()  # bit for bit, so the normal-form gauge stays put
    assert _magic_matrix() is m
    assert not m.flags.writeable


def test_normal_form_of_paired_state_keeps_amplitudes():
    psi = make_state(4, {0b0101: 0.8, 0b1010: 0.6})
    nf = normal_form(psi)
    assert nf.alpha_plus == pytest.approx(0.8, abs=1e-9)
    assert nf.alpha_minus == pytest.approx(0.6, abs=1e-9)
    assert nf.f_plus == pytest.approx(0.64, abs=1e-9)


def test_normal_form_on_slater_determinant():
    psi = basis_state(4, 0b0011)
    nf = normal_form(psi)
    assert nf.alpha_plus == pytest.approx(1.0, abs=1e-9)
    assert nf.alpha_minus == pytest.approx(0.0, abs=1e-9)


def test_normal_form_recovers_scrambled_amplitudes(rng):
    for f_plus in (0.9, 0.63, 0.5000001, 0.5):
        target = make_state(
            4, {0b0011: np.sqrt(f_plus), 0b1100: np.sqrt(1 - f_plus)}
        )
        scramble = random_bogoliubov(4, rng=rng)
        psi = lift_to_fock(scramble, 4).apply(target)
        nf = normal_form(psi)
        assert nf.alpha_plus == pytest.approx(np.sqrt(f_plus), abs=1e-8)
        assert nf.alpha_minus == pytest.approx(np.sqrt(1 - f_plus), abs=1e-8)


def test_normal_form_random_even_and_odd(rng):
    for parity in ("even", "odd"):
        for _ in range(10):
            psi = random_state(4, parity=parity, rng=rng)
            nf = normal_form(psi)
            phi = nf.transformed
            support = {mask for mask, _ in phi.nonzero_amplitudes()}
            assert support <= {0b0011, 0b1100}
            assert phi.parity == "even"
            spec = extended_density(psi).spectrum().values
            assert nf.alpha_plus**2 == pytest.approx(spec[0], abs=1e-9)


def test_normal_form_of_maximally_paired_states():
    even = make_state(4, {0b0000: 1.0, 0b1111: 1.0})
    odd = make_state(4, {0b0001: 1.0, 0b1110: 1.0})
    for psi in (even, odd):
        nf = normal_form(psi)
        assert nf.alpha_plus == pytest.approx(np.sqrt(0.5), abs=1e-8)
        assert nf.alpha_minus == pytest.approx(np.sqrt(0.5), abs=1e-8)


#: Seeds of odd maximal images whose normal-form map has a vacuum with two
#: equally large amplitudes. Unless such ties are pinned to the lowest mask,
#: rounding can move the lift's phase anchor and rotate the map's amplitudes.
_VACUUM_TIE_SEEDS = (140, 260, 302, 756)


def test_normal_form_of_maximal_bogoliubov_images():
    # C = 1: the two amplitudes are equal, so rounding must not reorder them
    cases = [(seed, ("even", "odd")[seed % 2]) for seed in range(200)]
    for seed, parity in cases + [(seed, "odd") for seed in _VACUUM_TIE_SEEDS]:
        psi = paired_image(0.5, parity, np.random.default_rng(seed))
        nf = normal_form(psi)
        assert abs(nf.alpha_plus - np.sqrt(0.5)) <= 1e-9
        assert abs(nf.alpha_minus - np.sqrt(0.5)) <= 1e-9
        phi = transformed_amplitudes(psi, nf.map)
        assert np.max(np.abs(phi - nf.transformed.vector)) <= 1e-12, seed


def test_normal_form_map_is_valid_and_pairing_fixed(rng):
    psi = random_state(4, parity="even", rng=rng)
    nf = normal_form(psi)
    w = nf.map.w_matrix()
    assert np.max(np.abs(w.conj().T @ w - np.eye(8))) < 1e-9
    assert nf.pairing["odd_local"] == ((0, 2), (1, 3))
    assert nf.pairing["even_local"] == ((0, 1), (2, 3))


def test_two_fermion_schmidt_reconstructs(rng):
    for n in (4, 6):
        masks = [m for m in range(1 << n) if bin(m).count("1") == 2]
        amps = rng.normal(size=len(masks)) + 1j * rng.normal(size=len(masks))
        psi = make_state(n, dict(zip(masks, amps)))
        form = two_fermion_schmidt(psi)
        assert abs(sum(c**2 for c in form.coefficients) - 1.0) < 1e-9
        assert form.coefficients == tuple(sorted(form.coefficients, reverse=True))
        # transformed amplitudes, via the lifted unitary, sit on the pairs
        phi = lift_to_fock(form.map, n).matrix.conj().T @ psi.vector
        for k, (i, j) in enumerate(form.pairs):
            assert abs(phi[(1 << i) | (1 << j)] - form.coefficients[k]) < 1e-8
        occ = np.sort(np.linalg.eigvalsh(one_body(psi).rho))[::-1]
        for k, c in enumerate(form.coefficients):
            assert occ[2 * k] == pytest.approx(c**2, abs=1e-9)
            assert occ[2 * k + 1] == pytest.approx(c**2, abs=1e-9)


def test_two_fermion_schmidt_on_product_determinant():
    psi = basis_state(6, 0b000011)
    form = two_fermion_schmidt(psi)
    assert form.coefficients == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    # the rotation is a signed permutation for a determinant input
    mags = np.abs(form.map.U)
    assert np.allclose(np.sort(mags, axis=0)[-1], 1.0)
    assert np.allclose(mags.sum(axis=0), 1.0)


def test_two_fermion_schmidt_rejects_other_sectors():
    with pytest.raises(NotTwoFermionError):
        two_fermion_schmidt(vacuum_state(4))
    with pytest.raises(NotTwoFermionError):
        two_fermion_schmidt(basis_state(4, 0b0001))
    with pytest.raises(NotTwoFermionError):
        two_fermion_schmidt(make_state(4, {0b0000: 1.0, 0b0011: 1.0}))


def test_lift_rejects_mismatched_size():
    with pytest.raises(DimensionMismatchError):
        lift_to_fock(identity_map(3), 4)


def test_lift_refuses_twelve_modes_before_allocating():
    bmap = identity_map(12)
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(MemoryBudgetError, match=r"needs an estimated \d+ bytes"):
        lift_to_fock(bmap, 12)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.05
    assert peak < 1 << 20


@pytest.mark.parametrize("scale", [0.0, 2.0])
def test_lift_of_an_unchecked_non_bogoliubov_map_fails(scale):
    # a_i = scale * c_i: no vacuum when scale = 0, no unitary lift when scale = 2
    bmap = BogoliubovMap(U=scale * np.eye(3, dtype=complex), V=np.zeros((3, 3), dtype=complex))
    with pytest.raises(LiftFailureError):
        lift_to_fock(bmap, 3)


def test_lift_holds_unitarity_to_tol_norm_after_its_own_checks():
    # a_0 = (1 + eps) c_0 lifts to diag(1, 1 + eps): conjugation exact, unitarity
    # defect 2 eps, inside the lift's 1e-9 but outside TOL_NORM
    eps = 2e-10
    bmap = BogoliubovMap(U=np.array([[1.0 + eps]], dtype=complex), V=np.zeros((1, 1), dtype=complex))
    with pytest.raises(OperatorPropertyError, match="matrix violates unitary property by 4.000e-10"):
        lift_to_fock(bmap, 1)
