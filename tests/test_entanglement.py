"""Reduced states, bipartite entropies, concurrence, and parity splits."""

import numpy as np
import pytest

from fermient import basis_state, make_state, random_state, vacuum_state
from fermient.correlations import (
    extended_density,
    matrix_entropy,
    one_body,
    qsp_entropy,
    quadratic_term,
    sp_entropy,
    von_neumann_term,
)
from fermient.entanglement import (
    ModePartition,
    ReducedDensity,
    bipartite_entropy,
    concurrence,
    concurrence_even,
    concurrence_odd,
    local_parity_split,
    majorization_check,
    majorization_stack,
    reduced_state,
    schmidt_concurrence,
)
from fermient.errors import (
    ArgumentError,
    DimensionMismatchError,
    FermionError,
    NotHermitianError,
    NotNormalizedError,
    SideMismatchError,
    WrongParityError,
    WrongShapeError,
)
from fermient.fock import FockState
from fermient.protocols import run_teleportation
from fermient.transforms import (
    lift_to_fock,
    normal_form,
    particle_hole,
    random_bogoliubov,
    two_fermion_schmidt,
    validate_bogoliubov,
)

from conftest import concurrence_from_spectrum, occupations_cross_check, oracle_reduced


PSI_00 = {0b0101: 0.5, 0b1010: 0.5, 0b0000: 0.5, 0b1111: 0.5}
PSI_00_PRIME = {0b0101: 0.5, 0b1010: 0.5, 0b0000: 0.5, 0b1111: -0.5}


def test_partition_validation():
    part = ModePartition(4, (0, 1))
    assert part.side_b == (2, 3)
    with pytest.raises(SideMismatchError):
        ModePartition(4, (0, 1), (1, 2, 3))
    with pytest.raises(SideMismatchError):
        ModePartition(4, (0, 1), (2,))
    with pytest.raises(SideMismatchError):
        ModePartition(4, ())
    with pytest.raises(SideMismatchError):
        ModePartition(4, (0, 1, 2, 3))


@pytest.mark.parametrize("side_a, side_b", [
    ((0.9,), None), (("1",), None), ((0,), (1, 2.0, 3)), ((0, 1), (2, 3.5)),
])
def test_partition_rejects_non_integer_modes(side_a, side_b):
    # int() would truncate 0.9 to mode 0 and answer for another split
    with pytest.raises(ArgumentError, match="is not an integer$"):
        ModePartition(4, side_a, side_b)
    part = ModePartition(4, (np.int64(1), np.uint8(3)), [np.int32(0), 2])
    assert (part.side_a, part.side_b) == ((1, 3), (0, 2))
    assert all(type(m) is int for m in part.side_a + part.side_b)


@pytest.mark.parametrize("n_modes", [4.0, "4", None])
def test_partition_rejects_a_non_integer_mode_count(n_modes):
    with pytest.raises(ArgumentError, match="is not an integer$"):
        ModePartition(n_modes, (0,))
    assert ModePartition(np.int64(4), (0,)).n_modes == 4


def test_majorization_check_names_no_sample():
    # a stack of one, like bipartition: its errors carry no sample suffix
    state = FockState(4, 1.1 * make_state(4, PSI_00).vector, "even")
    with pytest.raises(FermionError, match="^reduced matrix trace differs from 1$"):
        majorization_check(state, ModePartition(4, (0, 1)))


def test_reduced_density_leaves_hermiticity_to_linalg():
    with pytest.raises(NotHermitianError, match="^hermiticity defect"):
        ReducedDensity((0,), "a", np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))


def test_reduced_density_takes_a_private_complex_copy():
    given = [[1.0, 0.0], [0.0, 0.0]]
    rho = ReducedDensity((0,), "a", given)
    assert rho.matrix.dtype == np.complex128 and not rho.matrix.flags.writeable
    assert np.array_equal(rho.spectrum(), [1.0, 0.0])
    # the caller's array stays the caller's
    own = np.array(given)
    rho = ReducedDensity((0,), "a", own)
    assert own.flags.writeable and rho.matrix is not own
    own[0, 0] = 0.5
    assert rho.matrix[0, 0] == 1.0


def test_reduced_trace_counts_the_weight_outside_the_tagged_sector():
    # norm 1 - 0.9e-10 with an outside share of 0.9e-10: each passes the state's rules, and the
    # sector's own weight alone would miss the unit-trace rule
    rng = np.random.default_rng(5)
    even = random_state(4, "even", rng=rng).vector
    odd = random_state(4, "odd", rng=rng).vector
    vector = (1.0 - 0.9e-10) * (np.sqrt(1.0 - 0.9e-10) * even + np.sqrt(0.9e-10) * odd)
    state = FockState(4, vector, "even")
    one_body(state)
    part = ModePartition(4, (0, 2))
    for side in ("a", "b"):
        assert np.sum(reduced_state(state, part, side).spectrum()) == pytest.approx(1.0, abs=1e-9)
    assert bipartite_entropy(state, part) >= 0.0
    majorization_check(state, part)
    majorization_stack(np.stack([vector, even]), [part, ModePartition(4, (1,))])


def test_derived_weights_follow_the_unit_norm_rule():
    # norm error 8.0e-11: the unit-norm rule accepts it, though the squared norm misses 1 by 1.6e-10
    vector = np.zeros(16, dtype=complex)
    vector[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.5 * (1.0 + 0.8e-10)
    state = FockState(4, vector, "even")
    assert abs(state.norm() - 1.0) == pytest.approx(8.0e-11, rel=1e-6)
    part = ModePartition(4, (0, 1))
    concurrence(state)
    one_body(state)
    # the reduced trace, p_- + p_+ and alpha_+^2 + alpha_-^2 are squared norms
    split = local_parity_split(state, part)
    assert split.p_minus + split.p_plus == pytest.approx(1.0, abs=1e-9)
    assert np.sum(reduced_state(state, part).spectrum()) == pytest.approx(1.0, abs=1e-9)
    assert bipartite_entropy(state, part) == pytest.approx(2.0, abs=1e-9)
    assert majorization_check(state, part)["holds"]
    form = normal_form(state)
    assert form.alpha_plus**2 + form.alpha_minus**2 == pytest.approx(1.0, abs=1e-9)
    # coefficients given directly: squared weights, under the same rule
    scale = 1.0 + 0.8e-10
    assert schmidt_concurrence(*[0.5 * scale] * 4) == 1.0
    run_teleportation((0.6 * scale, 0.8j * scale), "odd")
    # scaled by 1.1, both stay rejected
    with pytest.raises(NotNormalizedError, match="^coefficient norm "):
        schmidt_concurrence(*[0.55] * 4)
    with pytest.raises(NotNormalizedError, match=r"^\|alpha\|\^2 \+ \|beta\|\^2 = "):
        run_teleportation((0.66, 0.88j), "odd")


def test_reduced_state_matches_sign_oracle(rng):
    for side_a in [(0, 1), (0, 2), (1, 3), (2,), (0, 2, 3)]:
        part = ModePartition(4, side_a)
        for parity in ("even", "odd", None):
            psi = random_state(4, parity=parity, rng=rng)
            got = reduced_state(psi, part, "a")
            assert np.max(np.abs(got.matrix - oracle_reduced(psi, part))) < 1e-12
            assert got.modes == part.side_a


def test_reduced_sides_share_spectrum(rng):
    psi = random_state(4, rng=rng)
    part = ModePartition(4, (0, 3))
    sa = reduced_state(psi, part, "a").spectrum()
    sb = reduced_state(psi, part, "b").spectrum()
    assert np.max(np.abs(sa - sb)) < 1e-10


def test_reduced_state_reproduces_local_expectations(rng):
    # <n_0> from the full state equals Tr rho_A n_0 on side A = (0, 1)
    psi = random_state(4, rng=rng)
    part = ModePartition(4, (0, 1))
    rho_a = reduced_state(psi, part, "a").matrix
    n0_local = np.diag([mask & 1 for mask in range(4)]).astype(complex)
    occ = one_body(psi).rho[0, 0]
    assert abs(np.trace(rho_a @ n0_local) - occ) < 1e-10


def test_maximally_entangled_pair_state():
    psi = make_state(4, PSI_00)
    part = ModePartition(4, (0, 1))
    rho_a = reduced_state(psi, part, "a")
    assert np.max(np.abs(rho_a.matrix - np.eye(4) / 4)) < 1e-12
    assert bipartite_entropy(psi, part) == pytest.approx(2.0, abs=1e-12)


def test_product_determinant_is_pure_on_both_sides():
    psi = basis_state(4, 0b0011)
    part = ModePartition(4, (0, 1))
    assert bipartite_entropy(psi, part) == pytest.approx(0.0, abs=1e-12)
    assert reduced_state(psi, part, "b").spectrum()[0] == pytest.approx(1.0)


def test_shared_single_fermion_site_split():
    psi = make_state(4, {0b0001: 1.0, 0b0100: 1.0})
    part = ModePartition(4, (0, 1))
    spectrum = reduced_state(psi, part, "a").spectrum()
    assert spectrum[0] == pytest.approx(0.5, abs=1e-10)
    assert spectrum[1] == pytest.approx(0.5, abs=1e-10)
    assert bipartite_entropy(psi, part) == pytest.approx(1.0, abs=1e-10)
    assert sp_entropy(psi) == pytest.approx(0.0, abs=1e-10)


def test_bipartite_entropy_rejects_bad_side_label(rng):
    psi = random_state(4, rng=rng)
    with pytest.raises(SideMismatchError):
        reduced_state(psi, ModePartition(4, (0, 1)), "c")


def test_two_fermion_pair_entropy_relation():
    s1, s2 = np.sqrt(0.7), np.sqrt(0.3)
    psi = make_state(4, {0b0011: s1, 0b1100: s2})
    part = ModePartition(4, (0, 2))
    e = bipartite_entropy(psi, part, von_neumann_term)
    assert e == pytest.approx(matrix_entropy(one_body(psi).rho, von_neumann_term) / 2, abs=1e-10)
    for fn in (von_neumann_term, quadratic_term):
        e = bipartite_entropy(psi, part, fn)
        assert e == pytest.approx(qsp_entropy(psi, fn) / 4, abs=1e-10)


def test_concurrence_even_examples(rng):
    bell = make_state(4, {0b0011: 1.0, 0b1100: 1.0})
    assert concurrence_even(bell) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_even(basis_state(4, 0b0101)) == 0.0
    assert concurrence_even(vacuum_state(4)) == 0.0
    psi = random_state(4, parity="even", rng=rng)
    assert concurrence_even(psi) == pytest.approx(
        concurrence_from_spectrum(psi), abs=1e-9
    )
    with pytest.raises(WrongParityError):
        concurrence_even(basis_state(4, 0b0001))


def test_concurrence_odd_examples(rng):
    assert concurrence_odd(basis_state(4, 0b0001)) == 0.0
    paired = make_state(4, {0b0001: 1.0, 0b1110: 1.0})
    assert concurrence_odd(paired) == pytest.approx(1.0, abs=1e-12)
    psi = random_state(4, parity="odd", rng=rng)
    assert concurrence_odd(psi) == pytest.approx(
        concurrence_even(particle_hole(psi, {0})), abs=1e-10
    )
    assert concurrence(psi) == concurrence_odd(psi)
    with pytest.raises(WrongParityError):
        concurrence_odd(vacuum_state(4))


@pytest.mark.parametrize("fn, wrong", [
    (concurrence_even, "odd"), (concurrence_odd, "even"), (concurrence, None)
])
def test_concurrence_checks_modes_then_norm_then_parity(fn, wrong):
    parity = wrong or "even"
    half = FockState(4, 0.5 * random_state(4, parity=parity, seed=2).vector, parity)
    wide = FockState(6, 0.5 * random_state(6, parity=parity, seed=2).vector, parity)
    with pytest.raises(DimensionMismatchError, match="^concurrence formulas are defined for 4"):
        fn(wide)
    with pytest.raises(NotNormalizedError, match=r"^state norm 0\.5"):
        fn(half)
    if wrong is not None:
        other = "even" if wrong == "odd" else "odd"
        with pytest.raises(WrongParityError, match=f"^state is not {other}-parity$"):
            fn(random_state(4, parity=wrong, seed=2))


def test_concurrence_invariant_under_global_maps(rng):
    psi = random_state(4, parity="even", rng=rng)
    c0 = concurrence(psi)
    moved = lift_to_fock(random_bogoliubov(4, rng=rng), 4).apply(psi)
    assert concurrence(moved) == pytest.approx(c0, abs=1e-9)


def test_local_parity_split_on_pair_states():
    psi = make_state(4, PSI_00)
    split = local_parity_split(psi, ModePartition(4, (0, 1)))
    assert split.p_minus == pytest.approx(0.5, abs=1e-12)
    assert split.p_plus == pytest.approx(0.5, abs=1e-12)
    assert split.c_minus == pytest.approx(1.0, abs=1e-12)
    assert split.c_plus == pytest.approx(1.0, abs=1e-12)
    assert split.concurrence() == pytest.approx(1.0, abs=1e-12)
    assert concurrence_even(psi) == pytest.approx(1.0, abs=1e-12)


def test_local_parity_split_detects_zero_concurrence_mixture():
    psi = make_state(4, PSI_00_PRIME)
    split = local_parity_split(psi, ModePartition(4, (0, 1)))
    assert split.c_minus == pytest.approx(1.0, abs=1e-12)
    assert split.c_plus == pytest.approx(1.0, abs=1e-12)
    assert split.concurrence() == pytest.approx(0.0, abs=1e-12)
    assert concurrence_even(psi) == pytest.approx(0.0, abs=1e-12)


def test_local_parity_split_pure_odd_sector(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = make_state(
        4, dict(zip([0b0101, 0b1001, 0b0110, 0b1010], amps))
    )
    split = local_parity_split(psi, ModePartition(4, (0, 1)))
    assert split.p_plus == pytest.approx(0.0, abs=1e-12)
    assert split.concurrence() == pytest.approx(split.c_minus, abs=1e-10)


def test_local_parity_split_guards():
    psi = make_state(4, PSI_00)
    with pytest.raises(WrongShapeError):
        local_parity_split(psi, ModePartition(4, (0,)))
    with pytest.raises(WrongParityError):
        local_parity_split(basis_state(4, 0b0001), ModePartition(4, (0, 1)))


@pytest.mark.parametrize("scale", [0.5, 0.0])
def test_local_parity_split_rejects_unnormalized_states(scale):
    unit = make_state(4, PSI_00)
    scaled = FockState(4, scale * unit.vector, "even")
    # the norm is named before the parity or the partition shape is looked at
    for side in ((0, 1), (0,)):
        with pytest.raises(NotNormalizedError, match=r"^state norm (\S+) is not 1") as info:
            local_parity_split(scaled, ModePartition(4, side))
        assert float(info.value.args[0].split()[2]) == pytest.approx(scale, abs=1e-12)


def test_entropy_decomposition_over_local_parity(rng):
    for _ in range(5):
        psi = random_state(4, parity="even", rng=rng)
        part = ModePartition(4, (0, 2))
        split = local_parity_split(psi, part)
        s_total = bipartite_entropy(psi, part, von_neumann_term)
        s_minus = matrix_entropy(
            split.beta @ split.beta.conj().T / split.p_minus, von_neumann_term
        )
        s_plus = matrix_entropy(
            split.beta_tilde @ split.beta_tilde.conj().T / split.p_plus,
            von_neumann_term,
        )
        mixing = -split.p_minus * np.log2(split.p_minus) - split.p_plus * np.log2(
            split.p_plus
        )
        assert s_total == pytest.approx(
            split.p_minus * s_minus + split.p_plus * s_plus + mixing, abs=1e-9
        )


def test_sandwich_inequality_random(rng):
    for _ in range(50):
        psi = random_state(4, parity="even", rng=rng)
        split = local_parity_split(psi, ModePartition(4, (0, 1)))
        total = concurrence_even(psi)
        low = abs(split.p_minus * split.c_minus - split.p_plus * split.c_plus)
        high = split.p_minus * split.c_minus + split.p_plus * split.c_plus
        assert low - 1e-9 <= total <= high + 1e-9


def test_fixed_local_parity_blocks_cross_contractions(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = make_state(4, dict(zip([0b0101, 0b1001, 0b0110, 0b1010], amps)))
    assert occupations_cross_check(psi, ModePartition(4, (0, 1))) < 1e-10


def test_majorization_report(rng):
    for side_a in [(0, 1), (0, 2), (0, 3), (0,), (1,), (0, 1, 2)]:
        part = ModePartition(4, side_a)
        for parity in ("even", "odd"):
            psi = random_state(4, parity=parity, rng=rng)
            report = majorization_check(psi, part)
            assert report["holds"]
            assert report["lambda_max"] <= report["f_plus"] + 1e-9
            for entry in report["entropies"].values():
                assert entry["value"] >= entry["bound"] - 1e-9


def test_majorization_equality_on_normal_form_partition():
    psi = make_state(4, {0b0011: np.sqrt(0.8), 0b1100: np.sqrt(0.2)})
    report = majorization_check(psi, ModePartition(4, (0, 2)))
    assert report["lambda_max"] == pytest.approx(0.8, abs=1e-10)
    assert report["f_plus"] == pytest.approx(0.8, abs=1e-10)
    spectrum = reduced_state(psi, ModePartition(4, (0, 2)), "a").spectrum()
    assert spectrum[1] == pytest.approx(0.2, abs=1e-10)


def test_majorization_one_three_marginal(rng):
    psi = random_state(4, parity="even", rng=rng)
    occ = one_body(psi).rho[1, 1].real
    report = majorization_check(psi, ModePartition(4, (1,)))
    assert report["lambda_max"] == pytest.approx(max(occ, 1 - occ), abs=1e-10)


def test_entropy_range_two_two(rng):
    for _ in range(20):
        psi = random_state(4, rng=rng)
        s = bipartite_entropy(psi, ModePartition(4, (0, 1)))
        assert -1e-12 <= s <= 2.0 + 1e-9


def test_local_unitary_invariance(rng):
    psi = random_state(4, parity="even", rng=rng)
    part = ModePartition(4, (0, 1))
    small = random_bogoliubov(2, rng=rng)
    for target in ((0, 1), (2, 3)):
        u = np.eye(4, dtype=complex)
        v = np.zeros((4, 4), dtype=complex)
        u[np.ix_(target, target)] = small.U
        v[np.ix_(target, target)] = small.V
        moved = lift_to_fock(validate_bogoliubov(u, v), 4).apply(psi)
        for fn in (von_neumann_term, quadratic_term):
            assert bipartite_entropy(moved, part, fn) == pytest.approx(
                bipartite_entropy(psi, part, fn), abs=1e-9
            )


def test_schmidt_concurrence_examples(rng):
    r = 1 / np.sqrt(2)
    assert schmidt_concurrence(r, r, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert schmidt_concurrence(0.5, 0.5, 0.5, -0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NotNormalizedError):
        schmidt_concurrence(1.0, 1.0, 0.0, 0.0)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    b1, b2, bt1, bt2 = raw
    assembled = make_state(
        4, {0b0101: b1, 0b1010: b2, 0b0000: bt1, 0b1111: bt2}, normalize=False
    )
    assert schmidt_concurrence(b1, b2, bt1, bt2) == pytest.approx(
        concurrence_even(assembled), abs=1e-12
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_schmidt_concurrence_rejects_non_finite_coefficients(bad):
    with pytest.raises(NotNormalizedError, match="^coefficient norm"):
        schmidt_concurrence(bad, 0.0, 0.0, 0.0)


_UNIT_NORM_FUNCTIONS = {
    "one_body": one_body,
    "extended_density": extended_density,
    "sp_entropy": sp_entropy,
    "qsp_entropy": qsp_entropy,
    "concurrence": concurrence,
    "normal_form": normal_form,
    "two_fermion_schmidt": two_fermion_schmidt,
}


@pytest.mark.parametrize("name, parity", [
    (name, parity)
    for name in _UNIT_NORM_FUNCTIONS
    for parity in ("even", "odd")
    if parity == "even" or name != "two_fermion_schmidt"
])
@pytest.mark.parametrize("scale", [0.5, 0.0])
def test_unnormalized_states_are_rejected(name, parity, scale):
    # FockState accepts any norm (apply_annihilation may return zero); these must not
    if name == "two_fermion_schmidt":
        unit = make_state(4, {0b0011: 0.8, 0b1100: 0.6})
    else:
        unit = random_state(4, parity=parity, seed=8)
    fn = _UNIT_NORM_FUNCTIONS[name]
    fn(unit)
    scaled = FockState(4, scale * unit.vector, parity)
    with pytest.raises(NotNormalizedError, match=r"^state norm (\S+) is not 1") as info:
        fn(scaled)
    assert float(info.value.args[0].split()[2]) == pytest.approx(scale, abs=1e-12)
