import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermient import (
    DimensionMismatchError,
    FermionError,
    FockOperator,
    FockState,
    MixedParityError,
    ModePartition,
    NotNormalizedError,
    OperatorPropertyError,
    WrongParityError,
    ZeroNormError,
    apply_annihilation,
    apply_creation,
    apply_operator_string,
    basis_state,
    inner_product,
    make_state,
    number_parity,
    random_state,
    vacuum_state,
)
from fermient import fock
from fermient.entanglement import majorization_stack
from fermient.fock import (
    TOL_NORM,
    TOL_ZERO,
    annihilation_matrix,
    creation_matrix,
    number_matrix,
    parity_matrix,
)

from conftest import (
    expectation,
    oracle_annihilation_matrix,
    oracle_creation_matrix,
    oracle_sector_weights,
    slow_popcount,
)


def test_creation_sign_prefix_rule():
    # cdag_1 on |mode 0 occupied> crosses one occupied mode, so the sign is -1
    st = basis_state(4, 0b0001)
    out = apply_creation(st, 1)
    assert out.amplitude(0b0011) == pytest.approx(-1.0)
    assert abs(out.vector).sum() == pytest.approx(1.0)


def test_ascending_products_have_unit_sign():
    st = vacuum_state(4)
    # rightmost factor acts first, so math order cdag_0 cdag_1 cdag_2 builds {0,1,2}
    out = apply_operator_string(
        st, [("create", 0), ("create", 1), ("create", 2)]
    )
    assert out.amplitude(0b0111) == pytest.approx(1.0)

    swapped = apply_operator_string(
        st, [("create", 1), ("create", 0), ("create", 2)]
    )
    assert swapped.amplitude(0b0111) == pytest.approx(-1.0)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_operator_matrices_match_oracle(n_modes):
    for mode in range(n_modes):
        np.testing.assert_allclose(
            creation_matrix(n_modes, mode),
            oracle_creation_matrix(n_modes, mode),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            annihilation_matrix(n_modes, mode),
            oracle_annihilation_matrix(n_modes, mode),
            atol=1e-15,
        )


def test_canonical_anticommutation_relations():
    n = 4
    dim = 2**n
    eye = np.eye(dim)
    cs = [annihilation_matrix(n, i) for i in range(n)]
    cds = [creation_matrix(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            acc = cs[i] @ cds[j] + cds[j] @ cs[i]
            np.testing.assert_allclose(acc, (i == j) * eye, atol=1e-14)
            np.testing.assert_allclose(
                cs[i] @ cs[j] + cs[j] @ cs[i], np.zeros((dim, dim)), atol=1e-14
            )


def test_creation_is_adjoint_of_annihilation():
    for mode in range(3):
        np.testing.assert_allclose(
            creation_matrix(3, mode),
            annihilation_matrix(3, mode).conj().T,
            atol=1e-15,
        )


def test_number_and_parity_matrices():
    n = 3
    for mode in range(n):
        nm = creation_matrix(n, mode) @ annihilation_matrix(n, mode)
        np.testing.assert_allclose(nm, number_matrix(n, mode), atol=1e-15)
    total = sum(number_matrix(n, k) for k in range(n))
    # exp(i pi N) is diagonal because N is
    np.testing.assert_allclose(
        parity_matrix(n), np.diag(np.exp(1j * np.pi * np.diag(total))), atol=1e-12
    )


def test_parity_tags():
    assert vacuum_state(4).parity == "even"
    assert basis_state(4, 0b0101).parity == "even"
    assert basis_state(4, 0b0111).parity == "odd"
    st = make_state(4, {0b0011: 1.0, 0b1111: 1.0})
    assert st.parity == "even"


def test_mixed_parity_rejected():
    with pytest.raises(MixedParityError):
        make_state(4, {0b0001: 1.0, 0b0011: 1.0})


def test_zero_norm_rejected():
    with pytest.raises(ZeroNormError):
        make_state(4, {0: 0.0})


def test_operators_may_return_zero_state():
    doubly_created = apply_creation(basis_state(2, 0b01), 0)
    assert doubly_created.is_zero()
    annihilated = apply_annihilation(vacuum_state(3), 1)
    assert annihilated.is_zero()
    # the formal sector tag still flips
    assert annihilated.parity == "odd"


def test_make_state_validation():
    with pytest.raises(DimensionMismatchError):
        make_state(2, {7: 1.0})
    with pytest.raises(DimensionMismatchError):
        make_state(2, [1.0, 0.0])
    with pytest.raises(NotNormalizedError, match=r"^state vector norm 0\.5 is not 1"):
        make_state(2, [0.5, 0.0, 0.0, 0.0], normalize=False)


@pytest.mark.parametrize("matrix", [creation_matrix, annihilation_matrix, number_matrix])
@pytest.mark.parametrize("mode", [3, 5, -1])
def test_dense_mode_matrices_reject_a_mode_outside_the_system(matrix, mode):
    with pytest.raises(DimensionMismatchError, match=f"mode {mode} out of range"):
        matrix(3, mode)


def test_make_state_normalizes():
    st = make_state(3, {0b011: 3.0, 0b101: 4.0})
    assert st.norm() == pytest.approx(1.0)
    assert st.amplitude(0b011) == pytest.approx(0.6)
    assert st.amplitude(0b101) == pytest.approx(0.8)


def test_overlap_and_expectation():
    a = basis_state(3, 0b011)
    b = make_state(3, {0b011: 1.0, 0b110: 1.0})
    assert a.overlap(b) == pytest.approx(1 / np.sqrt(2))
    assert inner_product(a, b) == pytest.approx(1 / np.sqrt(2))
    assert expectation(b, number_matrix(3, 1)) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatchError):
        a.overlap(basis_state(2, 0b01))


def test_inner_product_conjugate_linear_first_slot():
    a = make_state(2, {0b01: 1j}, normalize=False)
    b = basis_state(2, 0b01)
    assert inner_product(a, b) == pytest.approx(-1j)


def test_opposite_parity_states_orthogonal():
    even = random_state(4, parity="even", seed=3)
    odd = random_state(4, parity="odd", seed=3)
    assert inner_product(even, odd) == pytest.approx(0.0)


def test_number_parity_values():
    assert number_parity(vacuum_state(4)) == 1
    assert number_parity(basis_state(4, 0b0010)) == -1


def test_vector_is_read_only():
    st = vacuum_state(3)
    with pytest.raises(ValueError):
        st.vector[0] = 5.0


def test_fock_operator_kind_validation():
    n = 2
    good = FockOperator(n, parity_matrix(n), kind="unitary")
    st = basis_state(n, 0b01)
    assert good.apply(st).amplitude(0b01) == pytest.approx(-1.0)
    with pytest.raises(DimensionMismatchError):
        FockOperator(n, creation_matrix(n, 0), kind="unitary")
    with pytest.raises(DimensionMismatchError):
        FockOperator(n, 1j * np.eye(4), kind="hermitian")
    FockOperator(n, np.diag([1.0, 0, 0, 1.0]).astype(complex), kind="projector")


def test_operator_preserves_parity_tag():
    flip = FockOperator(2, parity_matrix(2), kind="hermitian")
    assert flip.apply(basis_state(2, 0b11)).parity == "even"


def test_random_state_determinism_and_parity():
    a = random_state(4, parity="even", seed=7)
    b = random_state(4, parity="even", seed=7)
    np.testing.assert_array_equal(a.vector, b.vector)
    assert a.parity == "even"
    assert a.norm() == pytest.approx(1.0)

    odd = random_state(4, parity="odd", seed=7)
    masks = [m for m, _ in odd.nonzero_amplitudes()]
    assert all(bin(m).count("1") % 2 == 1 for m in masks)

    c = random_state(4, parity="even", seed=8)
    assert not np.allclose(a.vector, c.vector)


def test_nonzero_amplitudes_sorted_and_pruned():
    st = make_state(3, {0b110: 1.0, 0b011: 1.0, 0b000: 0.0})
    pairs = st.nonzero_amplitudes()
    assert [m for m, _ in pairs] == [0b011, 0b110]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_make_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NotNormalizedError, match="mask 2"):
        make_state(2, {0: 1.0, 2: bad})
    with pytest.raises(NotNormalizedError, match="mask 2"):
        make_state(2, [1.0, 0.0, bad, 0.0])


def test_make_state_rescales_amplitudes_whose_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is expected and handled, not reported
        assert np.array_equal(make_state(1, [1e200, 0]).vector, [1, 0])
        with pytest.raises(MixedParityError):
            make_state(1, [1e200, 1e200])
        state = make_state(2, {0: 3e300, 3: 4e300j})
        # without normalization the norm is read as it is, and it is not 1
        with pytest.raises(NotNormalizedError, match="norm inf"):
            make_state(1, [1e200, 0], normalize=False)
    assert np.allclose(state.vector, [0.6, 0, 0, 0.8j], rtol=0, atol=1e-15)


def test_fock_state_freezes_a_private_copy():
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    state = FockState(2, v, "even")
    assert v.flags.writeable
    v[0] = 5.0
    assert state.amplitude(0) == 1.0
    assert not state.vector.flags.writeable
    with pytest.raises(ValueError):
        state.vector[0] = 2.0


def test_fock_state_checks_shape_and_parity_tag():
    with pytest.raises(DimensionMismatchError):
        FockState(2, np.zeros(8, dtype=np.complex128), "even")
    with pytest.raises(DimensionMismatchError):
        FockState(2, np.zeros((2, 2), dtype=np.complex128), "even")
    with pytest.raises(DimensionMismatchError):
        FockState(0, np.zeros(1, dtype=np.complex128), "even")
    with pytest.raises(WrongParityError):
        FockState(2, np.zeros(4, dtype=np.complex128), "both")


def test_fock_state_tag_must_match_support():
    wrong = np.zeros(16, dtype=np.complex128)
    wrong[0b0011] = 2.0
    with pytest.raises(WrongParityError):
        FockState(4, wrong, "odd")
    leak = random_state(4, parity="odd", seed=1).vector + 1e-4 * wrong
    with pytest.raises(WrongParityError):
        FockState(4, leak, "odd")
    # the zero vector is accepted under either tag, as mode operators may return it
    for parity in ("even", "odd"):
        assert FockState(4, np.zeros(16), parity).is_zero()
    assert apply_annihilation(basis_state(4, 0b0011), 2).is_zero()


def test_operator_check_rejects_non_finite_matrix():
    bad = np.eye(4, dtype=np.complex128)
    bad[1, 1] = np.nan
    for kind in ("unitary", "hermitian", "projector"):
        with pytest.raises(DimensionMismatchError):
            FockOperator(2, bad.copy(), kind=kind)


@pytest.mark.parametrize(
    "kind, matrix",
    [
        ("unitary", creation_matrix(2, 0)),
        ("hermitian", 1j * np.eye(4)),
        ("projector", 2.0 * np.eye(4, dtype=np.complex128)),
        ("unitary", np.diag([1.0, np.nan, 1.0, 1.0]).astype(np.complex128)),
    ],
)
def test_failed_property_check_raises_operator_property_error(kind, matrix):
    with pytest.raises(OperatorPropertyError, match=f"violates {kind} property"):
        FockOperator(2, matrix, kind=kind)
    # a wrong shape is still a plain dimension error
    with pytest.raises(DimensionMismatchError) as info:
        FockOperator(3, matrix, kind=kind)
    assert not isinstance(info.value, OperatorPropertyError)


def test_fock_operator_keeps_a_private_complex_copy():
    m = np.eye(2)
    op = FockOperator(1, m, "unitary")
    m[0, 0] = 2.0  # the caller's array stays writable
    assert op.matrix[0, 0] == 1.0
    assert op.matrix.dtype == np.complex128 and not op.matrix.flags.writeable
    flip = FockOperator(1, [[0, 1], [1, 0]], "hermitian")
    assert np.array_equal(flip.matrix, np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("bad", [[[1, 0], [0]], [[1, 0, 0]], "eye", None])
def test_fock_operator_rejects_input_that_is_no_square_matrix(bad):
    with pytest.raises(DimensionMismatchError):
        FockOperator(1, bad, "unitary")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_fock_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NotNormalizedError):
        FockState(1, [bad, 0.0], "even")
    with pytest.raises(NotNormalizedError):
        FockState(2, [0.0, bad, 1.0, 0.0], "odd")


# ---------------------------------------------------------------------------
# the one weigh per state
# ---------------------------------------------------------------------------

@functools.cache
def _identity(n_modes):
    return FockOperator(n_modes, np.eye(2**n_modes), "unitary")


_STATE = random_state(4, parity="odd", seed=3)
_CHUNK = np.stack([random_state(4, "even", seed=s).vector for s in range(3)])
_PARTS = [ModePartition(4, (0, 1), (2, 3)), ModePartition(4, (0, 2), (1, 3))]


@pytest.mark.parametrize(
    "build",
    [
        lambda: FockState(4, _STATE.vector, "odd"),
        lambda: make_state(4, _STATE.vector),
        lambda: basis_state(4, 0b0111),
        lambda: _identity(4).apply(_STATE),
        lambda: apply_creation(_STATE, 0),
        lambda: random_state(4, seed=5),
        lambda: majorization_stack(_CHUNK, _PARTS, first=0),
    ],
    ids=["FockState", "make_state", "basis_state", "apply", "apply_creation", "random_state",
         "majorization_stack"],
)
def test_each_state_and_each_stack_is_weighed_once(build, monkeypatch):
    calls = []
    original = fock._sector_weights

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    bindings = [
        (mod, attr) for key, mod in list(sys.modules.items())
        if mod is not None and key.startswith("fermient")
        for attr, value in list(vars(mod).items()) if value is original
    ]
    assert len(bindings) >= 2  # fock's own and entanglement's import
    for mod, attr in bindings:
        monkeypatch.setattr(mod, attr, counted)
    build()
    assert len(calls) == 1


@st.composite
def _weighed_vectors(draw):
    """(n, vector, tag): odd share 0, 1/2, 1, or TOL_NORM-sized on either side, any scale;
    or the zero vector, or a NaN entry."""
    n = draw(st.integers(1, 8))
    tag = draw(st.sampled_from(["even", "odd"]))
    kind = draw(st.sampled_from(["drawn", "drawn", "drawn", "zero", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vector = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if kind == "zero":
        return n, np.zeros(2**n, dtype=complex), tag
    if kind == "nan":
        vector[draw(st.integers(0, 2**n - 1))] = np.nan
        return n, vector, tag
    near = st.floats(0.1, 10.0).filter(lambda f: abs(f - 1.0) > 1e-3).map(lambda f: TOL_NORM * f)
    small = draw(st.sampled_from([0.0, 0.5]) | near)
    odd_share = draw(st.sampled_from([small, 1.0 - small]))
    odd = np.array([slow_popcount(m) & 1 for m in range(2**n)], dtype=bool)
    vector[odd] *= math.sqrt(odd_share) / np.linalg.norm(vector[odd])
    vector[~odd] *= math.sqrt(1.0 - odd_share) / np.linalg.norm(vector[~odd])
    return n, vector * 10.0 ** draw(st.floats(-7.0, 3.0)), tag


def _outcome(build):
    """The parity tag ``build()`` returns, or the class of the FermionError it raises."""
    try:
        return build().parity
    except FermionError as exc:
        return type(exc)


@given(_weighed_vectors())
@settings(max_examples=150)
def test_state_checks_match_a_popcount_weigh(case):
    n, vector, tag = case
    w_even, w_odd = oracle_sector_weights(vector, n)
    total = w_even + w_odd
    limit = TOL_NORM * total
    # FockState: finite total, at most TOL_NORM of it outside the tagged sector
    if not math.isfinite(total):
        expected_state = NotNormalizedError
    else:
        expected_state = WrongParityError if (w_odd if tag == "even" else w_even) > limit else tag
    # make_state and apply: the parity rule
    if not math.isfinite(total):
        expected_rule = NotNormalizedError
    elif total <= TOL_ZERO**2:
        expected_rule = ZeroNormError
    elif w_even > limit and w_odd > limit:
        expected_rule = MixedParityError
    else:
        expected_rule = "odd" if w_odd > limit else "even"
    assert _outcome(lambda: FockState(n, vector, tag)) == expected_state
    assert _outcome(lambda: make_state(n, vector)) == expected_rule
    if expected_state == tag:
        state = FockState(n, vector, tag)
        assert _outcome(lambda: _identity(n).apply(state)) == expected_rule
