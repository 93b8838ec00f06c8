"""Property tests for the eigensolver, the fermionic partial trace, the Lemma-2
batch, the concurrence bilinear, the Bogoliubov lift, the normal form, the entropy
kernels and the gates."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermient import (
    FermionError,
    FockState,
    MixedParityError,
    ModePartition,
    NotHermitianError,
    OperatorPropertyError,
    SideMismatchError,
    basis_state,
    cli,
    compose,
    concurrence,
    entanglement,
    fock,
    identity_map,
    lift_to_fock,
    local_parity_split,
    make_state,
    particle_hole,
    particle_hole_map,
    random_bogoliubov,
    random_state,
    transforms,
    transformed_amplitudes,
    validate_bogoliubov,
)
from fermient.correlations import (
    binary_entropy,
    one_body,
    qsp_entropy,
    quadratic_term,
    sp_entropy,
    von_neumann_term,
)
from fermient.entanglement import (
    LEMMA_TOL,
    bipartite_entropy,
    majorization_check,
    majorization_stack,
    reduced_state,
)
from fermient.fock import TOL_NORM, TOL_ZERO, FockOperator, number_matrix
from fermient.io import load_state
from fermient.linalg import hermitian_eigensystem
from fermient.protocols import (
    QubitEncoding,
    cnot,
    hadamard,
    occupation_projector,
    parity_gate,
    pauli,
    rotation,
)
from fermient.transforms import normal_form

from conftest import (
    bloch_messiah_state,
    oracle_annihilation_matrix,
    oracle_bilinear_even,
    oracle_bilinear_odd,
    oracle_cnot,
    oracle_entropies,
    oracle_exp,
    oracle_extended_spectrum,
    oracle_lift,
    oracle_one_body,
    oracle_pauli,
    oracle_quasiparticles,
    oracle_reduced,
    oracle_rotation,
    paired_image,
    peschel_spectrum,
)

_GOLDEN = Path(__file__).parent / "golden"

#: Levels drawn from a short list repeat often, forcing degenerate eigenspaces.
_LEVELS = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)


@st.composite
def hermitian_matrices(draw) -> tuple[np.ndarray, list[float]]:
    n = draw(st.integers(1, 8))
    levels = draw(st.lists(_LEVELS, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ np.diag(levels) @ q.conj().T, levels


@given(hermitian_matrices())
def test_eigensystem_on_generated_hermitian_matrices(case):
    m, levels = case
    spec = hermitian_eigensystem(m)
    v = spec.vectors
    assert np.max(np.abs(m @ v - v * spec.values)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(levels)))) <= 1e-10
    assert np.all(np.diff(spec.values) <= 0.0)
    assert np.max(np.abs(spec.values - sorted(levels, reverse=True))) <= 1e-10
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(m + 1e-8j * np.eye(len(levels)))


@given(
    n=st.integers(2, 8),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_partial_trace_on_shuffled_partitions(n, parity, seed, data):
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, n - 1))
    side_a, side_b = tuple(order[:k]), tuple(order[k:])
    state = random_state(n, parity=parity, seed=seed)
    part = ModePartition(n, side_a, side_b)
    rho_a = reduced_state(state, part, "a")
    rho_b = reduced_state(state, part, "b")

    assert np.max(np.abs(rho_a.matrix - oracle_reduced(state, part))) <= 1e-12
    assert abs(rho_a.entropy() - rho_b.entropy()) <= 1e-9
    assert bipartite_entropy(state, part) == rho_a.entropy()

    # diag rho_A carries the occupation <n_m> of each mode on side A
    weights = np.abs(state.vector) ** 2
    masks = np.arange(state.dim)
    local = np.diag(rho_a.matrix).real
    for bit, mode in enumerate(side_a):
        occupied = weights[(masks >> mode) & 1 == 1].sum()
        assert abs(local[(np.arange(local.size) >> bit) & 1 == 1].sum() - occupied) <= 1e-12

    relisted = ModePartition(n, data.draw(st.permutations(side_a)), side_b)
    spectrum = reduced_state(state, relisted, "a").spectrum()
    assert np.max(np.abs(spectrum - rho_a.spectrum())) <= 1e-10

    # every S(rho_A) reader goes through the one stacked kernel, so all agree exactly
    spec_a, spec_b = entanglement._side_spectra(state.vector[None], part, int(parity == "odd"))
    entropy = entanglement._matched_entropies(spec_a, spec_b, von_neumann_term)
    assert np.array_equal(spec_a[0], rho_a.spectrum())
    assert np.array_equal(spec_b[0], rho_b.spectrum())
    assert entropy[0] == bipartite_entropy(state, part)
    if n == 4 and k in (1, 2):
        batch = majorization_stack(state.vector[None], [part])
        assert np.array_equal(batch.spectra[0][0], spec_a[0])
        assert batch.values["von_neumann"][0, 0] == entropy[0]


@settings(max_examples=25)
@given(
    n=st.integers(2, 12),
    odd=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    perm=st.permutations(range(12)),
    k_raw=st.integers(0, 11),
)
@example(n=12, odd=False, seed=1, perm=tuple(range(12)), k_raw=5)
@example(n=12, odd=True, seed=2, perm=tuple(range(0, 12, 2)) + tuple(range(1, 12, 2)), k_raw=2)
def test_partial_trace_matches_the_gaussian_oracle(n, odd, seed, perm, k_raw):
    """The sign-dressed partial trace of a Bloch-Messiah state against Peschel's formula.

    Built from the creators alone, the state's reduced spectra come in closed
    form from its one-body blocks, with no partial trace; sides hold at most
    8 modes, so every reduced matrix is at most 256 x 256.
    """
    vector, rho, kappa = bloch_messiah_state(n, odd, np.random.default_rng(seed))
    state = FockState(n, vector, "odd" if odd else "even")
    low, high = max(1, n - 8), min(n - 1, 8)
    k = low + k_raw % (high - low + 1)
    order = [m for m in perm if m < n]
    part = ModePartition(n, order[:k], order[k:])
    want_a = peschel_spectrum(rho, kappa, list(part.side_a))
    want_b = peschel_spectrum(rho, kappa, list(part.side_b))

    spec_a, spec_b = entanglement._side_spectra(state.vector[None], part, int(odd))
    assert np.max(np.abs(spec_a[0] - want_a)) <= 1e-12
    assert np.max(np.abs(spec_b[0] - want_b)) <= 1e-12
    assert np.max(np.abs(reduced_state(state, part, "a").spectrum() - want_a)) <= 1e-12
    assert np.max(np.abs(reduced_state(state, part, "b").spectrum() - want_b)) <= 1e-12
    assert abs(bipartite_entropy(state, part) - oracle_entropies(want_a)[0]) <= 1e-12
    # a Gaussian state is a quasiparticle vacuum: its extended spectrum is 0s and 1s
    assert qsp_entropy(state) <= 1e-10


def _counting(calls: list, fn):
    def wrapper(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fn(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, names) -> list:
    """Record the first argument's shape of every call of the named functions.

    Patches the name in every package module that binds it, so calls through
    any import path are counted.
    """
    calls: list = []
    for module in [m for name, m in sys.modules.items() if name.startswith("fermient.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _counting(calls, getattr(module, name)))
    return calls


def _count_eigensolves(monkeypatch) -> list:
    """Record the input shape of every eigensolve made through any package module.

    Counts both the single-matrix ``hermitian_eigensystem`` and the stacked
    ``hermitian_eigenvalues``.
    """
    return _count_calls(monkeypatch, ("hermitian_eigensystem", "hermitian_eigenvalues"))


def test_majorization_check_diagonalizes_each_matrix_once(monkeypatch):
    eigensolves = _count_eigensolves(monkeypatch)
    verdict = majorization_check(random_state(4, seed=5), ModePartition(4, (0, 2)))
    assert verdict["holds"]
    # a stack of one: the two parity blocks of rho_A and of rho_B, then the extended matrix
    assert eigensolves == [(1, 2, 2, 2), (1, 2, 2, 2), (1, 8, 8)]


def test_check_lemma2_eigensolves_do_not_grow_with_samples(monkeypatch, capsys):
    counts = []
    for samples in (2, 40):
        eigensolves = _count_eigensolves(monkeypatch)
        assert cli.main(["check-lemma2", "--samples", str(samples), "--seed", "1"]) == 0
        counts.append(len(eigensolves))
        monkeypatch.undo()
    capsys.readouterr()
    # rho_A and rho_B stacks for each of the 7 partitions, then one extended stack
    assert counts == [15, 15]


def test_normal_form_diagonalizes_the_extended_matrix_once(monkeypatch):
    eigensolves = _count_eigensolves(monkeypatch)
    normal_form(random_state(4, parity="even", seed=3))
    # the 8x8 extended spectra of the state and of the auxiliary state of the
    # core map; the lift makes none
    assert eigensolves == [(8, 8), (8, 8)]


def test_bipartition_builds_each_reduced_state_once(monkeypatch, capsys):
    eigensolves = _count_eigensolves(monkeypatch)
    assert cli.main(["bipartition", str(_GOLDEN / "even4.json"), "--a", "0,2"]) == 0
    capsys.readouterr()
    # rho_A and rho_B, two parity blocks each, for the spectrum and every entropy, then the
    # extended matrix
    assert eigensolves == [(1, 2, 2, 2)] * 2 + [(1, 8, 8)]
    eigensolves.clear()
    assert cli.main(["bipartition", str(_GOLDEN / "even4.json"), "--a", "0,1,2"]) == 0
    capsys.readouterr()
    # not a Lemma split: rho_A and rho_B only
    assert eigensolves == [(1, 2, 4, 4), (1, 2, 1, 1)]


def test_one_body_spectrum_is_computed_once(monkeypatch, capsys):
    state = random_state(4, seed=6)
    eigensolves = _count_eigensolves(monkeypatch)
    sp_entropy(state)
    assert cli.main(["rho-sp", str(_GOLDEN / "even4.json")]) == 0
    capsys.readouterr()
    # both read the occupations the one-body check already diagonalized
    assert eigensolves == []


@pytest.mark.parametrize("side", cli._LEMMA_PARTITIONS, ids=lambda side: ",".join(map(str, side)))
def test_bipartition_reports_the_stack_values(side, capsys):
    part = ModePartition(4, side)
    for path in (_GOLDEN / "even4.json", _GOLDEN / "odd4.json"):
        batch = majorization_stack(load_state(path).vector[None], [part])
        assert cli.main(["bipartition", str(path), "--a", ",".join(map(str, side))]) == 0
        report = json.loads(capsys.readouterr().out)
        verdict = batch.verdict(LEMMA_TOL)
        assert report["spectrum"] == list(batch.spectra[0][0])
        assert report["S_A"] == batch.values["von_neumann"][0, 0]
        for key in ("lambda_max", "f_plus", "entropies", "holds"):
            assert report[key] == verdict[key]


def test_check_lemma2_counts_one_violation_per_failed_bound(monkeypatch, capsys):
    stack = cli.majorization_stack

    def shifted(vectors, parts, first):
        batch = stack(vectors, parts, first)
        batch.lambda_max[0, 1] += 1.0
        batch.values["von_neumann"][1, 2] -= 10.0
        batch.values["quadratic"][1, 2] -= 10.0
        return batch

    monkeypatch.setattr(cli, "majorization_stack", shifted)
    assert cli.main(["check-lemma2", "--samples", "4", "--seed", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 3
    assert report["max_lambda_excess"] > 0.5
    assert report["min_entropy_margin"] < -5.0


def test_lift_makes_no_eigensolve_and_no_dense_mode_matrix(monkeypatch):
    maps = [random_bogoliubov(n, seed=n) for n in (1, 3, 6)] + [particle_hole_map(5, range(5))]
    eigensolves = _count_eigensolves(monkeypatch)
    dense = _count_calls(monkeypatch, ("creation_matrix", "annihilation_matrix"))
    for bmap in maps:
        lift_to_fock(bmap, bmap.n_modes)
    assert eigensolves == []
    assert dense == []


@st.composite
def bogoliubov_maps(draw):
    """Random maps, random maps behind a particle-hole factor on a random set of
    modes, and all-mode particle-hole maps behind a random unitary (U = 0)."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "particle-hole factor", "U = 0"]))
    if kind == "random":
        return random_bogoliubov(n, rng=rng)
    if kind == "particle-hole factor":
        modes = draw(st.sets(st.integers(0, n - 1)))
        return compose(particle_hole_map(n, modes), random_bogoliubov(n, rng=rng))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return compose(particle_hole_map(n, range(n)), validate_bogoliubov(q, np.zeros((n, n))))


@given(bogoliubov_maps())
@example(particle_hole_map(6, range(6)))
@example(identity_map(1))
def test_lift_matches_the_number_operator_oracle(bmap):
    n = bmap.n_modes
    cols = lift_to_fock(bmap, n).matrix
    vac = cols[:, 0]
    for i, a in enumerate(oracle_quasiparticles(bmap)):
        c = oracle_annihilation_matrix(n, i)
        assert np.max(np.abs(cols @ c @ cols.conj().T - a)) <= 1e-12
        assert np.linalg.norm(a @ vac) <= 1e-12
    size = np.abs(vac)
    anchor = np.flatnonzero(size >= size.max() - TOL_ZERO)[0]
    assert vac[anchor].real > 0.0
    assert abs(vac[anchor].imag) <= TOL_ZERO
    assert np.max(np.abs(cols - oracle_lift(bmap))) <= 1e-12


@pytest.mark.parametrize("parity, lifts", [("even", 1), ("odd", 2)])
def test_normal_form_computes_the_amplitudes_once(monkeypatch, parity, lifts):
    calls: list = []
    monkeypatch.setattr(transforms, "lift_to_fock", _counting(calls, transforms.lift_to_fock))
    for seed in range(8):
        normal_form(random_state(4, parity=parity, seed=seed))
    # odd input adds the particle-hole pre-map; the swap and phase steps add none
    assert len(calls) == 8 * lifts


#: alpha_+^2 bands: a random state (None), near product, intermediate, near
#: maximal on both sides of f_+ - f_- = 1e-3, and exactly maximal
_NORMAL_FORM_BANDS = (
    None, (0.999999, 1.0), (0.99, 0.9999), (0.6, 0.9), (0.5006, 0.52), (0.5, 0.50045), (0.5, 0.5)
)


@given(
    band=st.sampled_from(_NORMAL_FORM_BANDS),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_normal_form_on_generated_states(band, parity, seed, data):
    rng = np.random.default_rng(seed)
    if band is None:
        state = random_state(4, parity=parity, rng=rng)
        f_plus = float(oracle_extended_spectrum(state.vector, 4)[0])
    else:
        f_plus = data.draw(st.floats(*band))
        state = paired_image(f_plus, parity, rng)
    form = normal_form(state)
    assert {mask for mask, _ in form.transformed.nonzero_amplitudes()} <= {0b0011, 0b1100}
    assert abs(form.alpha_plus**2 - f_plus) <= 1e-9
    assert abs(form.alpha_minus**2 - (1.0 - f_plus)) <= 1e-9
    phi = transformed_amplitudes(state, form.map)
    assert np.max(np.abs(phi - form.transformed.vector)) <= 1e-12


# ---------------------------------------------------------------------------
# the Lemma-2 batch against the per-state loop oracle
# ---------------------------------------------------------------------------

#: the 2+2 and 1+3 splits of check-lemma2, a 3+1 split and a reversed listing
_LEMMA_SIDES = ((0, 1), (0, 2), (0, 3), (0,), (1,), (2,), (3,), (0, 1, 2), (3, 1))
_LEMMA_KINDS = ("random", "product", "maximal", "sparse")


def _lemma_state(kind: str, parity: str, rng: np.random.Generator):
    """A four-mode state of one kind; Bogoliubov images keep C = 0 and C = 1."""
    if kind == "random":
        return random_state(4, parity=parity, rng=rng)
    if kind == "sparse":
        vec = random_state(4, parity=parity, rng=rng).vector.copy()
        sector = np.flatnonzero(np.abs(vec) > 0.0)
        vec[rng.choice(sector, size=rng.integers(1, sector.size), replace=False)] = 0.0
        return make_state(4, vec)
    rotate = lift_to_fock(random_bogoliubov(4, rng=rng), 4)
    if kind == "product":
        mask = rng.choice([m for m in range(16) if bin(m).count("1") % 2 == (parity == "odd")])
        return rotate.apply(basis_state(4, int(mask)))
    pair = (0b0011, 0b1100) if parity == "even" else (0b0001, 0b1110)
    phase = np.exp(2j * np.pi * rng.random())
    return rotate.apply(make_state(4, {pair[0]: 1.0, pair[1]: phase}))


@st.composite
def lemma_stacks(draw) -> list:
    """One state of every kind, in a drawn order, each with a drawn parity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.permutations(_LEMMA_KINDS))
    parities = draw(st.lists(st.sampled_from(["even", "odd"]), min_size=4, max_size=4))
    return [(kind, _lemma_state(kind, parity, rng)) for kind, parity in zip(kinds, parities)]


@given(lemma_stacks(), st.lists(st.sampled_from(_LEMMA_SIDES), min_size=1, max_size=4, unique=True))
def test_majorization_stack_matches_loop_oracle(stack, sides):
    parts = [ModePartition(4, side) for side in sides]
    batch = majorization_stack(np.array([state.vector for _, state in stack]), parts)
    for s, (kind, state) in enumerate(stack):
        c = concurrence(state)
        if kind in ("product", "maximal"):
            assert abs(c - (kind == "maximal")) <= 1e-9
        extended = oracle_extended_spectrum(state.vector, 4)
        # the fourfold spectrum f_+- of the paper, in polynomial form: f_+ f_- = C^2 / 4
        assert np.max(np.abs(extended * (1.0 - extended) - c**2 / 4.0)) <= 1e-12
        assert abs(batch.f_plus[s] - np.mean(extended[:4])) <= 1e-12
        bounds = [value / 4.0 for value in oracle_entropies(extended)]
        for p, part in enumerate(parts):
            spectrum = np.linalg.eigvalsh(oracle_reduced(state, part))[::-1]
            assert abs(batch.lambda_max[s, p] - spectrum[0]) <= 1e-12
            for (name, values), value, bound in zip(
                batch.values.items(), oracle_entropies(spectrum), bounds
            ):
                assert abs(values[s, p] - value) <= 1e-12
                assert abs(batch.bounds[name][s] - bound) <= 1e-12
            # the single-state check is a stack of one through the same kernel
            verdict = majorization_check(state, part)
            assert verdict["lambda_max"] == batch.lambda_max[s, p]
            assert verdict["f_plus"] == batch.f_plus[s]
            for name, entry in verdict["entropies"].items():
                assert entry["value"] == batch.values[name][s, p]
                assert entry["bound"] == batch.bounds[name][s]


@given(lemma_stacks())
def test_bilinear_matches_the_closed_form_oracles(stack):
    vectors = np.array([state.vector for _, state in stack])
    stacked = entanglement._bilinear(vectors)
    for s, (_, state) in enumerate(stack):
        oracle = oracle_bilinear_even if state.parity == "even" else oracle_bilinear_odd
        assert abs(stacked[s] - oracle(state.vector)) <= 1e-15
        assert entanglement._bilinear(state.vector) == stacked[s]
        assert concurrence(state) == min(abs(complex(stacked[s])), 1.0)
        # the same bilinear is c^T c in the magic basis of the normal form
        even = state if state.parity == "even" else particle_hole(state, {0})
        c = transforms._magic_matrix().conj().T @ even.vector[list(transforms._EVEN_MASKS)]
        assert abs(c @ c - entanglement._bilinear(even.vector)) <= 1e-14
        assert abs(concurrence(even) - concurrence(state)) <= 1e-14


def test_local_parity_split_checks_its_sandwich_against_the_bilinear(monkeypatch):
    part = ModePartition(4, (0, 1))
    # (state, bilinear outside its sandwich): C = 0.96 from one block, then C = 0 from neither
    cases = ((make_state(4, {0b0000: 0.8, 0b1111: 0.6}), 0.0), (basis_state(4, 0b0011), 0.5))
    for state, wrong in cases:
        local_parity_split(state, part)
        with monkeypatch.context() as patch:
            patch.setattr(entanglement, "_bilinear", lambda v, b=wrong: np.full(v.shape[:-1], b))
            with pytest.raises(FermionError, match="^concurrence sandwich violated"):
                local_parity_split(state, part)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 9), first_odd=st.booleans())
def test_majorization_stack_matches_the_gaussian_oracle_on_alternating_parities(
    seed, size, first_odd
):
    """A stack of both parities takes the per-sample parity route of the block kernel."""
    rng = np.random.default_rng(seed)
    states = [bloch_messiah_state(4, (k + first_odd) % 2 == 1, rng) for k in range(size)]
    parts = [ModePartition(4, side) for side in _LEMMA_SIDES]
    batch = majorization_stack(np.array([vector for vector, _, _ in states]), parts)
    for p, part in enumerate(parts):
        for s, (_, rho, kappa) in enumerate(states):
            want = peschel_spectrum(rho, kappa, list(part.side_a))
            assert np.max(np.abs(batch.spectra[p][s] - want)) <= 1e-12


def test_majorization_stack_names_the_failing_sample():
    vectors = np.array([random_state(4, parity=("even", "odd")[k % 2], seed=k).vector
                        for k in range(6)])
    parts = [ModePartition(4, side) for side in _LEMMA_SIDES]
    for bad in (0, 3, 5):
        scaled = vectors.copy()
        scaled[bad] *= 1.1
        with pytest.raises(FermionError, match=f"trace differs from 1 at sample {100 + bad}$"):
            majorization_stack(scaled, parts, first=100)
        # the block kernel's own trace check names the sample, not one of its two blocks
        for part in parts:
            with pytest.raises(FermionError, match=f"trace differs from 1 at sample {100 + bad}$"):
                entanglement._side_spectra(scaled, part, np.arange(6) % 2, first=100)


def test_majorization_stack_rejects_a_mixed_parity_sample():
    vectors = np.array([random_state(4, parity=("even", "odd")[k % 2], seed=k).vector
                        for k in range(6)])
    vectors[3] = (vectors[2] + vectors[3]) / math.sqrt(2.0)  # even + odd, unit norm
    parts = [ModePartition(4, side) for side in _LEMMA_SIDES]
    with pytest.raises(MixedParityError, match="^state mixes parity sectors .* at sample 103$"):
        majorization_stack(vectors, parts, first=100)
    # the reduced-state checks still come first
    vectors[3] *= 1.1
    with pytest.raises(FermionError, match="trace differs from 1 at sample 103$"):
        majorization_stack(vectors, parts, first=100)


_LEAK = 0.9 * TOL_NORM


@settings(max_examples=40)
@given(
    n=st.integers(1, 12),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**32 - 1),
    leak=st.booleans(),
)
@example(n=12, parity="odd", seed=0, leak=False)
@example(n=12, parity="even", seed=1, leak=True)
def test_one_body_matches_the_full_space_oracle(n, parity, seed, leak):
    # the kernel works on the tagged sector only; a leak puts 0.9 TOL_NORM of the weight outside it
    rng = np.random.default_rng(seed)
    vector = random_state(n, parity=parity, rng=rng).vector
    if leak:
        other = random_state(n, parity="odd" if parity == "even" else "even", rng=rng).vector
        vector = math.sqrt(1.0 - _LEAK) * vector + math.sqrt(_LEAK) * other
    blocks = one_body(FockState(n, vector, parity))
    rho, kappa = oracle_one_body(vector, n)
    tol = 2e-10 if leak else 1e-12
    assert np.max(np.abs(blocks.rho - rho)) <= tol
    assert np.max(np.abs(blocks.kappa - kappa)) <= tol


@settings(max_examples=30)
@given(
    n=st.integers(2, 8),
    parity=st.sampled_from(["even", "odd"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(n=2, parity="even", seed=0, data=None)
def test_partial_trace_drops_off_sector_weight_within_its_stated_bound(n, parity, seed, data):
    # the blocks hold the tagged sector only; a leak puts 0.9 TOL_NORM of the weight outside
    # it, and the entanglement docstring bounds every entry's move by sqrt(w)
    rng = np.random.default_rng(seed)
    vector = random_state(n, parity=parity, rng=rng).vector
    other = random_state(n, parity="odd" if parity == "even" else "even", rng=rng).vector
    state = FockState(n, math.sqrt(1.0 - _LEAK) * vector + math.sqrt(_LEAK) * other, parity)
    if data is None:  # one mode a side, where the bound is nearly reached
        order, k = list(range(n)), 1
    else:
        order, k = data.draw(st.permutations(range(n))), data.draw(st.integers(1, n - 1))
    part = ModePartition(n, order[:k], order[k:])
    # rho_B is rho_A of the swapped partition: the two dressings differ by (-1)^(N_A N_B),
    # one sign per block of t
    for side, oracle_part in (("a", part), ("b", ModePartition(n, order[k:], order[:k]))):
        matrix = reduced_state(state, part, side).matrix
        assert np.max(np.abs(matrix - oracle_reduced(state, oracle_part))) <= math.sqrt(_LEAK) + 1e-14


def test_side_entropy_mismatch_is_one_check(monkeypatch, capsys):
    monkeypatch.setattr(entanglement, "_ENTROPY_MATCH_TOL", -1.0)
    state = load_state(_GOLDEN / "even4.json")
    part = ModePartition(4, (0, 2))
    message = r"^side entropies differ: \S+ vs \S+"
    with pytest.raises(SideMismatchError, match=message + "$"):
        bipartite_entropy(state, part)
    with pytest.raises(SideMismatchError, match=message):
        majorization_check(state, part)
    with pytest.raises(SideMismatchError, match=message + " at sample 100$"):
        majorization_stack(state.vector[None], [part], first=100)
    # a Lemma split and a split that is not one
    for side in ("0,2", "0,1,2"):
        assert cli.main(["bipartition", str(_GOLDEN / "even4.json"), "--a", side]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: side entropies differ: \S+ vs \S+\n", err)


_PROBABILITY = st.one_of(
    st.sampled_from([
        math.nextafter(0.0, -1.0), -1e-17, -0.0, 0.0, 5e-324,
        1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-12, math.nan, math.inf, -math.inf,
    ]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _clipped(p: float) -> float:
    return min(max(float(p), 0.0), 1.0)  # Python's min and max keep NaN


def _reference_von_neumann(p: float) -> float:
    p = _clipped(p)
    return 0.0 if p <= 0.0 else float(-p * np.log2(p))


def _reference_quadratic(p: float) -> float:
    p = _clipped(p)
    return 2.0 * p * (1.0 - p)


def _reference_binary(p: float) -> float:
    return _reference_von_neumann(p) + _reference_von_neumann(1.0 - p)


@given(st.lists(_PROBABILITY, max_size=12))
@example([math.nextafter(0.0, -1.0), 0.0, 1.0, math.nextafter(1.0, 2.0), math.nan])
def test_entropy_kernels_array_form_equals_scalar_form(ps):
    for fn, reference in (
        (von_neumann_term, _reference_von_neumann),
        (quadratic_term, _reference_quadratic),
        (binary_entropy, _reference_binary),
    ):
        scalars = [fn(p) for p in ps]
        assert all(type(value) is float for value in scalars)
        np.testing.assert_array_equal(np.array(scalars), [reference(p) for p in ps])
        array = fn(np.array(ps, dtype=np.float64))
        assert isinstance(array, np.ndarray) and array.shape == (len(ps),)
        np.testing.assert_array_equal(array, np.array(scalars))


# ---------------------------------------------------------------------------
# closed-form gates against the exponential of their dense generators
# ---------------------------------------------------------------------------

#: Weights include 0 and multiples of pi/2, where cos and sin hit 0 and +-1.
_WEIGHT = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
_KIND = st.sampled_from(["odd", "even"])
_GATE_TOL = 1e-12


@st.composite
def distinct_modes(draw, count: int, top: int = 6) -> tuple[int, tuple[int, ...]]:
    """A mode count n <= ``top`` and ``count`` distinct modes in any order."""
    n = draw(st.integers(max(count, 2), top))
    return n, tuple(draw(st.permutations(range(n)))[:count])


@given(distinct_modes(2), _KIND, st.booleans(), st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
@example((6, (5, 0)), "odd", False, (0.0, 0.0, 0.0))
@example((6, (4, 1)), "even", True, (0.0, 0.0, 0.0))
@example((5, (3, 1)), "odd", False, (0.0, 0.6 * math.pi, 0.8 * math.pi))
@example((5, (0, 4)), "even", False, (math.pi, 0.0, 0.0))
@example((4, (2, 0)), "odd", True, (0.0, 0.0, -math.pi))
def test_rotation_matches_exponential_oracle(case, kind, both_kinds, weights):
    n, pair = case
    gate = rotation(QubitEncoding(pair, kind), weights, n, both_kinds=both_kinds).matrix
    want = oracle_rotation(pair, kind, weights, n, both_kinds)
    assert np.max(np.abs(gate - want)) <= _GATE_TOL


@given(distinct_modes(2), _KIND, st.sampled_from("xyz"))
def test_pauli_and_hadamard_match_oracle(case, kind, axis):
    n, pair = case
    enc = QubitEncoding(pair, kind)
    assert np.max(np.abs(pauli(enc, axis, n).matrix - oracle_pauli(pair, kind, axis, n))) == 0.0
    w = math.pi / (2.0 * math.sqrt(2.0))
    want = 1j * oracle_rotation(pair, kind, (-w, 0.0, w), n)
    assert np.max(np.abs(hadamard(enc, n).matrix - want)) <= _GATE_TOL


@given(distinct_modes(4), _KIND, st.booleans())
@example((4, (3, 1, 0, 2)), "even", False)
@example((6, (5, 0, 1, 4)), "odd", True)
def test_cnot_matches_exponential_oracle(case, kind, both_kinds):
    n, (a, b, c, d) = case
    gate = cnot(QubitEncoding((a, b), kind), QubitEncoding((c, d), kind), n, both_kinds).matrix
    want = oracle_cnot((a, b), (c, d), kind, n, both_kinds)
    assert np.max(np.abs(gate - want)) <= _GATE_TOL


def test_gates_make_no_eigensolve(monkeypatch):
    eigensolves = _count_eigensolves(monkeypatch)
    for kind in ("odd", "even"):
        enc, other = QubitEncoding((3, 0), kind), QubitEncoding((1, 4), kind)
        rotation(enc, (0.3, -0.2, 0.9), 5)
        rotation(enc, (0.3, -0.2, 0.9), 5, both_kinds=True)
        hadamard(enc, 5)
        cnot(enc, other, 5)
        cnot(enc, other, 5, both_kinds=True)
        for axis in "xyz":
            pauli(enc, axis, 5)
    assert eigensolves == []


# ---------------------------------------------------------------------------
# the blockwise property check of the protocol operators
# ---------------------------------------------------------------------------

_OPERATORS = (
    "rotation", "rotation-both", "hadamard", "cnot", "cnot-both", "parity",
    "pauli-x", "pauli-y", "pauli-z", "projector-0", "projector-1",
)


def _expected_kind(name: str) -> str:
    """The public kind each protocol operator must be built as."""
    if name.startswith("pauli"):
        return "hermitian"
    if name.startswith("projector"):
        return "projector"
    return "unitary"


def _block_operator(name, n, modes, kind, weights):
    """The protocol operator ``name`` on the first one or two pairs of ``modes``."""
    a, b, c, d = modes
    enc = QubitEncoding((a, b), kind)
    if name.startswith("rotation"):
        return rotation(enc, weights, n, name == "rotation-both")
    if name == "hadamard":
        return hadamard(enc, n)
    if name.startswith("cnot"):
        return cnot(enc, QubitEncoding((c, d), kind), n, name == "cnot-both")
    if name.startswith("pauli"):
        return pauli(enc, name[-1], n)
    if name.startswith("projector"):
        return occupation_projector(a, int(name[-1]), n)
    return parity_gate((c, a), n)


def _operator_and_oracle(name, n, modes, kind, weights):
    """``_block_operator`` and its dense oracle."""
    a, b, c, d = modes
    op = _block_operator(name, n, modes, kind, weights)
    if name.startswith("rotation"):
        return op, oracle_rotation((a, b), kind, weights, n, name == "rotation-both")
    if name == "hadamard":
        w = math.pi / (2.0 * math.sqrt(2.0))
        return op, 1j * oracle_rotation((a, b), kind, (-w, 0.0, w), n)
    if name.startswith("cnot"):
        return op, oracle_cnot((a, b), (c, d), kind, n, name == "cnot-both")
    if name.startswith("pauli"):
        return op, oracle_pauli((a, b), kind, name[-1], n)
    if name.startswith("projector"):
        occupied = number_matrix(n, a)
        return op, occupied if name[-1] == "1" else np.eye(1 << n) - occupied
    return op, -oracle_exp(math.pi * sum(number_matrix(n, m) for m in (c, a)))


def _spied(build):
    """Run ``build``, recording the arguments of each block construction and its block defect.

    Returns (result, blocks, defects): ``blocks`` holds (n, kind, diagonal,
    pairs, hop, back) per ``FockOperator._from_blocks`` call, ``defects`` holds
    (kind, stack shape, defect) per ``fock._defect`` call, and ``result`` is the
    OperatorPropertyError if one was raised.
    """
    blocks, defects = [], []
    from_blocks = FockOperator._from_blocks.__func__
    defect_of = fock._defect

    def block_spy(cls, n_modes, kind, diagonal, *entries):
        pairs, hop, back = entries or (np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0))
        blocks.append((n_modes, kind, diagonal, pairs, hop, back))
        return from_blocks(cls, n_modes, kind, diagonal, *entries)

    def defect_spy(kind, stack):
        defect = defect_of(kind, stack)
        defects.append((kind, stack.shape, defect))
        return defect

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FockOperator, "_from_blocks", classmethod(block_spy))
        mp.setattr(fock, "_defect", defect_spy)
        try:
            result = build()
        except OperatorPropertyError as exc:
            result = exc
    return result, blocks, defects


def _block_defect(defects, kind: str, pairs) -> float:
    """The one defect of a block construction: its kind measured once on the (K, 2, 2)
    blocks and once on the 1x1 diagonal singles, and the larger kept."""
    (kind_2, shape_2, defect_2), (kind_1, shape_1, defect_1) = defects
    assert (kind_2, kind_1) == (kind, kind)
    assert shape_2 == (len(pairs), 2, 2) and shape_1[1:] == (1, 1)
    return max(defect_2, defect_1)


def _dense_from_entries(diagonal, pairs, hop, back) -> np.ndarray:
    """The operator a block construction describes, written densely by the test."""
    matrix = np.diag(np.asarray(diagonal, dtype=np.complex128))
    p, q = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    matrix[q, p], matrix[p, q] = hop, back
    return matrix


def _unitary_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def _hermitian_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def _projector_defect(m: np.ndarray) -> float:
    return max(_hermitian_defect(m), float(np.max(np.abs(m @ m - m))))


#: an independent dense oracle of each kind's defect
_DENSE_DEFECT = {
    "unitary": _unitary_defect,
    "hermitian": _hermitian_defect,
    "projector": _projector_defect,
}


@given(st.sampled_from(_OPERATORS), distinct_modes(4), _KIND, st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
@example("rotation", (6, (5, 0, 1, 2)), "odd", (0.0, 0.0, 0.0))
@example("rotation-both", (4, (3, 1, 0, 2)), "even", (0.0, math.pi / 2, 0.0))
@example("cnot-both", (6, (4, 1, 5, 0)), "odd", (0.0, 0.0, 0.0))
@example("parity", (5, (0, 2, 4, 1)), "even", (0.0, 0.0, 0.0))
@example("pauli-y", (5, (4, 1, 0, 2)), "even", (0.0, 0.0, 0.0))
@example("projector-0", (4, (3, 0, 1, 2)), "odd", (0.0, 0.0, 0.0))
def test_block_check_equals_dense_check(name, case, kind, weights):
    n, modes = case
    (op, want), blocks, defects = _spied(lambda: _operator_and_oracle(name, n, modes, kind, weights))
    assert len(blocks) == 1
    _, block_kind, diagonal, pairs, hop, back = blocks[0]
    defect = _block_defect(defects, op.kind, pairs)
    assert (op.n_modes, op.kind, block_kind) == (n, _expected_kind(name), op.kind)
    # the dense matrix is built on its first read, cached and read-only
    assert "matrix" not in vars(op)
    matrix = op.matrix
    assert op.matrix is matrix and not matrix.flags.writeable
    # it holds the diagonal and the blocks, and nothing else
    assert np.array_equal(matrix, _dense_from_entries(diagonal, pairs, hop, back))
    assert abs(defect - _DENSE_DEFECT[op.kind](matrix)) <= 1e-15
    assert np.max(np.abs(matrix - want)) <= _GATE_TOL


@given(st.sampled_from(_OPERATORS), distinct_modes(4), _KIND, st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
def test_block_check_rejects_corrupted_gates(name, case, kind, weights):
    n, modes = case
    _, [(_, op_kind, diagonal, pairs, hop, back)], _ = _spied(
        lambda: _operator_and_oracle(name, n, modes, kind, weights)
    )
    entries = {"diagonal": diagonal, "hop": hop, "back": back}
    # the largest entry of the first block, or of the diagonal when there is none
    if len(pairs):
        places = [("diagonal", pairs[0, 0]), ("diagonal", pairs[0, 1]), ("hop", 0), ("back", 0)]
    else:
        places = [("diagonal", int(np.argmax(np.abs(diagonal))))]
    array, index = max(places, key=lambda place: abs(entries[place[0]][place[1]]))

    def bent(factor):
        arrays = {key: np.array(value, dtype=np.complex128) for key, value in entries.items()}
        arrays[array][index] *= factor
        return arrays["diagonal"], pairs, arrays["hop"], arrays["back"]

    raised = []
    # scaled, and twisted (which keeps a unitary's column norms, moving B^dag B off the diagonal)
    for factor in (1.0 + 1e-8, np.exp(1e-8j)):
        corrupted = bent(factor)
        result, _, defects = _spied(lambda: FockOperator._from_blocks(n, op_kind, *corrupted))
        matrix = _dense_from_entries(*corrupted)
        dense = _DENSE_DEFECT[op_kind](matrix)
        assert abs(_block_defect(defects, op_kind, pairs) - dense) <= 1e-15
        raised.append(isinstance(result, OperatorPropertyError))
        assert raised[-1] == (dense > TOL_NORM)
        if not raised[-1]:
            assert np.array_equal(result.matrix, matrix)
    assert any(raised)
    with pytest.raises(OperatorPropertyError):
        FockOperator._from_blocks(n, op_kind, *bent(np.nan))
    # two blocks share a mask
    if len(pairs):
        shared, shared_hop, shared_back = pairs.copy(), hop, back
        shared[-1, 1] = shared[0, 0]
    else:
        shared, shared_hop, shared_back = np.array([[0, 1], [1, 2]]), np.zeros(2), np.zeros(2)
    with pytest.raises(OperatorPropertyError, match="two 2x2 blocks"):
        FockOperator._from_blocks(n, op_kind, diagonal, shared, shared_hop, shared_back)


@settings(max_examples=60)
@given(
    st.sampled_from(_OPERATORS), distinct_modes(4, top=8), _KIND,
    st.tuples(_WEIGHT, _WEIGHT, _WEIGHT), st.booleans(), st.integers(0, 2**32 - 1),
)
@example("rotation", (8, (7, 0, 3, 5)), "even", (0.0, 0.0, 0.0), False, 1)
@example("rotation-both", (8, (2, 6, 0, 1)), "odd", (0.0, 0.0, 0.0), False, 2)
@example("cnot", (8, (0, 7, 5, 2)), "odd", (0.0, 0.0, 0.0), False, 3)
@example("cnot-both", (7, (6, 1, 3, 0)), "even", (0.0, 0.0, 0.0), False, 4)
@example("projector-1", (5, (3, 0, 1, 2)), "odd", (0.0, 0.0, 0.0), True, 0)
@example("pauli-x", (4, (0, 1, 2, 3)), "even", (0.0, 0.0, 0.0), True, 1)
def test_block_apply_equals_the_dense_matrix_product(name, case, kind, weights, basis, seed):
    """``apply`` of a block form is ``matrix @ vector`` within 1e-15 per entry, with the same
    parity tag, and raises what the dense form raises on a state it annihilates."""
    n, modes = case
    op = _block_operator(name, n, modes, kind, weights)
    state = basis_state(n, seed % (1 << n)) if basis else random_state(n, seed=seed)
    dense = FockOperator(n, op.matrix, op.kind)
    outcomes = []
    for form in (op, dense):
        try:
            outcomes.append(form.apply(state))
        except FermionError as exc:
            outcomes.append(exc)
    got, want = outcomes
    if isinstance(want, FermionError):
        assert type(got) is type(want)
    else:
        assert got.parity == want.parity
        assert np.max(np.abs(got.vector - op.matrix @ state.vector)) <= 1e-15
