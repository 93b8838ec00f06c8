"""Pair-encoded qubits, gates, measurements, teleportation, superdense coding."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

import fermient
from fermient import (
    FockOperator,
    FockState,
    apply_creation,
    apply_operator_string,
    basis_state,
    make_state,
    protocols,
    vacuum_state,
)
from fermient.correlations import extended_density
from fermient.entanglement import ModePartition, bipartite_entropy, concurrence, reduced_state
from fermient.errors import (
    ArgumentError,
    DimensionMismatchError,
    ImpossibleBranchError,
    MixedParityError,
    NotNormalizedError,
    OverlappingPairsError,
    UnknownStateError,
    ZeroNormError,
)
from fermient.fock import number_matrix
from fermient.protocols import (
    MeasurementResult,
    QubitEncoding,
    cnot,
    hadamard,
    measure_branch,
    measure_occupation,
    occupation_projector,
    parity_gate,
    pauli,
    rotation,
    run_teleportation,
    superdense_decode,
    superdense_encode,
)

HALF = math.pi / 2.0


def mask_of(*modes):
    out = 0
    for m in modes:
        out |= 1 << m
    return out


def random_qubit(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw /= np.linalg.norm(raw)
    return complex(raw[0]), complex(raw[1])


# ---------------------------------------------------------------------------
# Pauli dictionaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["odd", "even"])
def test_pauli_su2_commutators(kind):
    enc = QubitEncoding((0, 2), kind)
    ops = {ax: pauli(enc, ax, 3).matrix for ax in "xyz"}
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        comm = ops[a] @ ops[b] - ops[b] @ ops[a]
        assert np.max(np.abs(comm - 2j * ops[c])) < 1e-12


def test_pauli_kinds_commute_on_shared_pair():
    odd = QubitEncoding((1, 3), "odd")
    even = QubitEncoding((1, 3), "even")
    for ax_o in "xyz":
        for ax_e in "xyz":
            a = pauli(odd, ax_o, 4).matrix
            b = pauli(even, ax_e, 4).matrix
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_pauli_kernel_on_opposite_sector():
    # sigma~ annihilates singly occupied pairs, sigma annihilates even ones
    odd = QubitEncoding((0, 1), "odd")
    even = QubitEncoding((0, 1), "even")
    for mask in range(8):
        local = mask & 0b11
        pair_parity = bin(local).count("1") % 2
        for ax in "xyz":
            col_even = pauli(even, ax, 3).matrix[:, mask]
            col_odd = pauli(odd, ax, 3).matrix[:, mask]
            if pair_parity == 1:
                assert np.max(np.abs(col_even)) < 1e-12
            else:
                assert np.max(np.abs(col_odd)) < 1e-12


def test_pauli_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QubitEncoding((2, 2), "odd")
    with pytest.raises(ValueError):
        QubitEncoding((0, 1), "weird")
    with pytest.raises(ValueError):
        pauli(QubitEncoding((0, 1), "odd"), "w", 2)
    with pytest.raises(DimensionMismatchError):
        pauli(QubitEncoding((0, 5), "odd"), "x", 3)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_rotation_zero_weights_is_identity():
    enc = QubitEncoding((0, 1), "odd")
    u = rotation(enc, (0.0, 0.0, 0.0), 2).matrix
    assert np.max(np.abs(u - np.eye(4))) < 1e-12


@pytest.mark.parametrize("axis,weights", [("x", (-HALF, 0.0, 0.0)),
                                          ("y", (0.0, -HALF, 0.0)),
                                          ("z", (0.0, 0.0, -HALF))])
def test_dual_rotation_equals_summed_pauli(axis, weights):
    # i exp(-i pi/2 (sigma_mu + sigma~_mu)) = sigma_mu + sigma~_mu
    enc = QubitEncoding((0, 1), "odd")
    summed = (
        pauli(enc, axis, 4).matrix
        + pauli(QubitEncoding((0, 1), "even"), axis, 4).matrix
    )
    u = 1j * rotation(enc, weights, 4, both_kinds=True).matrix
    assert np.max(np.abs(u - summed)) < 1e-11


def test_rotation_identity_on_opposite_sector(rng):
    enc = QubitEncoding((0, 1), "odd")
    weights = tuple(rng.normal(size=3))
    u = rotation(enc, weights, 3).matrix
    for mask in (0b000, 0b011, 0b100, 0b111):
        col = u[:, mask]
        want = np.zeros(8)
        want[mask] = 1.0
        assert np.max(np.abs(col - want)) < 1e-11


def test_hadamard_maps_logical_states():
    inv = 1.0 / math.sqrt(2.0)
    # odd kind: |0_L> = second mode occupied
    h = hadamard(QubitEncoding((0, 1), "odd"), 2).matrix
    zero, one = basis_state(2, 0b10), basis_state(2, 0b01)
    plus = h @ zero.vector
    minus = h @ one.vector
    assert np.max(np.abs(plus - inv * (zero.vector + one.vector))) < 1e-11
    assert np.max(np.abs(minus - inv * (zero.vector - one.vector))) < 1e-11
    assert np.max(np.abs(h @ plus - zero.vector)) < 1e-11
    # even kind: |0_L> = empty pair
    h = hadamard(QubitEncoding((0, 1), "even"), 2).matrix
    zero, one = basis_state(2, 0b00), basis_state(2, 0b11)
    assert np.max(np.abs(h @ zero.vector - inv * (zero.vector + one.vector))) < 1e-11
    assert np.max(np.abs(h @ one.vector - inv * (zero.vector - one.vector))) < 1e-11


# ---------------------------------------------------------------------------
# CNOT
# ---------------------------------------------------------------------------

def test_cnot_odd_fredkin_truth_table():
    gate = cnot(QubitEncoding((0, 1), "odd"), QubitEncoding((2, 3), "odd"), 4)
    # control first mode occupied = logical |1>: swap the target pair
    table = {
        mask_of(0, 2): mask_of(0, 3),
        mask_of(0, 3): mask_of(0, 2),
        mask_of(1, 2): mask_of(1, 2),
        mask_of(1, 3): mask_of(1, 3),
    }
    for src, dst in table.items():
        col = gate.matrix[:, src]
        want = np.zeros(16)
        want[dst] = 1.0
        assert np.max(np.abs(col - want)) < 1e-11


def test_cnot_even_truth_table():
    gate = cnot(QubitEncoding((0, 1), "even"), QubitEncoding((2, 3), "even"), 4)
    # control doubly occupied = logical |1>: swap empty/full on the target
    table = {
        mask_of(0, 1): mask_of(0, 1, 2, 3),
        mask_of(0, 1, 2, 3): mask_of(0, 1),
        0: 0,
        mask_of(2, 3): mask_of(2, 3),
    }
    for src, dst in table.items():
        col = gate.matrix[:, src]
        want = np.zeros(16)
        want[dst] = 1.0
        assert np.max(np.abs(col - want)) < 1e-11


def test_cnot_ignores_intermediate_pair(rng):
    # same gate embedded on modes (0,1) and (4,5): commutes with anything on (2,3)
    ctrl = QubitEncoding((0, 1), "odd")
    tgt = QubitEncoding((4, 5), "odd")
    gate = cnot(ctrl, tgt, 6).matrix
    mid = rotation(QubitEncoding((2, 3), "odd"), tuple(rng.normal(size=3)), 6).matrix
    assert np.max(np.abs(gate @ mid - mid @ gate)) < 1e-10
    midpair = pauli(QubitEncoding((2, 3), "even"), "x", 6).matrix
    assert np.max(np.abs(gate @ midpair - midpair @ gate)) < 1e-10


def test_cnot_guards():
    with pytest.raises(OverlappingPairsError):
        cnot(QubitEncoding((0, 1), "odd"), QubitEncoding((1, 2), "odd"), 3)
    with pytest.raises(ValueError):
        cnot(QubitEncoding((0, 1), "odd"), QubitEncoding((2, 3), "even"), 4)


def test_dual_cnot_is_signed_permutation():
    gate = cnot(
        QubitEncoding((0, 1), "odd"),
        QubitEncoding((2, 3), "odd"),
        4,
        both_kinds=True,
    ).matrix
    mags = np.abs(gate)
    assert np.max(np.abs(mags * (1.0 - mags))) < 1e-11
    assert np.all(np.abs(np.sum(mags, axis=0) - 1.0) < 1e-11)
    assert np.max(np.abs(gate.imag)) < 1e-11
    # flip sector is Mz = -1: control second mode occupied, or control empty;
    # there the gate acts as sigma_x + sigma~_x, swapping 01<->10 and 00<->11
    swap = {0b00: 0b11, 0b01: 0b10, 0b10: 0b01, 0b11: 0b00}
    for src in range(16):
        ctrl_local = src & 0b11
        tgt_local = (src >> 2) & 0b11
        flip = ctrl_local in (0b00, 0b10)
        dst = src if not flip else (ctrl_local | (swap[tgt_local] << 2))
        assert abs(abs(gate[dst, src]) - 1.0) < 1e-11


def test_encoding_confinement():
    # one kind's rotation is the exact identity on the other kind's code space;
    # the CNOT exponent carries a scalar term, leaving the fixed phase e^{i pi/4}
    rot = rotation(QubitEncoding((0, 1), "even"), (0.3, -0.8, 1.1), 4).matrix
    gate = cnot(QubitEncoding((0, 1), "odd"), QubitEncoding((2, 3), "odd"), 4).matrix
    for ctrl_local in (0b00, 0b11):
        for tgt_local in (0b00, 0b11):
            mask = ctrl_local | (tgt_local << 2)
            want = np.zeros(16)
            want[mask] = 1.0
            odd_col = rot[:, mask_of(0) | (tgt_local << 2)]
            assert abs(odd_col[mask_of(0) | (tgt_local << 2)] - 1.0) < 1e-11
            col = gate[:, mask]
            assert np.max(np.abs(col - np.exp(1j * math.pi / 4.0) * want)) < 1e-11


@pytest.mark.parametrize("kind,tgt_out", [("odd", 0b00), ("even", 0b10)])
def test_cnot_phase_with_target_outside_its_sector(kind, tgt_out):
    # control logical |1> and target off its code space: the fixed phase i;
    # control logical |0>: the identity
    ctrl = QubitEncoding((0, 1), kind)
    gate = cnot(ctrl, QubitEncoding((2, 3), kind), 4).matrix
    ctrl_zero, ctrl_one = ctrl.logical_indices
    for ctrl_local, phase in ((ctrl_one, 1j), (ctrl_zero, 1.0)):
        mask = ctrl_local | (tgt_out << 2)
        want = np.zeros(16, dtype=complex)
        want[mask] = phase
        assert np.max(np.abs(gate[:, mask] - want)) < 1e-12


def test_rotation_rejects_bad_weights():
    enc = QubitEncoding((0, 1), "odd")
    for weights in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf), (0.1, 0.2)):
        with pytest.raises(ValueError):
            rotation(enc, weights, 2)
        with pytest.raises(ValueError):
            rotation(enc, weights, 2, both_kinds=True)


# ---------------------------------------------------------------------------
# measurements and the parity gate
# ---------------------------------------------------------------------------

def test_measurement_deterministic_on_basis_state():
    state = basis_state(4, mask_of(1, 2))
    res = measure_occupation(state, 1, seed=5)
    assert res.outcome == 1 and abs(res.probability - 1.0) < 1e-12
    assert np.max(np.abs(res.state.vector - state.vector)) < 1e-12
    res = measure_occupation(state, 3, seed=5)
    assert res.outcome == 0 and abs(res.probability - 1.0) < 1e-12


def test_measurement_on_bell_pair_is_balanced():
    bell = make_state(4, {mask_of(0, 2): 1.0, mask_of(1, 3): 1.0})
    for outcome in (0, 1):
        res = measure_branch(bell, 0, outcome)
        assert abs(res.probability - 0.5) < 1e-12
        assert abs(res.state.norm() - 1.0) < 1e-12
    # sampled outcomes follow the seeded generator reproducibly
    first = [measure_occupation(bell, 0, seed=s).outcome for s in range(20)]
    second = [measure_occupation(bell, 0, seed=s).outcome for s in range(20)]
    assert first == second
    assert {0, 1} == set(first)


def test_measurement_statistics_match_born_rule(rng):
    from fermient import random_state

    state = random_state(4, rng=rng)
    p1 = sum(
        abs(amp) ** 2 for m, amp in state.nonzero_amplitudes() if (m >> 2) & 1
    )
    shared = np.random.default_rng(99)
    hits = sum(
        measure_occupation(state, 2, rng=shared).outcome for _ in range(4000)
    )
    assert abs(hits / 4000.0 - p1) < 0.03


def test_impossible_branch_raises():
    state = basis_state(3, mask_of(0))
    with pytest.raises(ImpossibleBranchError):
        measure_branch(state, 1, 1)


def test_measuring_the_zero_state_raises_zero_norm_error():
    zero = FockState(2, np.zeros(4), "even")
    with pytest.raises(ZeroNormError):
        measure_branch(zero, 0, 0)
    with pytest.raises(ZeroNormError):
        measure_occupation(zero, 0, seed=1)


def test_occupation_projector_is_idempotent():
    proj = occupation_projector(2, 1, 4)
    m = proj.matrix
    assert np.max(np.abs(m @ m - m)) < 1e-12
    comp = occupation_projector(2, 0, 4).matrix
    assert np.max(np.abs(m + comp - np.eye(16))) < 1e-12


def test_parity_gate_eigenvalues():
    gate = parity_gate((0, 1), 4)
    for mask in range(16):
        local = bin(mask & 0b11).count("1") % 2
        want = 1.0 if local else -1.0
        assert abs(gate.matrix[mask, mask] - want) < 1e-12


def test_parity_gate_turns_psi00_into_tilde():
    psi = superdense_encode("000")
    flipped = parity_gate((0, 1), 4).matrix @ psi.vector
    # (beta_00 - beta~_00)/sqrt2
    want = np.zeros(16, dtype=complex)
    want[mask_of(0, 2)] = 0.5
    want[mask_of(1, 3)] = 0.5
    want[0] = -0.5
    want[mask_of(0, 1, 2, 3)] = -0.5
    assert np.max(np.abs(flipped - want)) < 1e-12


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

def test_teleport_input_matches_printed_expansion():
    alpha, beta = 0.6, 0.8
    rep = run_teleportation((alpha, beta), "odd")
    inv = 1.0 / math.sqrt(2.0)
    want = {
        mask_of(0, 2, 4): -alpha * inv,
        mask_of(1, 2, 5): -alpha * inv,
        mask_of(0, 3, 4): -beta * inv,
        mask_of(1, 3, 5): -beta * inv,
    }
    for mask in range(64):
        assert abs(rep.input_state.amplitude(mask) - want.get(mask, 0.0)) < 1e-12

    rep = run_teleportation((alpha, beta), "even")
    want = {
        0: beta * inv,
        mask_of(2, 3): alpha * inv,
        mask_of(0, 1, 4, 5): beta * inv,
        mask_of(0, 1, 2, 3, 4, 5): alpha * inv,
    }
    for mask in range(64):
        assert abs(rep.input_state.amplitude(mask) - want.get(mask, 0.0)) < 1e-12


def test_teleport_odd_output_matches_printed_expansion():
    alpha, beta = 0.6, 0.8
    out = run_teleportation((alpha, beta), "odd").output_state
    want = {
        mask_of(1, 3, 4): -alpha / 2, mask_of(1, 3, 5): -beta / 2,
        mask_of(0, 3, 5): -alpha / 2, mask_of(0, 3, 4): -beta / 2,
        mask_of(1, 2, 4): +alpha / 2, mask_of(1, 2, 5): -beta / 2,
        mask_of(0, 2, 5): +alpha / 2, mask_of(0, 2, 4): -beta / 2,
    }
    for mask in range(64):
        assert abs(out.amplitude(mask) - want.get(mask, 0.0)) < 1e-11


def test_teleport_even_output_matches_printed_expansion():
    alpha, beta = 0.6, 0.8
    out = run_teleportation((alpha, beta), "even").output_state
    want = {
        0: beta / 2,
        mask_of(4, 5): alpha / 2,
        mask_of(0, 1): alpha / 2,
        mask_of(0, 1, 4, 5): beta / 2,
        mask_of(2, 3): beta / 2,
        mask_of(2, 3, 4, 5): -alpha / 2,
        mask_of(0, 1, 2, 3): -alpha / 2,
        mask_of(0, 1, 2, 3, 4, 5): beta / 2,
    }
    for mask in range(64):
        assert abs(out.amplitude(mask) - want.get(mask, 0.0)) < 1e-11


@pytest.mark.parametrize("kind", ["odd", "even"])
def test_teleport_branches_reach_unit_fidelity(kind, rng):
    for _ in range(10):
        alpha, beta = random_qubit(rng)
        report = run_teleportation((alpha, beta), kind)
        assert len(report.branches) == 4
        assert sorted(b.index for b in report.branches) == [0, 1, 2, 3]
        for branch in report.branches:
            assert abs(branch.probability - 0.25) < 1e-11
            assert branch.fidelity > 1.0 - 1e-11
            target = np.array([beta, alpha])
            want = np.outer(target, target.conj())
            assert np.max(np.abs(branch.bob_block - want)) < 1e-9


@pytest.mark.parametrize("kind", ["odd", "even"])
def test_teleport_basis_input_lands_deterministically(kind):
    report = run_teleportation((1.0, 0.0), kind)
    part = ModePartition(6, (4, 5))
    for branch in report.branches:
        rho = reduced_state(branch.state, part, "a")
        diag = np.real(np.diag(rho.matrix))
        if kind == "odd":
            # alpha = 1 puts Bob's fermion on the pair's first mode
            assert abs(diag[0b01] - 1.0) < 1e-11
        else:
            assert abs(diag[0b11] - 1.0) < 1e-11


def test_teleport_rejects_unnormalized_input():
    with pytest.raises(NotNormalizedError):
        run_teleportation((0.9, 0.6), "odd")
    with pytest.raises(ValueError):
        run_teleportation((1.0, 0.0), "huge")


# ---------------------------------------------------------------------------
# superdense coding
# ---------------------------------------------------------------------------

MESSAGES = tuple(f"{i}{j}{k}" for i in "01" for j in "01" for k in "01")

BELL_TABLES = {
    "00": {mask_of(0, 2): 0.5, mask_of(1, 3): 0.5, 0: 0.5, mask_of(0, 1, 2, 3): 0.5},
    "01": {mask_of(0, 3): 0.5, mask_of(1, 2): 0.5, mask_of(0, 1): 0.5, mask_of(2, 3): 0.5},
    "10": {mask_of(0, 2): 0.5, mask_of(1, 3): -0.5, mask_of(0, 1, 2, 3): 0.5, 0: -0.5},
    "11": {mask_of(0, 3): 0.5, mask_of(1, 2): -0.5, mask_of(0, 1): 0.5, mask_of(2, 3): -0.5},
}

ODD_LOCAL = (mask_of(0, 2), mask_of(0, 3), mask_of(1, 2), mask_of(1, 3))


def test_superdense_states_match_bell_combinations():
    for bits, table in BELL_TABLES.items():
        plain = superdense_encode(bits + "0")
        for mask in range(16):
            assert abs(plain.amplitude(mask) - table.get(mask, 0.0)) < 1e-11
        tilde = superdense_encode(bits + "1")
        for mask in range(16):
            sign = 1.0 if mask in ODD_LOCAL else -1.0
            assert abs(tilde.amplitude(mask) - sign * table.get(mask, 0.0)) < 1e-11


@pytest.mark.parametrize("variant", ["psi00", "psi00prime"])
def test_superdense_family_is_orthonormal(variant):
    states = [superdense_encode(m, variant) for m in MESSAGES]
    gram = np.array(
        [[abs(a.overlap(b)) for b in states] for a in states]
    )
    assert np.max(np.abs(gram - np.eye(8))) < 1e-9


@pytest.mark.parametrize("variant", ["psi00", "psi00prime"])
def test_superdense_round_trip(variant):
    for message in MESSAGES:
        state = superdense_encode(message, variant)
        assert superdense_decode(state, variant) == message


def test_superdense_entanglement_values():
    part = ModePartition(4, (0, 1))
    for message in MESSAGES:
        state = superdense_encode(message)
        assert abs(bipartite_entropy(state, part) - 2.0) < 1e-9
        assert abs(concurrence(state) - 1.0) < 1e-9
        primed = superdense_encode(message, "psi00prime")
        assert abs(bipartite_entropy(primed, part) - 2.0) < 1e-9
        assert concurrence(primed) < 1e-9


def test_superdense_decode_guards():
    with pytest.raises(UnknownStateError):
        superdense_decode(basis_state(4, mask_of(0, 2)))
    with pytest.raises(DimensionMismatchError):
        superdense_decode(basis_state(5, mask_of(0, 2)))
    with pytest.raises(ValueError):
        superdense_encode("10")
    with pytest.raises(ValueError):
        superdense_encode("abc")
    with pytest.raises(ValueError):
        superdense_encode("000", variant="psi11")


def test_superdense_operations_are_alice_local(rng):
    # every encoding unitary commutes with operators supported on Bob's modes
    enc = QubitEncoding((0, 1), "odd")
    alice_ops = [
        np.eye(16, dtype=complex),
        1j * rotation(enc, (-HALF, 0.0, 0.0), 4, both_kinds=True).matrix,
        1j * rotation(enc, (0.0, 0.0, -HALF), 4, both_kinds=True).matrix,
        -rotation(enc, (0.0, -HALF, 0.0), 4, both_kinds=True).matrix,
        parity_gate((0, 1), 4).matrix,
    ]
    bob_ops = [
        pauli(QubitEncoding((2, 3), "odd"), "x", 4).matrix,
        pauli(QubitEncoding((2, 3), "even"), "y", 4).matrix,
        parity_gate((2, 3), 4).matrix,
    ]
    weights = rng.normal(size=3)
    bob_ops.append(sum(w * op for w, op in zip(weights, bob_ops)))
    for u in alice_ops:
        for o in bob_ops:
            assert np.max(np.abs(u @ o - o @ u)) < 1e-10


def test_superdense_encoding_preserves_entanglement_bookkeeping():
    # Alice's operations change neither S(rho_B) nor the rho^qsp spectrum
    part = ModePartition(4, (0, 1))
    seed = superdense_encode("000")
    base_spectrum = extended_density(seed).spectrum().values
    base_entropy = bipartite_entropy(seed, part)
    for message in MESSAGES:
        state = superdense_encode(message)
        assert abs(bipartite_entropy(state, part) - base_entropy) < 1e-9
        spec = extended_density(state).spectrum().values
        assert np.max(np.abs(spec - base_spectrum)) < 1e-9


# ---------------------------------------------------------------------------
# classical reduction and the superselection negative example
# ---------------------------------------------------------------------------

def test_gate_set_permutes_basis_states():
    # CNOT plus the discrete X/Z corrections map code SDs to code SDs
    ctrl = QubitEncoding((0, 1), "odd")
    tgt = QubitEncoding((2, 3), "odd")
    ops = [
        cnot(ctrl, tgt, 4).matrix,
        1j * rotation(tgt, (-HALF, 0.0, 0.0), 4).matrix,
        1j * rotation(tgt, (0.0, 0.0, -HALF), 4).matrix,
        parity_gate((0, 1), 4).matrix,
    ]
    for op in ops:
        for src in ODD_LOCAL:
            col = op[:, src]
            mags = np.abs(col)
            top = int(np.argmax(mags))
            assert abs(mags[top] - 1.0) < 1e-11
            assert top in ODD_LOCAL


def test_split_fermion_resource_cannot_teleport():
    # a single fermion shared across the cut has definite-parity branches;
    # the superposed target state itself violates parity superselection
    with pytest.raises(MixedParityError):
        make_state(1, {0: 1.0, 1: 1.0})
    resource = make_state(2, {0b01: 1.0, 0b10: 1.0})
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    part = ModePartition(2, (1,), (0,))
    for outcome in (0, 1):
        res = measure_branch(resource, 0, outcome)
        rho_bob = reduced_state(res.state, part, "a").matrix
        assert abs(res.probability - 0.5) < 1e-12
        # Bob's branch state is a parity eigenstate: off-diagonals vanish
        assert abs(rho_bob[0, 1]) < 1e-12
        fidelity = float(np.real(target.conj() @ rho_bob @ target))
        assert abs(fidelity - 0.5) < 1e-12


def test_superdense_encode_builds_its_gates_once(monkeypatch):
    superdense_encode("111")
    built = []
    seal = FockOperator._seal

    def counted(self, defect, **arrays):
        built.append(self.kind)
        return seal(self, defect, **arrays)

    monkeypatch.setattr(FockOperator, "_seal", counted)
    for _ in range(3):
        superdense_encode("111")
    assert built == []


def test_cached_gate_arrays_are_read_only():
    cached = []
    for kind in ("odd", "even"):
        run_teleportation((0.6, 0.8), kind)
        assert len(protocols._teleport_gates(kind)) == 4
        cached += protocols._teleport_gates(kind)
    for message in protocols._SDC_MESSAGES:
        superdense_encode(message)
    # "00" applies nothing, so it caches nothing; the third bit's parity gate is cached too
    assert protocols._sdc_unitary.cache_info().currsize == 4
    cached += [protocols._sdc_unitary(key) for key in ("01", "10", "11", "parity")]
    for gate in cached:
        assert isinstance(gate, FockOperator)
        assert gate.kind == "unitary"
        assert not any(a.flags.writeable for a in (gate._diagonal, gate._partner, gate._off))
        assert not gate.matrix.flags.writeable


def test_protocols_never_build_a_dense_matrix():
    protocols._teleport_gates.cache_clear()
    protocols._sdc_unitary.cache_clear()
    protocols._code_family.cache_clear()
    for kind in ("odd", "even"):
        run_teleportation((0.6, 0.8), kind)
    for variant in ("psi00", "psi00prime"):
        for message in protocols._SDC_MESSAGES:
            assert superdense_decode(superdense_encode(message, variant), variant) == message
    cached = [gate for kind in ("odd", "even") for gate in protocols._teleport_gates(kind)]
    assert protocols._sdc_unitary.cache_info().currsize == 4
    cached += [protocols._sdc_unitary(key) for key in ("01", "10", "11", "parity")]
    for gate in cached:
        assert "matrix" not in vars(gate)


def test_protocols_act_only_through_operator_apply(monkeypatch):
    protocols._code_family("psi00")
    calls = []
    apply = FockOperator.apply

    def counted(self, state):
        calls.append(self)
        return apply(self, state)

    monkeypatch.setattr(FockOperator, "apply", counted)
    for kind in ("odd", "even"):
        calls.clear()
        run_teleportation((0.6, 0.8), kind)
        cnot_gate, hadamard_gate, x_fix, z_fix = protocols._teleport_gates(kind)
        # the circuit, CNOT first, then the X fix on two branches and the Z fix on two
        assert len(calls) == 6
        assert calls[0] is cnot_gate and calls[1] is hadamard_gate
        assert sorted(map(id, calls[2:])) == sorted(map(id, [x_fix, x_fix, z_fix, z_fix]))
    calls.clear()
    superdense_encode("111")
    # the cached "11" operation, then the parity gate
    assert len(calls) == 2
    assert calls[0] is protocols._sdc_unitary("11")


@pytest.mark.parametrize(
    "call",
    [
        lambda: QubitEncoding((1, 1), "odd"),
        lambda: QubitEncoding((0, 1), "weird"),
        lambda: pauli(QubitEncoding((0, 1), "odd"), "w", 2),
        lambda: rotation(QubitEncoding((0, 1), "odd"), (math.nan, 0.0, 0.0), 2),
        lambda: cnot(QubitEncoding((0, 1), "odd"), QubitEncoding((2, 3), "even"), 4),
        lambda: parity_gate(()),
        lambda: occupation_projector(0, 2, 3),
        lambda: measure_branch(vacuum_state(2), 0, 2),
        lambda: run_teleportation((0.6, 0.8), "weird"),
        lambda: superdense_encode("1012"),
        lambda: superdense_encode("101", "psi11"),
        lambda: apply_operator_string(vacuum_state(2), [("flip", 0)]),
        lambda: measure_branch(vacuum_state(2), 1.5, 0),
        lambda: measure_occupation(vacuum_state(2), 1.5),
        lambda: apply_creation(vacuum_state(2), 1.5),
        lambda: number_matrix(2, 1.5),
        lambda: make_state(2, {1.5: 1.0}),
        lambda: make_state(2, {"1": 1.0}),
    ],
    ids=[
        "repeated-mode", "encoding-kind", "pauli-axis", "rotation-weights",
        "cnot-kinds", "empty-parity-gate", "projector-outcome", "measure-outcome",
        "teleport-kind", "sdc-message", "sdc-variant", "factor-kind", "measure-float-mode",
        "occupation-float-mode", "creation-float-mode", "number-float-mode",
        "make-state-float-mask", "make-state-string-mask",
    ],
)
def test_bad_arguments_raise_argument_error_that_is_a_value_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, ArgumentError)


# ---------------------------------------------------------------------------
# gates at n = 10
# ---------------------------------------------------------------------------

def _with_local(mask, pair, local):
    """``mask`` with the pair's modes set to the local index (bit k = pair[k])."""
    mask &= ~(1 << pair[0] | 1 << pair[1])
    return mask | (local & 1) << pair[0] | (local >> 1) << pair[1]


@pytest.mark.parametrize("kind", ["odd", "even"])
def test_gates_at_ten_modes_act_by_their_logical_closed_forms(kind):
    n, spectators = 10, mask_of(0, 2, 3, 7)
    enc, other = QubitEncoding((4, 5), kind), QubitEncoding((8, 9), kind)
    logical = enc.logical_indices
    # exp(i w.sigma) on (|0_L>, |1_L>), where sigma_z = diag(-1, 1)
    wx, wy, wz = weights = (0.3, -0.7, 0.5)
    norm = math.sqrt(wx * wx + wy * wy + wz * wz)
    gen = np.array([[-wz, wx + 1j * wy], [wx - 1j * wy, wz]])
    logical_rotation = math.cos(norm) * np.eye(2) + 1j * math.sin(norm) / norm * gen
    logical_hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    for gate, block in (
        (rotation(enc, weights, n), logical_rotation),
        (hadamard(enc, n), logical_hadamard),
    ):
        for bit in (0, 1):
            column = gate.apply(basis_state(n, _with_local(spectators, enc.pair, logical[bit])))
            want = np.zeros(1 << n, dtype=np.complex128)
            for out_bit in (0, 1):
                want[_with_local(spectators, enc.pair, logical[out_bit])] = block[out_bit, bit]
            assert np.max(np.abs(column.vector - want)) < 1e-12
    gate = cnot(enc, other, n)
    for ctrl in (0, 1):
        for tgt in (0, 1):
            src = _with_local(spectators, enc.pair, logical[ctrl])
            column = gate.apply(basis_state(n, _with_local(src, other.pair, logical[tgt])))
            want = basis_state(n, _with_local(src, other.pair, logical[tgt ^ ctrl]))
            assert np.max(np.abs(column.vector - want.vector)) < 1e-12


def test_gate_check_allocates_no_second_dense_matrix():
    odd, even = QubitEncoding((4, 5), "odd"), QubitEncoding((8, 9), "even")
    builds = (
        lambda: rotation(odd, (0.3, -0.7, 0.5), 10),
        lambda: rotation(even, (0.3, -0.7, 0.5), 10, both_kinds=True),
        lambda: hadamard(even, 10),
        lambda: cnot(odd, QubitEncoding((0, 1), "odd"), 10),
        lambda: cnot(even, QubitEncoding((0, 1), "even"), 10, both_kinds=True),
        lambda: parity_gate((1, 2, 6), 10),
        lambda: pauli(odd, "x", 10),
        lambda: occupation_projector(3, 1, 10),
    )
    dense = 16 * 4**10  # bytes of one complex 2^10 x 2^10 matrix
    tracemalloc.start()
    try:
        for build in builds:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gate = build()
            # the block form and O(2^n) tables, never a 2^n x 2^n array
            assert tracemalloc.get_traced_memory()[1] - before < dense / 16
            del gate
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build",
    [
        lambda: occupation_projector(-1, 1, 3),
        lambda: parity_gate((-1,)),
        lambda: rotation(QubitEncoding((0, 12), "odd"), (0.3, -0.7, 0.5)),
        lambda: pauli(QubitEncoding((0, 12), "odd"), "x"),
        lambda: occupation_projector(0, 1, 13),
    ],
    ids=["negative-projector", "negative-parity", "rotation-13", "pauli-13", "projector-13"],
)
def test_out_of_range_modes_raise_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# n = 12: every public name that returns a FockOperator
# ---------------------------------------------------------------------------

_N12_PEAK = 4 << 20

#: (public name, call at n = 12, the FermionError it raises before allocating or None);
#: an operator that builds is applied to a random even 12-mode state
N12_OPERATORS = [
    ("pauli", lambda: pauli(QubitEncoding((11, 0), "even"), "y", 12), None),
    ("rotation", lambda: rotation(QubitEncoding((3, 9), "odd"), (0.3, -0.7, 0.5), 12), None),
    ("rotation", lambda: rotation(QubitEncoding((0, 11), "even"), (1.0, 0.2, -0.4), 12, True),
     None),
    ("hadamard", lambda: hadamard(QubitEncoding((5, 6), "even"), 12), None),
    ("cnot", lambda: cnot(QubitEncoding((0, 1), "odd"), QubitEncoding((10, 11), "odd"), 12),
     None),
    ("cnot", lambda: cnot(QubitEncoding((8, 2), "even"), QubitEncoding((4, 7), "odd"), 12, True),
     None),
    ("parity_gate", lambda: parity_gate((0, 5, 11), 12), None),
    ("occupation_projector", lambda: occupation_projector(11, 1, 12), None),
    ("lift_to_fock", lambda: fermient.lift_to_fock(fermient.identity_map(12), 12),
     fermient.MemoryBudgetError),
]


@pytest.mark.parametrize(
    "build, error", [entry[1:] for entry in N12_OPERATORS],
    ids=[f"{name}-{k}" for k, (name, *_) in enumerate(N12_OPERATORS)],
)
def test_operators_build_and_apply_at_twelve_modes_within_the_peak(build, error):
    """A block-built operator builds and applies at n = 12 without its 256 MiB matrix;
    the dense lift raises its budget error first. Either stays under 4 MiB traced."""
    state = fermient.random_state(12, "even", seed=12)
    tracemalloc.start()
    try:
        if error is None:
            op = build()
            out = op.apply(state)
        else:
            with pytest.raises(error):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _N12_PEAK
    if error is None:
        assert "matrix" not in vars(op)
        assert out.n_modes == 12 and out.parity == "even"
        if op.kind == "unitary":
            assert abs(out.norm() - 1.0) <= 1e-12


def test_every_public_operator_constructor_is_in_the_n12_table():
    returns_operator = {
        name for name in fermient.__all__
        if inspect.isfunction(getattr(fermient, name))
        and inspect.signature(getattr(fermient, name)).return_annotation in ("FockOperator",
                                                                             FockOperator)
    }
    assert returns_operator == {name for name, *_ in N12_OPERATORS}


# ---------------------------------------------------------------------------
# the integer rule: every mode, mask, pair entry, mode set and mode count
# ---------------------------------------------------------------------------

_VAC2 = vacuum_state(2)
_MAP2 = fermient.identity_map(2)
_ENC01, _ENC23 = QubitEncoding((0, 1), "odd"), QubitEncoding((2, 3), "odd")
_COUNTS = (0, 13)

#: (public name, parameter, call with the value in that parameter, out-of-range integers);
#: a mode set or pair gets the value as one of its entries
MODE_ARGUMENTS = [
    ("FockState", "n_modes", lambda v, rng: FockState(v, np.zeros(4), "even"), _COUNTS),
    ("FockOperator", "n_modes", lambda v, rng: FockOperator(v, np.eye(4), "unitary"), _COUNTS),
    ("make_state", "n_modes", lambda v, rng: make_state(v, {0: 1.0}), _COUNTS),
    ("basis_state", "n_modes", lambda v, rng: basis_state(v, 0), _COUNTS),
    ("basis_state", "mask", lambda v, rng: basis_state(2, v), (4, -1)),
    ("vacuum_state", "n_modes", lambda v, rng: vacuum_state(v), _COUNTS),
    ("random_state", "n_modes", lambda v, rng: fermient.random_state(v, rng=rng), _COUNTS),
    ("apply_creation", "mode", lambda v, rng: apply_creation(_VAC2, v), (2, -1)),
    ("apply_annihilation", "mode", lambda v, rng: fermient.apply_annihilation(_VAC2, v), (2, -1)),
    ("ModePartition", "n_modes", lambda v, rng: ModePartition(v, (0,)), _COUNTS),
    ("ModePartition", "side_a", lambda v, rng: ModePartition(4, (0, v)), (4, -1)),
    ("ModePartition", "side_b", lambda v, rng: ModePartition(4, (0,), (1, 2, v)), (4, -1)),
    ("identity_map", "n_modes", lambda v, rng: fermient.identity_map(v), _COUNTS),
    ("particle_hole_map", "n_modes", lambda v, rng: fermient.particle_hole_map(v, ()), _COUNTS),
    ("particle_hole_map", "modes", lambda v, rng: fermient.particle_hole_map(2, (0, v)), (2, -1)),
    ("random_bogoliubov", "n_modes", lambda v, rng: fermient.random_bogoliubov(v, rng=rng),
     _COUNTS),
    ("lift_to_fock", "n_modes", lambda v, rng: fermient.lift_to_fock(_MAP2, v), _COUNTS),
    ("particle_hole", "modes", lambda v, rng: fermient.particle_hole(_VAC2, (v,)), (2, -1)),
    ("QubitEncoding", "pair", lambda v, rng: QubitEncoding((0, v), "odd"), (-1,)),
    ("pauli", "n_modes", lambda v, rng: pauli(_ENC01, "x", v), (*_COUNTS, 1)),
    ("rotation", "n_modes", lambda v, rng: rotation(_ENC01, (0.1, 0.2, 0.3), v), (*_COUNTS, 1)),
    ("hadamard", "n_modes", lambda v, rng: hadamard(_ENC01, v), (*_COUNTS, 1)),
    ("cnot", "n_modes", lambda v, rng: cnot(_ENC01, _ENC23, v), (*_COUNTS, 3)),
    ("parity_gate", "modes", lambda v, rng: parity_gate((0, v), 4), (4, -1)),
    ("parity_gate", "n_modes", lambda v, rng: parity_gate((0,), v), _COUNTS),
    ("occupation_projector", "mode", lambda v, rng: occupation_projector(v, 1, 4), (4, -1)),
    ("occupation_projector", "n_modes", lambda v, rng: occupation_projector(0, 1, v), _COUNTS),
    ("measure_branch", "mode", lambda v, rng: measure_branch(_VAC2, v, 0), (2, -1)),
    ("measure_occupation", "mode", lambda v, rng: measure_occupation(_VAC2, v, rng=rng),
     (2, -1)),
]


@pytest.mark.parametrize(
    "call, out_of_range", [entry[2:] for entry in MODE_ARGUMENTS],
    ids=[f"{name}-{param}" for name, param, *_ in MODE_ARGUMENTS],
)
def test_mode_arguments_are_read_before_any_draw_or_allocation(call, out_of_range):
    """A non-integer raises ArgumentError, an integer out of range DimensionMismatchError;
    either before a passed rng draws or anything sizeable is allocated."""
    cases = [(4.0, ArgumentError), (True, ArgumentError), ("1", ArgumentError)]
    cases += [(value, DimensionMismatchError) for value in out_of_range]
    for value, error in cases:
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                call(value, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(info.value) is error, (value, info.value)
        assert rng.bit_generator.state == before, value
        assert peak < 1 << 20, value


#: (public name, parameter, call with a container argument of the wrong kind)
CONTAINER_ARGUMENTS = [
    ("ModePartition", "side_a", lambda: ModePartition(4, 1)),
    ("ModePartition", "side_b", lambda: ModePartition(4, (0,), 2)),
    ("particle_hole_map", "modes", lambda: fermient.particle_hole_map(4, 1)),
    ("particle_hole", "modes", lambda: fermient.particle_hole(_VAC2, 0)),
    ("parity_gate", "modes", lambda: parity_gate(4.0)),
    ("QubitEncoding", "pair", lambda: QubitEncoding((0, 1, 2), "odd")),
    ("QubitEncoding", "pair", lambda: QubitEncoding((0,), "odd")),
    ("QubitEncoding", "pair", lambda: QubitEncoding(0, "odd")),
]


@pytest.mark.parametrize(
    "call", [entry[2] for entry in CONTAINER_ARGUMENTS],
    ids=[f"{name}-{param}-{k}" for k, (name, param, _) in enumerate(CONTAINER_ARGUMENTS)],
)
def test_container_arguments_of_the_wrong_kind_raise_argument_error(call):
    """A bare mode where a mode set is due, or a pair of the wrong length, raises
    ArgumentError (exit code 2 in the CLI), not a bare TypeError or ValueError."""
    with pytest.raises(ArgumentError) as info:
        call()
    assert type(info.value) is ArgumentError


def test_every_public_mode_parameter_is_in_the_integer_table():
    names = {"n_modes", "mode", "modes", "mask", "pair", "side_a", "side_b"}
    covered = {(name, param) for name, param, *_ in MODE_ARGUMENTS}
    wanted = set()
    for name in fermient.__all__:
        obj = getattr(fermient, name)
        if not callable(obj) or name == "ReducedDensity":  # its ``modes`` is a label
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        wanted |= {(name, param) for param in names & set(params)}
    assert wanted - covered == set()
    assert covered <= wanted


def test_encoding_pair_is_read_into_a_tuple_of_ints():
    # the gates' bit tables are cached per pair, so a list or NumPy entries must key them too
    enc = QubitEncoding([np.int64(2), 0], "even")
    assert enc.pair == (2, 0) and all(type(m) is int for m in enc.pair)
    want = rotation(QubitEncoding((2, 0), "even"), (0.3, -0.2, 0.9), 3).apply(vacuum_state(3))
    got = rotation(enc, (0.3, -0.2, 0.9), 3).apply(vacuum_state(3))
    assert np.array_equal(got.vector, want.vector)


def test_random_state_checks_its_parity_tag_before_drawing():
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    with pytest.raises(fermient.WrongParityError, match="parity tag"):
        fermient.random_state(2, "weird", rng=rng)
    assert rng.bit_generator.state == before
