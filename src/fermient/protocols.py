"""Parity-aware fermionic qubits, gates, and two protocol demonstrations.

A qubit lives on a pair of modes with a fixed local number parity. The odd
kind keeps exactly one fermion on the pair; the even kind keeps the pair
empty or doubly occupied. Each kind carries its own Pauli dictionary acting
inside that sector and vanishing on the opposite one, so gates built from
one dictionary leave the other kind's states alone.

Logical convention used throughout: |0_L> is the sigma_z = -1 state of the
pair (second mode occupied for the odd kind, empty pair for the even kind).
The controlled-NOT exponent therefore carries (1 + sigma_z) on the control,
which flips the target exactly when the control holds logical |1>.

Gates are built from closed forms, never by exponentiating a dense
generator. On its sector a kind's sigma_a satisfy sigma_a sigma_b +
sigma_b sigma_a = 2 delta_ab Pi, with Pi the sector projector, and they
vanish outside it. Hence

    exp(i lambda.sigma) = (1 - Pi) + Pi cos|lambda| + i sin|lambda| lambda^.sigma,

the identity for lambda = 0. The dual dictionary sigma + sigma~ squares to
the identity on the pair, so exp(i lambda.(sigma + sigma~)) =
cos|lambda| + i sin|lambda| lambda^.(sigma + sigma~). The Hadamard is i times
a rotation, with the i folded into the same matrix.

The CNOT's control factor is diagonal in the occupation basis, so the gate
is a rotation of the target by an angle phi = pi/4 (1 + sigma_z^ctrl) read
off each basis state: exp[i phi (1 - sigma_x^tgt)] =
e^{i phi} exp(-i phi sigma_x^tgt). With P = (Pi_c + sigma_z^c)/2,
R_c = 1 - Pi_c, Q = (Pi_t - sigma_x^t)/2 and R_t = 1 - Pi_t (commuting
projectors whose products are orthogonal) this is

    1 - 2 P Q + (i - 1)(P R_t + R_c Q) + (e^{i pi/4} - 1) R_c R_t.

On the code space it reduces to 1 - 2 P Q. Off it the gate keeps phases:
i where the control holds logical |1> and the target pair is outside its
sector, e^{i pi/4} where both pairs are outside, and the mixing (i - 1) R_c Q
where only the control is outside. In the dual form P = (1 - sigma_z -
sigma~_z)/2 and Q = (1 - sigma_x - sigma~_x)/2 are true projectors, and the
gate is 1 - 2 P Q exactly.

The off-diagonal part of sigma_x and sigma_y comes from h = cdag_i c_j (odd
kind) or h = cdag_i cdag_j (even kind), whose (row, column, sign) table reads
its signs from the Jordan-Wigner tables of ``fock``. That keeps the sign
right for non-adjacent and reversed pairs.

Every operator built here, gate, Pauli or projector, is a diagonal plus
disjoint 2x2 blocks: each hop couples one column mask with one row mask, the
pairs of the two kinds are disjoint, and ``parity_gate``, the sigma_z Pauli
and ``occupation_projector`` are diagonal. Each is handed to ``fock`` as its
full diagonal, its mask pairs and the two off-diagonal entries of each block.
``fock`` rejects a mask that lies in two blocks, writes the one dense matrix
itself, and checks the operator's kind (unitary, Hermitian or projector) on
the 2x2 blocks and the 1x1 diagonal singles. M is a direct sum of those, so
M^dag M, M - M^dag and M M - M are too, and the largest block residual is the
dense defect. The check costs O(2^n) and scans no dense matrix for nonzero
entries, since nothing can lie outside the blocks; nothing of size 2^n x 2^n
is allocated beside the operator itself.

The protocols cache operators, not arrays, with every phase folded into the
closed form, and change a state only through ``FockOperator.apply``. The
teleport circuit's product mixes two pairings and has no block form, so it
is applied as its factors, the CNOT first and then the Hadamard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .entanglement import ModePartition, reduced_state
from .errors import (
    ArgumentError,
    DimensionMismatchError,
    ImpossibleBranchError,
    NotNormalizedError,
    OverlappingPairsError,
    UnknownStateError,
    ZeroNormError,
)
from .fock import (
    FockOperator,
    FockState,
    TOL_ZERO,
    _dim,
    _is_unit_weight,
    _mode_tables,
    apply_operator_string,
    vacuum_state,
)

Axis = Literal["x", "y", "z"]
Kind = Literal["odd", "even"]

_KINDS: tuple[Kind, Kind] = ("odd", "even")

_DECODE_TOL = 1e-9


@dataclass(frozen=True)
class QubitEncoding:
    """A qubit carried by a pair of modes with fixed local number parity."""

    pair: tuple[int, int]
    kind: Kind

    def __post_init__(self) -> None:
        i, j = self.pair
        if i == j:
            raise ArgumentError("encoding modes must be distinct")
        if i < 0 or j < 0:
            raise ArgumentError("encoding modes must be non-negative")
        if self.kind not in ("odd", "even"):
            raise ArgumentError(f"unknown encoding kind {self.kind!r}")

    @property
    def logical_indices(self) -> tuple[int, int]:
        """Local-basis indices of (|0_L>, |1_L>) in the pair's 4-dim space.

        Bit k of the local index is the occupation of ``pair[k]``.
        """
        return (2, 1) if self.kind == "odd" else (0, 3)


def _ambient_modes(n_modes: int | None, *mode_groups: tuple[int, ...]) -> int:
    """Mode count of the operator's Fock space, checked before anything is allocated."""
    modes = [m for group in mode_groups for m in group]
    n = max(modes) + 1 if n_modes is None else n_modes
    outside = [m for m in modes if not 0 <= m < n]
    if outside:
        raise DimensionMismatchError(f"mode {outside[0]} does not fit in {n} modes")
    _dim(n)
    return n


def _dictionary_tables(
    pair: tuple[int, int], kind: Kind, n_modes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bit tables of one kind's Pauli dictionary on ``pair``.

    Returns ``(sector, z, rows, cols, sign)``: the diagonals of the sector
    projector Pi and of sigma_z, and the table of h = cdag_i c_j (odd kind) or
    h = cdag_i cdag_j (even kind), which moves the amplitude at ``cols[k]`` to
    ``rows[k]`` with factor ``sign[k]``. Then sigma_x = h + h^dag and
    sigma_y = -i (h - h^dag).
    """
    i, j = pair
    masks = np.arange(1 << n_modes)
    occ_i, occ_j = (masks >> i) & 1, (masks >> j) & 1
    if kind == "odd":
        sector, z = occ_i ^ occ_j, occ_i - occ_j
        cols = masks[(occ_i == 0) & (occ_j == 1)]
    else:
        sector, z = 1 - (occ_i ^ occ_j), occ_i + occ_j - 1
        cols = masks[(occ_i == 0) & (occ_j == 0)]
    # c_j (odd) or cdag_j (even) acts first, then cdag_i
    c, cdag = _mode_tables(n_modes)
    mid = cols ^ (1 << j)
    rows = mid ^ (1 << i)
    sign = (c if kind == "odd" else cdag)[j, mid] * cdag[i, rows]
    return sector.astype(np.float64), z.astype(np.float64), rows, cols, sign


def pauli(encoding: QubitEncoding, axis: Axis, n_modes: int | None = None) -> FockOperator:
    """Dense Pauli operator of the encoding's dictionary along ``axis``."""
    if axis not in ("x", "y", "z"):
        raise ArgumentError(f"unknown axis {axis!r}")
    n = _ambient_modes(n_modes, encoding.pair)
    _, z, rows, cols, sign = _dictionary_tables(encoding.pair, encoding.kind, n)
    if axis == "z":
        return FockOperator._from_blocks(n, "hermitian", z)
    hop = sign if axis == "x" else -1j * sign
    pairs = np.stack([cols, rows], axis=1)
    return FockOperator._from_blocks(n, "hermitian", np.zeros(1 << n), pairs, hop, np.conj(hop))


def _dictionary_exp(
    pair: tuple[int, int],
    kinds: tuple[Kind, ...],
    n_modes: int,
    weights: tuple,
    phase: complex | np.ndarray = 1.0,
) -> FockOperator:
    """phase * exp(i lambda . sum_k sigma^(k)) over the dictionaries of ``kinds``.

    The closed form of the module docstring: one 2x2 block per hop, coupling
    its column with its row, and the diagonal. Each weight and ``phase`` is a
    scalar or a per-mask array; an array must depend only on modes outside
    ``pair``, which the hops leave unchanged.
    """
    dim = 1 << n_modes
    wx, wy, wz = (np.broadcast_to(np.asarray(w, dtype=np.float64), (dim,)) for w in weights)
    theta = np.sqrt(wx * wx + wy * wy + wz * wz)
    # i sin|lambda| / |lambda|, so that lambda = 0 needs no special case
    scale = 1j * np.sinc(theta / math.pi) * phase
    base = np.ones(dim)  # (1 - Pi) + Pi cos|lambda|, summed over the kinds
    z_sum = np.zeros(dim)
    pairs, hops, backs = [], [], []
    for kind in kinds:
        sector, z, rows, cols, sign = _dictionary_tables(pair, kind, n_modes)
        base += sector * (np.cos(theta) - 1.0)
        z_sum += z
        pairs.append(np.stack([cols, rows], axis=1))
        hops.append((scale * (wx - 1j * wy))[cols] * sign)
        backs.append((scale * (wx + 1j * wy))[cols] * sign)
    diagonal = phase * base + scale * wz * z_sum
    return FockOperator._from_blocks(
        n_modes, "unitary", diagonal, *map(np.concatenate, (pairs, hops, backs))
    )


def rotation(
    encoding: QubitEncoding,
    axis_weights: tuple[float, float, float],
    n_modes: int | None = None,
    both_kinds: bool = False,
) -> FockOperator:
    """exp(i sum_a lambda_a Pi_a) with Pi the encoding's Pauli dictionary.

    With ``both_kinds`` the generator uses sigma_a + sigma~_a, which acts on
    both local-parity sectors of the pair at once.
    """
    weights = tuple(float(w) for w in axis_weights)
    if len(weights) != 3 or not all(math.isfinite(w) for w in weights):
        raise ArgumentError(f"rotation needs three finite weights, got {weights}")
    n = _ambient_modes(n_modes, encoding.pair)
    kinds = _KINDS if both_kinds else (encoding.kind,)
    return _dictionary_exp(encoding.pair, kinds, n, weights)


def hadamard(encoding: QubitEncoding, n_modes: int | None = None) -> FockOperator:
    """Logical Hadamard: i exp(-i pi/2 (sigma_x - sigma_z)/sqrt(2)).

    In the logical basis (|0_L> the sigma_z = -1 state) this is the textbook
    (X_L + Z_L)/sqrt(2) rotation; the i prefactor makes its action on the
    encoding's sector carry no extra phase.
    """
    n = _ambient_modes(n_modes, encoding.pair)
    w = math.pi / (2.0 * math.sqrt(2.0))
    return _dictionary_exp(encoding.pair, (encoding.kind,), n, (-w, 0.0, w), 1j)


def cnot(
    control: QubitEncoding,
    target: QubitEncoding,
    n_modes: int | None = None,
    both_kinds: bool = False,
) -> FockOperator:
    """Controlled-NOT between two pair-encoded qubits of the same kind.

    Implemented as exp[i pi/4 (1 + sigma_z^ctrl)(1 - sigma_x^tgt)], which in
    the logical basis is exp[i pi/4 (1 - Z_ctrl)(1 - X_tgt)]: the target is
    flipped exactly when the control pair holds logical |1> (first mode
    occupied for the odd kind, doubly occupied pair for the even kind).

    With ``both_kinds`` the dual form exp[i pi/4 (1 - sigma_z - sigma~_z)
    (1 - sigma_x - sigma~_x)] is returned, acting on both sectors at once.
    """
    if set(control.pair) & set(target.pair):
        raise OverlappingPairsError(
            f"control pair {control.pair} overlaps target pair {target.pair}"
        )
    if not both_kinds and control.kind != target.kind:
        raise ArgumentError("control and target encodings must share a kind")
    n = _ambient_modes(n_modes, control.pair, target.pair)
    if both_kinds:
        kinds = _KINDS
        ctrl = 1.0 - sum(_dictionary_tables(control.pair, kind, n)[1] for kind in kinds)
    else:
        kinds = (control.kind,)
        ctrl = 1.0 + _dictionary_tables(control.pair, control.kind, n)[1]
    # the control factor is diagonal, so the gate rotates the target by a per-mask angle
    phi = (math.pi / 4.0) * ctrl
    return _dictionary_exp(target.pair, kinds, n, (-phi, 0.0, 0.0), np.exp(1j * phi))


def parity_gate(modes: tuple[int, ...], n_modes: int | None = None) -> FockOperator:
    """Local parity gate -exp(i pi N_side): -1 on even local parity, +1 on odd."""
    side = tuple(sorted(set(int(m) for m in modes)))
    if not side:
        raise ArgumentError("parity gate needs a non-empty mode set")
    n = _ambient_modes(n_modes, side)
    side_mask = 0
    for m in side:
        side_mask |= 1 << m
    masks = np.arange(1 << n)
    local = np.bitwise_count(masks & side_mask)
    return FockOperator._from_blocks(n, "unitary", np.where(local % 2 == 0, -1.0, 1.0))


def occupation_projector(mode: int, outcome: int, n_modes: int) -> FockOperator:
    """Projector onto occupation ``outcome`` of ``mode``."""
    if outcome not in (0, 1):
        raise ArgumentError("outcome must be 0 or 1")
    n = _ambient_modes(n_modes, (mode,))
    sel = ((np.arange(1 << n) >> mode) & 1).astype(np.float64)
    diag = sel if outcome else 1.0 - sel
    return FockOperator._from_blocks(n, "projector", diag)


# ---------------------------------------------------------------------------
# occupation measurements
# ---------------------------------------------------------------------------

def _born_weights(state: FockState) -> tuple[np.ndarray, float]:
    """|amplitude|^2 per basis mask and their total; the zero state has no Born rule."""
    weights = np.abs(state.vector) ** 2
    total = float(np.sum(weights))
    if total <= TOL_ZERO**2:
        raise ZeroNormError("cannot measure the zero state")
    return weights, total


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome, Born probability, and renormalized post-measurement state."""

    outcome: int
    probability: float
    state: FockState


def measure_branch(state: FockState, mode: int, outcome: int) -> MeasurementResult:
    """Deterministically select one occupation branch of ``mode``."""
    if outcome not in (0, 1):
        raise ArgumentError("outcome must be 0 or 1")
    if mode < 0 or mode >= state.n_modes:
        raise DimensionMismatchError(f"mode {mode} outside 0..{state.n_modes - 1}")
    vec = state.vector
    occupied = ((np.arange(state.dim) >> mode) & 1).astype(bool)
    keep = occupied if outcome else ~occupied
    weights, total = _born_weights(state)
    prob = float(np.sum(weights[keep])) / total
    if prob < TOL_ZERO:
        raise ImpossibleBranchError(
            f"occupation {outcome} of mode {mode} has probability {prob:.3e}"
        )
    post = np.where(keep, vec, 0.0) / math.sqrt(prob * total)
    return MeasurementResult(outcome, prob, FockState(state.n_modes, post, state.parity))


def measure_occupation(
    state: FockState,
    mode: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> MeasurementResult:
    """Born-rule occupation measurement of one mode."""
    if rng is None:
        rng = np.random.default_rng(seed)
    occupied = ((np.arange(state.dim) >> mode) & 1).astype(bool)
    weights, total = _born_weights(state)
    p_occupied = float(np.sum(weights[occupied])) / total
    outcome = 1 if rng.random() < p_occupied else 0
    return measure_branch(state, mode, outcome)


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

_TELEPORT_MODES = 6
_CONTROL_PAIR = (2, 3)
_TARGET_PAIR = (0, 1)
_BOB_PAIR = (4, 5)

_HALF = math.pi / 2.0

_TELEPORT_GATES: dict[str, tuple[FockOperator, ...]] = {}


def _teleport_gates(kind: Kind) -> tuple[FockOperator, ...]:
    """The circuit's CNOT and Hadamard, then Bob's X and Z fixes i exp(-i pi/2 sigma)."""
    if kind not in _TELEPORT_GATES:
        ctrl = QubitEncoding(_CONTROL_PAIR, kind)
        _TELEPORT_GATES[kind] = (
            cnot(ctrl, QubitEncoding(_TARGET_PAIR, kind), _TELEPORT_MODES),
            hadamard(ctrl, _TELEPORT_MODES),
            _dictionary_exp(_BOB_PAIR, (kind,), _TELEPORT_MODES, (-_HALF, 0.0, 0.0), 1j),
            _dictionary_exp(_BOB_PAIR, (kind,), _TELEPORT_MODES, (0.0, 0.0, -_HALF), 1j),
        )
    return _TELEPORT_GATES[kind]


def _teleport_input(alpha: complex, beta: complex, kind: Kind) -> FockState:
    vac = vacuum_state(_TELEPORT_MODES)
    if kind == "odd":
        terms = [
            (alpha, (2, 0, 4)),
            (alpha, (2, 1, 5)),
            (beta, (3, 0, 4)),
            (beta, (3, 1, 5)),
        ]
    else:
        terms = [
            (beta, ()),
            (beta, (0, 1, 4, 5)),
            (alpha, (2, 3)),
            (alpha, (2, 3, 0, 1, 4, 5)),
        ]
    vec = np.zeros(vac.dim, dtype=np.complex128)
    for coeff, modes in terms:
        piece = apply_operator_string(vac, [("create", m) for m in modes])
        vec += coeff * piece.vector
    vec /= math.sqrt(2.0)
    return FockState(_TELEPORT_MODES, vec, kind)


def _read_out(state: FockState, modes, outcome: int, prob: float) -> tuple[FockState, float]:
    """Select ``outcome`` on each of ``modes`` in turn; ``prob`` times each Born probability."""
    for mode in modes:
        step = measure_branch(state, mode, outcome)
        state, prob = step.state, prob * step.probability
    return state, prob


@dataclass(frozen=True)
class TeleportBranch:
    """One exhaustively enumerated measurement branch of the protocol."""

    index: int
    control_outcome: int
    target_outcome: int
    probability: float
    fidelity: float
    bob_block: np.ndarray = field(repr=False)
    state: FockState = field(repr=False)


@dataclass(frozen=True)
class TeleportReport:
    kind: Kind
    alpha: complex
    beta: complex
    input_state: FockState = field(repr=False)
    output_state: FockState = field(repr=False)
    branches: tuple[TeleportBranch, ...] = ()


def run_teleportation(coefficients: tuple[complex, complex], kind: Kind) -> TeleportReport:
    """Teleport one pair-encoded qubit through the shared Bell resource.

    Alice holds modes 0..3 (entangled pair 0,1 and the input qubit on 2,3),
    Bob holds modes 4,5. The cached CNOT acts first, then the cached
    Hadamard. All four measurement branches are enumerated: the control
    pair's first mode and the target pair's first mode are read out (both
    modes of each pair for the even kind), Bob's cached X/Z fixes act as the
    branch requires, and Bob's logical 2x2 block is compared with the input
    coordinates.
    """
    alpha, beta = complex(coefficients[0]), complex(coefficients[1])
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if not _is_unit_weight(weight):  # also rejects NaN
        raise NotNormalizedError(f"|alpha|^2 + |beta|^2 = {weight:.12f}, expected 1")
    if kind not in ("odd", "even"):
        raise ArgumentError(f"unknown encoding kind {kind!r}")
    psi_in = _teleport_input(alpha, beta, kind)
    cnot_gate, hadamard_gate, x_fix, z_fix = _teleport_gates(kind)
    psi_out = hadamard_gate.apply(cnot_gate.apply(psi_in))

    part = ModePartition(_TELEPORT_MODES, _BOB_PAIR)
    i0, i1 = QubitEncoding(_BOB_PAIR, kind).logical_indices
    target = np.array([beta, alpha], dtype=np.complex128)
    read = 2 if kind == "even" else 1  # modes read out per pair, all with one outcome

    branches = []
    for m_ctrl in (0, 1):
        stage, prob = _read_out(psi_out, _CONTROL_PAIR[:read], m_ctrl, 1.0)
        for m_tgt in (0, 1):
            corrected, branch_prob = _read_out(stage, _TARGET_PAIR[:read], m_tgt, prob)
            if m_tgt:
                corrected = x_fix.apply(corrected)
            if m_ctrl:
                corrected = z_fix.apply(corrected)
            rho = reduced_state(corrected, part, "a")
            block = rho.matrix[np.ix_((i0, i1), (i0, i1))]
            fidelity = float(np.real(np.vdot(target, block @ target)))
            branches.append(
                TeleportBranch(
                    index=(m_ctrl << 1) | m_tgt,
                    control_outcome=m_ctrl,
                    target_outcome=m_tgt,
                    probability=branch_prob,
                    fidelity=fidelity,
                    bob_block=block,
                    state=corrected,
                )
            )
    return TeleportReport(kind, alpha, beta, psi_in, psi_out, tuple(branches))


# ---------------------------------------------------------------------------
# superdense coding
# ---------------------------------------------------------------------------

_SDC_MODES = 4
_ALICE_PAIR = (0, 1)

_SDC_MESSAGES = tuple(f"{i}{j}{k}" for i in "01" for j in "01" for k in "01")

#: (weights, phase) of Alice's dual-kind operation per first two bits; "00" applies nothing
_SDC_OPERATIONS = {
    "01": ((-_HALF, 0.0, 0.0), 1j),
    "10": ((0.0, 0.0, -_HALF), 1j),
    "11": ((0.0, -_HALF, 0.0), -1.0),
}

#: Alice's operations, built on first use: one per first two bits, and "parity" for the third
_SDC_UNITARIES: dict[str, FockOperator] = {}
_SDC_CODES: dict[str, tuple[tuple[str, np.ndarray], ...]] = {}


def _sdc_seed(variant: str) -> FockState:
    vac = vacuum_state(_SDC_MODES)
    bell = (
        apply_operator_string(vac, [("create", 0), ("create", 2)]).vector
        + apply_operator_string(vac, [("create", 1), ("create", 3)]).vector
    )
    full = apply_operator_string(vac, [("create", m) for m in range(4)]).vector
    if variant == "psi00":
        tilde = full + vac.vector
    elif variant == "psi00prime":
        tilde = full - vac.vector
    else:
        raise ArgumentError(f"unknown seed variant {variant!r}")
    return FockState(_SDC_MODES, (bell + tilde) / 2.0, "even")


def _sdc_unitary(key: str) -> FockOperator:
    if key not in _SDC_UNITARIES:
        if key == "parity":
            _SDC_UNITARIES[key] = parity_gate(_ALICE_PAIR, _SDC_MODES)
        else:
            weights, phase = _SDC_OPERATIONS[key]
            _SDC_UNITARIES[key] = _dictionary_exp(_ALICE_PAIR, _KINDS, _SDC_MODES, weights, phase)
    return _SDC_UNITARIES[key]


def superdense_encode(message: str, variant: str = "psi00") -> FockState:
    """Encode three classical bits with Alice-local operations on the seed.

    The first two bits select nothing or one of the cached dual-kind
    operations i exp(-i pi/2 (sigma_mu + sigma~_mu)) (mu = x, z) and
    -exp(-i pi/2 (sigma_y + sigma~_y)) on Alice's pair; the third applies her
    cached local parity gate afterwards. Each acts through ``FockOperator.apply``.
    """
    if len(message) != 3 or any(ch not in "01" for ch in message):
        raise ArgumentError(f"message must be three bits, got {message!r}")
    state = _sdc_seed(variant)
    if message[:2] != "00":
        state = _sdc_unitary(message[:2]).apply(state)
    if message[2] == "1":
        state = _sdc_unitary("parity").apply(state)
    return state


def _code_family(variant: str) -> tuple[tuple[str, np.ndarray], ...]:
    if variant not in _SDC_CODES:
        _SDC_CODES[variant] = tuple(
            (message, superdense_encode(message, variant).vector)
            for message in _SDC_MESSAGES
        )
    return _SDC_CODES[variant]


def superdense_decode(state: FockState, variant: str = "psi00") -> str:
    """Identify which encoded message the state carries."""
    if state.n_modes != _SDC_MODES:
        raise DimensionMismatchError(
            f"superdense states use {_SDC_MODES} modes, got {state.n_modes}"
        )
    for message, code_vec in _code_family(variant):
        overlap = abs(np.vdot(code_vec, state.vector)) ** 2
        if overlap >= 1.0 - _DECODE_TOL:
            return message
    raise UnknownStateError("state does not match any encoded message")
