"""The benchmark's four workloads.

Each workload generates its inputs from the run seed in ``setup``, hands the
program only those inputs, and splits the measured phase into identical
cycles of items. ``call`` is the timed top-level call; ``check`` compares
its output with the references in ``oracle`` outside the timed region and
returns (items verified, items failed).

Inputs are made with numpy generators seeded by
``SeedSequence([run seed, stream])``, one stream per purpose, so the same
seed gives the same inputs and the workloads never share a stream.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracle

TOL = oracle.TOL


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _run_cli(fm, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _close(a, b, tol: float = TOL) -> bool:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


class Workload:
    name = ""
    why = ""
    #: cycles timed with tracing (and as many without) in a ``--trace 1`` run
    trace_cycles = 1

    def setup(self, fm, seed: int, workdir: Path) -> None:
        """Make inputs and state files, then warm up with checked calls."""
        self.fm = fm
        self.seed = seed
        self.setup_checks = 0
        self.setup_failures: list[str] = []

    def _warm(self, items) -> None:
        for item in items:
            self.setup_checks += self.units(item)
            verified, failed = self.check(item, self.call(item))
            if failed:
                self.setup_failures.append(f"{self.name} warm-up item {item!r} failed its check")

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, output) -> tuple[int, int]:
        raise NotImplementedError

    def units(self, item) -> int:
        return 1

    def inputs(self) -> dict:
        raise NotImplementedError


class Lemma2Sweep(Workload):
    name = "lemma2-sweep"
    why = ("the paper's headline Lemma-2 check: check-lemma2 CLI blocks of 16 random n=4 states x 7 "
           "partitions, many tiny eigensolves")
    trace_cycles = 4
    #: states per invocation; large enough that per-invocation parsing and
    #: JSON output stay small beside the numerics, so batching across states
    #: can show
    BLOCK = 16

    def setup(self, fm, seed, workdir):
        super().setup(fm, seed, workdir)
        self._warm([{"seed": self._block_seed(0, 0), "samples": 2}])

    def _block_seed(self, stream: int, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, 1, stream, index]).generate_state(1)[0])

    def cycle(self, index):
        return [{"seed": self._block_seed(1, index), "samples": self.BLOCK}]

    def units(self, item):
        return item["samples"] * len(oracle.LEMMA_PARTITIONS)

    def call(self, item):
        return _run_cli(self.fm, ["check-lemma2", "--samples", str(item["samples"]),
                                  "--seed", str(item["seed"])])

    def check(self, item, output):
        code, text, _ = output
        units = self.units(item)
        if code != 0:
            return 0, units
        report = json.loads(text)
        ref = oracle.lemma2_block(item["seed"], item["samples"])
        ok = (
            report["checks"] == ref["checks"] == units
            and report["violations"] == ref["violations"] == 0
            and abs(report["max_lambda_excess"] - ref["max_lambda_excess"]) <= TOL
            and abs(report["min_entropy_margin"] - ref["min_entropy_margin"]) <= TOL
        )
        return (units, 0) if ok else (0, units)

    def inputs(self):
        return {
            "n_modes": 4,
            "states_per_call": self.BLOCK,
            "partitions_per_state": len(oracle.LEMMA_PARTITIONS),
            "even_share": 0.5,
            "block_seeds": "SeedSequence([seed, 1, 1, call index])",
        }


class NormalForm(Workload):
    name = "normal-form"
    why = ("normal-form CLI on state files of random-Bogoliubov images of two-mask states: the "
           "transforms layer on both sides of its f+ - f- < 1e-3 branch, plus io and report JSON")
    trace_cycles = 4
    POOL = 32
    #: alpha_+^2 bands: near-product, intermediate, near-maximal above the
    #: 1e-3 gap, and below the gap where the bilinear path runs
    BANDS = ((0.99, 0.9999), (0.6, 0.9), (0.5006, 0.52), (0.5, 0.50045))
    GAP = 1e-3

    def setup(self, fm, seed, workdir):
        super().setup(fm, seed, workdir)
        rng = _rng(seed, 2)
        self.states = []
        for index in range(self.POOL):
            low, high = self.BANDS[index % len(self.BANDS)]
            f_plus = float(rng.uniform(low, high))
            parity = "even" if (index // len(self.BANDS)) % 2 == 0 else "odd"
            base = fm.make_state(4, {0b0011: math.sqrt(f_plus), 0b1100: math.sqrt(1.0 - f_plus)})
            bmap = fm.random_bogoliubov(4, rng=rng)
            if parity == "odd":
                flip = fm.particle_hole_map(4, {int(rng.integers(4))})
                bmap = fm.compose(flip, bmap)
            state = fm.lift_to_fock(bmap, 4).apply(base)
            if state.parity != parity:
                raise RuntimeError(f"generated a {state.parity} state where {parity} was meant")
            path = workdir / f"state{index:03d}.json"
            fm.dump_state(state, path)
            self.states.append({"path": str(path), "f_plus": f_plus, "parity": parity})
        self._warm(self.states[: len(self.BANDS)])

    def cycle(self, index):
        return self.states

    def call(self, item):
        return _run_cli(self.fm, ["normal-form", item["path"]])

    def check(self, item, output):
        code, text, _ = output
        if code != 0:
            return 0, 1
        report = json.loads(text)
        alpha = complex(report["alpha_plus"]["re"], report["alpha_plus"]["im"])
        U = np.array(report["U"]["re"]) + 1j * np.array(report["U"]["im"])
        V = np.array(report["V"]["re"]) + 1j * np.array(report["V"]["im"])
        try:
            self.fm.validate_bogoliubov(U, V)
        except self.fm.FermionError:
            return 0, 1
        ok = (
            report["parity"] == item["parity"]
            and abs(alpha - math.sqrt(item["f_plus"])) <= TOL
            and abs(alpha.real**2 - report["f_plus"]) <= TOL
        )
        return (1, 0) if ok else (0, 1)

    def inputs(self):
        f = np.array([s["f_plus"] for s in self.states])
        return {
            "n_modes": 4,
            "states": len(self.states),
            "even_share": sum(s["parity"] == "even" for s in self.states) / len(self.states),
            "near_degenerate_share": float(np.mean(2.0 * f - 1.0 < self.GAP)),
            "near_product_share": float(np.mean(f >= self.BANDS[0][0])),
            "alpha_plus_sq_range": [float(f.min()), float(f.max())],
        }


class ModeScaling(Workload):
    name = "mode-scaling"
    why = ("bipartition analyses of random states at n = 8, 10, 12 on contiguous and interleaved "
           "splits: the same layers as lemma2-sweep with few large inputs")
    trace_cycles = 1
    SIZES = (8, 10, 12)
    SPLITS = ("half", "interleaved")
    POOL = 2

    def setup(self, fm, seed, workdir):
        super().setup(fm, seed, workdir)
        rng = _rng(seed, 3)
        self.states = {}
        self.parts = {}
        for n in self.SIZES:
            for k in range(self.POOL):
                parity = ("even", "odd")[(k + n // 2) % 2]
                self.states[n, k] = fm.make_state(n, oracle.sector_state(rng, n, parity))
            self.parts[n, "half"] = fm.ModePartition(n, range(n // 2))
            self.parts[n, "interleaved"] = fm.ModePartition(n, range(0, n, 2))
        self._refs = {}
        self._warm([(8, 0, "half")])

    def cycle(self, index):
        return [(n, index % self.POOL, split) for n in self.SIZES for split in self.SPLITS]

    def call(self, item):
        n, k, split = item
        fm = self.fm
        state, part = self.states[n, k], self.parts[n, split]
        s_a = fm.bipartite_entropy(state, part)
        spectrum = fm.reduced_state(state, part).spectrum()
        return s_a, spectrum, fm.qsp_entropy(state), fm.sp_entropy(state)

    def _reference(self, item):
        if item not in self._refs:
            n, k, split = item
            vec = np.asarray(self.states[n, k].vector)
            if split == "half":
                spectrum = oracle.schmidt_spectrum(vec, n, n // 2)
            else:
                spectrum = oracle.reduced_spectrum(vec, n, tuple(range(0, n, 2)))
            self._refs[item] = (
                oracle.von_neumann(spectrum),
                spectrum,
                oracle.von_neumann(oracle.extended_spectrum(vec, n)),
                oracle.binary(oracle.occupation_spectrum(vec, n)),
            )
        return self._refs[item]

    def check(self, item, output):
        s_a, spectrum, qsp, sp = output
        ref_s, ref_spectrum, ref_qsp, ref_sp = self._reference(item)
        ok = (
            abs(s_a - ref_s) <= TOL
            and _close(spectrum, ref_spectrum)
            and abs(qsp - ref_qsp) <= TOL
            and abs(sp - ref_sp) <= TOL
        )
        return (1, 0) if ok else (0, 1)

    def inputs(self):
        return {
            "n_modes": list(self.SIZES),
            "calls_per_cycle": len(self.SIZES) * len(self.SPLITS),
            "interleaved_share": 0.5,
            "even_share": 0.5,
            "parity": "n = 8 and 12 even and n = 10 odd on even cycles, the reverse on odd cycles",
        }


class GatesLift(Workload):
    name = "gates-lift"
    why = ("pair-qubit gates at n = 8, Bogoliubov lifts at n = 6, teleportation and superdense "
           "coding: dense 2^n x 2^n operators in protocols and transforms")
    trace_cycles = 4
    N = 8
    PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))
    LIFT_N = 6
    MAPS = 4
    MESSAGES = tuple(f"{i}{j}{k}" for i in "01" for j in "01" for k in "01")
    VARIANTS = ("psi00", "psi00prime")
    HADAMARD = math.pi / (2.0 * math.sqrt(2.0))

    def setup(self, fm, seed, workdir):
        super().setup(fm, seed, workdir)
        rng = _rng(seed, 4)
        self.maps = [fm.random_bogoliubov(self.LIFT_N, rng=rng) for _ in range(self.MAPS)]
        self.lift_states = []
        for k in range(self.MAPS):
            vec = oracle.sector_state(rng, self.LIFT_N, ("even", "odd")[k % 2])
            self.lift_states.append((fm.make_state(self.LIFT_N, vec),
                                     oracle.extended_spectrum(vec, self.LIFT_N)))
        # the first protocol runs build and cache their gates
        warm = [self._teleport(kind, rng) for kind in ("odd", "even")]
        warm += [("sdc", m, v) for v in self.VARIANTS for m in self.MESSAGES]
        warm += [self._gate_items(rng)[2]]
        self._warm(warm)

    # -- item generation ---------------------------------------------------

    def _basis(self, bits: dict[tuple[int, int], int], rng) -> int:
        """Mask with the given local configuration on some pairs and random
        occupations on the others."""
        mask = 0
        for pair in self.PAIRS:
            local = bits[pair] if pair in bits else int(rng.integers(4))
            mask |= (local & 1) << pair[0] | (local >> 1) << pair[1]
        return mask

    def _gate_items(self, rng) -> list:
        items = []
        for kind in ("odd", "even"):
            zero, one = (2, 1) if kind == "odd" else (0, 3)
            pick = rng.permutation(len(self.PAIRS))
            pair, other = self.PAIRS[pick[0]], self.PAIRS[pick[1]]
            for op in ("rotation", "rotation-both", "hadamard"):
                bit = int(rng.integers(2))
                weights = tuple(float(w) for w in rng.uniform(-1.0, 1.0, size=3))
                if op == "hadamard":
                    weights = (-self.HADAMARD, 0.0, self.HADAMARD)
                mask = self._basis({pair: (zero, one)[bit]}, rng)
                items.append((op, kind, pair, weights, bit, mask))
            ctrl, tgt = int(rng.integers(2)), int(rng.integers(2))
            mask = self._basis({pair: (zero, one)[ctrl], other: (zero, one)[tgt]}, rng)
            items.append(("cnot", kind, (pair, other), (ctrl, tgt), None, mask))
        return items

    def _teleport(self, kind, rng):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return ("teleport", kind, complex(a / norm), complex(b / norm))

    def cycle(self, index):
        rng = _rng(self.seed, 5, index)
        items = self._gate_items(rng)
        items += [("lift", (2 * index + j) % self.MAPS) for j in range(2)]
        items.append(self._teleport(("odd", "even")[index % 2], rng))
        items.append(("sdc", self.MESSAGES[index % 8], self.VARIANTS[(index // 8) % 2]))
        return items

    # -- timed call ----------------------------------------------------------

    def call(self, item):
        fm = self.fm
        op = item[0]
        if op == "lift":
            state, _ = self.lift_states[item[1]]
            return fm.lift_to_fock(self.maps[item[1]], self.LIFT_N).apply(state).vector
        if op == "teleport":
            return fm.run_teleportation((item[2], item[3]), item[1])
        if op == "sdc":
            return fm.superdense_decode(fm.superdense_encode(item[1], item[2]), item[2])
        _, kind, pair, weights, _, mask = item
        state = fm.basis_state(self.N, mask)
        if op == "cnot":
            ctrl, tgt = (fm.QubitEncoding(p, kind) for p in pair)
            gate = fm.cnot(ctrl, tgt, self.N)
        elif op == "hadamard":
            gate = fm.hadamard(fm.QubitEncoding(pair, kind), self.N)
        else:
            gate = fm.rotation(fm.QubitEncoding(pair, kind), weights, self.N,
                               both_kinds=op == "rotation-both")
        return gate.apply(state).vector

    # -- checks ----------------------------------------------------------------

    def _expected_gate(self, item) -> np.ndarray:
        op, kind, pair, weights, bit, mask = item
        zero, one = (2, 1) if kind == "odd" else (0, 3)
        expected = np.zeros(1 << self.N, dtype=np.complex128)

        def with_local(m, p, local):
            m &= ~(1 << p[0] | 1 << p[1])
            return m | (local & 1) << p[0] | (local >> 1) << p[1]

        if op == "cnot":
            ctrl, tgt = weights
            expected[with_local(mask, pair[1], (zero, one)[tgt ^ ctrl])] = 1.0
            return expected
        column = oracle.logical_rotation(weights)[:, bit]
        if op == "hadamard":
            column = 1j * column
        expected[with_local(mask, pair, zero)] = column[0]
        expected[with_local(mask, pair, one)] = column[1]
        return expected

    def check(self, item, output):
        op = item[0]
        if op == "lift":
            _, before = self.lift_states[item[1]]
            after = oracle.extended_spectrum(np.asarray(output), self.LIFT_N)
            ok = _close(before, after)
        elif op == "teleport":
            ok = len(output.branches) == 4 and all(
                abs(b.fidelity - 1.0) <= TOL for b in output.branches
            ) and abs(sum(b.probability for b in output.branches) - 1.0) <= TOL
        elif op == "sdc":
            ok = output == item[1]
        else:
            ok = _close(output, self._expected_gate(item))
        return (1, 0) if ok else (0, 1)

    def inputs(self):
        return {
            "gate_n_modes": self.N,
            "lift_n_modes": self.LIFT_N,
            "calls_per_cycle": {"gates": 8, "lifts": 2, "teleport": 1, "sdc": 1},
            "gate_kinds": ["odd", "even"],
            "gate_pairs": "adjacent pairs, spectator pairs randomly occupied",
            "lift_maps": self.MAPS,
            "setup_checks": "teleport both kinds, superdense all 8 messages x 2 seed states",
        }


WORKLOADS = {w.name: w for w in (Lemma2Sweep, NormalForm, ModeScaling, GatesLift)}
