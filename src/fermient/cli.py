"""Command-line front end.

Every subcommand prints a single JSON report to stdout (or an indented
text rendering with ``--output pretty``). Reports embed a conventions
block so archived output is self-describing, and identical invocations
produce byte-identical JSON. Exit codes: 0 success, 1 a verification the
command performs failed, 2 input error (message on stderr).
"""

import argparse
import math
import json
import os
import sys

import numpy as np

from . import __version__
from .correlations import extended_density, one_body, qsp_entropy, sp_entropy, von_neumann_term
from .entanglement import (
    LEMMA_TOL,
    ModePartition,
    _matched_entropies,
    _side_spectra,
    bipartite_entropy,
    concurrence,
    majorization_stack,
)
from .errors import FermionError
from .fock import TOL_NORM, TOL_ZERO, FockState, random_state
from .io import dump_state, load_state, state_to_dict
from .protocols import run_teleportation, superdense_decode, superdense_encode
from .transforms import normal_form

__all__ = ["main", "build_parser"]

# the three inequivalent 2+2 splits of four modes, then the four 1+3 splits
_LEMMA_PARTITIONS = ((0, 1), (0, 2), (0, 3), (0,), (1,), (2,), (3,))

#: states checked per batch by check-lemma2; bounds the sweep's memory
_LEMMA_CHUNK = 1024


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _conventions(tolerances: dict[str, float]) -> dict:
    return {
        "bit_order": "mode k occupies bit k of the basis mask; mode 0 is least significant",
        "sign_rule": "creating mode k on |mask> costs (-1)^(number of occupied modes below k); "
                     "ascending-index creation products carry coefficient +1",
        "tolerances": dict(tolerances),
    }


def _report(command: str, payload: dict, tolerances: dict[str, float] | None = None) -> dict:
    tols = {"norm": TOL_NORM, "zero": TOL_ZERO}
    if tolerances:
        tols.update(tolerances)
    out = {"command": command, "conventions": _conventions(tols)}
    out.update(payload)
    return out


def _cpair(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _cmatrix(m: np.ndarray) -> dict:
    arr = np.asarray(m, dtype=np.complex128)
    return {
        "re": [[float(x) for x in row] for row in arr.real],
        "im": [[float(x) for x in row] for row in arr.imag],
    }


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _assert_finite(node) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            raise FermionError("non-finite numeric value in report")
        return
    if isinstance(node, dict):
        for value in node.values():
            _assert_finite(value)
    elif isinstance(node, list):
        for value in node:
            _assert_finite(value)


def _pretty_lines(node, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(node, list):
        if all(not isinstance(v, (dict, list)) for v in node):
            lines.append(pad + "[" + ", ".join(str(v) for v in node) + "]")
        else:
            for value in node:
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(value, indent + 1))
    else:
        lines.append(f"{pad}{node}")
    return lines


def _emit(report: dict, output: str) -> None:
    _assert_finite(report)
    if output == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_pretty_lines(report)) + "\n")


def _default_seed() -> int:
    raw = os.environ.get("FERMI_ENT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise FermionError(f"FERMI_ENT_SEED must be an integer, got {raw!r}") from None


def _tolerance_map(args, allowed: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, value in getattr(args, "tol", None) or []:
        if name not in allowed:
            raise FermionError(
                f"unknown tolerance {name!r}; expected one of {', '.join(allowed)}"
            )
        out[name] = value
    return out


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance value {raw!r} is not a number") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError("tolerances must be positive")
    return name, value


def _parse_modes(text: str) -> tuple[int, ...]:
    try:
        modes = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not modes:
        raise argparse.ArgumentTypeError("mode list is empty")
    return modes


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _amplitude_entries(state: FockState) -> list[dict]:
    return state_to_dict(state)["amplitudes"]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, report)
# ---------------------------------------------------------------------------

def _cmd_rho_sp(args) -> tuple[int, dict]:
    state = load_state(args.state)
    ob = one_body(state)
    payload = {
        "n_modes": state.n_modes,
        "rho": _cmatrix(ob.rho),
        "kappa": _cmatrix(ob.kappa),
        "eigenvalues": _floats(ob.spectrum()),
    }
    return 0, _report("rho-sp", payload)


def _cmd_rho_qsp(args) -> tuple[int, dict]:
    state = load_state(args.state)
    ed = extended_density(state)
    values = ed.spectrum().values
    payload = {
        "n_modes": state.n_modes,
        "matrix": _cmatrix(ed.m),
        "eigenvalues": _floats(values),
    }
    return 0, _report("rho-qsp", payload)


def _cmd_entropy(args) -> tuple[int, dict]:
    state = load_state(args.state)
    payload = {
        "n_modes": state.n_modes,
        "S_sp": float(sp_entropy(state)),
        "S_qsp": float(qsp_entropy(state)),
    }
    return 0, _report("entropy", payload)


def _cmd_concurrence(args) -> tuple[int, dict]:
    state = load_state(args.state)
    value = concurrence(state)
    spec = extended_density(state).spectrum().values
    payload = {
        "n_modes": state.n_modes,
        "parity": state.parity,
        "C": float(value),
        "f_plus": float(np.max(spec)),
        "f_minus": float(np.min(spec)),
    }
    return 0, _report("concurrence", payload)


def _cmd_normal_form(args) -> tuple[int, dict]:
    state = load_state(args.state)
    form = normal_form(state)
    transformed = form.transformed
    payload = {
        "n_modes": state.n_modes,
        "parity": state.parity,
        "alpha_plus": _cpair(form.alpha_plus),
        "alpha_minus": _cpair(form.alpha_minus),
        "f_plus": float(form.f_plus),
        "f_minus": float(form.f_minus),
        "U": _cmatrix(form.map.U),
        "V": _cmatrix(form.map.V),
        "transformed_amplitudes": _amplitude_entries(transformed),
    }
    return 0, _report("normal-form", payload)


def _cmd_bipartition(args) -> tuple[int, dict]:
    state = load_state(args.state)
    overrides = _tolerance_map(args, ("lemma",))
    tol = overrides.get("lemma", LEMMA_TOL)
    part = ModePartition(state.n_modes, args.a)
    payload = {"n_modes": state.n_modes, "side_a": list(part.side_a), "side_b": list(part.side_b)}
    if state.n_modes != 4 or len(part.side_a) not in (1, 2):
        spec_a, spec_b = _side_spectra(state.vector[None], part, int(state.parity == "odd"))
        payload["spectrum"] = _floats(spec_a[0])
        payload["S_A"] = float(_matched_entropies(spec_a, spec_b, von_neumann_term)[0])
        return 0, _report("bipartition", payload, {"lemma": tol})
    # a stack of one, whose errors name no sample
    batch = majorization_stack(state.vector[None], [part], first=None)
    verdict = batch.verdict(tol)
    payload["spectrum"] = _floats(batch.spectra[0][0])
    payload["S_A"] = float(batch.values["von_neumann"][0, 0])
    payload.update((key, verdict[key]) for key in ("lambda_max", "f_plus", "entropies", "holds"))
    return (0 if verdict["holds"] else 1), _report("bipartition", payload, {"lemma": tol})


def _cmd_check_lemma2(args) -> tuple[int, dict]:
    overrides = _tolerance_map(args, ("lemma",))
    tol = overrides.get("lemma", LEMMA_TOL)
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    partitions = [ModePartition(4, side) for side in _LEMMA_PARTITIONS]
    violations = 0
    max_excess = -math.inf
    min_margin = math.inf
    for first in range(0, args.samples, _LEMMA_CHUNK):
        # one random_state per sample, parities alternating, in sample order
        vectors = np.array([
            random_state(4, parity="even" if index % 2 == 0 else "odd", rng=rng).vector
            for index in range(first, min(first + _LEMMA_CHUNK, args.samples))
        ])
        batch = majorization_stack(vectors, partitions, first)
        max_excess = max(max_excess, float(batch.lambda_excess.max()))
        min_margin = min(min_margin, *(float(m.min()) for m in batch.entropy_margins.values()))
        # one violation per failed bound
        violations += sum(int(np.count_nonzero(~h)) for h in batch.holds(tol).values())
    checks = args.samples * len(partitions)
    payload = {
        "samples": args.samples,
        "seed": seed,
        "partitions_per_state": len(partitions),
        "checks": checks,
        "violations": violations,
        "max_lambda_excess": float(max_excess),
        "min_entropy_margin": float(min_margin),
    }
    return (1 if violations else 0), _report("check-lemma2", payload, {"lemma": tol})


def _cmd_random_state(args) -> tuple[int, dict]:
    seed = args.seed if args.seed is not None else _default_seed()
    state = random_state(args.modes, parity=args.parity, seed=seed)
    if args.out is not None:
        dump_state(state, args.out)
    payload = {
        "modes": args.modes,
        "parity": state.parity,
        "seed": seed,
        "state": state_to_dict(state),
    }
    return 0, _report("random-state", payload)


def _cmd_teleport(args) -> tuple[int, dict]:
    alpha = complex(args.alpha_re, args.alpha_im)
    if args.beta_re is None and args.beta_im == 0.0:
        remainder = 1.0 - abs(alpha) ** 2
        beta = complex(math.sqrt(max(remainder, 0.0)))
    else:
        beta = complex(args.beta_re or 0.0, args.beta_im)
    report = run_teleportation((alpha, beta), args.kind)
    branches = report.branches
    if args.branch is not None:
        branches = [b for b in branches if b.index == args.branch]
        if not branches:
            raise FermionError(f"branch must be 0..3, got {args.branch}")
    rows = [
        {
            "index": b.index,
            "control_outcome": b.control_outcome,
            "target_outcome": b.target_outcome,
            "probability": float(b.probability),
            "fidelity": float(b.fidelity),
        }
        for b in branches
    ]
    payload = {
        "kind": args.kind,
        "alpha": _cpair(alpha),
        "beta": _cpair(beta),
        "branches": rows,
        "min_fidelity": float(min(b.fidelity for b in branches)),
    }
    if args.branch is not None:
        only = branches[0]
        payload["bob_block"] = _cmatrix(only.bob_block)
        payload["state"] = state_to_dict(only.state)
    return 0, _report("teleport", payload)


def _cmd_sdc(args) -> tuple[int, dict]:
    state = superdense_encode(args.message, args.seed_state)
    decoded = superdense_decode(state, args.seed_state)
    part = ModePartition(4, (0, 1))
    payload = {
        "message": args.message,
        "seed_state": args.seed_state,
        "decoded": decoded,
        "S_A": float(bipartite_entropy(state, part)),
        "C": float(concurrence(state)),
        "state": state_to_dict(state),
    }
    return (0 if decoded == args.message else 1), _report("sdc", payload)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermient",
        description="Exact fermionic Fock-space toolkit: correlation matrices, "
                    "mode entanglement, normal forms, and pair-encoded qubit protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("json", "pretty"), default="json",
                       help="report format (default json)")

    def with_state(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("state", help="path to a JSON state document")
        common(p)
        return p

    p = with_state("rho-sp", "one-body density matrix, pairing matrix, and spectrum")
    p.set_defaults(func=_cmd_rho_sp)

    p = with_state("rho-qsp", "extended one-body density matrix and spectrum")
    p.set_defaults(func=_cmd_rho_qsp)

    p = with_state("entropy", "one-body and extended one-body entanglement entropies")
    p.set_defaults(func=_cmd_entropy)

    p = with_state("concurrence", "fermionic concurrence of a four-mode state")
    p.set_defaults(func=_cmd_concurrence)

    p = with_state("normal-form", "Schmidt-like normal form of a four-mode state")
    p.set_defaults(func=_cmd_normal_form)

    p = with_state("bipartition", "reduced state of a mode bipartition, with bound checks")
    p.add_argument("--a", required=True, type=_parse_modes, metavar="I,J,...",
                   help="modes on side A, comma separated")
    p.add_argument("--tol", action="append", type=_parse_tol, metavar="NAME=VALUE",
                   help="override a named tolerance (lemma)")
    p.set_defaults(func=_cmd_bipartition)

    p = sub.add_parser("check-lemma2", help="random sweep of the entropy and spectral bounds")
    p.add_argument("--samples", type=_positive_int, default=100,
                   help="number of random states (default 100)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: FERMI_ENT_SEED or 0)")
    p.add_argument("--tol", action="append", type=_parse_tol, metavar="NAME=VALUE",
                   help="override a named tolerance (lemma)")
    common(p)
    p.set_defaults(func=_cmd_check_lemma2)

    p = sub.add_parser("random-state", help="sample a random definite-parity state")
    p.add_argument("--modes", type=_positive_int, default=4, help="mode count (default 4)")
    p.add_argument("--parity", choices=("even", "odd"), default=None,
                   help="parity sector (default: random)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: FERMI_ENT_SEED or 0)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the state document to PATH")
    common(p)
    p.set_defaults(func=_cmd_random_state)

    p = sub.add_parser("teleport", help="run the pair-encoded teleportation protocol")
    p.add_argument("--alpha-re", type=float, required=True)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--beta-re", type=float, default=None,
                   help="default: sqrt(1 - |alpha|^2)")
    p.add_argument("--beta-im", type=float, default=0.0)
    p.add_argument("--kind", choices=("odd", "even"), required=True)
    p.add_argument("--branch", type=int, default=None, choices=(0, 1, 2, 3),
                   help="report a single measurement branch with its post state")
    common(p)
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("sdc", help="superdense-coding encode, analyze, decode")
    p.add_argument("--message", required=True, help="three bits, e.g. 101")
    p.add_argument("--seed-state", choices=("psi00", "psi00prime"), default="psi00")
    common(p)
    p.set_defaults(func=_cmd_sdc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = args.func(args)
        _emit(report, args.output)
    except FermionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
