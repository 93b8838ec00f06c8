"""Span recorder installed from outside the package, at its module bindings.

The package imports across modules with ``from .linalg import
hermitian_eigensystem`` and the like, so each function is reachable through
several module globals. ``Tracer.install`` replaces *every* binding of each
listed function with a wrapper that knows which module's binding was used;
that module is the caller, which yields the ``from_<module>`` split of the
eigensolver for free. Spans (name, caller, start, end, parent, attributes)
stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (defining module, function) -> span name. Self time and calls are
#: reported per span name.
FUNCTIONS = {
    ("fock", "raw_apply"): "fock.raw_apply",
    ("fock", "creation_matrix"): "fock.dense_ops",
    ("fock", "annihilation_matrix"): "fock.dense_ops",
    ("fock", "number_matrix"): "fock.dense_ops",
    ("fock", "parity_matrix"): "fock.dense_ops",
    ("linalg", "hermitian_eigensystem"): "linalg.eigensolve",
    ("correlations", "one_body"): "correlations.one_body",
    ("correlations", "extended_density"): "correlations.extended_density",
    ("correlations", "sp_entropy"): "correlations.entropy",
    ("correlations", "qsp_entropy"): "correlations.entropy",
    ("correlations", "matrix_entropy"): "correlations.entropy",
    ("entanglement", "reduced_state"): "entanglement.reduced_state",
    ("entanglement", "bipartite_entropy"): "entanglement.bipartite_entropy",
    ("entanglement", "majorization_check"): "entanglement.majorization_check",
    ("transforms", "lift_to_fock"): "transforms.lift_to_fock",
    ("transforms", "validate_bogoliubov"): "transforms.validate_bogoliubov",
    ("transforms", "normal_form"): "transforms.normal_form",
    ("protocols", "pauli"): "protocols.gate_build",
    ("protocols", "rotation"): "protocols.gate_build",
    ("protocols", "hadamard"): "protocols.gate_build",
    ("protocols", "cnot"): "protocols.gate_build",
    ("protocols", "parity_gate"): "protocols.gate_build",
    ("protocols", "occupation_projector"): "protocols.gate_build",
    ("protocols", "measure_branch"): "protocols.measure",
    ("protocols", "measure_occupation"): "protocols.measure",
    ("protocols", "run_teleportation"): "protocols.teleport",
    ("protocols", "superdense_encode"): "protocols.sdc",
    ("protocols", "superdense_decode"): "protocols.sdc",
    ("io", "load_state"): "io.load_state",
    ("cli", "main"): "cli.main",
}

#: (defining module, class, method) -> span name.
METHODS = {
    ("fock", "FockOperator", "__post_init__"): "fock.operator",
    ("fock", "FockOperator", "apply"): "fock.operator",
}

EIGEN_CALLERS = ("correlations", "entanglement", "transforms", "protocols", "cli")
REDUCED_SIZES = (8, 10, 12)
PER_ITEM = (
    "linalg.eigensolve",
    "correlations.extended_density",
    "entanglement.reduced_state",
    "transforms.lift_to_fock",
)


def _attributes(name: str, args: tuple) -> dict:
    """Work measures read from the arguments of a call, never from its result."""
    if name == "linalg.eigensolve":
        return {"work": float(args[0].shape[0]) ** 3}
    if name == "fock.dense_ops":
        return {"bytes": 16.0 * 4.0 ** int(args[0])}
    if name == "entanglement.reduced_state":
        return {"n": int(args[0].n_modes)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, caller, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, caller: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            span = [name, caller, 0.0, 0.0, stack[-1] if stack else -1, _attributes(name, args)]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self, package: str = "fermient") -> None:
        """Wrap every binding of the listed functions in the loaded package."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if mod is not None and (key == package or key.startswith(package + "."))
        }
        for (home, fname), name in FUNCTIONS.items():
            original = getattr(modules[f"{package}.{home}"], fname)
            for key, mod in modules.items():
                caller = key.rpartition(".")[2] if key != package else "api"
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(original, name, caller))
        for (home, cname, mname), name in METHODS.items():
            cls = getattr(modules[f"{package}.{home}"], cname)
            original = cls.__dict__[mname]
            self._patched.append((cls, mname, original))
            setattr(cls, mname, self._wrap(original, name, home))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def summary(self, items: int) -> dict[str, float]:
        """Per-layer calls, self time and work measures of the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, caller, start, end, parent, attrs in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for name in set(FUNCTIONS.values()) | set(METHODS.values()):
            out[f"{name}.calls"] = 0
            out[f"{name}.self_ms"] = 0.0
        for caller in EIGEN_CALLERS:
            out[f"linalg.eigensolve.from_{caller}.calls"] = 0
            out[f"linalg.eigensolve.from_{caller}.self_ms"] = 0.0
        for size in REDUCED_SIZES:
            out[f"entanglement.reduced_state.n{size}.self_ms"] = 0.0
        out["linalg.eigensolve.work"] = 0.0
        out["fock.dense_ops.bytes"] = 0.0
        for index, (name, caller, start, end, parent, attrs) in enumerate(self.spans):
            self_ms = (end - start - child_time[index]) * 1e3
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += self_ms
            if name == "linalg.eigensolve":
                out[f"{name}.from_{caller}.calls"] += 1
                out[f"{name}.from_{caller}.self_ms"] += self_ms
            elif name == "entanglement.reduced_state":
                out[f"{name}.n{attrs['n']}.self_ms"] += self_ms
            for key, value in attrs.items():
                if key != "n":
                    out[f"{name}.{key}"] += value
        for name in PER_ITEM:
            out[f"{name}.per_item"] = out[f"{name}.calls"] / items
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, caller, start/end in us, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for name, caller, start, end, parent, attrs in self.spans:
                row = {
                    "name": name,
                    "caller": caller,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent,
                }
                row.update(attrs)
                fh.write(json.dumps(row) + "\n")
