"""JSON serialization of Fock states.

Document layout::

    {"n_modes": 4, "amplitudes": [{"mask": 3, "re": 0.7071067811865476, "im": 0.0}]}

Masks are the occupation bitmasks of the library's bit-ordering convention
(mode 0 is the least significant bit). Entries below the zero tolerance are
pruned on write and the list is mask-ascending, so equal states produce
identical documents. Floats round-trip exactly: json emits the shortest
repr that recovers the double.
"""

import json
import math
from pathlib import Path
from typing import Any

from .errors import FermionError, StateFormatError
from .fock import FockState, _dim, _mode_index, make_state

__all__ = ["state_to_dict", "state_from_dict", "dump_state", "load_state"]


def state_to_dict(state: FockState) -> dict[str, Any]:
    """Plain-dict form of a state, ready for json.dumps."""
    entries = [
        {"mask": mask, "re": amp.real, "im": amp.imag}
        for mask, amp in state.nonzero_amplitudes()
    ]
    return {"n_modes": state.n_modes, "amplitudes": entries}


def state_from_dict(doc: Any, normalize: bool = True) -> FockState:
    """Rebuild a state from the dict layout, validating as it goes."""
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    try:
        n_modes = doc["n_modes"]
        entries = doc["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise StateFormatError(f"missing required key: {exc}") from exc
    try:
        dim = _dim(n_modes)
    except FermionError as exc:
        raise StateFormatError(f"n_modes: {exc}") from None
    if not isinstance(entries, list):
        raise StateFormatError("amplitudes must be a list")
    amplitudes: dict[int, complex] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise StateFormatError(f"amplitude #{pos} is not an object")
        try:
            mask = entry["mask"]
            re = entry["re"]
            im = entry["im"]
        except (KeyError, TypeError) as exc:
            raise StateFormatError(f"amplitude #{pos} missing key: {exc}") from exc
        try:
            _mode_index(mask, "mask", dim)
        except FermionError as exc:
            raise StateFormatError(f"amplitude #{pos}: {exc}") from None
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
            raise StateFormatError(f"amplitude #{pos}: re/im must be numbers")
        try:
            finite = math.isfinite(re) and math.isfinite(im)
        except OverflowError:  # an integer too large for a double
            finite = False
        if not finite:
            raise StateFormatError(f"amplitude #{pos} (mask {mask}): re/im must be finite")
        if mask in amplitudes:
            raise StateFormatError(f"amplitude #{pos}: duplicate mask {mask}")
        amplitudes[mask] = complex(re, im)
    if not amplitudes:
        raise StateFormatError("amplitudes list is empty")
    return make_state(n_modes, amplitudes, normalize=normalize)


def dump_state(state: FockState, path: str | Path) -> None:
    """Write a state document to path as UTF-8 JSON."""
    text = json.dumps(state_to_dict(state), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_state(path: str | Path, normalize: bool = True) -> FockState:
    """Read a state document from path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{path} is not valid JSON: {exc}") from exc
    return state_from_dict(doc, normalize=normalize)
