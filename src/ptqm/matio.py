"""File formats and deterministic text rendering for the CLI.

Matrices travel as JSON objects {"dim": n, "rows": [[[re, im], ...]]}
and vectors as {"dim": n, "entries": [[re, im], ...]}. render_json and
render_csv are where values become text: the CLI hands them library
values and records as returned. Every number goes through format_float
so that repeated runs produce byte-identical text: 17 significant
digits, lowercase scientific notation, negative zero collapsed to zero.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .errors import NumericalError, ParseError, ValidationError


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValidationError(f"cannot render non-finite value {x!r}")
    if x == 0.0:
        x = 0.0
    return f"{x:.16e}"


def _entry_to_complex(entry, where: str) -> complex:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                       for p in entry)):
        raise ValidationError(f"{where}: expected a [re, im] number pair, got {entry!r}")
    try:
        z = complex(float(entry[0]), float(entry[1]))
    except OverflowError as exc:
        # an integer literal too large for a float
        raise ValidationError(f"{where}: entry outside the floating-point range") from exc
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValidationError(f"{where}: non-finite entry {entry!r}")
    return z


def _load_json(path: str, label: str = "") -> Any:
    """The JSON document in path; label prefixes the path in messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {label}{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{label}{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # an integer literal longer than Python converts
        raise ParseError(f"cannot parse {label}{path}: {exc}") from exc


def _load_items(path: str, key: str) -> tuple[int, list]:
    """(dim, data[key]) of a file holding an object with a positive
    integer 'dim' and a list of dim items under key."""
    data = _load_json(path)
    if not isinstance(data, dict) or "dim" not in data or key not in data:
        raise ValidationError(f"{path}: expected an object with 'dim' and '{key}'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"{path}: 'dim' must be a positive integer")
    items = data[key]
    if not isinstance(items, list) or len(items) != dim:
        raise ValidationError(f"{path}: expected {dim} {key}")
    return dim, items


def load_matrix_file(path: str) -> np.ndarray:
    dim, rows = _load_items(path, "rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{path}: row {i}, column {j}")
    return out


def load_vector_file(path: str) -> np.ndarray:
    _, entries = _load_items(path, "entries")
    return np.array([_entry_to_complex(e, f"{path}: entry {i}")
                     for i, e in enumerate(entries)], dtype=complex)


def render_json(value: Any) -> str:
    """Deterministic JSON text: insertion-order keys, compact
    separators, all floats rendered through format_float. A complex
    number is a [re, im] pair and a dataclass an object of its fields
    in declaration order."""
    pieces: list[str] = []
    _render(value, pieces)
    return "".join(pieces)


def _render(value: Any, out: list) -> None:
    if isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _render(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)) or value is None:
        out.append(json.dumps(None if value is None else bool(value)))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(value))
    elif isinstance(value, (complex, np.complexfloating)):
        _render([value.real, value.imag], out)
    elif isinstance(value, np.ndarray):
        _render(value.tolist(), out)
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _render({f.name: getattr(value, f.name) for f in dataclasses.fields(value)}, out)
    else:
        raise TypeError(f"cannot render {type(value).__name__} deterministically")


def render_csv(header: list, rows) -> str:
    """CSV with LF endings from any iterable of rows, a 2-D array
    included; numbers go through format_float, None is an empty cell."""
    lines = [",".join(header)]
    try:
        for row in rows:
            cells = []
            for cell in row:
                if cell is None:
                    cells.append("")
                elif isinstance(cell, str):
                    cells.append(cell)
                else:
                    cells.append(format_float(cell))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    except MemoryError as exc:
        raise NumericalError("the CSV output does not fit in memory") from exc
