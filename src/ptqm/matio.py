"""File formats and deterministic text rendering for the CLI.

Matrices travel as JSON objects {"dim": n, "rows": [[[re, im], ...]]}
and vectors as {"dim": n, "entries": [[re, im], ...]}. render_json and
render_csv (or csv_pieces, which yields the same text a block of rows at
a time) are where values become text: the CLI hands them library values
and records as returned. Every number is rendered by one rule, so that
repeated runs produce byte-identical text: 17 significant digits,
lowercase scientific notation, negative zero collapsed to zero, and
ValidationError for a non-finite value. format_float applies it to one
number; a float or complex array is rendered a whole array at a time,
with the same text and, for its first non-finite entry in C order, the
same error. A matrix or vector file is read into one array when every
number sits where it belongs; only a malformed file takes the per-entry
loop, which words the error. numpy is imported by the functions that
build or render an array, so a file that fails to parse and a document
of Python values need none.
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import chain
from typing import TYPE_CHECKING, Any

from .errors import NumericalError, ParseError, ValidationError

if TYPE_CHECKING:
    import numpy as np


# the text of one finite float: 17 significant digits, lowercase scientific
_NUMBER = "{:.16e}"


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot render non-finite value {x!r}")
    if x == 0.0:
        x = 0.0
    return _NUMBER.format(x)


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
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
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
    except RecursionError as exc:
        # arrays or objects nested past the interpreter's recursion limit
        raise ParseError(f"cannot parse {label}{path}: nested too deeply") from exc


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


def _bulk_complex(items: list, shape: tuple):
    """items as one complex array of shape, when items nests lists to
    shape and then holds a [re, im] pair of ints or floats (never bools)
    that are finite as floats; None otherwise, for the per-entry loop to
    word the error."""
    import numpy as np

    numbers = items
    for _ in shape:
        numbers = chain.from_iterable(numbers)
    try:
        if not set(map(type, numbers)) <= {int, float}:
            return None
        a = np.array(items, dtype=float)
    except (TypeError, ValueError, OverflowError):
        # a number where a list belongs, ragged nesting, an int past the float range
        return None
    if a.shape != shape + (2,) or not np.isfinite(a).all():
        return None
    return a.view(complex).reshape(shape)


def load_matrix_file(path: str) -> np.ndarray:
    dim, rows = _load_items(path, "rows")
    out = _bulk_complex(rows, (dim, dim))
    if out is not None:
        return out
    import numpy as np

    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{path}: row {i}, column {j}")
    return out


def load_vector_file(path: str) -> np.ndarray:
    dim, entries = _load_items(path, "entries")
    out = _bulk_complex(entries, (dim,))
    if out is not None:
        return out
    import numpy as np

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
    elif isinstance(value, bool) or value is None:
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(int(value)))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, complex):
        _render([value.real, value.imag], out)
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _render({f.name: getattr(value, f.name) for f in dataclasses.fields(value)}, out)
    else:
        _render_numpy(value, out)


def _render_numpy(value: Any, out: list) -> None:
    """_render of a numpy scalar or array that is not a Python scalar
    (np.float64 and np.complex128 are)."""
    import numpy as np

    if isinstance(value, np.bool_):
        out.append(json.dumps(bool(value)))
    elif isinstance(value, np.integer):
        out.append(str(int(value)))
    elif isinstance(value, np.floating):
        out.append(format_float(value))
    elif isinstance(value, np.complexfloating):
        _render([value.real, value.imag], out)
    elif isinstance(value, np.ndarray):
        if _whole(value):
            out.append(_array_text(_finite_floats(value)))
        else:
            _render(value.tolist(), out)
    else:
        raise TypeError(f"cannot render {type(value).__name__} deterministically")


# the most numbers one format string renders; an array's trailing axes
# share one string up to this many
_TEMPLATE_CELLS = 1 << 12


def _whole(a: np.ndarray) -> bool:
    """Whether a renders a whole array at a time: a float or complex
    dtype that float64 holds exactly."""
    import numpy as np

    return a.dtype.kind in "fc" and np.can_cast(a.dtype, complex)


def _finite_floats(a: np.ndarray) -> np.ndarray:
    """a as float64, a complex entry as its (re, im) pair on a new last
    axis, with negative zero collapsed; format_float's ValidationError
    for the first non-finite number in C order."""
    import numpy as np

    x = np.asarray(np.stack((a.real, a.imag), axis=-1) if a.dtype.kind == "c" else a,
                   dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        format_float(x[~finite][0])
    return x + 0.0


def _array_text(x: np.ndarray) -> str:
    """The JSON text of a finite float64 array, as _render gives its
    tolist(): the trailing axes of up to _TEMPLATE_CELLS numbers fill one
    format string each, and the leading axes join those texts."""
    if x.size == 0:
        pieces: list[str] = []
        _render(x.tolist(), pieces)
        return "".join(pieces)
    lead, cells, template = x.ndim, 1, _NUMBER
    while lead and cells * x.shape[lead - 1] <= _TEMPLATE_CELLS:
        lead -= 1
        cells *= x.shape[lead]
        template = "[" + ",".join([template] * x.shape[lead]) + "]"
    texts = [template.format(*numbers) for numbers in x.reshape(-1, cells).tolist()]
    for n in reversed(x.shape[:lead]):
        texts = ["[" + ",".join(texts[i:i + n]) + "]" for i in range(0, len(texts), n)]
    return texts[0]


def _csv_rows(rows) -> str:
    """The CSV lines of rows, each ending in LF: a 2-D float array a
    whole array at a time, any other iterable cell by cell, a number
    through format_float, None as an empty cell and a string as itself."""
    import numpy as np

    if isinstance(rows, np.ndarray) and rows.ndim == 2 and _whole(rows) \
            and rows.dtype.kind == "f":
        line = ",".join([_NUMBER] * rows.shape[1]) + "\n"
        return "".join([line.format(*row) for row in _finite_floats(rows).tolist()])
    lines = []
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(format_float(cell))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def csv_pieces(header: list, blocks):
    """The text of render_csv(header, rows) for rows the concatenation
    of blocks, yielded in pieces: the header with the first block's
    lines, then one piece per block, so that only one block's text is
    held at a time and nothing is yielded before the first block renders."""
    head = ",".join(header) + "\n"
    for rows in blocks:
        try:
            text = head + _csv_rows(rows)
        except MemoryError as exc:
            raise NumericalError("the CSV output does not fit in memory") from exc
        head = ""
        yield text
    if head:
        yield head


def render_csv(header: list, rows) -> str:
    """CSV with LF endings from any iterable of rows, a 2-D array
    included; numbers go through format_float, None is an empty cell."""
    return "".join(csv_pieces(header, [rows]))
