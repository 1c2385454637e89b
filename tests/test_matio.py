"""JSON matrix files and deterministic text rendering."""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ptqm import matio
from ptqm.canonical import BlockDescriptor
from ptqm.errors import ParseError, ValidationError
from ptqm.matio import (
    csv_pieces,
    format_float,
    load_matrix_file,
    load_vector_file,
    render_csv,
    render_json,
)


def test_format_float_frozen():
    assert format_float(1.5) == "1.5000000000000000e+00"
    assert format_float(0.0) == "0.0000000000000000e+00"
    assert format_float(-0.0) == "0.0000000000000000e+00"
    assert format_float(-2.25e-8) == "-2.2500000000000000e-08"
    with pytest.raises(ValidationError):
        format_float(float("nan"))
    with pytest.raises(ValidationError):
        format_float(float("inf"))


def test_matrix_file_round_trip(tmp_path):
    m = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
    doc = {"dim": 2, "rows": m}
    path = tmp_path / "m.json"
    with open(path, "w") as fh:
        fh.write(render_json(doc))
    back = load_matrix_file(path)
    assert np.array_equal(back, m)


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(render_json({"dim": 2, "entries": [[1.0, 0.5], [0.0, -1.0]]}))
    v = load_vector_file(path)
    assert np.array_equal(v, np.array([1.0 + 0.5j, -1.0j]))


@pytest.mark.parametrize("payload", [
    '{"rows": [[[1.0, 0.0]]]}',                        # missing dim
    '{"dim": true, "rows": [[[1.0, 0.0]]]}',           # bool dim
    '{"dim": 2, "rows": [[[1.0, 0.0], [0.0, 0.0]]]}',  # wrong row count
    '{"dim": 1, "rows": [[[1.0, 0.0, 0.0]]]}',         # entry not a pair
    '{"dim": 1, "rows": [[[1e999, 0.0]]]}',            # non-finite entry
    '{"dim": 1, "rows": [[[true, 0.0]]]}',             # bool entry
])
def test_matrix_file_validation_errors(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValidationError):
        load_matrix_file(path)


@pytest.mark.parametrize("payload, message", [
    ('[[1.0, 0.0]]', "expected an object with 'dim' and 'entries'"),
    ('{"dim": 1}', "expected an object with 'dim' and 'entries'"),
    ('{"entries": [[1.0, 0.0]]}', "expected an object with 'dim' and 'entries'"),
    ('{"dim": 0, "entries": []}', "'dim' must be a positive integer"),
    ('{"dim": 1.0, "entries": [[1.0, 0.0]]}', "'dim' must be a positive integer"),
    ('{"dim": true, "entries": [[1.0, 0.0]]}', "'dim' must be a positive integer"),
    ('{"dim": 2, "entries": [[1.0, 0.0]]}', "expected 2 entries"),
    ('{"dim": 1, "entries": {"0": [1.0, 0.0]}}', "expected 1 entries"),
    ('{"dim": 1, "entries": [[1.0]]}', "entry 0: expected a [re, im] number pair, got [1.0]"),
])
def test_vector_file_validation_messages(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValidationError) as info:
        load_vector_file(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("payload, message", [
    ('{"dim": 1, "entries": [[1.0, 0.0]]}', "expected an object with 'dim' and 'rows'"),
    ('{"dim": -1, "rows": []}', "'dim' must be a positive integer"),
    ('{"dim": 2, "rows": [[[1.0, 0.0], [0.0, 0.0]]]}', "expected 2 rows"),
    ('{"dim": 1, "rows": [[[1.0, 0.0], [0.0, 0.0]]]}', "row 0 must have 1 entries"),
])
def test_matrix_file_validation_messages(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValidationError) as info:
        load_matrix_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_matrix_file_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "rows": [[[')
    with pytest.raises(ParseError):
        load_matrix_file(path)
    with pytest.raises(ParseError):
        load_matrix_file(tmp_path / "missing.json")


def test_render_json_frozen():
    doc = {"b": True, "n": None, "k": 3, "x": 0.5,
           "z": 1.0 - 2.0j, "s": "hi", "v": [1.0, [2.0]]}
    expect = ('{"b":true,"n":null,"k":3,'
              '"x":5.0000000000000000e-01,'
              '"z":[1.0000000000000000e+00,-2.0000000000000000e+00],'
              '"s":"hi",'
              '"v":[1.0000000000000000e+00,[2.0000000000000000e+00]]}')
    assert render_json(doc) == expect


def test_render_json_ndarray_and_rejects_unknown():
    assert render_json(np.array([1.0, 2.0])) == (
        "[1.0000000000000000e+00,2.0000000000000000e+00]")
    with pytest.raises(TypeError):
        render_json(object())


def test_render_json_integer_ndarray_renders_its_integers():
    """An integer array is not a float array: its entries render as ints."""
    assert render_json(np.array([[1, -2], [0, 3]])) == "[[1,-2],[0,3]]"


def test_csv_pieces_of_no_blocks_is_the_header_alone():
    assert list(csv_pieces(["t", "value"], [])) == ["t,value\n"]


def test_render_csv_frozen():
    text = render_csv(["t", "value"], [[0.0, 1.5], ["x", -1.0]])
    assert text == ("t,value\n"
                    "0.0000000000000000e+00,1.5000000000000000e+00\n"
                    "x,-1.0000000000000000e+00\n")
    assert "\r" not in text
    assert text.endswith("\n")


def test_render_is_deterministic():
    doc = {"dim": 2, "rows": np.eye(2, dtype=complex)}
    assert render_json(doc) == render_json(doc)


@dataclasses.dataclass(frozen=True)
class _Record:
    name: str
    value: complex
    flag: bool
    rest: tuple


def test_render_json_dataclass_in_field_order():
    record = _Record("r", 1.0 - 0.5j, np.True_, (np.int64(2), None))
    assert render_json(record) == (
        '{"name":"r","value":[1.0000000000000000e+00,-5.0000000000000000e-01],'
        '"flag":true,"rest":[2,null]}')
    # the object classify and canonical print for every block
    assert render_json(BlockDescriptor("RealSimple", complex(2.0), 1)) == (
        '{"kind":"RealSimple","eigenvalue":[2.0000000000000000e+00,0.0000000000000000e+00],'
        '"order":1}')


def test_render_json_numpy_bools():
    assert render_json([np.True_, np.False_, True]) == "[true,false,true]"


def test_render_csv_none_is_an_empty_cell():
    assert render_csv(["a", "b", "c"], [(None, "x", 0.5)]) == (
        "a,b,c\n,x,5.0000000000000000e-01\n")


def test_render_csv_takes_a_2d_array():
    table = np.array([[0.0, -1.5], [2.0, 1e-300]])
    assert render_csv(["t", "v"], table) == render_csv(["t", "v"], table.tolist()) == (
        "t,v\n0.0000000000000000e+00,-1.5000000000000000e+00\n"
        "2.0000000000000000e+00,1.0000000000000000e-300\n")


# numbers at the edges of the float range, both zeros and the subnormals
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308,
          1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=6)
_ARRAYS = (hnp.arrays(np.float64, _SHAPES, elements=_FINITE)
           | hnp.arrays(np.complex128, _SHAPES, elements=st.builds(complex, _FINITE, _FINITE)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_ARRAYS)
def test_whole_array_render_matches_the_per_element_render(a):
    """An ndarray renders a whole array at a time, with the text of its
    tolist() rendered number by number: 0-d arrays, empty axes, -0.0,
    subnormals and +-1e308 included."""
    assert render_json(a) == render_json(a.tolist())


@pytest.mark.parametrize("shape", [(5000,), (3, 2000), (2, 70, 70), (4097, 1), (1, 0, 3), (0,)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64])
def test_whole_array_render_across_format_string_sizes(shape, dtype):
    """Arrays whose trailing axes hold more numbers than one format
    string takes, and other float widths, render as their tolist()."""
    rng = np.random.default_rng(sum(shape))
    decades = np.finfo(dtype).maxexp * 3 // 10 - 1  # within the range of dtype
    a = (rng.normal(size=shape) * 10.0 ** rng.integers(-decades, decades, size=shape))
    a = a.astype(dtype)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * a[..., ::-1]
    assert render_json(a) == render_json(a.tolist())


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape, first", [((), ()), ((7,), (5,)), ((3, 4), (1, 2)),
                                          ((2, 3, 4), (1, 0, 3))])
def test_non_finite_entry_keeps_format_floats_error(dtype, shape, first):
    """The first non-finite number in C order names the error, as when
    the array is rendered number by number; a complex entry's real part
    comes before its imaginary part."""
    for bad, later in ((np.nan, np.inf), (-np.inf, np.nan), (np.inf, -np.inf)):
        a = np.ones(shape, dtype=dtype)
        if np.dtype(dtype).kind == "c":
            a[first] = complex(1.0, bad)
        else:
            a[first] = bad
        if a.size > 1:
            a.flat[-1] = later
        with pytest.raises(ValidationError) as whole:
            render_json({"rows": a})
        with pytest.raises(ValidationError) as each:
            render_json({"rows": a.tolist()})
        assert str(whole.value) == str(each.value) == f"cannot render non-finite value {bad!r}"


def _each_entry(load, path):
    """load(path) through the per-entry loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matio, "_bulk_complex", lambda *args: None)
        return load(path)


# floats at the edges of their range, ints (a bool is not one) that round,
# and one int past the float range
_NUMBERS = (_FINITE | st.integers(-2 ** 64, 2 ** 64)
            | st.sampled_from([2 ** 53 + 1, -(2 ** 63) - 1, 2 ** 64 + 1, 10 ** 308, 2 ** 1024]))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(st.lists(
    st.tuples(_NUMBERS, _NUMBERS).map(list), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_bulk_parse_is_bitwise_the_per_entry_loop(rows):
    """A matrix or vector file reads into the array the per-entry loop
    builds, bit for bit (-0.0 and the rounding of large ints included),
    or fails with the loop's message."""
    with tempfile.TemporaryDirectory() as tmp:
        for load, name, doc in ((load_matrix_file, "m.json", {"dim": len(rows), "rows": rows}),
                                (load_vector_file, "v.json",
                                 {"dim": len(rows), "entries": rows[0]})):
            path = Path(tmp) / name
            path.write_text(json.dumps(doc))
            try:
                expected = _each_entry(load, path)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                    load(path)
                continue
            got = load(path)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [
    [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],     # bool entry
    [[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],      # numeric string
    [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],     # null
    [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],  # triples
    [[[[1.0, 0.0]], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],    # nested too deep
    [[1.0, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],             # a number for a pair
    [[{"re": 1.0, "im": 0.0}, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # an object
    [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],                  # ragged rows
    [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]],              # int past the float range
    [[[1e999, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],    # infinite entry
    [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[1.0, 0.0], [0.0, 0.0]], "row"],                          # a row that is not a list
])
def test_malformed_matrix_is_worded_by_the_per_entry_loop(tmp_path, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "rows": rows}))
    with pytest.raises(ValidationError) as loop:
        _each_entry(load_matrix_file, path)
    with pytest.raises(ValidationError) as bulk:
        load_matrix_file(path)
    assert str(bulk.value) == str(loop.value)
