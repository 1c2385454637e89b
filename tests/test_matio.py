"""JSON matrix files and deterministic text rendering."""

import dataclasses

import numpy as np
import pytest

from ptqm.canonical import BlockDescriptor
from ptqm.errors import ParseError, ValidationError
from ptqm.matio import (
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
