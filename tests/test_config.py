"""Config files: each malformed entry is rejected with its own message."""

import json

import pytest

from ptqm.config import RunConfig, load_config_file
from ptqm.errors import ParseError, ValidationError


@pytest.mark.parametrize("doc, message", [
    ({"signs": "1,1"}, "config: signs must be a list"),
    ({"signs": [1, "x"]}, "config: signs entries must be +1 or -1"),
    ({"signs": [None]}, "config: signs entries must be +1 or -1"),
    ({"probe": "1,0,0,0"}, "config: probe must be a list of two [re, im] pairs"),
    ({"probe": [[1, 0]]}, "config: probe must be a list of two [re, im] pairs"),
    ({"probe": [[1, 0], 0]},
     "config: probe entry 1: expected a [re, im] number pair, got 0"),
    ({"probe": [[1, 0], [0]]},
     "config: probe entry 1: expected a [re, im] number pair, got [0]"),
    ({"probe": [[1, 0], [None, 0]]},
     "config: probe entry 1: expected a [re, im] number pair, got [None, 0]"),
    ({"num_points": 5.0}, "config: num_points must be an integer"),
    ({"num_points": True}, "config: num_points must be an integer"),
    ({"num_points": "5"}, "config: num_points must be an integer"),
    ({"tol": "1e-8"}, "config: tol must be a number, got '1e-8'"),
    ({"slack": False}, "config: slack must be a number, got False"),
    ({"probe": [[True, "1"], [0, 0]]},
     "config: probe entry 0: expected a [re, im] number pair, got [True, '1']"),
    ({"probe": [[1, 0], [float("nan"), 0]]}, "config: probe entry 1: non-finite entry [nan, 0]"),
    ({"probe": [[10 ** 400, 0], [0, 0]]},
     "config: probe entry 0: entry outside the floating-point range"),
    ({"t_start": float("nan")}, "config: t_start must be finite, got nan"),
    ({"t_end": float("-inf")}, "config: t_end must be finite, got -inf"),
    ({"tol": float("inf")}, "config: tol must be finite, got inf"),
    # after the entries above, so that their parameter ids stay as they were
    ({"signs": [1.7, -1.2]}, "config: signs entries must be +1 or -1"),
    ({"signs": [True, -1]}, "config: signs entries must be +1 or -1"),
    ({"signs": [1.0, -1]}, "config: signs entries must be +1 or -1"),
])
def test_malformed_entry_message(tmp_path, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        load_config_file(str(path))
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
def test_non_object_file(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        load_config_file(str(path))
    assert str(info.value) == f"config {path}: expected a JSON object"


def test_unreadable_path(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(ParseError) as info:
        load_config_file(str(path))
    assert str(info.value) == (f"cannot read config {path}: "
                               f"[Errno 2] No such file or directory: '{path}'")


def test_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{")
    with pytest.raises(ParseError) as info:
        load_config_file(str(path))
    assert str(info.value).startswith(f"config {path} is not valid JSON: ")


def test_oversized_integer_literal(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"tol": 1%s}' % ("0" * 5000))
    with pytest.raises(ParseError) as info:
        load_config_file(str(path))
    assert str(info.value).startswith(f"cannot parse config {path}: Exceeds the limit")


@pytest.mark.parametrize("probe", [(1,), (1, 0, 0), ()])
def test_config_input_errors(probe):
    with pytest.raises(ValidationError, match="^config: probe must have two components$"):
        RunConfig(probe=probe).validate()
