"""The error contract: every exception class names its CLI kind and exit code."""

import inspect
import json
from pathlib import Path

import pytest

from ptqm import cli, errors

# the contract README.md documents: (kind on stderr, exit code) per class
CONTRACT = {
    "ParseError": ("parse", 2),
    "ValidationError": ("validation", 2),
    "DimensionError": ("validation", 2),
    "NotPositiveSemidefiniteError": ("validation", 2),
    "InvalidDensityError": ("validation", 2),
    "PreconditionError": ("precondition", 3),
    "NotPTSymmetricError": ("not_pt_symmetric", 3),
    "BrokenSymmetryError": ("broken_hamiltonian", 3),
    "BrokenRegimeError": ("broken_regime", 3),
    "CriticalPointError": ("critical_point", 3),
    "DegeneratePostSelectionError": ("degenerate_post_selection", 3),
    "NumericalError": ("numerical", 4),
    "IllConditionedError": ("numerical", 4),
    "SingularMatrixError": ("numerical", 4),
}
README = Path(__file__).parents[1] / "README.md"


def error_classes() -> dict:
    return {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == errors.__name__}


def test_every_error_class_carries_its_documented_kind_and_exit_code():
    classes = error_classes()
    assert set(classes) == set(CONTRACT)
    for name, cls in classes.items():
        assert (cls.kind, cls.exit_code) == CONTRACT[name], name


def test_readme_documents_every_precondition_kind():
    readme = README.read_text(encoding="utf-8")
    for kind, code in CONTRACT.values():
        if code == 3 and kind != "precondition":
            assert f"`{kind}`" in readme


@pytest.mark.parametrize("cls", [*error_classes().values(), FloatingPointError, OverflowError],
                         ids=lambda cls: cls.__name__)
def test_cli_reports_each_error_by_its_class(monkeypatch, capsys, cls):
    # the two builtin errors are arithmetic overflow, reported as numerical
    kind, exit_code = CONTRACT.get(cls.__name__, ("numerical", 4))

    def handler(args, cfg):
        raise cls("detail text")

    monkeypatch.setattr(cli, "cmd_stokes", handler)
    code = cli.main(["stokes", "--ex=1,0", "--ey=0,1"])
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({"error": kind, "detail": "detail text"},
                             separators=(",", ":")) + "\n"
    assert code == exit_code
