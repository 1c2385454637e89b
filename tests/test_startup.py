"""A command line loads only the modules its subcommand runs.

ptqm needs numpy alone, and no command line loads scipy or numpy.ma.
Importing ptqm loads none of its modules, and ptqm.cli calls the
library through the package's lazy exports, so a subcommand's modules
load when its handler first calls into them and a command whose input
fails to parse loads none. The test modules import scipy and every
ptqm module themselves, so only a fresh interpreter can see what a
command loaded.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptqm.matio import render_json
from test_cli_golden import GOLDEN, INPUTS, _argv, _load_cases, assert_same_text

SRC = Path(__file__).resolve().parents[1] / "src"

# runs each command line of the JSON list on stdin through cli.main and
# prints, as one JSON line, whether scipy and numpy.ma were loaded after
# import ptqm and which ptqm modules were, then each run's exit code,
# stdout, stderr and the same three after it
_CHILD = """
import contextlib, io, json, sys
def loaded():
    return {"scipy": "scipy" in sys.modules, "numpy.ma": "numpy.ma" in sys.modules,
            "ptqm": sorted(m for m in sys.modules if m.startswith("ptqm."))}
import ptqm
runs = [loaded()]
from ptqm.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append({"code": code, "out": out.getvalue(), "err": err.getvalue(), **loaded()})
sys.stdout.write(json.dumps(runs))
"""


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def _python(code: str, stdin: str = "") -> str:
    """stdout of code run by a new interpreter that imports ptqm from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_fresh(argvs: list) -> list:
    """[import ptqm, then one entry per command line], from a new interpreter."""
    return json.loads(_python(_CHILD, json.dumps(argvs)))


def _golden(names: list, summary: Path) -> tuple[list, list]:
    """The recorded cases named, and their command lines."""
    cases = {c["name"]: c for c in _load_cases()}
    return [cases[n] for n in names], [_argv(cases[n], summary) for n in names]


def _assert_matches_golden(cases: list, runs: list) -> None:
    for case, run in zip(cases, runs, strict=True):
        assert run["code"] == case["exit"], case["name"]
        assert_same_text(run["err"], case["stderr"], f"{case['name']} stderr")
        assert_same_text(run["out"], (GOLDEN / f"{case['name']}.out").read_text(
            encoding="utf-8"), case["name"])


def test_commands_without_a_factorisation_leave_scipy_unloaded(tmp_path):
    """Every golden line without an exceptional point's cluster, then a
    line whose input fails to parse and one whose H is not PT-symmetric,
    in one interpreter: none loads scipy, and each prints what was
    recorded."""
    names = ["stokes", "bender-sweep"] + [
        f"{command}_{case}{d}"
        for command in ("classify", "canonical", "metric", "inner", "invariants",
                        "dilate", "free-check")
        for case in ("unbroken", "complex") for d in (2, 4)] + [
        f"evolve_{case}{d}" for case in ("unbroken", "complex", "ep") for d in (2, 4)]
    cases, argvs = _golden(names, tmp_path / "summary.json")
    h_not_pt = tmp_path / "h_not_pt.json"
    h_not_pt.write_text(render_json({"dim": 2, "rows": np.asarray(
        [[1.0, 2.0], [3.0, 4.0]], dtype=complex)}))
    pair = [str(INPUTS / "p_unbroken2.json"), str(INPUTS / "t_unbroken2.json")]
    argvs += [["classify", str(tmp_path / "missing.json"), *pair],
              ["canonical", str(h_not_pt), *pair]]

    imported, *runs = _run_fresh(argvs)
    assert not imported["scipy"]
    _assert_matches_golden(cases, runs[:-2])
    assert [r["code"] for r in runs[-2:]] == [2, 3]
    assert [json.loads(r["err"])["error"] for r in runs[-2:]] == ["parse", "not_pt_symmetric"]
    # a loaded module stays in sys.modules, so the last run speaks for all
    assert not runs[-1]["scipy"]


def test_commands_without_an_exceptional_point_leave_numpy_ma_unloaded(tmp_path):
    """numpy.ma costs about 10 ms of imports, loaded by np.unique on its
    first call and by scipy; no command line needs it."""
    names = [c["name"] for c in _load_cases() if "_ep" not in c["name"]]
    cases, argvs = _golden(names, tmp_path / "summary.json")
    imported, *runs = _run_fresh(argvs)
    assert not imported["numpy.ma"]
    assert [r["code"] for r in runs] == [c["exit"] for c in cases]
    # a loaded module stays in sys.modules, so the last run speaks for all
    assert not runs[-1]["numpy.ma"]


def test_first_scipy_import_inside_a_command_matches_golden(tmp_path):
    """Every exceptional-point line, in one interpreter and inside
    cli.main's np.errstate(raise). Its Schur form was where a command
    first imported scipy; the cluster is now refined with numpy alone, so
    neither scipy nor numpy.ma loads, and each prints what was recorded."""
    names = [c["name"] for c in _load_cases() if "_ep" in c["name"]]
    cases, argvs = _golden(names, tmp_path / "summary.json")
    imported, *runs = _run_fresh(argvs)
    assert not imported["scipy"] and not imported["numpy.ma"]
    _assert_matches_golden(cases, runs)
    # a loaded module stays in sys.modules, so the last run speaks for all
    assert not runs[-1]["scipy"] and not runs[-1]["numpy.ma"]


def test_decomposing_commands_load_no_analysis_module(tmp_path):
    _, argvs = _golden(["classify_unbroken2", "canonical_unbroken2"], tmp_path / "summary.json")
    imported, *runs = _run_fresh(argvs)
    assert imported["ptqm"] == []
    assert [r["code"] for r in runs] == [0, 0]
    # a loaded module stays in sys.modules, so the last run speaks for both
    assert not {"ptqm.dynamics", "ptqm.dilation", "ptqm.superposition",
                "ptqm.bender"} & set(runs[-1]["ptqm"])


# the ptqm modules every command line loads besides the package: the
# CLI and what it imports itself
_BASE = {"ptqm.cli", "ptqm.config", "ptqm.errors", "ptqm.matio"}
_DECOMPOSE = {"ptqm.canonical", "ptqm.linalg", "ptqm.symmetry"}
_METRIC = _DECOMPOSE | {"ptqm.metric"}
_DYNAMICS = _METRIC | {"ptqm.dynamics"}
_DILATE = _DYNAMICS | {"ptqm.dilation"}
# golden line (or the missing-file line) -> the modules it loads on top of _BASE
_LOADS = {
    "classify_unbroken2": _DECOMPOSE,
    "canonical_unbroken2": _DECOMPOSE,
    "metric_unbroken2": _METRIC,
    "inner_unbroken2": _METRIC,
    "evolve_unbroken2": _DYNAMICS,
    "invariants_unbroken2": _DYNAMICS,
    "bender-sweep": _DECOMPOSE | {"ptqm.bender"},
    "stokes": {"ptqm.bender"},
    "dilate_unbroken2": _DILATE,
    "free-check_unbroken2": _DILATE | {"ptqm.superposition"},
    "missing-file": set(),
}


@pytest.mark.parametrize("name", list(_LOADS))
def test_each_command_loads_exactly_the_modules_it_runs(tmp_path, name):
    """One command line in a new interpreter; a command whose input fails
    to parse loads no library module."""
    if name == "missing-file":
        argv = ["classify", str(tmp_path / "missing.json"),
                str(INPUTS / "p_unbroken2.json"), str(INPUTS / "t_unbroken2.json")]
        code = 2
    else:
        (case,), (argv,) = _golden([name], tmp_path / "summary.json")
        code = case["exit"]
    _, run = _run_fresh([argv])
    assert run["code"] == code
    assert set(run["ptqm"]) == _BASE | _LOADS[name]


def test_every_exported_name_resolves():
    """Each name of ptqm.__all__, asked for first in a new interpreter, is
    an object of that name in a ptqm module, and dir(ptqm) lists it."""
    unresolved = json.loads(_python("""
import json, sys
import ptqm
values = {name: getattr(ptqm, name) for name in ptqm.__all__}
modules = [mod for m, mod in sys.modules.items() if m.startswith("ptqm.")]
print(json.dumps([name for name, value in values.items() if name not in dir(ptqm)
                  or not any(getattr(mod, name, None) is value for mod in modules)]))
"""))
    assert unresolved == []


def test_a_call_builds_only_its_subcommands_arguments(monkeypatch, capsys):
    """Every subcommand has its parser, but only the one a command line
    names holds arguments beyond -h."""
    from ptqm import cli

    built, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
    assert cli.main(["stokes", "--ex=1,0", "--ey=0,1"]) == 0
    assert capsys.readouterr().err == ""
    (parser,) = built
    (subparsers,) = parser._subparsers._group_actions
    assert set(subparsers.choices) == set(cli._commands())
    holding = {name for name, sub in subparsers.choices.items()
               if [action.dest for action in sub._actions] != ["help"]}
    assert holding == {"stokes"}
