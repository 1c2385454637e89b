"""A command line loads only the modules its subcommand runs.

ptqm needs numpy alone, and no command line loads scipy or numpy.ma.
Importing ptqm loads none of its modules, and ptqm.cli calls the
library through the package's lazy exports, so a subcommand's modules
load when its handler first calls into them and a command whose input
fails to parse loads none. numpy itself loads only once a command has
read its input files, so help, usage errors, unreadable files and
stokes finish without it. The test modules import scipy and every
ptqm module themselves, so only a fresh interpreter can see what a
command loaded.

The process entry, cli.run, which both `python -m ptqm.cli` and the
installed `ptqm` command call, runs with automatic garbage collection
off and freezes what it built before the interpreter finalizes; a fresh
interpreter shows that no collection starts during a call, on every way
out, and that atexit handlers still run. cli.main, called in process,
leaves the collector as it finds it.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptqm.cli import main
from ptqm.matio import render_json
from test_cli_golden import GOLDEN, INPUTS, _argv, _load_cases, assert_same_text

SRC = Path(__file__).resolve().parents[1] / "src"

# runs each command line of the JSON list on stdin through cli.main and
# prints, as one JSON line, whether numpy, scipy and numpy.ma were loaded
# after import ptqm and which ptqm modules were, then each run's exit code
# (argparse's for --help), stdout, stderr and the same four after it
_CHILD = """
import contextlib, io, json, sys
def loaded():
    return {"numpy": "numpy" in sys.modules, "scipy": "scipy" in sys.modules,
            "numpy.ma": "numpy.ma" in sys.modules,
            "ptqm": sorted(m for m in sys.modules if m.startswith("ptqm."))}
import ptqm
runs = [loaded()]
from ptqm.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append({"code": code, "out": out.getvalue(), "err": err.getvalue(), **loaded()})
sys.stdout.write(json.dumps(runs))
"""


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


def _process(args: list, stdin: str = "") -> subprocess.CompletedProcess:
    """A new interpreter that imports ptqm from SRC, run on args."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], input=stdin.encode(),
                          capture_output=True, env=env, timeout=120)


def _python(code: str, stdin: str = "") -> str:
    """stdout of code run by a new interpreter that imports ptqm from SRC."""
    proc = _process(["-c", code], stdin)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


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


def test_commands_that_compute_on_no_matrix_leave_numpy_unloaded(tmp_path):
    """--help, a usage error, a non-finite flag value, a missing, a
    truncated and a too-deep input file, and stokes, in one interpreter:
    none loads numpy."""
    truncated, deep = tmp_path / "truncated.json", tmp_path / "deep.json"
    truncated.write_text('{"dim": 2, "rows": [[[1.0, 0.0], [0.5')
    deep.write_text("[" * 100000)
    pair = [str(INPUTS / "p_unbroken2.json"), str(INPUTS / "t_unbroken2.json")]
    argvs = [["--help"],
             ["classify", str(INPUTS / "h_unbroken2.json"), *pair, "--bogus"],
             ["bender-sweep", "--r", "nan", "--s", "1", "--theta-min", "0",
              "--theta-max", "1", "--steps", "3"],
             *(["classify", str(path), *pair]
               for path in (tmp_path / "missing.json", truncated, deep)),
             ["stokes", "--ex=1,0", "--ey=0,1"]]
    imported, *runs = _run_fresh(argvs)
    assert not imported["numpy"]
    assert [r["code"] for r in runs] == [0, 2, 2, 2, 2, 2, 0]
    assert [json.loads(r["err"])["error"] for r in runs[1:-1]] == [
        "validation", "validation", "parse", "parse", "parse"]
    assert runs[0]["out"].startswith("usage: ptqm")
    assert json.loads(runs[-1]["out"]) == {"S0": 2.0, "S1": 0.0, "S2": 0.0, "S3": 2.0}
    # a loaded module stays in sys.modules, so the last run speaks for all
    assert not runs[-1]["numpy"]


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
_DILATE = _DECOMPOSE | {"ptqm.dynamics", "ptqm.dilation"}
# golden line (or the missing-file line) -> the modules it loads on top of _BASE
_LOADS = {
    "classify_unbroken2": _DECOMPOSE,
    "canonical_unbroken2": _DECOMPOSE,
    "metric_unbroken2": _METRIC,
    "inner_unbroken2": _METRIC,
    "evolve_unbroken2": {"ptqm.linalg", "ptqm.dynamics"},
    "invariants_unbroken2": _METRIC | {"ptqm.dynamics"},
    "bender-sweep": {"ptqm.bender"},
    "stokes": {"ptqm.stokes"},
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


def _console_script() -> tuple[str, str]:
    """(module, function) of the `ptqm` command in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ptqm"]
    module, function = target.split(":")
    return module, function


def _failing_lines(tmp_path: Path) -> dict:
    """exit code -> a command line on golden inputs that ends with it."""
    pair = [str(INPUTS / "p_unbroken2.json"), str(INPUTS / "t_unbroken2.json")]
    h = str(INPUTS / "h_unbroken2.json")
    (precondition,) = _golden(["dilate_complex2"], tmp_path / "summary.json")[1]
    return {2: ["classify", str(tmp_path / "missing.json"), *pair],
            3: precondition,
            4: ["canonical", h, *pair, "--can-tol", "1e-30"]}


def test_the_installed_command_prints_what_python_m_prints(tmp_path):
    """The `ptqm` command of pyproject.toml, called as a console script
    calls it, against `python -m ptqm.cli`, on one line per exit code:
    the same exit code, stdout and stderr, byte for byte."""
    module, function = _console_script()
    script = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
    (success,) = _golden(["invariants_unbroken2"], tmp_path / "summary.json")[1]
    lines = {0: success, **_failing_lines(tmp_path)}
    for code, argv in lines.items():
        installed = _process(["-c", script, *argv])
        module_run = _process(["-m", "ptqm.cli", *argv])
        assert installed.returncode == module_run.returncode == code, argv
        assert installed.stdout == module_run.stdout, argv
        assert installed.stderr == module_run.stderr, argv


# cli.run on the command line after -c, as the installed command calls it,
# counting the collections that start after ptqm.cli is imported; an
# atexit handler writes that count and gc.get_freeze_count() to the path
# given first on the command line. With PLANT, cli.main raises instead.
_ENTRY_PROBE = """
import atexit, gc, json, sys
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
from ptqm import cli
probe_path, before = sys.argv.pop(1), len(starts)
@atexit.register
def probe():
    with open(probe_path, "w") as f:
        json.dump({"collections": len(starts) - before, "frozen": gc.get_freeze_count()}, f)
if PLANT:
    def planted(argv=None):
        raise RuntimeError("planted")
    cli.main = planted
sys.exit(cli.run())
"""


@pytest.mark.parametrize("way_out", ["success", "precondition", "help", "unexpected"])
def test_the_process_entry_collects_nothing_and_freezes_what_it_built(tmp_path, way_out):
    """A decomposing golden line, a golden line that fails, --help
    (argparse's SystemExit) and an exception main() does not map, each
    through cli.run in a new interpreter: no automatic collection starts
    during the call, the atexit handlers run, and they find its objects
    frozen."""
    (case,), (argv,) = _golden(["invariants_unbroken4"], tmp_path / "summary.json")
    lines = {"success": argv, "precondition": _failing_lines(tmp_path)[3],
             "help": ["--help"], "unexpected": argv}
    probe = tmp_path / "probe.json"
    code = _ENTRY_PROBE.replace("PLANT", str(way_out == "unexpected"))
    proc = _process(["-c", code, str(probe), *lines[way_out]])
    assert proc.returncode == {"precondition": 3, "unexpected": 1}.get(way_out, 0)
    if way_out == "success":
        assert_same_text(proc.stdout.decode(), (GOLDEN / f"{case['name']}.out").read_text(
            encoding="utf-8"), case["name"])
    if way_out == "unexpected":
        assert proc.stderr.decode().rstrip().endswith("RuntimeError: planted")
    seen = json.loads(probe.read_text())
    assert seen["collections"] == 0
    assert seen["frozen"] > 0


def test_main_leaves_the_collector_as_it_finds_it(tmp_path):
    """cli.main in process, as the tests, library callers and the
    benchmark's warm-up call it, on a success, each mapped error and
    --help: the collector stays enabled and nothing is frozen."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    (success,) = _golden(["classify_unbroken2"], tmp_path / "summary.json")[1]
    lines = [(0, success), *_failing_lines(tmp_path).items(), (2, ["classify", "--bogus"])]
    for code, argv in lines:
        assert main(argv) == code, argv
        assert gc.isenabled() and gc.get_freeze_count() == 0, argv
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.isenabled() and gc.get_freeze_count() == 0
