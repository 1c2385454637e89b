"""scipy stays unloaded until a Schur form, ztrsen or expm runs.

Importing scipy.linalg dominates the start-up of a command-line call,
so ptqm.linalg imports it inside the functions that call it. The test
modules import scipy themselves, so only a fresh interpreter can see
whether a command loaded it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ptqm.matio import render_json
from test_cli_golden import GOLDEN, INPUTS, _argv, _load_cases, assert_same_text

SRC = Path(__file__).resolve().parents[1] / "src"

# runs each command line of the JSON list on stdin through cli.main and
# prints, as one JSON line, whether scipy was loaded after import ptqm,
# then each run's exit code, stdout, stderr and whether scipy was loaded
# after it
_CHILD = """
import contextlib, io, json, sys
import ptqm
runs = [{"scipy": "scipy" in sys.modules}]
from ptqm.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                 "scipy": "scipy" in sys.modules})
sys.stdout.write(json.dumps(runs))
"""


def _run_fresh(argvs: list) -> list:
    """[import ptqm, then one entry per command line], from a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _golden(names: list, summary: Path) -> tuple[list, list]:
    """The recorded cases named, and their command lines."""
    cases = {c["name"]: c for c in _load_cases()}
    return [cases[n] for n in names], [_argv(cases[n], summary) for n in names]


def test_commands_without_a_factorisation_leave_scipy_unloaded(tmp_path):
    names = ["stokes", "bender-sweep"] + [
        f"{command}_{case}{d}"
        for command in ("classify", "canonical", "metric", "inner", "invariants",
                        "dilate", "free-check")
        for case in ("unbroken", "complex") for d in (2, 4)]
    cases, argvs = _golden(names, tmp_path / "summary.json")
    h_not_pt = tmp_path / "h_not_pt.json"
    h_not_pt.write_text(render_json({"dim": 2, "rows": np.asarray(
        [[1.0, 2.0], [3.0, 4.0]], dtype=complex)}))
    pair = [str(INPUTS / "p_unbroken2.json"), str(INPUTS / "t_unbroken2.json")]
    argvs += [["classify", str(tmp_path / "missing.json"), *pair],
              ["canonical", str(h_not_pt), *pair]]

    imported, *runs = _run_fresh(argvs)
    assert not imported["scipy"]
    assert [r["code"] for r in runs] == [c["exit"] for c in cases] + [2, 3]
    assert [json.loads(r["err"])["error"] for r in runs[-2:]] == ["parse", "not_pt_symmetric"]
    # a loaded module stays in sys.modules, so the last run speaks for all
    assert not runs[-1]["scipy"]


def test_first_scipy_import_inside_a_command_matches_golden(tmp_path):
    """The exceptional point's Schur form and evolve's expm each import
    scipy first inside cli.main's np.errstate(raise), so each runs in its
    own interpreter; that import must not turn into a numerical failure."""
    for names in (["canonical_ep2"], ["evolve_unbroken2"]):
        cases, argvs = _golden(names, tmp_path / "summary.json")
        imported, run = _run_fresh(argvs)
        assert not imported["scipy"] and run["scipy"]
        assert (run["code"], run["err"]) == (cases[0]["exit"], cases[0]["stderr"])
        assert_same_text(run["out"], (GOLDEN / f"{names[0]}.out").read_text(encoding="utf-8"),
                         names[0])
