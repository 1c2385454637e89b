"""Golden command-line output: all ten subcommands on fixed inputs.

tests/golden/inputs holds the input files: d = 2 and d = 4, each with
an unbroken spectrum, a complex-conjugate pair and a real Jordan block
(an exceptional point, decomposed with --cluster-tol 1e-6), drawn once
by ptqm.sampling. tests/golden/cases.json lists every command line
with its exit code and stderr; its stdout, and the --summary file of
invariants, sit next to it as <name>.out and <name>.summary.json.

The test reruns each command and compares with the recording. Exit
codes, JSON keys, CSV headers and every other non-numeric token must
be identical, and every number must agree within 1e-12 relative to
max(1, |recorded|).

To record again after a deliberate change of output, run
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from ptqm.cli import main

GOLDEN = Path(__file__).with_name("golden")
INPUTS = GOLDEN / "inputs"
NUM_TOL = 1e-12

# one capturing group, so re.split alternates text and numbers; digits
# inside identifiers such as R_1_2 stay text
_NUMBER = re.compile(r"((?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.]))")


def _load_cases() -> list:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _argv(case: dict, summary: Path) -> list:
    return [a.replace("{inputs}", str(INPUTS)).replace("{summary}", str(summary))
            for a in case["argv"]]


def assert_same_text(got: str, want: str, where: str) -> None:
    got_parts = _NUMBER.split(got)
    want_parts = _NUMBER.split(want)
    assert got_parts[0::2] == want_parts[0::2], f"{where}: non-numeric text differs"
    for g, w in zip(got_parts[1::2], want_parts[1::2]):
        gv, wv = float(g), float(w)
        assert abs(gv - wv) <= NUM_TOL * max(1.0, abs(wv)), f"{where}: {g} != {w}"


# recording runs this file as a script, before cases.json exists
@pytest.mark.parametrize("case", _load_cases() if __name__ != "__main__" else [],
                         ids=lambda c: c["name"])
def test_cli_output_matches_golden(case, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    code = main(_argv(case, summary))
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert_same_text(err, case["stderr"], "stderr")
    assert_same_text(out, (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8"),
                     "stdout")
    recorded = GOLDEN / f"{case['name']}.summary.json"
    assert summary.exists() == recorded.exists()
    if recorded.exists():
        assert_same_text(summary.read_text(encoding="utf-8"),
                         recorded.read_text(encoding="utf-8"), "summary")


# -- recording ---------------------------------------------------------------

KINDS = ("unbroken", "complex", "ep")
PAIR_KINDS = ("trivial", "swap", "householder_t")


def _write_inputs(rng) -> list:
    from ptqm.matio import matrix_to_rows, render_json
    from ptqm.sampling import random_density, random_instance

    def matrix(name, m):
        m = np.asarray(m, dtype=complex)
        (INPUTS / f"{name}.json").write_text(
            render_json({"dim": int(m.shape[0]), "rows": matrix_to_rows(m)}) + "\n",
            encoding="utf-8")

    def vector(name, v):
        entries = [[float(z.real), float(z.imag)] for z in v]
        (INPUTS / f"{name}.json").write_text(
            render_json({"dim": len(entries), "entries": entries}) + "\n", encoding="utf-8")

    INPUTS.mkdir(parents=True, exist_ok=True)
    tags = []
    for d in (2, 4):
        for i, kind in enumerate(KINDS):
            inst = random_instance(rng, d, kind, PAIR_KINDS[(i + d) % len(PAIR_KINDS)])
            tag = f"{kind}{d}"
            matrix(f"h_{tag}", inst["h"])
            matrix(f"p_{tag}", inst["pair"].parity)
            matrix(f"t_{tag}", inst["pair"].time_reversal)
            matrix(f"rho_{tag}", random_density(rng, d))
            for name in ("v1", "v2"):
                vector(f"{name}_{tag}", rng.normal(size=d) + 1j * rng.normal(size=d))
            tags.append((tag, kind))
    return tags


def _command_lines(tags) -> list:
    lines = []
    for tag, kind in tags:
        f = {n: f"{{inputs}}/{n}_{tag}.json" for n in ("h", "p", "t", "rho", "v1", "v2")}
        hpt = [f["h"], f["p"], f["t"]]
        extra = ["--cluster-tol", "1e-6"] if kind == "ep" else []
        grid = ["--num-points", "11"]
        for cmd, args in (
                ("classify", hpt),
                ("canonical", hpt),
                ("metric", hpt),
                ("inner", hpt + [f["v1"], f["v2"]]),
                ("evolve", [f["h"], f["rho"], "--t", "0.7"]),
                ("invariants", hpt + [f["rho"], *grid, "--summary", "{summary}"]),
                ("dilate", hpt + [f["rho"], *grid]),
                ("free-check", hpt + grid)):
            lines.append((f"{cmd}_{tag}", [cmd, *args, *extra]))
    lines.append(("bender-sweep", ["bender-sweep", "--r", "1", "--s", "0.8",
                                   "--theta-min", "0.5", "--theta-max", "1.2",
                                   "--steps", "11"]))
    lines.append(("stokes", ["stokes", "--ex=0.3,-1.2", "--ey=0.7,0.4"]))
    return lines


def record() -> None:
    """Draw the inputs and record every command's output."""
    import contextlib
    import io
    import tempfile

    tags = _write_inputs(np.random.default_rng(4242))
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        summary = Path(tmp) / "summary.json"
        for name, argv in _command_lines(tags):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(_argv({"argv": argv}, summary))
            (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
            if summary.exists():
                summary.replace(GOLDEN / f"{name}.summary.json")
            cases.append({"name": name, "argv": argv, "exit": code,
                          "stderr": err.getvalue()})
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
