"""The command-line error contract under fuzzed inputs.

Hypothesis reruns the golden command lines with the Hamiltonian and
vector inputs (or the numeric arguments of bender-sweep and stokes)
scaled by 10^k, k in [-300, 300], and with valid or invalid values for
the settings each subcommand accepts. Whatever the input, a run exits
0, 2, 3 or 4, writes nothing to stderr on success and exactly one JSON
line on failure, and raises no warning.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ptqm import cli
from ptqm.matio import load_matrix_file, load_vector_file, render_json

GOLDEN = Path(__file__).with_name("golden")
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
ACCEPTED = {name: fields for name, (*_, fields) in cli._commands().items()}

_reals = st.one_of(st.floats(1e-14, 10.0), st.floats()).map(repr) | st.sampled_from(
    ["", "x", "1e999", "-0", "1,2"])
SETTING_VALUES = {
    "num_points": st.integers(-2, 40).map(str) | st.sampled_from(["", "1.5", "x"]),
    "signs": st.lists(st.sampled_from(["1", "-1", "0", "2", "x", ""]), max_size=5).map(",".join),
    "probe": st.lists(_reals, max_size=5).map(",".join),
}


def _scaled_inputs(argv: list, k: int, tmp: Path) -> list:
    """argv with {inputs} resolved; H and vector files, and the numbers
    of bender-sweep and stokes, scaled by 10^k."""
    scale = 10.0 ** k
    out = []
    for arg in argv:
        arg = arg.replace("{inputs}", str(GOLDEN / "inputs")).replace(
            "{summary}", str(tmp / "summary.json"))
        name, doc = Path(arg).name, None
        if name.startswith("h_"):
            m = load_matrix_file(arg) * scale
            doc = {"dim": m.shape[0], "rows": m}
        elif name.startswith(("v1_", "v2_")):
            v = load_vector_file(arg) * scale
            doc = {"dim": len(v), "entries": [[float(z.real), float(z.imag)] for z in v]}
        elif out and out[-1] in ("--r", "--s"):
            arg = repr(float(arg) * scale)
        elif arg.startswith(("--ex=", "--ey=")):
            flag, parts = arg.split("=")
            arg = flag + "=" + ",".join(repr(float(p) * scale) for p in parts.split(","))
        if doc is not None:
            arg = str(tmp / name)
            Path(arg).write_text(render_json(doc) + "\n", encoding="utf-8")
        out.append(arg)
    return out


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(CASES), st.integers(-300, 300), st.data())
def test_cli_keeps_its_error_contract(case, k, data):
    command = case["argv"][0]
    flags = []
    fields = ACCEPTED[command]
    chosen = st.lists(st.sampled_from(fields), max_size=2, unique=True) if fields else st.just([])
    for field in data.draw(chosen, label="settings"):
        value = data.draw(SETTING_VALUES.get(field, _reals), label=field)
        flags.append(f"--{field.replace('_', '-')}={value}")
    with tempfile.TemporaryDirectory() as tmp:
        argv = _scaled_inputs(case["argv"], k, Path(tmp)) + flags
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "detail"}
