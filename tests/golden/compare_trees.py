"""Byte-for-byte comparison of the command line of two source trees.

    python tests/golden/compare_trees.py SRC_A SRC_B

SRC_A and SRC_B are directories holding the ptqm package, such as the
src directories of two checkouts. Each command line below is run as
`python -m ptqm.cli` in a fresh interpreter under each tree: the 50
golden lines of cases.json, then a fixed list of failing and edge
lines (one per error kind, plus non-finite numbers in flags, probes
and config files, plus a matrix and a config file nested past the
recursion limit, plus classify, canonical and metric on two 2 x 2 H
whose entries lie near 1e-170 and near 1e200, which put every residual
gate at the edges of the float range, plus canonical for a golden H
with T = e^{i pi / 3} I, a pair with an imaginary part), then sweeps that between them
hold every kind of row, then classify, canonical and metric at d = 48
for an unbroken, a conjugate-pair and an exceptional-point H, and
free-check, dilate and invariants over short grids at d = 48, and
invariants for a conjugate pair at d = 4 out to a time where rho(t)
nears 1e200, then canonical and metric for an unbroken H at d = 200,
a size where the rounding of a product depends on the BLAS thread
count, then invariants for the d = 48 unbroken H on the default
201-point grid, whose CSV is written in several blocks, then classify,
canonical, metric, invariants, dilate and free-check at d = 8, the
benchmark's largest small size, for an unbroken, a conjugate-pair and
an exceptional-point H under a Householder T, on the default grid,
which runs there in two chunks, then invariants, dilate and free-check
at d = 3 and d = 5, sizes where OpenBLAS takes other small-matrix
kernels, for an unbroken and a conjugate-pair H under a Householder T,
on the default grid, then three lines that end at a margin or a named
t: free-check at 4 times the uniform bound of golden unbroken4 (ok
false), free-check with --c 1e155 (c^2 U^dag U overflows at t = 0), and
invariants for golden h_complex2 scaled by 1e12 over [0, 1e-7] in 5
points (the evolved density first overflows at t = 2.5e-8). Exit code,
stdout, stderr, the --summary file and the series.csv file that an
--output line writes are recorded.

The d = 48, d = 4, d = 200, d = 8, d = 3 and d = 5 inputs come from
seeded numpy generators in this script, written once into the scratch
directory, so both trees read the same bytes. The d = 48 density, the
d = 4 case, the d = 200 case, the d = 8 cases with their density and
the d = 3 and d = 5 cases with theirs have generators of their own, so
adding them left the bytes of the earlier inputs as they were. The
scaled h_complex2 is written from the golden file.

The golden test compares numbers within NUM_TOL of a recording, and
recordings drift in their last digits whenever the numerics change at
rounding level, so it cannot show that a refactoring left the output
alone. This script compares the two trees with each other instead.

It prints the name of every line whose record differs (with both exit
codes and stderr texts, and, for a differing stdout, summary or output
file, the largest numeric difference: its JSON path or CSV column and
the value under each tree) and one sha256 per tree over all records, with
the input and scratch directories written as {inputs} and {tmp} so
the digests do not depend on where the script runs. The exit status
is 1 when any line differs.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the lines run under the caller's environment; the inputs are drawn here
# on one BLAS thread whatever it sets, since the rounding of a d = 200
# product depends on the thread count
_CALLER_ENV = {k: v for k, v in os.environ.items() if k != "PTQM_CONFIG"}
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1"))

import numpy as np

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"

# files written into the scratch directory before any line runs
_FILES = {
    "bad.json": "{not json",
    "header.json": '{"dim": 2, "rows": [[[1, 0], [0, 0]]]}',
    "h_not_pt.json": '{"dim": 2, "rows": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]]}',
    "h_broken.json": '{"dim": 2, "rows": [[[0, 1], [0.5, 0]], [[0.5, 0], [0, -1]]]}',
    "p_swap.json": '{"dim": 2, "rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}',
    "p_bad.json": '{"dim": 2, "rows": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "t_id.json": '{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "h_huge.json": '{"dim": 2, "rows": [[[0, 0], [1e300, 0]], [[1e300, 0], [0, 0]]]}',
    # H = [[a, b], [b', conj(a)]] with b' = b (1 + 5e-13): PT-symmetric for
    # P = swap, T = I within every tolerance, with a residual that is not 0
    "h_tiny.json": ('{"dim": 2, "rows": [[[1e-170, 3e-171], [2e-170, 0]], '
                    '[[2.000000000001e-170, 0], [1e-170, -3e-171]]]}'),
    "h_vast.json": ('{"dim": 2, "rows": [[[1e200, 3e199], [2e200, 0]], '
                    '[[2.000000000001e200, 0], [1e200, -3e199]]]}'),
    "rho.json": '{"dim": 2, "rows": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
    "cfg_signs.json": '{"signs": "1,1"}',
    "cfg_key.json": '{"p_tol": 1e-8}',
    "cfg_bad.json": "{",
    "cfg_deep.json": "[" * 100000,
    "deep.json": '{"dim": 1, "rows": %s1%s}' % ("[" * 3000, "]" * 3000),
    "cfg_big.json": '{"t_end": 1' + "0" * 400 + "}",
    "cfg_long.json": '{"t_end": 1' + "0" * 5000 + "}",
    "cfg_probe.json": '{"probe": [[0.6, 0.2], [-0.3, 0.7]]}',
    "cfg_probe_bool.json": '{"probe": [[true, "1"], [0, 0]]}',
    "cfg_probe_nan.json": '{"probe": [[NaN, 0], [0, 1]]}',
    "cfg_t_nan.json": '{"t_start": NaN}',
    "cfg_tol_inf.json": '{"tol": Infinity}',
    # T = e^{i pi / 3} I, a time reversal with an imaginary part
    "t_phase4.json": json.dumps({"dim": 4, "rows": [[[0.5, 0.8660254037844386] if i == j
                                                     else [0.0, 0.0] for j in range(4)]
                                                    for i in range(4)]}),
}

_U2 = [f"{{inputs}}/{n}_unbroken2.json" for n in ("h", "p", "t")]
_RS = ["bender-sweep", "--r", "1", "--s", "0.8"]
_SWEEP = _RS + ["--theta-min", "0.5", "--theta-max", "1.2", "--steps", "5"]
_BROKEN = ["{tmp}/h_broken.json", "{tmp}/p_swap.json", "{tmp}/t_id.json"]
_FULL_RANGE = ["--theta-min", "-3.1", "--theta-max", "3.1", "--steps", "201"]

# (name, argv) of the failing and edge lines
_EXTRA = [
    ("parse-bad-json", ["classify", "{tmp}/bad.json", *_U2[1:]]),
    ("parse-missing-file", ["classify", "{tmp}/missing.json", *_U2[1:]]),
    ("parse-config-bad-json", ["classify", *_U2, "--config", "{tmp}/cfg_bad.json"]),
    ("parse-config-missing", ["classify", *_U2, "--config", "{tmp}/missing.json"]),
    ("parse-deep-json", ["classify", "{tmp}/deep.json", *_U2[1:]]),
    ("parse-config-deep-json", ["classify", *_U2, "--config", "{tmp}/cfg_deep.json"]),
    ("validation-matrix-header", ["classify", "{tmp}/header.json", *_U2[1:]]),
    ("validation-pt-algebra", ["classify", "{tmp}/h_not_pt.json", "{tmp}/p_bad.json",
                               "{tmp}/t_id.json"]),
    ("validation-config-signs", ["metric", *_U2, "--config", "{tmp}/cfg_signs.json"]),
    ("validation-config-key", ["classify", *_U2, "--config", "{tmp}/cfg_key.json"]),
    ("validation-config-oversized", ["classify", *_U2, "--config", "{tmp}/cfg_big.json"]),
    ("parse-config-long-integer", ["classify", *_U2, "--config", "{tmp}/cfg_long.json"]),
    ("validation-grid-cap", ["invariants", *_U2, "{inputs}/rho_unbroken2.json",
                             "--num-points", "1000001"]),
    ("validation-grid-order", ["dilate", *_U2, "{inputs}/rho_unbroken2.json",
                               "--t-start", "2", "--t-end", "1"]),
    ("validation-signs-length", ["metric", *_U2, "--signs", "1"]),
    ("validation-missing-positional", ["classify", _U2[0]]),
    ("validation-unknown-flag", ["classify", *_U2, "--p-tol", "1e-8"]),
    ("validation-no-command", []),
    ("validation-float-flag", ["classify", *_U2, "--tol", "x"]),
    ("validation-unwritable-output", ["classify", *_U2, "-o", "{tmp}/no/such/dir.json"]),
    ("validation-sweep-steps", _SWEEP[:-1] + ["1"]),
    ("validation-sweep-steps-cap", _SWEEP[:-1] + ["1000001"]),
    ("validation-sweep-theta-order", _RS + ["--theta-min", "1.2", "--theta-max", "0.5",
                                            "--steps", "5"]),
    ("validation-sweep-theta-range", _RS + ["--theta-min", "-3.2", "--theta-max", "0",
                                            "--steps", "5"]),
    ("validation-stokes-ex-shape", ["stokes", "--ex=1,2,3", "--ey=0,1"]),
    ("validation-stokes-ex-text", ["stokes", "--ex=1,x", "--ey=0,1"]),
    ("validation-probe-shape", _SWEEP + ["--probe", "1,0,0"]),
    ("validation-probe-text", _SWEEP + ["--probe", "1,0,0,x"]),
    ("not-pt-symmetric", ["canonical", "{tmp}/h_not_pt.json", "{tmp}/p_swap.json",
                          "{tmp}/t_id.json"]),
    ("broken-hamiltonian", ["dilate", *_BROKEN, "{tmp}/rho.json"]),
    ("numerical-stokes-overflow", ["stokes", "--ex=1e200,0", "--ey=0,1"]),
    ("numerical-met-tol", ["metric", *_U2, "--met-tol", "1e-30"]),
    ("numerical-can-tol", ["canonical", *_U2, "--can-tol", "1e-30"]),
    ("numerical-evolve-overflow", ["evolve", "{tmp}/h_huge.json", "{tmp}/rho.json",
                                   "--t", "1e10"]),
    *((f"{command}-{scale}", [command, f"{{tmp}}/h_{scale}.json", "{tmp}/p_swap.json",
                               "{tmp}/t_id.json"])
      for scale in ("tiny", "vast") for command in ("classify", "canonical", "metric")),
    ("config-probe", _SWEEP + ["--config", "{tmp}/cfg_probe.json"]),
    ("config-probe-bool", _SWEEP + ["--config", "{tmp}/cfg_probe_bool.json"]),
    # non-finite numbers in flags, probes and config files
    ("nonfinite-probe-inf", _SWEEP + ["--probe", "inf,0,0,1"]),
    ("nonfinite-probe-nan", _SWEEP + ["--probe", "nan,0,0,1"]),
    ("nonfinite-theta-max", _RS + ["--theta-min", "0.5", "--theta-max", "inf",
                                   "--steps", "5"]),
    ("nonfinite-free-check-c-inf", ["free-check", *_U2, "--c", "inf"]),
    ("nonfinite-free-check-c-nan", ["free-check", *_U2, "--c", "nan"]),
    ("nonfinite-setting-flag", ["classify", *_U2, "--tol", "nan"]),
    ("nonfinite-stokes-ex", ["stokes", "--ex=inf,0", "--ey=0,1"]),
    ("nonfinite-config-probe-nan", _SWEEP + ["--config", "{tmp}/cfg_probe_nan.json"]),
    ("nonfinite-config-t-start", ["dilate", *_U2, "{inputs}/rho_unbroken2.json",
                                  "--config", "{tmp}/cfg_t_nan.json"]),
    ("nonfinite-config-tol", ["classify", *_U2, "--config", "{tmp}/cfg_tol_inf.json"]),
    # unbroken and broken rows for s of either sign, then a critical row
    ("sweep-full-range", _RS + _FULL_RANGE),
    ("sweep-full-range-negative-s", ["bender-sweep", "--r", "1", "--s", "-0.8", *_FULL_RANGE]),
    ("sweep-full-range-probe", _RS + _FULL_RANGE + ["--probe", "0.6,0.2,-0.3,0.7"]),
    ("sweep-critical-row", ["bender-sweep", "--r", "1", "--s", "1", "--theta-min",
                            "1.4707963267948966", "--theta-max", "1.6707963267948966",
                            "--steps", "3"]),
    # a ratio r sin(theta) / s past the float range: broken rows, not an overflow
    ("sweep-overflowing-ratio", ["bender-sweep", "--r", "1e10", "--s", "1e-300",
                                 "--theta-min", "-1", "--theta-max", "1", "--steps", "3"]),
    ("dilate-slack-1", ["dilate", *_U2, "{inputs}/rho_unbroken2.json", "--slack", "1"]),
    # help texts, which list the arguments of the subcommand asked for
    ("help", ["--help"]),
    ("help-invariants", ["invariants", "--help"]),
    ("help-stokes", ["stokes", "--help"]),
    # one writer takes every --output: a streamed CSV, a JSON report, a sweep CSV
    ("invariants-output", ["invariants", *_U2, "{inputs}/rho_unbroken2.json",
                           "--output", "{tmp}/series.csv"]),
    ("canonical-unbroken4-output", ["canonical", *(f"{{inputs}}/{n}_unbroken4.json"
                                                   for n in ("h", "p", "t")),
                                    "--output", "{tmp}/series.csv"]),
    ("bender-sweep-output", _SWEEP + ["--output", "{tmp}/series.csv"]),
    # a valid pair with a complex T, which the pair gate decides in complex arithmetic
    ("canonical-unbroken4-phase-t", ["canonical", "{inputs}/h_unbroken4.json",
                                     "{inputs}/p_unbroken4.json", "{tmp}/t_phase4.json"]),
]

# (name, argv) of the lines that end at a contraction margin or a named t
_MARGINS = [
    # 4 times c = 0.15895312349742952, the uniform bound of golden unbroken4
    ("free-check-unbroken4-expansive", ["free-check", *(f"{{inputs}}/{n}_unbroken4.json"
                                                        for n in ("h", "p", "t")),
                                        "--c", "0.6358124939897181"]),
    ("numerical-free-check-overflow", ["free-check", *_U2, "--c", "1e155"]),
    ("numerical-invariants-tiny-t", ["invariants", "{tmp}/h_complex2_e12.json",
                                     *(f"{{inputs}}/{n}_complex2.json" for n in ("p", "t", "rho")),
                                     "--t-end", "1e-7", "--num-points", "5"]),
]

# the d = 48 cases: (name, spectrum, pair shape), every pair shape once
_LARGE_D = 48
_LARGE = (("unbroken48", "unbroken", "trivial"), ("complex48", "complex", "swap"),
          ("ep48", "ep", "householder"))
# the d = 8 cases, one per spectrum, all under a Householder T
_SMALL = tuple((f"{kind}8", kind, "householder") for kind in ("unbroken", "complex", "ep"))
# the d = 3 and d = 5 cases: (name, d, spectrum), all under a Householder T
_ODD = tuple((f"{kind}{d}", d, kind) for d in (3, 5) for kind in ("unbroken", "complex"))


def _matrix_text(m) -> str:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]
    return json.dumps({"dim": len(rows), "rows": rows})


def _case_files(rng, name: str, d: int, kind: str, shape: str) -> dict:
    """File name -> text of the H, P and T of one case, drawn from rng.

    With G = P T real symmetric orthogonal, G = W diag(sigma) W^T, the
    vectors fixed by v -> G conj(v) are M y for real y, M = W diag(phi)
    with phi = 1 where sigma = 1 and i where sigma = -1. H = Psi J Psi^-1
    with Psi = M X Q, X real and well conditioned, Q the identity on real
    columns and [[1, 1], [i, -i]] / sqrt(2) on each conjugate pair, and J
    a Jordan matrix whose pairs are (lam, conj(lam)), is PT-symmetric.
    """
    eye = np.eye(d)
    p, t = eye, eye
    if shape == "swap":
        p = np.fliplr(eye)
    elif shape == "householder":
        u = rng.normal(size=d)
        t = eye - 2.0 * np.outer(u, u) / (u @ u)
    sigma, w = np.linalg.eigh(p @ t)
    frame = w * np.where(sigma > 0, 1.0, 1.0j)
    values = rng.permutation(0.6 * (np.arange(d) - d / 2)) + rng.uniform(-0.1, 0.1, d)
    jordan = np.diag(values.astype(complex))
    basis = np.eye(d, dtype=complex)
    if kind == "complex":  # columns k, k + 1 hold a pair, for even k < d / 4, and k = 0
        for k in range(0, max(d // 4, 1), 2):
            lam = complex(values[k], rng.uniform(0.3, 0.5))
            jordan[k, k], jordan[k + 1, k + 1] = lam, np.conj(lam)
            basis[k:k + 2, k:k + 2] = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2.0)
    elif kind == "ep":  # one Jordan block of order 2
        jordan[1, 1], jordan[0, 1] = values[0], 1.0
    x = np.linalg.qr(rng.normal(size=(d, d)))[0] * rng.uniform(1.0, 3.0, d)
    psi = frame @ x @ basis
    h = psi @ jordan @ np.linalg.inv(psi)
    return {f"{prefix}_{name}.json": _matrix_text(m) for prefix, m in (("h", h), ("p", p), ("t", t))}


def _large_files(seed: int = 48) -> dict:
    """File name -> text of the H, P and T of every d = 48 case, of one
    d = 48 density matrix, of the d = 4 conjugate-pair case, of the
    d = 200 unbroken case, of the d = 8, d = 3 and d = 5 cases with one
    density matrix per size, and of golden h_complex2 times 1e12."""
    rng = np.random.default_rng(seed)
    files = {}
    for name, kind, shape in _LARGE:
        files.update(_case_files(rng, name, _LARGE_D, kind, shape))
    d = _LARGE_D
    g = np.random.default_rng(seed + 1).normal(size=(d, d, 2)) @ np.array([1.0, 1.0j])
    rho = g @ g.conj().T
    files["rho_48.json"] = _matrix_text(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
    files.update(_case_files(np.random.default_rng(seed + 2), "complex4", 4, "complex", "swap"))
    files.update(_case_files(np.random.default_rng(seed + 3), "unbroken200", 200, "unbroken",
                             "householder"))
    small = np.random.default_rng(seed + 4)
    for name, kind, shape in _SMALL:
        files.update(_case_files(small, name, 8, kind, shape))
    g = small.normal(size=(8, 8, 2)) @ np.array([1.0, 1.0j])
    rho = g @ g.conj().T
    files["rho_8.json"] = _matrix_text(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
    odd = np.random.default_rng(seed + 5)
    for name, d, kind in _ODD:
        files.update(_case_files(odd, name, d, kind, "householder"))
    for d in (3, 5):
        g = odd.normal(size=(d, d, 2)) @ np.array([1.0, 1.0j])
        rho = g @ g.conj().T
        files[f"rho_{d}.json"] = _matrix_text(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
    rows = json.loads((INPUTS / "h_complex2.json").read_text(encoding="utf-8"))["rows"]
    files["h_complex2_e12.json"] = _matrix_text(1e12 * (np.array(rows) @ np.array([1.0, 1.0j])))
    return files


def _large_lines() -> list:
    lines = []
    hpt = {}
    for name, kind, _ in _LARGE:
        hpt[name] = [f"{{tmp}}/{prefix}_{name}.json" for prefix in ("h", "p", "t")]
        args = hpt[name]
        if kind == "ep":  # a Jordan block splits its eigenvalues at the sqrt(eps) scale
            args = args + ["--cluster-tol", "1e-6"]
        lines += [(f"{command}-{name}", [command, *args])
                  for command in ("classify", "canonical", "metric")]
    # the grid analyses: the Jordan exponential over 48 chains, chunk by chunk,
    # and free_basis over 48 columns
    rho = "{tmp}/rho_48.json"
    return lines + [
        ("free-check-unbroken48", ["free-check", *hpt["unbroken48"], "--num-points", "21"]),
        ("dilate-unbroken48", ["dilate", *hpt["unbroken48"], rho, "--num-points", "21"]),
        ("invariants-complex48", ["invariants", *hpt["complex48"], rho, "--num-points", "5"]),
        # Im lam = 0.313, so e^{2 Im lam t} reaches 1e200 at t = 735: rho(t)
        # passes 1e155, where its Frobenius norm overflows
        ("invariants-complex4-vast", ["invariants", *(f"{{tmp}}/{prefix}_complex4.json"
                                                      for prefix in ("h", "p", "t")),
                                      "{inputs}/rho_complex4.json", "--t-end", "735",
                                      "--num-points", "5", "--summary", "{summary}"]),
    ] + [(f"{command}-unbroken200", [command, *(f"{{tmp}}/{prefix}_unbroken200.json"
                                                for prefix in ("h", "p", "t"))])
         for command in ("canonical", "metric")] + [
        ("invariants-unbroken48-default-grid", ["invariants", *hpt["unbroken48"], rho]),
    ] + _small_lines()


def _small_lines() -> list:
    lines = []
    for name, kind, _ in _SMALL:
        args = [f"{{tmp}}/{prefix}_{name}.json" for prefix in ("h", "p", "t")]
        tol = ["--cluster-tol", "1e-6"] if kind == "ep" else []
        lines += [(f"{command}-{name}", [command, *args, *tol])
                  for command in ("classify", "canonical", "metric", "free-check")]
        lines += [(f"{command}-{name}", [command, *args, "{tmp}/rho_8.json", *tol])
                  for command in ("invariants", "dilate")]
    for name, d, _ in _ODD:
        args = [f"{{tmp}}/{prefix}_{name}.json" for prefix in ("h", "p", "t")]
        lines += [(f"invariants-{name}", ["invariants", *args, f"{{tmp}}/rho_{d}.json"]),
                  (f"dilate-{name}", ["dilate", *args, f"{{tmp}}/rho_{d}.json"]),
                  (f"free-check-{name}", ["free-check", *args])]
    return lines


def _lines() -> list:
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    return [(c["name"], c["argv"]) for c in cases] + _EXTRA + _large_lines() + _MARGINS


def _run(src: Path, argv: list, tmp: Path) -> dict:
    """Exit code, stdout, stderr, --summary text and series.csv text of
    one line under src, with the input and scratch directories written
    back as placeholders."""
    summary, output = tmp / "summary.json", tmp / "series.csv"
    summary.unlink(missing_ok=True)
    output.unlink(missing_ok=True)
    places = {"{inputs}": str(INPUTS), "{tmp}": str(tmp), "{summary}": str(summary)}
    for key, value in places.items():
        argv = [a.replace(key, value) for a in argv]
    env = dict(_CALLER_ENV, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ptqm.cli", *argv], cwd=tmp, env=env,
                          capture_output=True, text=True, timeout=300)
    record = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
              "summary": summary.read_text(encoding="utf-8") if summary.exists() else None,
              "output": output.read_text(encoding="utf-8") if output.exists() else None}
    text = json.dumps(record)
    for key in ("{summary}", "{tmp}", "{inputs}"):
        text = text.replace(json.dumps(places[key])[1:-1], key)
    return json.loads(text)


def _leaves(value, path: str = ""):
    """(JSON path, number) for every numeric leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _numbers(text) -> dict:
    """Numeric entries of a JSON or CSV text, keyed by JSON path or by CSV
    column and row; empty when the text is neither."""
    if not text:
        return {}
    try:
        return dict(_leaves(json.loads(text)))
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    out = {}
    for i, row in enumerate(rows[1:], start=1):
        for column, cell in zip(rows[0], row):
            try:
                out[f"{column} (row {i})"] = float(cell)
            except ValueError:
                pass
    return out


def _largest_difference(a, b):
    """(key, value in a, value in b) of the numeric entry present in both
    texts whose values differ the most, or None when none differs."""
    na, nb = _numbers(a), _numbers(b)
    diffs = [(abs(na[k] - nb[k]), k) for k in na.keys() & nb.keys() if na[k] != nb[k]]
    if not diffs:
        return None
    _, key = max(diffs)
    return key, na[key], nb[key]


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "ptqm" / "cli.py").is_file():
            sys.stderr.write(f"{tree} holds no ptqm package\n")
            return 2
    digests = [hashlib.sha256() for _ in trees]
    differs = 0
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as name:
        tmp = Path(name)
        for fname, text in {**_FILES, **_large_files()}.items():
            (tmp / fname).write_text(text, encoding="utf-8")
        for line, args in _lines():
            records = [_run(tree, args, tmp) for tree in trees]
            for digest, record in zip(digests, records):
                digest.update(json.dumps([line, record], sort_keys=True).encode())
            a, b = records
            if a != b:
                differs += 1
                fields = [k for k in a if a[k] != b[k]]
                print(f"{line}: {', '.join(fields)} differ")
                if "exit" in fields or "stderr" in fields:
                    print(f"  A exit {a['exit']}: {a['stderr'].rstrip()}")
                    print(f"  B exit {b['exit']}: {b['stderr'].rstrip()}")
                for field in ("stdout", "summary", "output"):
                    largest = _largest_difference(a[field], b[field]) if field in fields else None
                    if largest is not None:
                        key, va, vb = largest
                        print(f"  {field} largest difference at {key}: A {va!r}, B {vb!r}")
    print(f"{len(_lines())} lines, {differs} differ")
    for tree, digest in zip(trees, digests):
        print(f"sha256 {digest.hexdigest()}  {tree}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
