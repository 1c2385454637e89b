"""End-to-end command line behavior, run in process."""

import dataclasses
import errno
import importlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ptqm
from ptqm import cli, dynamics, linalg, matio
from ptqm.bender import BenderParams, bender_hamiltonian
from ptqm.cli import main
from ptqm.config import RunConfig
from ptqm.errors import ValidationError
from ptqm.matio import load_matrix_file, render_json
from ptqm.sampling import random_instance

GOLDEN = Path(__file__).with_name("golden")
DECOMPOSE = ("val_tol", "tol", "cluster_tol", "rank_tol", "can_tol")
GRID = ("t_start", "t_end", "num_points")


def write_matrix(path, m):
    m = np.asarray(m, dtype=complex)
    path.write_text(render_json({"dim": m.shape[0], "rows": m}))
    return str(path)


def write_vector(path, v):
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]
    path.write_text(render_json({"dim": len(entries), "entries": entries}))
    return str(path)


@pytest.fixture
def files(tmp_path):
    h_unbroken, _ = bender_hamiltonian(BenderParams(1.0, 1.0, np.pi / 6))
    h_broken = np.array([[1.0j, 0.5], [0.5, -1.0j]])
    paths = {
        "h_unbroken": write_matrix(tmp_path / "h_unbroken.json", h_unbroken),
        "h_broken": write_matrix(tmp_path / "h_broken.json", h_broken),
        "h_hermitian": write_matrix(tmp_path / "h_hermitian.json",
                                    np.array([[0.0, 1.0], [1.0, 0.0]])),
        "h_neardef": write_matrix(tmp_path / "h_neardef.json",
                                  np.array([[0.0, 1.0], [1e-14, 0.0]])),
        "p_swap": write_matrix(tmp_path / "p_swap.json",
                               np.array([[0.0, 1.0], [1.0, 0.0]])),
        "p_id": write_matrix(tmp_path / "p_id.json", np.eye(2)),
        "t_id": write_matrix(tmp_path / "t_id.json", np.eye(2)),
        "rho": write_matrix(tmp_path / "rho.json",
                            np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])),
        "e1": write_vector(tmp_path / "e1.json", [1.0, 0.0]),
        "e2": write_vector(tmp_path / "e2.json", [0.0, 1.0]),
    }
    return paths, tmp_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_unbroken(files, capsys):
    paths, _ = files
    code, out, err = run(capsys, ["classify", paths["h_unbroken"],
                                  paths["p_swap"], paths["t_id"]])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["pt_symmetric"] is True
    assert doc["class"] == "Unbroken"
    assert [b["kind"] for b in doc["blocks"]] == ["RealSimple", "RealSimple"]
    assert len(doc["eigenvalues"]) == 2
    assert doc["residual"] <= 1e-12


def test_classify_broken_pair_block(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["classify", paths["h_broken"],
                                paths["p_swap"], paths["t_id"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "Broken"
    assert [b["kind"] for b in doc["blocks"]] == ["ComplexConjugatePair"]
    # pair block expands to both conjugates in the eigenvalue list
    evs = doc["eigenvalues"]
    assert len(evs) == 2
    assert abs(evs[0][1] + evs[1][1]) <= 1e-12


def test_classify_rejects_non_pt(files, capsys, tmp_path):
    paths, _ = files
    h_bad = write_matrix(tmp_path / "h_bad.json", np.array([[1.0, 2.0], [3.0, 4.0]]))
    code, out, err = run(capsys, ["classify", h_bad, paths["p_swap"], paths["t_id"]])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "not_pt_symmetric"


def test_malformed_file_is_parse_error(files, capsys, tmp_path):
    paths, _ = files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["classify", str(bad), paths["p_swap"], paths["t_id"]])
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def test_missing_required_flag_is_validation(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["evolve", paths["h_unbroken"], paths["rho"]])
    assert code == 2
    assert json.loads(err)["error"] == "validation"


def test_canonical_output(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["canonical", paths["h_unbroken"],
                                paths["p_swap"], paths["t_id"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["Psi"]["dim"] == 2 and len(doc["Psi"]["rows"]) == 2
    assert max(doc["residuals"].values()) <= 1e-10
    assert doc["condition_number"] >= 1.0
    assert doc["warning"] is None


def test_metric_positivity_tracks_class(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["metric", paths["h_unbroken"],
                                paths["p_swap"], paths["t_id"]])
    doc = json.loads(out)
    assert code == 0 and doc["positive_definite"] is True
    assert doc["signs"] == [1, 1]
    assert doc["residual"] <= 1e-10

    code, out, _ = run(capsys, ["metric", paths["h_broken"],
                                paths["p_swap"], paths["t_id"]])
    doc = json.loads(out)
    assert code == 0 and doc["positive_definite"] is False
    assert doc["signs"] == []
    assert doc["class"] == "Broken"


@pytest.mark.parametrize("text", ["1,,1", "1,1,", ",1"])
def test_metric_signs_with_empty_part_is_rejected(files, capsys, text):
    paths, _ = files
    code, out, err = run(capsys, ["metric", paths["h_unbroken"], paths["p_swap"],
                                  paths["t_id"], "--signs", text])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "detail": f"cannot parse signs {text!r}"}


@pytest.mark.parametrize("extra, config, detail", [
    (["--tol=-1"], None, "--tol must be > 0, got -1.0"),
    ([], {"tol": -1}, "config: tol must be > 0, got -1.0"),
    (["--t-start", "2", "--t-end", "1"], None, "--t-end must be >= --t-start"),
    (["--t-end", "1"], {"t_start": 2}, "--t-end must be >= t_start"),
    ([], {"t_start": 2, "t_end": 1}, "config: t_end must be >= t_start"),
    (["--slack", "2"], None, "--slack must be in (0, 1), got 2.0"),
    (["--num-points", "0"], None, "--num-points must be a positive integer"),
    (["--t-start", "1", "--t-end", "1", "--num-points", "3"], None,
     "--t-end must exceed --t-start"),
    ([], {"t_start": 1, "t_end": 1, "num_points": 3}, "config: t_end must exceed t_start"),
])
def test_settings_error_names_the_flag_it_came_from(files, capsys, extra, config, detail):
    paths, _ = files
    _assert_settings_error(files, capsys, ["dilate", paths["h_unbroken"], paths["p_swap"],
                                           paths["t_id"], paths["rho"], *extra], config, detail)


@pytest.mark.parametrize("extra, config, detail", [
    (["--signs", "2,1"], None, "--signs entries must be +1 or -1"),
    ([], {"signs": [2, 1]}, "config: signs entries must be +1 or -1"),
])
def test_signs_error_names_the_flag_it_came_from(files, capsys, extra, config, detail):
    # dilate takes no --signs; metric does
    paths, _ = files
    _assert_settings_error(files, capsys, ["metric", paths["h_unbroken"], paths["p_swap"],
                                           paths["t_id"], *extra], config, detail)


def _assert_settings_error(files, capsys, argv, config, detail):
    """argv, plus a --config file holding config unless it is None, exits 2
    with detail as the one validation error."""
    _, tmp_path = files
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "detail": detail}


def test_metric_signs_flag(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["metric", paths["h_unbroken"],
                                paths["p_swap"], paths["t_id"],
                                "--signs", "+1,-1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["signs"] == [1, -1]
    assert doc["positive_definite"] is False
    assert doc["residual"] <= 1e-10


def test_inner_matches_metric_entries(files, capsys):
    paths, _ = files
    _, out, _ = run(capsys, ["metric", paths["h_unbroken"],
                             paths["p_swap"], paths["t_id"]])
    eta_rows = json.loads(out)["eta"]["rows"]
    code, out, _ = run(capsys, ["inner", paths["h_unbroken"],
                                paths["p_swap"], paths["t_id"],
                                paths["e1"], paths["e2"]])
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["value"][0] - eta_rows[0][1][0]) <= 1e-14
    assert abs(doc["value"][1] - eta_rows[0][1][1]) <= 1e-14


def test_evolve_normalize(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["evolve", paths["h_broken"], paths["rho"],
                                "--t", "2.0", "--normalize"])
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["trace"][0] - 1.0) <= 1e-12
    assert abs(doc["trace"][1]) <= 1e-12
    # without normalization the broken evolution does not preserve trace
    code, out, _ = run(capsys, ["evolve", paths["h_broken"], paths["rho"],
                                "--t", "2.0"])
    doc = json.loads(out)
    assert abs(doc["trace"][0] - 1.0) > 0.1


def test_invariants_series_and_summary(files, capsys, tmp_path):
    paths, _ = files
    summary_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, [
        "invariants", paths["h_unbroken"], paths["p_swap"], paths["t_id"],
        paths["rho"], "--num-points", "11", "--t-end", "5.0",
        "--summary", str(summary_path)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split(",")[0] == "t"
    assert "re_R_1_1" in lines[0] and "im_eta_trace" in lines[0]
    assert len(lines) == 12
    summary = json.loads(summary_path.read_text())
    assert summary["class"] == "Unbroken"
    assert summary["overflow_risk"] is False
    assert summary["t_cap"] is None
    assert max(summary["drift"].values()) <= 1e-8


def test_invariants_grid_beyond_t_cap_is_precondition(capsys, tmp_path):
    """A broken H on a grid with no point within t_cap has no drift to
    report: one error line, exit 3, and no --summary file."""
    inputs = GOLDEN / "inputs"
    summary = tmp_path / "summary.json"
    code, out, err = run(capsys, ["invariants", *(str(inputs / f"{n}_complex2.json")
                                                  for n in ("h", "p", "t", "rho")),
                                  "--t-start=-100", "--t-end=-50", "--num-points", "5",
                                  "--summary", str(summary)])
    assert (code, out) == (3, "")
    assert err == render_json({"error": "precondition",
                               "detail": "no grid point lies within t_cap = 10.949063387857834 "
                                         "of t = 0, so no drift can be measured"}) + "\n"
    assert not summary.exists()


def test_invariants_single_point_grid(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, [
        "invariants", paths["h_unbroken"], paths["p_swap"], paths["t_id"],
        paths["rho"], "--num-points", "1", "--t-end", "0.0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0.0000000000000000e+00,")


def test_bender_sweep_critical_row(files, capsys):
    _, out, _ = run(capsys, ["bender-sweep", "--r", "1.0", "--s", "1.0",
                             "--theta-min", str(np.pi / 2 - 0.1),
                             "--theta-max", str(np.pi / 2 + 0.1),
                             "--steps", "3"])
    lines = out.strip().split("\n")
    assert lines[0] == "theta,class,alpha,S0,S0_times_cos_alpha,eigvec_overlap,error"
    mid = lines[2].split(",")
    assert mid[1] == "RealJordan"
    assert mid[6] == "critical_point"
    assert mid[3] == ""  # no S0 at the critical point
    first = lines[1].split(",")
    assert first[1] == "Unbroken" and first[6] == ""


def test_bender_sweep_rejects_bad_grid(files, capsys):
    code, _, err = run(capsys, ["bender-sweep", "--r", "1.0", "--s", "1.0",
                                "--theta-min", "0.0", "--theta-max", "1.0",
                                "--steps", "1"])
    assert code == 2
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("steps", [linalg.MAX_GRID_POINTS + 1, 10 ** 9, 10 ** 400])
def test_bender_sweep_rejects_more_steps_than_the_grid_cap(capsys, monkeypatch, steps):
    """The cap is checked before the grid is built: no sweep runs."""
    monkeypatch.setattr(ptqm, "critical_sweep", lambda *args: pytest.fail("sweep ran"))
    monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("grid built"))
    code, out, err = run(capsys, ["bender-sweep", "--r", "1", "--s", "0.8", "--theta-min", "0",
                                  "--theta-max", "1", "--steps", str(steps)])
    assert (code, out) == (2, "")
    assert err == ('{"error":"validation","detail":"steps must be at most %d"}\n'
                   % linalg.MAX_GRID_POINTS)


def test_bender_sweep_accepts_the_grid_cap(capsys, monkeypatch):
    lengths = []

    def sweep(r, s, grid, *settings):
        lengths.append(len(grid))
        return []

    monkeypatch.setattr(ptqm, "critical_sweep", sweep)
    code, _, _ = run(capsys, ["bender-sweep", "--r", "1", "--s", "0.8", "--theta-min", "0",
                              "--theta-max", "1", "--steps", str(linalg.MAX_GRID_POINTS)])
    assert (code, lengths) == (0, [linalg.MAX_GRID_POINTS])
    assert dynamics.MAX_GRID_POINTS is linalg.MAX_GRID_POINTS


def test_bender_sweep_overflowing_ratio_is_broken(capsys):
    code, out, err = run(capsys, ["bender-sweep", "--r", "1e10", "--s", "1e-300",
                                  "--theta-min", "-1", "--theta-max", "1", "--steps", "3"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[1], row[-1]) for row in rows] == [
        ("ComplexConjugatePair", "broken_regime"), ("Unbroken", ""),
        ("ComplexConjugatePair", "broken_regime")]


def test_stokes_frozen(files, capsys):
    code, out, _ = run(capsys, ["stokes", "--ex", "1,0", "--ey", "0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"S0": 1.0, "S1": 1.0, "S2": 0.0, "S3": 0.0}


def test_dilate_hermitian(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["dilate", paths["h_hermitian"], paths["p_id"],
                                paths["t_id"], paths["rho"],
                                "--num-points", "21", "--t-end", "5.0"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["c"] - 0.99) <= 1e-12
    assert doc["max_deviation"] <= 1e-10
    assert doc["max_unitarity_residual"] <= 1e-9
    assert len(doc["success_probabilities"]) == 21
    assert all(abs(p - 0.99 ** 2) <= 1e-12 for p in doc["success_probabilities"])


def test_dilate_rejects_broken(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["dilate", paths["h_broken"], paths["p_swap"],
                                paths["t_id"], paths["rho"]])
    assert code == 3
    assert json.loads(err)["error"] == "broken_hamiltonian"


def test_free_check_runs_clean(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["free-check", paths["h_unbroken"],
                                paths["p_swap"], paths["t_id"],
                                "--num-points", "51"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["worst_defect"] <= 1e-8
    assert doc["min_contraction_margin"] > 0.0


def test_near_defective_metric_is_numerical_failure(files, capsys):
    paths, _ = files
    code, _, err = run(capsys, ["metric", paths["h_neardef"], paths["p_id"],
                                paths["t_id"]])
    assert code == 4
    assert json.loads(err)["error"] == "numerical"


def test_output_flag_and_byte_determinism(files, capsys, tmp_path):
    paths, _ = files
    outs = []
    for name in ("a", "b"):
        target = tmp_path / f"{name}.json"
        code, stdout, _ = run(capsys, ["canonical", paths["h_unbroken"],
                                       paths["p_swap"], paths["t_id"],
                                       "-o", str(target)])
        assert code == 0 and stdout == ""
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]

    runs = []
    for _ in range(2):
        _, stdout, _ = run(capsys, ["invariants", paths["h_unbroken"],
                                    paths["p_swap"], paths["t_id"], paths["rho"],
                                    "--num-points", "7"])
        runs.append(stdout)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_output_is_validation(capsys, tmp_path, target):
    path = tmp_path / "no" / "x.json" if target == "missing_dir" else tmp_path
    code, out, err = run(capsys, ["stokes", "--ex", "1,0", "--ey", "0,1", "-o", str(path)])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "validation"
    assert doc["detail"].startswith(f"cannot write {path}: ")


def test_unwritable_summary_is_validation(files, capsys, tmp_path):
    paths, _ = files
    summary = tmp_path / "no" / "s.json"
    argv = ["invariants", paths["h_unbroken"], paths["p_swap"], paths["t_id"], paths["rho"],
            "--num-points", "3"]
    code, out, err = run(capsys, argv + ["--summary", str(summary)])
    # the series is written before the summary is attempted
    assert (code, out) == (2, run(capsys, argv)[1])
    assert json.loads(err) == {
        "error": "validation",
        "detail": f"cannot write {summary}: [Errno 2] No such file or directory: '{summary}'"}


def test_config_file_flag_and_env(files, capsys, tmp_path, monkeypatch):
    paths, _ = files
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"num_points": 5, "t_end": 2.0}))
    argv_tail = ["invariants", paths["h_unbroken"], paths["p_swap"],
                 paths["t_id"], paths["rho"]]

    code, out, _ = run(capsys, argv_tail + ["--config", str(cfg_file)])
    assert code == 0 and len(out.strip().split("\n")) == 6

    monkeypatch.setenv("PTQM_CONFIG", str(cfg_file))
    code, out, _ = run(capsys, argv_tail)
    assert code == 0 and len(out.strip().split("\n")) == 6

    # explicit flag beats the config file
    code, out, _ = run(capsys, argv_tail + ["--config", str(cfg_file),
                                            "--num-points", "3"])
    assert code == 0 and len(out.strip().split("\n")) == 4


@pytest.mark.parametrize("doc", [{"signs": [1e999]}, {"signs": ["x"]}, {"signs": [[1]]},
                                 {"probe": [["x", 0], [0, 0]]}, {"probe": [[[1], 0], [0, 0]]},
                                 {"tol": 10 ** 400}, {"probe": [[10 ** 400, 0], [0, 0]]},
                                 {"t_start": float("nan")}, {"tol": float("inf")},
                                 {"probe": [[float("nan"), 0], [0, 1]]},
                                 {"probe": [[True, "1"], [0, 0]]}])
def test_config_rejects_malformed_entries(files, capsys, tmp_path, doc):
    paths, _ = files
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    code, _, err = run(capsys, ["metric", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"], "--config", str(cfg_file)])
    assert code == 2
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("where, digits, error", [("matrix", 400, "validation"),
                                                  ("matrix", 5000, "parse"),
                                                  ("config", 5000, "parse")])
def test_oversized_integer_literal_is_rejected(files, capsys, tmp_path, where, digits, error):
    """400 digits overflow a float; 5000 exceed Python's int string conversion limit."""
    paths, _ = files
    literal = "9" * digits
    h, cfg = paths["h_unbroken"], tmp_path / "cfg.json"
    cfg.write_text("{}")
    if where == "matrix":
        h = tmp_path / "h_huge.json"
        h.write_text('{"dim": 2, "rows": [[[%s, 0], [1, 0]], [[1, 0], [0, 0]]]}' % literal)
    else:
        cfg.write_text('{"tol": %s}' % literal)
    code, _, err = run(capsys, ["metric", str(h), paths["p_swap"], paths["t_id"],
                                "--config", str(cfg)])
    assert (code, json.loads(err)["error"]) == (2, error)


@pytest.mark.parametrize("where, text", [
    pytest.param("matrix", "[" * 100000, id="matrix"),
    pytest.param("matrix", '{"dim": 1, "rows": %s1%s}' % ("[" * 3000, "]" * 3000), id="rows"),
    pytest.param("vector", '{"dim": 1, "entries": %s1%s}' % ("[" * 3000, "]" * 3000),
                 id="entries"),
    pytest.param("config", "[" * 100000, id="config"),
])
def test_json_nested_past_the_recursion_limit_is_parse_error(files, capsys, tmp_path,
                                                             where, text):
    """The JSON parser stops at the interpreter's recursion limit; the
    file is then one that does not parse, not a traceback."""
    paths, _ = files
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    read = {"matrix": paths["h_unbroken"], "vector": paths["e1"], "config": str(cfg)}
    read[where] = str(deep)
    label = "config " if where == "config" else ""
    code, out, err = run(capsys, ["inner", read["matrix"], paths["p_swap"], paths["t_id"],
                                  read["vector"], paths["e2"], "--config", read["config"]])
    assert (code, out) == (2, "")
    assert err == render_json({"error": "parse",
                               "detail": f"cannot parse {label}{deep}: nested too deeply"}) + "\n"


@pytest.mark.parametrize("source", ["config", "flag"])
def test_oversized_grid_is_validation(files, capsys, tmp_path, source):
    paths, _ = files
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"num_points": %s}' % ("9" * 400))
        extra = ["--config", str(cfg)]
    else:
        extra = ["--num-points", str(dynamics.MAX_GRID_POINTS + 1)]
    code, out, err = run(capsys, ["invariants", paths["h_unbroken"], paths["p_swap"],
                                  paths["t_id"], paths["rho"], *extra])
    assert (code, out) == (2, "")
    name = "config: num_points" if source == "config" else "--num-points"
    assert err == ('{"error":"validation","detail":"%s must be at most %d"}\n'
                   % (name, dynamics.MAX_GRID_POINTS))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps allocations on Linux only")
def test_invariants_grid_too_large_for_memory_is_numerical(tmp_path):
    """At d = 16 the coefficient series of 10^6 points takes 4 GiB; under a
    2 GiB address space the command ends in one error line, exit 4, not in
    a MemoryError traceback, whatever the host's memory."""
    import resource

    d = 16
    paths = [write_matrix(tmp_path / "h.json", np.diag(np.arange(1.0, d + 1))),
             write_matrix(tmp_path / "p.json", np.eye(d)),
             write_matrix(tmp_path / "t.json", np.eye(d)),
             write_matrix(tmp_path / "rho.json", np.eye(d) / d)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ptqm.cli", "invariants", *paths, "--num-points", "1000000"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert (proc.returncode, proc.stdout) == (4, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "numerical"
    assert "1000000 points" in doc["detail"] and f"d = {d}" in doc["detail"]


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_output_bytes_do_not_depend_on_the_blas_thread_variables(tmp_path):
    """ptqm.cli sets one BLAS thread unless the caller set a count, so
    metric at d = 200, whose products round differently on more threads,
    prints the same bytes with the three variables unset as at 1."""
    inst = random_instance(np.random.default_rng(200), 200, "unbroken")
    pair = inst["pair"]
    paths = [write_matrix(tmp_path / f"{name}.json", m) for name, m in
             (("h", inst["h"]), ("p", pair.parity), ("t", pair.time_reversal))]
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), base.get("PYTHONPATH")]))
    outs = []
    for env in (base, dict(base, **dict.fromkeys(_BLAS_THREADS, "1"))):
        proc = subprocess.run([sys.executable, "-m", "ptqm.cli", "metric", *paths],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def counting(monkeypatch, targets):
    """Wrap each dotted target that exists so that its calls land in one list."""
    calls = []
    for target in targets:
        module, name = target.rsplit(".", 1)
        original = getattr(importlib.import_module(module), name, None)
        if original is not None:
            def wrapper(*args, _fn=original, **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(target, wrapper)
    return calls


def test_classify_runs_one_pt_symmetry_test(files, capsys, monkeypatch):
    paths, _ = files
    calls = counting(monkeypatch, ["ptqm.symmetry._pt_test", "ptqm.canonical._pt_test"])
    code, out, _ = run(capsys, ["classify", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"]])
    assert code == 0 and json.loads(out)["pt_symmetric"] is True
    assert len(calls) == 1


def test_metric_runs_one_intertwining_check(files, capsys, monkeypatch):
    paths, _ = files
    # a CLI that imported verify_metric for itself would be counted too
    calls = counting(monkeypatch, ["ptqm.metric.verify_metric", "ptqm.cli.verify_metric"])
    code, out, _ = run(capsys, ["metric", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"]])
    assert code == 0 and json.loads(out)["residual"] >= 0.0
    assert len(calls) == 1


def test_config_rejects_unknown_key(files, capsys, tmp_path):
    paths, _ = files
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"numpoints": 5}))
    code, _, err = run(capsys, ["classify", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"], "--config", str(cfg_file)])
    assert code == 2
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("command", ["invariants", "dilate", "evolve"])
def test_state_of_wrong_dimension_is_validation(files, capsys, command):
    paths, tmp_path = files
    rho3 = write_matrix(tmp_path / "rho3.json", np.eye(3) / 3)
    pair = [] if command == "evolve" else [paths["p_swap"], paths["t_id"]]
    grid = ["--t", "1.0"] if command == "evolve" else ["--num-points", "5"]
    code, out, err = run(capsys, [command, paths["h_unbroken"], *pair, rho3, *grid])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "validation" and "dimension" in doc["detail"]


# the RunConfig fields each subcommand reads; it accepts exactly these as flags
SETTINGS_READ = {
    "classify": DECOMPOSE,
    "canonical": DECOMPOSE,
    "metric": DECOMPOSE + ("met_tol", "signs"),
    "inner": DECOMPOSE + ("met_tol", "signs"),
    "evolve": ("val_tol",),
    "invariants": DECOMPOSE + ("met_tol", "signs") + GRID,
    "bender-sweep": ("tol", "crit_tol", "probe"),
    "stokes": (),
    "dilate": DECOMPOSE + ("slack",) + GRID,
    "free-check": DECOMPOSE + ("slack", "free_tol") + GRID,
}
# a valid value for every setting, so that only an unread flag can fail a run
SETTING_VALUES = {"tol": "1e-8", "cluster_tol": "1e-6", "rank_tol": "1e-10",
                  "val_tol": "1e-10", "met_tol": "1e-8", "can_tol": "1e-8",
                  "crit_tol": "1e-6", "free_tol": "1e-8", "slack": "0.99",
                  "t_start": "0", "t_end": "1", "num_points": "5",
                  "signs": "1,1", "probe": "1,0,0,0"}


def flag(setting):
    return "--" + setting.replace("_", "-")


def golden_success_argv(command, summary):
    """The recorded command line of a golden run of command that exits 0."""
    name = command if command in ("bender-sweep", "stokes") else f"{command}_unbroken2"
    case = next(c for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
                if c["name"] == name)
    assert case["exit"] == 0
    return [a.replace("{inputs}", str(GOLDEN / "inputs")).replace("{summary}", str(summary))
            for a in case["argv"]]


@pytest.mark.parametrize(
    ("command", "setting"),
    [pytest.param("invariants", "p_tol", id="--p-tol"),
     pytest.param("invariants", "lin_tol", id="--lin-tol"),
     # prefixes of accepted flags (--num-points, --slack, --config) are not flags
     pytest.param("dilate", "num", id="dilate:--num"),
     pytest.param("dilate", "sl", id="dilate:--sl"),
     pytest.param("stokes", "c", id="stokes:--c")]
    + [pytest.param(command, setting, id=f"{command}:{flag(setting)}")
       for command, read in SETTINGS_READ.items()
       for setting in SETTING_VALUES if setting not in read])
def test_removed_tolerance_flags_are_rejected(capsys, tmp_path, command, setting):
    argv = golden_success_argv(command, tmp_path / "summary.json")
    code, out, err = run(capsys, argv + [flag(setting), SETTING_VALUES.get(setting, "5")])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "validation"
    assert doc["detail"].startswith("unrecognized arguments: " + flag(setting))


def test_free_check_rejects_slack_with_c(capsys, tmp_path):
    argv = golden_success_argv("free-check", tmp_path / "summary.json") + ["--c", "0.5"]
    code, out, err = run(capsys, argv + ["--slack", "0.3"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "validation", "detail": "--slack has no effect with --c"}
    # slack from a config file is a default, not a request, and stays allowed
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"slack": 0.3}))
    code, with_config, err = run(capsys, argv + ["--config", str(cfg_file)])
    assert code == 0 and err == ""
    assert with_config == run(capsys, argv)[1]


@pytest.mark.parametrize("command", list(SETTINGS_READ))
def test_each_command_reads_exactly_the_settings_it_accepts(capsys, tmp_path, monkeypatch,
                                                            command):
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(SETTING_VALUES) == names
    argv = golden_success_argv(command, tmp_path / "summary.json")
    read = SETTINGS_READ[command]

    # every accepted setting flag reaches the config overrides
    args = cli.build_parser().parse_args(
        argv + [part for s in read for part in (flag(s), SETTING_VALUES[s])])
    assert {k for k, v in cli._overrides(args).items() if v is not None} == set(read)

    reads = set()

    class LoggedConfig(RunConfig):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    resolve = cli.cfgmod.resolve_config
    monkeypatch.setattr(cli.cfgmod, "resolve_config",
                        lambda *a: LoggedConfig(**vars(resolve(*a))))
    code, _, err = run(capsys, argv)
    assert code == 0, err
    assert reads == set(read)


@pytest.mark.parametrize("command", ["invariants", "dilate", "evolve"])
def test_state_is_validated_at_val_tol(files, capsys, command):
    paths, tmp_path = files
    rho = write_matrix(tmp_path / "rho_off.json", np.diag([0.5, 0.5 + 1e-8]))
    pair = [] if command == "evolve" else [paths["p_swap"], paths["t_id"]]
    grid = ["--t", "1.0"] if command == "evolve" else ["--num-points", "5"]
    argv = [command, paths["h_unbroken"], *pair, rho, *grid]
    code, _, err = run(capsys, argv + ["--val-tol", "1e-6"])
    assert code == 0 and err == ""
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "validation",
                               "detail": "density matrix trace is not 1"}


def test_evolve_overflow_is_numerical_error(capsys):
    inputs = GOLDEN / "inputs"
    code, out, err = run(capsys, ["evolve", str(inputs / "h_complex2.json"),
                                  str(inputs / "rho_complex2.json"), "--t", "1e4"])
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "numerical" and "t = 10000" in doc["detail"]


@pytest.mark.parametrize("h_rows, t", [
    # entries of -itH overflow
    ([[0.0, 1e300], [1e300, 0.0]], 1e10),
    # a golden H: the 1-norm of -itH overflows
    (None, 1e308),
])
def test_evolve_overflowing_exponent_names_t(capsys, tmp_path, h_rows, t):
    inputs = GOLDEN / "inputs"
    h = (str(inputs / "h_unbroken2.json") if h_rows is None
         else write_matrix(tmp_path / "h_huge.json", h_rows))
    code, out, err = run(capsys, ["evolve", h, write_matrix(tmp_path / "rho.json", np.eye(2) / 2),
                                  "--t", repr(t)])
    assert (code, out) == (4, "")
    assert err == render_json({"error": "numerical",
                               "detail": f"evolved density is not finite at t = {t!r}"}) + "\n"


@pytest.mark.parametrize("command", ["classify", "dilate"])
@pytest.mark.parametrize("scale", [1e155, 1e158])
def test_overflowing_ep_hamiltonian_is_numerical_error(capsys, tmp_path, command, scale):
    # the Jordan chain of an EP scaled near 1e155 overflows inside the
    # decomposition: in the chain norms at 1e155, in the matrix powers at 1e158
    inputs = GOLDEN / "inputs"
    h = write_matrix(tmp_path / "h.json", load_matrix_file(inputs / "h_ep2.json") * scale)
    state = [str(inputs / "rho_ep2.json")] if command == "dilate" else []
    code, out, err = run(capsys, [command, h, str(inputs / "p_ep2.json"),
                                  str(inputs / "t_ep2.json"), *state, "--cluster-tol", "1e-6"])
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "numerical"


def test_free_check_overflowing_scale_is_numerical_error(capsys):
    inputs = GOLDEN / "inputs"
    code, out, err = run(capsys, ["free-check", *(str(inputs / f"{n}_unbroken2.json")
                                                  for n in "hpt"), "--c", "1e155"])
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "numerical",
                               "detail": "c^2 U^dag U is not finite at t = 0.0"}


def test_overflowing_stokes_field_is_numerical_error(capsys):
    code, out, err = run(capsys, ["stokes", "--ex=3e154,-1.2e155", "--ey=7e154,4e154"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("key", ["p_tol", "lin_tol"])
def test_config_rejects_removed_tolerance_keys(files, capsys, tmp_path, key):
    paths, _ = files
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: 1e-9}))
    code, _, err = run(capsys, ["classify", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"], "--config", str(cfg_file)])
    assert code == 2
    assert f"unknown key '{key}'" in json.loads(err)["detail"]


# every real-valued flag of each subcommand besides its generated settings
REAL_FLAGS = {"evolve": ("--t",), "bender-sweep": ("--r", "--s", "--theta-min", "--theta-max"),
              "free-check": ("--c",)}


@pytest.mark.parametrize("text", ["nan", "-inf", "1e999"])
@pytest.mark.parametrize(
    ("command", "option"),
    [(command, flag(setting)) for command, read in SETTINGS_READ.items()
     for setting in read if setting not in ("num_points", "signs", "probe")]
    + [(command, option) for command, options in REAL_FLAGS.items() for option in options])
def test_non_finite_real_flag_is_validation(capsys, tmp_path, command, option, text):
    argv = golden_success_argv(command, tmp_path / "summary.json")
    code, out, err = run(capsys, argv + [f"{option}={text}"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "detail": f"argument {option}: must be finite, got {text!r}"}


@pytest.mark.parametrize(("command", "option"), [("classify", "--tol"), ("evolve", "--t"),
                                                 ("bender-sweep", "--theta-min"),
                                                 ("free-check", "--c")])
def test_unparsable_real_flag_keeps_argparse_wording(capsys, tmp_path, command, option):
    argv = golden_success_argv(command, tmp_path / "summary.json")
    code, _, err = run(capsys, argv + [option, "x"])
    assert code == 2
    assert json.loads(err) == {"error": "validation",
                               "detail": f"argument {option}: invalid float value: 'x'"}


@pytest.mark.parametrize(("command", "option", "text", "detail"), [
    ("stokes", "--ex", "inf,0", "--ex must be finite, got 'inf,0'"),
    ("stokes", "--ey", "0,nan", "--ey must be finite, got '0,nan'"),
    ("stokes", "--ex", "1,2,3", "--ex must be re,im"),
    ("stokes", "--ey", "1,x", "cannot parse --ey: '1,x'"),
    ("bender-sweep", "--probe", "nan,0,0,1", "probe must be finite, got 'nan,0,0,1'"),
    ("bender-sweep", "--probe", "1,0,0,-1e999", "probe must be finite, got '1,0,0,-1e999'"),
    ("bender-sweep", "--probe", "1,0,0",
     "probe must be four comma-separated reals: re(x),im(x),re(y),im(y)"),
    ("bender-sweep", "--probe", "1,0,0,x", "cannot parse probe: '1,0,0,x'"),
])
def test_complex_flag_messages(capsys, tmp_path, command, option, text, detail):
    argv = golden_success_argv(command, tmp_path / "summary.json")
    code, out, err = run(capsys, argv + [f"{option}={text}"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "detail": detail}


def test_bender_sweep_rejects_empty_theta_range(capsys):
    code, _, err = run(capsys, ["bender-sweep", "--r", "1", "--s", "0.8", "--theta-min", "1.0",
                                "--theta-max", "1.0", "--steps", "5"])
    assert code == 2
    assert json.loads(err) == {"error": "validation", "detail": "theta-max must exceed theta-min"}


@pytest.mark.parametrize("flag, ends", [
    ("--theta-min", ("-3.2", "0")),
    ("--theta-min", (str(-np.pi), "0")),
    ("--theta-max", ("0", "3.2")),
    ("--theta-min", ("-4", "-3.5")),  # both out of range: the lower end is named
])
def test_bender_sweep_names_the_theta_flag_out_of_range(capsys, flag, ends):
    code, out, err = run(capsys, ["bender-sweep", "--r", "1", "--s", "0.8", "--theta-min", ends[0],
                                  "--theta-max", ends[1], "--steps", "5"])
    value = float(ends[0] if flag == "--theta-min" else ends[1])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "detail": f"{flag} must be in (-pi, pi], got {value!r}"}


def test_bender_sweep_accepts_pi_as_theta_max(capsys):
    code, out, err = run(capsys, ["bender-sweep", "--r", "1", "--s", "0.8", "--theta-min", "3",
                                  "--theta-max", str(np.pi), "--steps", "3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("3.1415926535897931e+00,")


def test_config_probe_matches_probe_flag(capsys, tmp_path):
    argv = golden_success_argv("bender-sweep", tmp_path / "summary.json")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"probe": [[0.6, 0.2], [-0.3, 0.7]]}))
    code, from_config, err = run(capsys, argv + ["--config", str(cfg_file)])
    assert (code, err) == (0, "")
    assert from_config == run(capsys, argv + ["--probe", "0.6,0.2,-0.3,0.7"])[1]
    assert from_config != run(capsys, argv)[1]


def test_real_matrix_renders_as_complex_pairs():
    assert render_json(cli._matrix_doc(np.array([[1.0, -2.0], [0.0, 0.5]]))) == (
        '{"dim":2,"rows":[[[1.0000000000000000e+00,0.0000000000000000e+00],'
        '[-2.0000000000000000e+00,0.0000000000000000e+00]],'
        '[[0.0000000000000000e+00,0.0000000000000000e+00],'
        '[5.0000000000000000e-01,0.0000000000000000e+00]]]}')


def test_invariants_csv_too_large_for_memory_is_numerical(files, capsys, monkeypatch):
    """The series fits but its CSV text does not: one error line, exit 4."""
    paths, _ = files

    def csv_rows(rows):
        raise MemoryError

    # the function that renders one block of rows
    monkeypatch.setattr("ptqm.matio._csv_rows", csv_rows)
    code, out, err = run(capsys, ["invariants", paths["h_unbroken"], paths["p_swap"],
                                  paths["t_id"], paths["rho"]])
    assert (code, out) == (4, "")
    assert err == '{"error":"numerical","detail":"the CSV output does not fit in memory"}\n'


def _failing_after_first_block(monkeypatch):
    """Render every block of rows after the first as a failure."""
    blocks = []
    render = matio._csv_rows

    def csv_rows(rows):
        blocks.append(rows)
        if len(blocks) > 1:
            raise ValidationError("cannot render non-finite value nan")
        return render(rows)

    monkeypatch.setattr("ptqm.matio._csv_rows", csv_rows)
    # one row per block
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 1)


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_invariants_output_is_written_whole_or_not_at_all(files, capsys, monkeypatch, existing):
    """A render failure after the first block leaves no --output file, or
    the file that was there, and no partial file beside it."""
    paths, tmp_path = files
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "series.csv"
    if existing is not None:
        target.write_text(existing)
    _failing_after_first_block(monkeypatch)
    code, out, err = run(capsys, ["invariants", paths["h_unbroken"], paths["p_swap"],
                                  paths["t_id"], paths["rho"], "--num-points", "5",
                                  "--output", str(target)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "detail": "cannot render non-finite value nan"}
    if existing is None:
        assert list(out_dir.iterdir()) == []
    else:
        assert list(out_dir.iterdir()) == [target]
        assert target.read_text() == existing


def test_invariants_stdout_holds_the_rows_before_a_failure(files, capsys, monkeypatch):
    paths, _ = files
    argv = ["invariants", paths["h_unbroken"], paths["p_swap"], paths["t_id"], paths["rho"],
            "--num-points", "5"]
    _, whole, _ = run(capsys, argv)
    _failing_after_first_block(monkeypatch)
    code, out, err = run(capsys, argv)
    assert code == 2 and json.loads(err)["error"] == "validation"
    # the header and the first row
    assert out == "".join(whole.splitlines(keepends=True)[:2])


@pytest.mark.parametrize("cells", [1, 100])
def test_invariants_csv_bytes_do_not_depend_on_the_block_size(files, capsys, monkeypatch,
                                                               tmp_path, cells):
    paths, _ = files
    argv = ["invariants", paths["h_unbroken"], paths["p_swap"], paths["t_id"], paths["rho"],
            "--num-points", "9"]
    _, whole, _ = run(capsys, argv)
    assert len(whole.splitlines()) == 10
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", cells)
    assert run(capsys, argv) == (0, whole, "")
    target = tmp_path / "series.csv"
    assert run(capsys, argv + ["--output", str(target)]) == (0, "", "")
    assert target.read_text() == whole
    assert list(tmp_path.glob(".series.csv.*")) == []


def _invariants_argv(paths):
    return ["invariants", paths["h_unbroken"], paths["p_swap"], paths["t_id"], paths["rho"],
            "--num-points", "5"]


def _writers(paths):
    """A command line of invariants, whose CSV is written as it renders,
    and of canonical, whose JSON is rendered whole: one writer takes the
    --output of both."""
    return (_invariants_argv(paths),
            ["canonical", paths["h_unbroken"], paths["p_swap"], paths["t_id"]])


def test_invariants_output_keeps_the_files_mode_and_a_symlink(files, capsys, tmp_path):
    """A regular file reached through a symlink is replaced whole, with
    its permission bits, and the symlink stays; for canonical too."""
    paths, _ = files
    for argv in _writers(paths):
        _, whole, _ = run(capsys, argv)
        out_dir = tmp_path / argv[0]
        out_dir.mkdir()
        target = out_dir / "series.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = out_dir / "link.csv"
        link.symlink_to(target)
        assert run(capsys, argv + ["--output", str(link)]) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == whole
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in out_dir.iterdir()) == ["link.csv", "series.csv"]


def test_invariants_output_to_a_fifo_is_written_in_place(files, capsys, tmp_path):
    """A path that is not a regular file, here a symlink to a FIFO, is
    opened and written as it is; nothing is created beside it; for
    canonical too."""
    paths, _ = files
    for argv in _writers(paths):
        _, whole, _ = run(capsys, argv)
        out_dir = tmp_path / argv[0]
        out_dir.mkdir()
        fifo = out_dir / "fifo"
        os.mkfifo(fifo)
        link = out_dir / "link"
        link.symlink_to(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert run(capsys, argv + ["--output", str(link)]) == (0, "", "")
        reader.join(timeout=60)
        assert received == [whole]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and link.is_symlink()
        assert sorted(p.name for p in out_dir.iterdir()) == ["fifo", "link"]


def test_invariants_output_to_an_open_pipe_is_written_in_place(files, capsys):
    """/dev/fd/N of a pipe, the path a shell's process substitution
    gives, resolves to no file name and is written through; for canonical
    too."""
    paths, _ = files
    for argv in _writers(paths):
        _, whole, _ = run(capsys, argv)
        read_end, write_end = os.pipe()
        with os.fdopen(read_end) as reader:
            try:
                assert run(capsys, argv + ["--output", f"/dev/fd/{write_end}"]) == (0, "", "")
            finally:
                os.close(write_end)
            assert reader.read() == whole


@pytest.mark.parametrize("spelling", ["/dev/fd/{}", "/proc/self/fd/{}"])
def test_output_to_an_open_file_descriptor_is_written_at_its_offset(files, capsys, tmp_path,
                                                                    spelling):
    """/dev/fd/N of a regular file is written through descriptor N, at its
    offset: what the caller wrote before and after stays, and the file
    keeps its inode; for canonical too."""
    paths, _ = files
    for argv in _writers(paths):
        _, whole, _ = run(capsys, argv)
        target = tmp_path / f"{argv[0]}.txt"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            inode = os.fstat(fd).st_ino
            os.write(fd, b"first\n")
            assert run(capsys, argv + ["--output", spelling.format(fd)]) == (0, "", "")
            os.write(fd, b"last\n")
        finally:
            os.close(fd)
        assert target.read_text() == "first\n" + whole + "last\n"
        assert target.stat().st_ino == inode


def _cli_process(argv, **kwargs):
    """python -m ptqm.cli argv in a subprocess, on this tree's ptqm."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ptqm.cli", *argv], text=True, env=env,
                          timeout=120, **kwargs)


def _assert_kept_between_lines(files, capsys, tmp_path, output):
    """Run canonical -o output in a subprocess whose stdout is a new file
    that holds "first" and gets "last" after it: the report must land
    between the two lines, in the file opened, which keeps its inode."""
    paths, _ = files
    argv = ["canonical", paths["h_unbroken"], paths["p_swap"], paths["t_id"]]
    _, whole, _ = run(capsys, argv)
    target = tmp_path / "out.txt"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        inode = os.fstat(fd).st_ino
        os.write(fd, b"first\n")
        proc = _cli_process([*argv, "-o", output], stdout=fd, stderr=subprocess.PIPE)
        os.write(fd, b"last\n")
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert target.read_text() == "first\n" + whole + "last\n"
    assert target.stat().st_ino == inode


def test_output_to_dev_stdout_keeps_what_the_shell_wrote_around_it(files, capsys, tmp_path):
    """{ echo first; ptqm ... -o /dev/stdout; echo last; } > out.txt: the
    report lands between the two lines, in the file the shell opened."""
    _assert_kept_between_lines(files, capsys, tmp_path, "/dev/stdout")


@pytest.mark.parametrize("spelling", ["link", "/dev/./stdout", "//dev//stdout"])
def test_output_to_a_path_that_resolves_to_stdout_keeps_what_the_shell_wrote(files, capsys,
                                                                            tmp_path, spelling):
    """A symlink to /dev/stdout, or /dev/stdout spelt with . or doubled
    /, reaches descriptor 1 as /dev/stdout does."""
    if spelling == "link":
        spelling = str(tmp_path / "link")
        os.symlink("/dev/stdout", spelling)
    _assert_kept_between_lines(files, capsys, tmp_path, spelling)


def test_output_to_dev_stdin_open_for_reading_is_validation(files, tmp_path):
    """ptqm ... -o /dev/stdin < in.json: descriptor 0 is open for reading
    only, so the write fails, and in.json is neither replaced nor
    changed."""
    paths, _ = files
    source = tmp_path / "in.json"
    source.write_text('{"x": 1}\n')
    inode = source.stat().st_ino
    with open(source) as stdin:
        proc = _cli_process(["canonical", paths["h_unbroken"], paths["p_swap"], paths["t_id"],
                             "-o", "/dev/stdin"], stdin=stdin, capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {
        "error": "validation", "detail": "cannot write /dev/stdin: [Errno 9] Bad file descriptor"}
    assert source.read_text() == '{"x": 1}\n' and source.stat().st_ino == inode


@pytest.mark.parametrize("spelling", ["link", "/dev/./fd/{}", "/dev//fd/{}",
                                      "/proc/self/../self/fd/{}"])
def test_output_to_a_path_that_resolves_to_a_descriptor_is_written_at_its_offset(
        files, capsys, tmp_path, spelling):
    """A symlink to /dev/fd/N, or /dev/fd/N spelt with ., .. or doubled
    /, is written through descriptor N at its offset; for canonical too."""
    paths, _ = files
    for argv in _writers(paths):
        _, whole, _ = run(capsys, argv)
        target = tmp_path / f"{argv[0]}.txt"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            output = spelling.format(fd)
            if spelling == "link":
                output = str(tmp_path / f"{argv[0]}.link")
                os.symlink(f"/dev/fd/{fd}", output)
            inode = os.fstat(fd).st_ino
            os.write(fd, b"first\n")
            assert run(capsys, argv + ["--output", output]) == (0, "", "")
            os.write(fd, b"last\n")
        finally:
            os.close(fd)
        assert target.read_text() == "first\n" + whole + "last\n"
        assert target.stat().st_ino == inode


@pytest.mark.parametrize("number", ["2147483648", "99999999999999999999999"])
def test_output_to_a_descriptor_number_past_any_c_int_is_validation(files, capsys, number):
    """os.dup raises OverflowError, not OSError, for such an N."""
    paths, _ = files
    code, out, err = run(capsys, ["canonical", paths["h_unbroken"], paths["p_swap"],
                                  paths["t_id"], "--output", f"/dev/fd/{number}"])
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "validation"
    assert doc["detail"].startswith(f"cannot write /dev/fd/{number}: ")


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_invariants_output_is_validation(files, capsys, tmp_path, target):
    """The error names the path, as open(path, "w") words it."""
    paths, _ = files
    path = tmp_path / "no" / "x.csv" if target == "missing_dir" else tmp_path
    code, out, err = run(capsys, _invariants_argv(paths) + ["--output", str(path)])
    assert (code, out) == (2, "")
    reason = ("[Errno 2] No such file or directory" if target == "missing_dir"
              else "[Errno 21] Is a directory")
    assert json.loads(err) == {"error": "validation",
                               "detail": f"cannot write {path}: {reason}: '{path}'"}


def test_invariants_output_through_a_symlink_loop_is_validation(files, capsys, tmp_path):
    """A path whose stat fails other than by absence (ELOOP) is opened as
    it is, and open words the error; for canonical too."""
    paths, _ = files
    loop = tmp_path / "loop"
    loop.symlink_to(tmp_path / "back")
    (tmp_path / "back").symlink_to(loop)
    for argv in _writers(paths):
        code, out, err = run(capsys, argv + ["--output", str(loop)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"cannot write {loop}: [Errno 40] Too many levels of symbolic links: "
                      f"'{loop}'"}


def test_invariants_output_to_a_file_it_may_not_write_is_validation(files, capsys, tmp_path,
                                                                     monkeypatch):
    """A regular file that os.access says is not writable is not replaced
    by a rename: the error is open's, and the file and its directory stay
    as they were; for canonical too. (os.access is planted, as a root
    user may write any file.)"""
    paths, _ = files
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    for argv in _writers(paths):
        out_dir = tmp_path / argv[0]
        out_dir.mkdir()
        target = out_dir / "series.csv"
        target.write_text("kept\n")
        code, out, err = run(capsys, argv + ["--output", str(target)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"cannot write {target}: [Errno 13] Permission denied: '{target}'"}
        assert list(out_dir.iterdir()) == [target] and target.read_text() == "kept\n"


def test_output_whose_directory_refuses_the_new_file_names_the_directory(files, capsys,
                                                                        tmp_path, monkeypatch):
    """A writable file in a directory that refuses the new file beside it
    is not replaced: the error names that directory, and the file and
    the directory stay as they were; for canonical too. (Creating the new
    file is made to fail, as a root user may write in any directory.)"""
    paths, _ = files

    def refusing(file, mode="r", *args, **kwargs):
        if mode == "x":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refusing, raising=False)
    for argv in _writers(paths):
        out_dir = tmp_path / argv[0]
        out_dir.mkdir()
        target = out_dir / "series.csv"
        target.write_text("kept\n")
        code, out, err = run(capsys, argv + ["--output", str(target)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"cannot write {target}: [Errno 13] Permission denied: "
                      f"'{os.path.realpath(out_dir)}'"}
        assert list(out_dir.iterdir()) == [target] and target.read_text() == "kept\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_FSIZE is exercised on Linux only")
@pytest.mark.parametrize("flag", ["--output", "--summary"])
def test_output_past_the_file_size_limit_keeps_the_old_file(files, capsys, tmp_path, flag):
    """canonical --output and invariants --summary over an existing file,
    in a child whose file size limit is half the new text: one error
    line, exit 2, the old bytes in place and no partial file beside
    them. (Python ignores SIGXFSZ, so the write fails with EFBIG.)"""
    import resource

    paths, _ = files
    if flag == "--output":
        argv = ["canonical", paths["h_unbroken"], paths["p_swap"], paths["t_id"]]
    else:
        argv = _invariants_argv(paths)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "old.json"
    run(capsys, argv + [flag, str(target)])
    limit = len(target.read_bytes()) // 2
    target.write_bytes(b"OLD\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ptqm.cli", *argv, flag, str(target)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert proc.returncode == 2
    assert proc.stderr == render_json({"error": "validation",
                                       "detail": f"cannot write {target}: "
                                                 f"[Errno 27] File too large"}) + "\n"
    assert list(out_dir.iterdir()) == [target] and target.read_bytes() == b"OLD\n"
