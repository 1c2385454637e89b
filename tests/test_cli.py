"""End-to-end command line behavior, run in process."""

import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from ptqm import cli, dynamics
from ptqm.bender import BenderParams, bender_hamiltonian
from ptqm.cli import main
from ptqm.config import RunConfig
from ptqm.matio import load_matrix_file, render_json

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
    (["--slack", "2"], None, "--slack must be in (0, 1], got 2.0"),
    (["--num-points", "0"], None, "--num-points must be a positive integer"),
])
def test_settings_error_names_the_flag_it_came_from(files, capsys, extra, config, detail):
    paths, tmp_path = files
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        extra = extra + ["--config", str(cfg)]
    code, out, err = run(capsys, ["dilate", paths["h_unbroken"], paths["p_swap"],
                                  paths["t_id"], paths["rho"], *extra])
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
    assert err == ('{"error":"validation","detail":"num_points must be at most %d"}\n'
                   % dynamics.MAX_GRID_POINTS)


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
                               "detail": "c^2 U^dag U is not finite at t = 0.000000"}


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
