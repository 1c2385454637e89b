"""End-to-end command line behavior, run in process."""

import json

import numpy as np
import pytest

from ptqm.bender import BenderParams, bender_hamiltonian
from ptqm.cli import main
from ptqm.matio import matrix_to_rows, render_json


def write_matrix(path, m):
    path.write_text(render_json({"dim": int(np.asarray(m).shape[0]),
                                 "rows": matrix_to_rows(np.asarray(m, dtype=complex))}))
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


@pytest.mark.parametrize("flag", ["--p-tol", "--lin-tol"])
def test_removed_tolerance_flags_are_rejected(files, capsys, flag):
    paths, _ = files
    code, _, err = run(capsys, ["invariants", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"], paths["rho"], flag, "5"])
    assert code == 2
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("key", ["p_tol", "lin_tol"])
def test_config_rejects_removed_tolerance_keys(files, capsys, tmp_path, key):
    paths, _ = files
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: 1e-9}))
    code, _, err = run(capsys, ["classify", paths["h_unbroken"], paths["p_swap"],
                                paths["t_id"], "--config", str(cfg_file)])
    assert code == 2
    assert f"unknown key '{key}'" in json.loads(err)["detail"]
