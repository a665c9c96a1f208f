import json

import numpy as np
import pytest

from szegolab import a_explicit
from szegolab.cli import main
from szegolab.fileio import read_csv


@pytest.fixture
def pair1(tmp_path):
    path = tmp_path / "pair1.json"
    path.write_text(json.dumps({"pairs": [{"s": 1.0, "psi": 0.0}, {"s": 0.5, "psi": 0.0}]}))
    return str(path)


def test_c1_command(pair1, capsys):
    assert main(["c1", "--data", pair1]) == 0
    out = capsys.readouterr().out
    assert "closed_form=1.5" in out
    assert "lower_bound=1.5" in out
    assert "eq4_bound=1" in out


def test_reconstruct_then_spectrum(pair1, tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    assert main(["reconstruct", "--data", pair1, "--modes", "64", "--out", str(coeffs)]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--coeffs", str(coeffs), "--M", "64"]) == 0
    out = capsys.readouterr().out
    rho = float(out.split("rho=")[1].split()[0].split(",")[0])
    sigma = float(out.split("sigma=")[1].split()[0].split(",")[0])
    assert abs(rho - 1.0) < 1e-8 and abs(sigma - 0.5) < 1e-8


def test_malformed_data_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pairs": [{"s": 0.5, "psi": 0.0}, {"s": 0.5, "psi": 0.0}]}))
    assert main(["c1", "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "strict decrease violated at r=1" in err


def test_numerical_failure_exit_3(tmp_path, capsys):
    # angles nonzero is a validation error (2); a singular evaluation is numerical (3)
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"pairs": [{"s": 1.0, "psi": 0.1}, {"s": 0.5, "psi": 0.0}]}))
    assert main(["c1", "--data", str(data)]) == 2
    capsys.readouterr()
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"pairs": [{"s": 1.0, "psi": 0.0},
                                          {"s": 1.0 - 1e-15, "psi": 0.0}]}))
    assert main(["c1", "--data", str(near)]) == 3
    assert "DegenerateSpectrum" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["certify", "--data", "/nonexistent/x.json"]) == 2


def test_certify_output(pair1, capsys):
    assert main(["certify", "--data", pair1]) == 0
    out = capsys.readouterr().out
    assert "l1_norm_product=0.5" in out
    assert "certified_radius=1" in out
    assert "delta=0.5" in out


def test_flow_csv_columns(pair1, tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    assert main(["flow", "--data", pair1, "--T", "0.1", "--dt", "0.01",
                 "--modes", "32", "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert header == ["t", "mass", "h_half_norm", "sv_drift_max"]
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[-1][0]) - 0.1) < 1e-12
    assert all(float(r[3]) < 1e-7 for r in rows)


def test_flow_compare_command(pair1, capsys):
    assert main(["flow-compare", "--data", pair1, "--T", "0.2", "--dt", "0.002",
                 "--modes", "32"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("discrepancy=")[1].split()[0]) < 1e-6


def test_geometric_command(tmp_path, capsys):
    assert main(["geometric", "--h", str(np.log(2.0)), "--theta", "0", "--z", "1,0",
                 "--r", "0.95", "--N-max", "12", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "poisson_bound=" in out and "route_delta=" in out
    delta = float(out.split("route_delta=")[1].split()[0])
    assert delta < 1e-9
    header, rows = read_csv(tmp_path / "index_profile.csv")
    assert header == ["R", "index"]
    assert len(rows) >= 5
    header, rows = read_csv(tmp_path / "stability.csv")
    assert header == ["N", "inv_norm_2"]


def test_sweep_zero_gap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SZEGO_LAB_THREADS", "0")  # sequential path
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.1:0.9:0.2",
                 "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert header[-1] == "error"
    assert len(rows) == 5
    for row in rows:
        vals = dict(zip(header, row))
        assert float(vals["gap"]) >= float(vals["poisson_bound"]) - 1e-12
        assert vals["error"] == ""


def test_sweep_empty_grid(tmp_path):
    out_csv = tmp_path / "empty.csv"
    assert main(["sweep", "--task", "zero-gap", "--grid", "", "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert rows == [] and header[0] == "gamma"


def test_sweep_operator_bounds(tmp_path, monkeypatch):
    monkeypatch.setenv("SZEGO_LAB_THREADS", "2")  # threaded path
    out_csv = tmp_path / "delta.csv"
    assert main(["sweep", "--task", "operator-bounds", "--grid", "0.05:0.5:0.05",
                 "--N", "20", "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert len(rows) == 10
    for row in rows:
        vals = dict(zip(header, row))
        assert float(vals["l1_norm_product"]) <= float(vals["bound_value"])
        delta = float(vals["delta"])
        assert abs(float(vals["bound_value"]) - a_explicit(delta)) < 1e-12 * a_explicit(delta)


def test_sweep_determinism(tmp_path, monkeypatch):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("SZEGO_LAB_THREADS", "4")
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.2,0.4,0.6", "--out", str(a_path)]) == 0
    monkeypatch.setenv("SZEGO_LAB_THREADS", "0")
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.2,0.4,0.6", "--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_sweep_keeps_repeated_grid_values(tmp_path, monkeypatch):
    for threads in ("0", "2"):
        monkeypatch.setenv("SZEGO_LAB_THREADS", threads)
        out_csv = tmp_path / f"rep{threads}.csv"
        assert main(["sweep", "--task", "zero-gap", "--grid", "0.5,0.5,0.3",
                     "--out", str(out_csv)]) == 0
        _, rows = read_csv(out_csv)
        assert [float(r[0]) for r in rows] == [0.3, 0.5, 0.5]


def test_bad_grid_exit_2(tmp_path, capsys):
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.1:0.9", "--out",
                 str(tmp_path / "x.csv")]) == 2


def test_bad_thread_env_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SZEGO_LAB_THREADS", "many")
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.3", "--out",
                 str(tmp_path / "x.csv")]) == 2


def test_spectrum_bad_index_csv_exit_2(tmp_path, capsys):
    # n = -1 would land in the last slot and the second n = 1 would overwrite the first
    coeffs = tmp_path / "c.csv"
    coeffs.write_text("n,re,im\n0,1,0\n1,0.5,0\n2,0.25,0\n-1,9,0\n1,0.7,0\n")
    assert main(["spectrum", "--coeffs", str(coeffs), "--M", "8"]) == 2
    assert "['-1', '9', '0']" in capsys.readouterr().err


def test_spectrum_csv_export(pair1, tmp_path, capsys):
    coeffs = tmp_path / "c.csv"
    spec_csv = tmp_path / "spec.csv"
    assert main(["reconstruct", "--data", pair1, "--modes", "64", "--out", str(coeffs)]) == 0
    assert main(["spectrum", "--coeffs", str(coeffs), "--M", "64", "--out", str(spec_csv)]) == 0
    header, rows = read_csv(spec_csv)
    assert header == ["index", "kind", "value"]
    kinds = {r[1] for r in rows}
    assert kinds == {"rho", "sigma"}


def test_sweep_row_error_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv("SZEGO_LAB_THREADS", "0")
    out_csv = tmp_path / "err.csv"
    # gamma = 1.5 is invalid; the row records the error, the run continues
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.3,1.5", "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert len(rows) == 2
    assert rows[0][-1] == ""
    assert "ValidationError" in rows[1][-1]


def test_reconstruct_output_deterministic(pair1, tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["reconstruct", "--data", pair1, "--modes", "32", "--out", str(a_path)]) == 0
    assert main(["reconstruct", "--data", pair1, "--modes", "32", "--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()
