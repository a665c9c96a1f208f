import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import szegolab
from szegolab import a_explicit
from szegolab.cli import build_parser, main
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


def test_parser_built_once(pair1, capsys):
    assert build_parser() is build_parser()
    assert main(["c1", "--data", pair1]) == 0
    assert main(["certify", "--data", pair1]) == 0
    assert main(["c1", "--data", pair1 + ".missing"]) == 2
    assert "closed_form=1.5" in capsys.readouterr().out


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


def test_sweep_zero_gap(tmp_path, capsys):
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


def test_sweep_operator_bounds(tmp_path):
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


def test_sweep_determinism(tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.2,0.4,0.6", "--out", str(a_path)]) == 0
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.2,0.4,0.6", "--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_sweep_keeps_repeated_grid_values(tmp_path):
    out_csv = tmp_path / "rep.csv"
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.5,0.5,0.3",
                 "--out", str(out_csv)]) == 0
    _, rows = read_csv(out_csv)
    assert [float(r[0]) for r in rows] == [0.3, 0.5, 0.5]


def test_bad_grid_exit_2(tmp_path, capsys):
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.1:0.9", "--out",
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


def test_sweep_row_error_recorded(tmp_path):
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


# --- exit-code contract, run as a separate process --------------------------------

CONTRACT_DATA = {
    "pair1.json": [1.0, 0.5],
    "near_one.json": [1.0, 0.999999999],               # denominator gap 2e-9: B_delta overflows
    "underflow.json": [1.0, 0.5, 1e-170, 1e-170 * (1 - 1e-15)],  # squares underflow to 0
}


def _cap_address_space():
    # at 4 GiB a huge allocation fails at once, whatever the host's overcommit policy
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("argv, code, text", [
    (["reconstruct", "--data", "{tmp}/underflow.json", "--modes", "8", "--out", "{tmp}/c.csv"],
     3, "DegenerateSpectrum"),
    (["certify", "--data", "{tmp}/near_one.json"], 0, "bound_value=inf"),
    (["flow", "--data", "{tmp}/pair1.json", "--T", "inf", "--dt", "0.01", "--modes", "8",
      "--out", "{tmp}/t.csv"], 2, "T=inf"),
    (["flow", "--data", "{tmp}/pair1.json", "--T", "nan", "--dt", "0.01", "--modes", "8",
      "--out", "{tmp}/t.csv"], 2, "T=nan"),
    (["flow-compare", "--data", "{tmp}/pair1.json", "--T", "inf", "--dt", "0.01", "--modes", "8"],
     2, "T=inf"),
    (["flow-compare", "--data", "{tmp}/pair1.json", "--T", "nan", "--dt", "0.01", "--modes", "8"],
     2, "T=nan"),
    (["geometric", "--h", "0.7", "--z", "nan", "--out-dir", "{tmp}"], 2, "must be finite"),
    (["geometric", "--h", "0.7", "--z", "inf,0", "--out-dir", "{tmp}"], 2, "must be finite"),
    (["geometric", "--h", "0.7", "--z", "abc", "--out-dir", "{tmp}"], 2, "bad complex value"),
    (["sweep", "--task", "zero-gap", "--grid", "0.99", "--out", "{tmp}/z.csv"], 0, "rows=1"),
    (["sweep", "--task", "zero-gap", "--grid", "0:inf:0.1", "--out", "{tmp}/z.csv"],
     2, "must be finite"),
    (["sweep", "--task", "zero-gap", "--grid", "nan:1:0.1", "--out", "{tmp}/z.csv"],
     2, "must be finite"),
    (["sweep", "--task", "zero-gap", "--grid", "0:1:nan", "--out", "{tmp}/z.csv"],
     2, "step must be positive"),
    (["spectrum", "--coeffs", "{tmp}/coeffs.csv", "--M", "-3"], 2, "must be >= 1"),
    (["spectrum", "--coeffs", "{tmp}/coeffs.csv", "--M", "0"], 2, "must be >= 1"),
    (["sweep", "--task", "operator-bounds", "--grid", "0.5", "--N", "-2", "--out", "{tmp}/b.csv"],
     2, "--N must be >= 1"),
    (["geometric", "--h", "0.7", "--r", "nan", "--out-dir", "{tmp}"], 2, "got r = nan"),
    (["sweep", "--task", "zero-gap", "--grid", "0:1e300:1e-300", "--out", "{tmp}/z.csv"],
     2, "more than 1e6"),
    (["sweep", "--task", "zero-gap", "--grid", "0:1e9:1", "--out", "{tmp}/z.csv"], 2, "more than 1e6"),
    (["spectrum", "--coeffs", "{tmp}/coeffs.csv", "--M", "100000000000"], 2, "error (memory)"),
    (["reconstruct", "--data", "{tmp}/pair1.json", "--modes", "100000000000", "--out", "{tmp}/c.csv"],
     2, "error (memory)"),
    (["flow", "--data", "{tmp}/pair1.json", "--T", "1", "--dt", "0.01", "--modes", "100000000000",
      "--out", "{tmp}/t.csv"], 2, "error (memory)"),
    (["certify", "--data", "{tmp}/text.json"], 2, "'1.0' is not a number"),
    (["spectrum", "--coeffs", "{tmp}/four_fields.csv", "--M", "4"], 2, "need exactly 3 fields"),
    (["spectrum", "--coeffs", "{tmp}/underscore.csv", "--M", "2"], 2, "underscores are not accepted"),
])
def test_exit_code_contract(tmp_path, argv, code, text):
    for name, s in CONTRACT_DATA.items():
        (tmp_path / name).write_text(json.dumps({"pairs": [{"s": v, "psi": 0.0} for v in s]}))
    (tmp_path / "coeffs.csv").write_text("n,re,im\n0,1,0\n1,0.5,0\n")
    (tmp_path / "four_fields.csv").write_text("n,re,im\n0,1,0,7\n")
    (tmp_path / "underscore.csv").write_text("n,re,im\n0,1_0,0\n")
    (tmp_path / "text.json").write_text('{"pairs": [{"s": "1.0", "psi": true}, {"s": 0.5, "psi": 0.0}]}')
    env = dict(os.environ, PYTHONPATH=str(Path(szegolab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "szegolab.cli"] + [a.format(tmp=tmp_path) for a in argv],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert text in proc.stdout + proc.stderr
