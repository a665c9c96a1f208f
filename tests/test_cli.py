import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import szegolab
from szegolab import SpectralData, a_explicit
from szegolab.cli import build_parser, main
from szegolab.fileio import read_csv

from references import cauchy_factors_mpmath, load_by_rows


@pytest.fixture
def pair1(tmp_path):
    path = tmp_path / "pair1.json"
    path.write_text(json.dumps({"pairs": [{"s": 1.0, "psi": 0.0}, {"s": 0.5, "psi": 0.0}]}))
    return str(path)


def test_readme_commands_parse():
    # every line of the README's command block, with and without its [...] optional text
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.DOTALL).group(1)
    lines = block.splitlines()
    assert len(lines) == 9
    for line in lines:
        assert line.startswith("szegolab ")
        for variant in {re.sub(r"\[(.*?)\]", r"\1", line), re.sub(r"\[.*?\]", "", line)}:
            args = build_parser().parse_args(variant.split()[1:])
            assert args.func.__name__ == "cmd_" + args.command.replace("-", "_")


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


def test_certify_output(pair1, tmp_path, capsys):
    assert main(["certify", "--data", pair1]) == 0
    out = capsys.readouterr().out
    assert "l1_norm_product=0.5" in out
    assert "certified_radius=1" in out
    assert "delta=0.5" in out
    # one line per report field, in declaration order; an absent radius prints as none
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"pairs": [{"s": v, "psi": 0.0} for v in (1.0, 0.9, 0.8, 0.7)]}))
    assert main(["certify", "--data", str(four)]) == 0
    assert capsys.readouterr().out == ("delta=0.90000000000000002\n"
                                       "l1_norm_c0inv_sum=0.46285156250000009\n"
                                       "l1_norm_product=1.1050781249999997\n"
                                       "bound_value=439329.65182545991\n"
                                       "certified_radius=none\n"
                                       "c0inv_sum_bound=46373.685470465185\n")
    # the 50-digit values are 0.462851562500000137... and 1.105078125000000134...
    cinv, p = cauchy_factors_mpmath(SpectralData.load_json(four))
    for got, want in ((0.46285156250000009, np.abs(cinv).sum()),
                      (1.1050781249999997, np.abs(p).sum(axis=0).max())):
        assert abs(got - want) <= 4 * np.finfo(float).eps * want


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
    for task, columns in [
            ("zero-gap", ["gamma", "min_unit", "max_inner_scaled", "gap", "poisson_bound", "error"]),
            ("operator-bounds", ["delta", "l1_norm_c0inv_sum", "l1_norm_product", "bound_value",
                                 "certified_radius", "c0inv_sum_bound", "error"])]:
        assert main(["sweep", "--task", task, "--grid", "", "--out", str(out_csv)]) == 0
        header, rows = read_csv(out_csv)
        assert rows == [] and header == columns


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
    # the radius is absent, and prints as none, exactly where the l1 norm reaches 1
    uncertified = [float(dict(zip(header, row))["l1_norm_product"]) >= 1.0 for row in rows]
    assert [row[header.index("certified_radius")] == "none" for row in rows] == uncertified
    assert any(uncertified) and not all(uncertified)


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


# each takes the fields of one row of a valid 8-row coefficient file and the n of the next row;
# "\udcff" is written as the byte 0xff, which is not UTF-8
ROW_MUTATIONS = {
    "none": lambda row, n_next: row,
    "drop-field": lambda row, n_next: row[:2],
    "add-field": lambda row, n_next: row + ["0"],
    "repeat-n": lambda row, n_next: [n_next] + row[1:],
    "shift-n-up": lambda row, n_next: [str(int(row[0]) + 1)] + row[1:],
    "shift-n-down": lambda row, n_next: [str(int(row[0]) - 1)] + row[1:],
    "underscore": lambda row, n_next: [row[0], "1_0", row[2]],
    "non-ascii-digit": lambda row, n_next: [row[0], row[1], "\u0661"],
    "inf": lambda row, n_next: [row[0], "inf", row[2]],
    "nan": lambda row, n_next: [row[0], row[1], "nan"],
    "nul-byte": lambda row, n_next: [row[0], row[1] + "\x00", row[2]],
    "bad-utf8": lambda row, n_next: [row[0], row[1] + "\udcff", row[2]],
    "quoted-re": lambda row, n_next: [row[0], f'"{row[1]}"', row[2]],
    "quoted-n": lambda row, n_next: [f'"{row[0]}"', row[1], row[2]],
}


@pytest.mark.parametrize("at", [0, 3, 7])
@pytest.mark.parametrize("mutation", ROW_MUTATIONS)
def test_spectrum_exit_code_follows_the_row_reader(tmp_path, capsys, mutation, at):
    # the CLI exits 0 exactly where the row-by-row reference reader accepts the file, and 2
    # with the validation error, never a traceback, where it does not
    rows = [[str(n), repr(0.5 ** n), repr(-0.25 * n)] for n in (3, 0, 7, 1, 6, 2, 5, 4)]
    rows[at] = ROW_MUTATIONS[mutation](rows[at], rows[(at + 1) % 8][0])
    path = tmp_path / "c.csv"
    text = "n,re,im\r\n" + "".join(",".join(row) + "\r\n" for row in rows)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    try:
        load_by_rows(path)
        accepted = True
    except szegolab.ValidationError:
        accepted = False
    code = main(["spectrum", "--coeffs", str(path), "--M", "8"])
    err = capsys.readouterr().err
    assert code == (0 if accepted else 2), err
    if not accepted:
        assert "error (ValidationError)" in err and "Traceback" not in err


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
    # gamma = 1.1 is invalid; the row records the error and its grid value, the run continues
    assert main(["sweep", "--task", "zero-gap", "--grid", "0.3,1.1", "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert len(rows) == 2
    assert rows[0][-1] == ""
    assert rows[1] == ["1.1000000000000001", "", "", "", "",
                       "ValidationError: gamma must be in (0, 1), got 1.1"]


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
    "wide.json": [1e300, 1e-300],                      # the ratio underflows to delta = 0
    "tiny.json": [2e-170, 1e-170, 5e-171, 2.5e-171],   # a product s_r s_(r+1) underflows to 0
    "big.json": [1e200, 5e199],                        # ||u||^2 overflows
    "big150.json": [1e150, 5e149],                     # |u|^2 u overflows
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
    (["sweep", "--task", "zero-gap", "--grid", "0.999,0.9999", "--out", "{tmp}/z.csv"], 0, "rows=2"),
    *[(["flow", "--data", "{tmp}/pair1.json", "--T", "1", "--dt", dt, "--modes", "8", "--out", "{tmp}/t.csv"],
       2, "more than MAX_STEPS") for dt in ("5e-324", "1e-300", "1e-12")],
    *[(["flow-compare", "--data", "{tmp}/pair1.json", "--T", "1", "--dt", dt, "--modes", "8"],
       2, "more than MAX_STEPS") for dt in ("5e-324", "1e-300", "1e-12")],
    *[(["geometric", "--h", h, "--out-dir", "{tmp}"], 2, f"h = {float(h)} puts the index-profile radii")
      for h in ("143", "373", "1e308")],
    (["geometric", "--h", "0.6931471805599453", "--z", "2,0", "--N-max", "1", "--out-dir", "{tmp}"],
     3, "SingularTruncation"),
    (["certify", "--data", "{tmp}/wide.json"], 0, "certified_radius=inf"),
    (["c1", "--data", "{tmp}/tiny.json"], 0,
     "lower_bound=3.7499999999999999e-170 eq4_bound=2.5000000000000001e-170"),
    (["certify", "--data", "{tmp}/repeated.json"], 2, "duplicate key 's'"),
    (["certify", "--data", "{tmp}/misspelt.json"], 2, "unknown key 'sgima'"),
    (["spectrum", "--coeffs", "{tmp}/arabic.csv", "--M", "2"], 2, "non-ASCII"),
    *[(argv + [size], 2, "past the array sizes numpy can index")
      for size in ("4611686018427387904", str(10 ** 20))
      for argv in (["reconstruct", "--data", "{tmp}/pair1.json", "--out", "{tmp}/c.csv", "--modes"],
                   ["spectrum", "--coeffs", "{tmp}/coeffs.csv", "--M"],
                   ["flow", "--data", "{tmp}/pair1.json", "--T", "1", "--dt", "0.01", "--out", "{tmp}/t.csv",
                    "--modes"],
                   ["flow-compare", "--data", "{tmp}/pair1.json", "--T", "1", "--dt", "0.01", "--modes"],
                   ["sweep", "--task", "operator-bounds", "--grid", "0.5", "--out", "{tmp}/b.csv", "--N"],
                   ["geometric", "--h", "0.7", "--out-dir", "{tmp}", "--N-max"])],
    # coefficients at both ends of the double range: the transform scales them by a power of two
    (["spectrum", "--coeffs", "{tmp}/subnormal.csv", "--M", "2"], 0, "sigma=1.5000000000000201e-310"),
    (["spectrum", "--coeffs", "{tmp}/huge_tail.csv", "--M", "64"], 0, "tail_mass=inf"),
    (["spectrum", "--coeffs", "{tmp}/largest.csv", "--M", "2"], 0, "sigma=1e+308"),
    (["spectrum", "--coeffs", "{tmp}/inf_coeff.csv", "--M", "2"], 2,
     "inf_coeff.csv: bad row ['1', 'inf', '0']: re and im must be finite"),
    (["spectrum", "--coeffs", "{tmp}/header_only.csv", "--M", "2"], 2, "header_only.csv: no coefficient rows"),
    # theta h = 7e307 is reduced mod 2 pi once; at h = 10 it overflows
    (["geometric", "--h", "0.7", "--theta", "1e308", "--out-dir", "{tmp}"], 0, "route_delta="),
    (["geometric", "--h", "10", "--theta", "1e308", "--out-dir", "{tmp}"], 2, "theta h finite"),
    # nested past the recursion limit, where json.load raises RecursionError
    (["certify", "--data", "{tmp}/nested.json"], 2, "nested.json: not valid JSON"),
    # the conservation CSV writes a mass past the double range as inf
    (["flow", "--data", "{tmp}/big.json", "--T", "0", "--dt", "5e-324", "--modes", "8", "--out", "{tmp}/t.csv"],
     0, "samples=1"),
    # the steps and the dt |u|^2 <= 0.1 check run on u scaled by a power of two into range
    (["flow", "--data", "{tmp}/big150.json", "--T", "1e-300", "--dt", "1e-303", "--modes", "64",
      "--out", "{tmp}/t.csv"], 0, "samples=17"),
    (["flow", "--data", "{tmp}/big.json", "--T", "1e-321", "--dt", "5e-324", "--modes", "8",
      "--out", "{tmp}/t.csv"], 2, "too large for max |u|"),
    # a NaN in a comma list would leave the sorted rows out of order
    *[(["sweep", "--task", "zero-gap", "--grid", grid, "--out", "{tmp}/z.csv"], 2, "must be finite")
      for grid in ("0.5,nan,0.2,0.7", "inf")],
])
def test_exit_code_contract(tmp_path, argv, code, text):
    for name, s in CONTRACT_DATA.items():
        (tmp_path / name).write_text(json.dumps({"pairs": [{"s": v, "psi": 0.0} for v in s]}))
    (tmp_path / "coeffs.csv").write_text("n,re,im\n0,1,0\n1,0.5,0\n")
    (tmp_path / "four_fields.csv").write_text("n,re,im\n0,1,0,7\n")
    (tmp_path / "underscore.csv").write_text("n,re,im\n0,1_0,0\n")
    (tmp_path / "text.json").write_text('{"pairs": [{"s": "1.0", "psi": true}, {"s": 0.5, "psi": 0.0}]}')
    (tmp_path / "repeated.json").write_text('{"pairs": [{"s": 1.0, "psi": 0, "s": 0.9}, '
                                            '{"s": 0.5, "psi": 0}]}')
    (tmp_path / "misspelt.json").write_text('{"pairs": [{"s": 1.0, "psi": 0, "sgima": 3}, '
                                            '{"s": 0.5, "psi": 0}]}')
    (tmp_path / "nested.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "arabic.csv").write_text("n,re,im\n0,\u0661,0\n", encoding="utf-8")
    (tmp_path / "subnormal.csv").write_text("n,re,im\n0,3e-310,0\n1,1.5e-310,0\n")
    (tmp_path / "huge_tail.csv").write_text("n,re,im\n" + "".join(f"{n},{1e200 * 0.5 ** n!r},0\n"
                                                                   for n in range(128)))
    (tmp_path / "largest.csv").write_text("n,re,im\n0,1e308,0\n1,1e308,0\n")
    (tmp_path / "inf_coeff.csv").write_text("n,re,im\n0,1,0\n1,inf,0\n")
    (tmp_path / "header_only.csv").write_text("n,re,im\n")
    env = dict(os.environ, PYTHONPATH=str(Path(szegolab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "szegolab.cli"]
                          + [a.format(tmp=tmp_path) for a in argv],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert text in proc.stdout + proc.stderr
