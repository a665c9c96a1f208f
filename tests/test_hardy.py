import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szegolab import HardyFunction, ValidationError, sobolev_norm
from szegolab.fileio import fmt
from szegolab.hardy import _pow2_product

from disc_extraction import InconsistentSamples, coeffs_from_disc_samples
from references import load_by_rows, weighted_first_moment


def geometric_function(b=0.75, p=0.5, m=64):
    return HardyFunction(b * p ** np.arange(m))


# --- norms ---------------------------------------------------------------

def test_sobolev_constant():
    u = HardyFunction(np.array([1.0]))
    for s in (0.0, 0.5, 2.0):
        assert sobolev_norm(u, s) == 1.0


def test_sobolev_single_mode_weight():
    u = HardyFunction(np.array([0.0, 1.0]))
    assert abs(sobolev_norm(u, 0.5) - np.sqrt(2.0)) < 1e-15


def test_sobolev_geometric_half():
    # sum (1+n) 0.5625 * 0.25^n = 1, the squared half-norm of the rank-one function
    u = geometric_function()
    assert abs(sobolev_norm(u, 0.5) - 1.0) < 1e-12


def test_sobolev_scales_without_underflow():
    # squaring first turned 1e-170 * 0.5^n into 0.0
    u = HardyFunction(0.5 ** np.arange(8))
    for s in (0.0, 0.5):
        want = sobolev_norm(u, s)
        for lam in (1e-170, 1e-300):
            assert abs(sobolev_norm(HardyFunction(lam * u.coeffs), s) / lam - want) <= 1e-15 * want
    assert sobolev_norm(HardyFunction(np.zeros(4)), 0.5) == 0.0


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(1)
    u = HardyFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    norms = [sobolev_norm(u, s) for s in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(norms) >= 0)


def test_parseval_against_circle_quadrature():
    rng = np.random.default_rng(2)
    for m in (1, 7, 64, 256):
        u = HardyFunction(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        k = 2 * m + 1
        quad = np.sqrt(np.mean(np.abs(np.fft.ifft(u.coeffs, n=k) * k) ** 2))
        assert abs(sobolev_norm(u, 0.0) - quad) < 1e-10


def test_pow2_product_past_the_double_range():
    # 2500 factors -1/2 multiply to 2^-2500, far below the double range, where one np.prod gives 0;
    # a factor 2^e adds e to the exponent without being formed
    t, k = _pow2_product(np.full((2, 2500), -0.5), 0, 1)
    assert np.array_equal(t, [0.5, 0.5]) and np.array_equal(k, [-2499, -2499])
    t, k = _pow2_product(np.array([[-3.0, 1e300], [0.0, 2.0]]), np.array([[1100, 0], [0, 5]]), 1)
    assert np.array_equal(t, [-0.75 * 1e300 / 2.0 ** 997, 0.0]) and k[0] == 1100 + 2 + 997


# --- weighted first moment -------------------------------------------------

def test_moment_geometric():
    # b p / (1-p)^2 with b = 0.75, p = 0.5
    u = geometric_function()
    assert abs(weighted_first_moment(u) - 1.5) < 1e-12


def test_moment_constant_is_zero():
    assert weighted_first_moment(HardyFunction(np.array([3.7]))) == 0.0


def test_moment_single_mode():
    assert weighted_first_moment(HardyFunction(np.array([0.0, 2.0]))) == 2.0


def test_moment_rejects_negative_and_imaginary():
    with pytest.raises(ValueError, match="coefficient 1"):
        weighted_first_moment(HardyFunction(np.array([1.0, -1e-3])))
    with pytest.raises(ValueError, match="coefficient 1"):
        weighted_first_moment(HardyFunction(np.array([1.0, 1e-3j])))
    # roundoff-level violations pass
    assert weighted_first_moment(HardyFunction(np.array([1.0, -1e-12]))) != 0.0


# --- coefficient extraction -------------------------------------------------

def test_extract_constant():
    u = coeffs_from_disc_samples(lambda z: np.ones_like(z), m=8)
    assert abs(u.coeffs[0] - 1.0) < 1e-13
    assert np.abs(u.coeffs[1:]).max() < 1e-13


def test_extract_geometric_series():
    u = coeffs_from_disc_samples(lambda z: 0.75 / (1.0 - 0.5 * z), r0=0.75, m=24)
    expected = 0.75 * 0.5 ** np.arange(24)
    assert np.abs(u.coeffs - expected).max() < 1e-12


def test_extract_monomial():
    u = coeffs_from_disc_samples(lambda z: z ** 3, m=8)
    assert abs(u.coeffs[3] - 1.0) < 1e-13
    assert np.abs(np.delete(u.coeffs, 3)).max() < 1e-13


def test_two_radius_agreement_for_entire_functions():
    rng = np.random.default_rng(3)
    coeffs = (rng.standard_normal(24) + 1j * rng.standard_normal(24)) * 0.8 ** np.arange(24)

    def f(z):
        return np.polyval(coeffs[::-1], z)

    u0 = coeffs_from_disc_samples(f, r0=0.75, m=24)
    u1 = coeffs_from_disc_samples(f, r0=0.75 * 0.9, m=24)
    assert np.abs(u0.coeffs - u1.coeffs).max() < 1e-9


def test_extract_rejects_non_holomorphic_input():
    # |z|^2 looks constant on each sampling circle but the constant moves with
    # the radius, which is exactly what the two-radius check is for
    with pytest.raises(InconsistentSamples):
        coeffs_from_disc_samples(lambda z: np.abs(z) ** 2, m=8)


def test_extract_radius_validation():
    with pytest.raises(ValidationError):
        coeffs_from_disc_samples(lambda z: np.ones_like(z), r0=1.5, m=4)


# --- serialization -----------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    u = HardyFunction(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    path = tmp_path / "u.csv"
    u.save_csv(path)
    v = HardyFunction.load_csv(path)
    assert np.array_equal(u.coeffs, v.coeffs)
    # quoted fields, and ASCII spaces around a field, which int and float strip
    for body in ('"0","1.5","0"\n', " 0 , 1.5 ,0\n"):
        path.write_text("n,re,im\n" + body)
        assert HardyFunction.load_csv(path).coeffs.tolist() == [1.5]


def test_csv_bytes_are_pinned(tmp_path):
    # header, CRLF, 17 significant digits, -0.0, the least subnormal and the largest double
    path = tmp_path / "u.csv"
    HardyFunction(np.array([complex(-0.0, 5e-324), complex(1e-05, 1.7976931348623157e308),
                            complex(0.1, -2.0)])).save_csv(path)
    assert path.read_bytes() == (b"n,re,im\r\n0,-0,4.9406564584124654e-324\r\n"
                                 b"1,1.0000000000000001e-05,1.7976931348623157e+308\r\n"
                                 b"2,0.10000000000000001,-2\r\n")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(parts=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=20))
def test_csv_lines_are_fmt_cells(tmp_path_factory, parts):
    # each coefficient line holds the cells fmt gives for n, re and im, as csv.writer would join them
    path = tmp_path_factory.getbasetemp() / "lines.csv"
    HardyFunction(np.array([complex(x, y) for x, y in parts])).save_csv(path)
    want = "".join(",".join(map(fmt, (n, x, y))) + "\r\n" for n, (x, y) in enumerate(parts))
    assert path.read_bytes().decode() == "n,re,im\r\n" + want


def test_csv_rejects_bad_indices(tmp_path):
    # a negative n, a repeated n and a gap each name the offending row
    path = tmp_path / "u.csv"
    for ns, bad in (([0, 1, 2, -1, 1], "-1"), ([0, 1, 1], "n = 1 repeated"), ([0, 2], "n = 2"),
                    ([2, 2, 5], "n = 2 repeated"), ([1, 0, 9, 1], "n = 9 outside")):
        path.write_text("n,re,im\n" + "".join(f"{n},0.5,0\n" for n in ns))
        with pytest.raises(ValidationError, match=bad):
            HardyFunction.load_csv(path)


def test_csv_rejects_bad_rows_and_bytes(tmp_path):
    path = tmp_path / "u.csv"
    # each names the first offending row, here a 4-field row before an underscore row
    for body, row in (("0,1,0,7\n", "['0', '1', '0', '7']"), ("0,1\n", "['0', '1']"), ("0,1,0\n\n", "[]"),
                      ("0,1,0,7\n1,1_0,0\n", "['0', '1', '0', '7']")):
        path.write_text("n,re,im\n" + body)
        with pytest.raises(ValidationError, match=re.escape(f"bad row {row}: need exactly 3 fields")):
            HardyFunction.load_csv(path)
    # int and float would read 1_0 as 10
    for body in ("0,1_0,0\n", "0,1,0_0\n", "0_0,1,0\n"):
        path.write_text("n,re,im\n" + body)
        with pytest.raises(ValidationError, match="underscores"):
            HardyFunction.load_csv(path)
    # int and float read non-ASCII digits (Arabic-Indic one, fullwidth two) and strip non-ASCII spaces
    for body in ("0,\u0661,0\n", "0,1,\uff12\n", "\u0660,1,0\n", "0,\u20031\u2003,0\n"):
        path.write_text("n,re,im\n" + body, encoding="utf-8")
        with pytest.raises(ValidationError, match="non-ASCII"):
            HardyFunction.load_csv(path)
    # a row that int or float rejects, or that holds a non-finite value
    for body, bad in (("0,inf,0\n", "must be finite"), ("0,1,nan\n", "must be finite"),
                      ("0x10,1,0\n", "invalid literal for int"), ("0,0x10,0\n", "could not convert"),
                      ("0,1,0\n1,1,0\n2,x,0\n3,1_0,0\n", r"\['2', 'x', '0'\]: could not convert")):
        path.write_text("n,re,im\n" + body)
        with pytest.raises(ValidationError, match=bad):
            HardyFunction.load_csv(path)
    # bad UTF-8, and a field past the csv module's size limit
    for raw in (b"n,re,im\n0,1,0\xff\n", b"n,re,im\n0," + b"1" * 200000 + b",0\n"):
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="not a valid CSV file"):
            HardyFunction.load_csv(path)


FIELDS = ["0", "1", "2", "3", "-1", "9" * 20, "1.5", "-0.0", " 2 ", "1_0", "\u0661", "inf", "0x10", "", "x"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.sampled_from(FIELDS), min_size=2, max_size=4), max_size=6))
def test_csv_reader_matches_the_row_loop(tmp_path_factory, rows):
    # the same coefficients, or the same message naming the same first offending row
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    path.write_text("n,re,im\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    outcomes = []
    for load in (HardyFunction.load_csv, load_by_rows):
        try:
            outcomes.append(load(path).coeffs.view(float).tobytes())
        except ValidationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_validation_errors():
    with pytest.raises(ValidationError):
        HardyFunction(np.array([]))
    with pytest.raises(ValidationError):
        HardyFunction(np.array([np.nan]))
    for s in (-0.5, -np.inf, np.nan):  # a NaN order fails the s >= 0 test too
        with pytest.raises(ValidationError, match="s >= 0"):
            sobolev_norm(geometric_function(), s)
