import numpy as np
import pytest

from szegolab import (HardyFunction, NegativeCoefficients, ValidationError, sobolev_norm,
                      weighted_first_moment)

from disc_extraction import InconsistentSamples, coeffs_from_disc_samples


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
    with pytest.raises(NegativeCoefficients):
        weighted_first_moment(HardyFunction(np.array([1.0, -1e-3])))
    with pytest.raises(NegativeCoefficients):
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


def test_csv_rejects_bad_indices(tmp_path):
    # a negative n, a repeated n and a gap each name the offending row
    path = tmp_path / "u.csv"
    for ns, bad in (([0, 1, 2, -1, 1], "-1"), ([0, 1, 1], "n = 1 repeated"), ([0, 2], "n = 2")):
        path.write_text("n,re,im\n" + "".join(f"{n},0.5,0\n" for n in ns))
        with pytest.raises(ValidationError, match=bad):
            HardyFunction.load_csv(path)


def test_csv_rejects_bad_rows_and_bytes(tmp_path):
    path = tmp_path / "u.csv"
    for body in ("0,1,0,7\n", "0,1\n", "0,1,0\n\n"):
        path.write_text("n,re,im\n" + body)
        with pytest.raises(ValidationError, match="exactly 3 fields"):
            HardyFunction.load_csv(path)
    # int and float would read 1_0 as 10
    for body in ("0,1_0,0\n", "0,1,0_0\n", "0_0,1,0\n"):
        path.write_text("n,re,im\n" + body)
        with pytest.raises(ValidationError, match="underscores"):
            HardyFunction.load_csv(path)
    # bad UTF-8, and a field past the csv module's size limit
    for raw in (b"n,re,im\n0,1,0\xff\n", b"n,re,im\n0," + b"1" * 200000 + b",0\n"):
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="not a valid CSV file"):
            HardyFunction.load_csv(path)


def test_validation_errors():
    with pytest.raises(ValidationError):
        HardyFunction(np.array([]))
    with pytest.raises(ValidationError):
        HardyFunction(np.array([np.nan]))
