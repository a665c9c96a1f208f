import numpy as np
import pytest

from szegolab import (DomainError, FullCircleFunction, HardyFunction, InconsistentSamples,
                      NegativeCoefficients, ValidationError, besov_seminorm, circle_samples,
                      coeffs_from_disc_samples, eval_disc, sobolev_norm, szego_project,
                      weighted_first_moment)


def geometric_function(b=0.75, p=0.5, m=64):
    return HardyFunction(b * p ** np.arange(m))


# --- projection ---------------------------------------------------------

def test_project_drops_negative_modes():
    v = FullCircleFunction(np.array([1.0, 2.0, 0.0]))  # v_hat(-1)=1, v_hat(0)=2, v_hat(1)=0
    u = szego_project(v)
    assert u.coeffs[0] == 2.0
    assert np.all(u.coeffs[1:] == 0)


def test_project_identity_on_hardy_input():
    coeffs = np.array([0.0, 0.0, 0.3 + 0.1j, -1.0])
    v = FullCircleFunction(np.concatenate([np.zeros(3), coeffs]))
    u = szego_project(v)
    assert np.array_equal(u.coeffs, coeffs)


def test_project_flat_window():
    v = FullCircleFunction(np.ones(5))  # v_hat(n) = 1 for |n| <= 2
    u = szego_project(v)
    assert np.array_equal(u.coeffs, np.ones(3))


def test_project_idempotent():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v = FullCircleFunction(c)
    once = szego_project(v)
    pad = np.concatenate([np.zeros(len(once) - 1), once.coeffs])
    twice = szego_project(FullCircleFunction(pad))
    assert np.array_equal(once.coeffs, twice.coeffs)


# --- evaluation ----------------------------------------------------------

def test_eval_at_zero_returns_constant_mode():
    u = HardyFunction(np.array([2.0 + 1j, 5.0, 7.0]))
    assert eval_disc(u, 0.0) == 2.0 + 1j


def test_eval_geometric_series():
    u = geometric_function()
    assert abs(eval_disc(u, 0.5) - 1.0) < 1e-12  # 0.75 / (1 - 0.25)


def test_eval_constant_function():
    u = HardyFunction(np.array([1.0]))
    assert eval_disc(u, 0.3 + 0.4j) == 1.0


def test_eval_outside_declared_radius_rejected():
    u = HardyFunction(np.array([1.0, 1.0]), declared_radius=0.5)
    with pytest.raises(DomainError):
        eval_disc(u, 0.75)


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
        quad = np.sqrt(np.mean(np.abs(circle_samples(u, k)) ** 2))
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


# --- Besov seminorm ---------------------------------------------------------

def ref_besov(u, p):
    """Brute-force block sum with dense trig evaluation on a fat grid."""
    total = 0.0
    m = len(u)
    j = 0
    while True:
        lo, hi = (0, min(2, m)) if j == 0 else (2 ** j, min(2 ** (j + 1), m))
        if lo >= m:
            break
        k = 8 * 2 ** (j + 1) + 3  # deliberately different node count from the implementation
        theta = 2 * np.pi * np.arange(k) / k
        vals = np.zeros(k, dtype=complex)
        for n in range(lo, hi):
            vals += u.coeffs[n] * np.exp(1j * n * theta)
        total += 2.0 ** j * np.mean(np.abs(vals) ** p)
        j += 1
    return total


def test_besov_constant():
    assert abs(besov_seminorm(HardyFunction(np.array([1.0])), 2.0) - 1.0) < 1e-14


def test_besov_single_high_mode():
    u = HardyFunction(np.concatenate([np.zeros(4), [1.0]]))  # mode 4 sits in block j=2
    assert abs(besov_seminorm(u, 2.0) - 4.0) < 1e-12


def test_besov_geometric_matches_block_oracle():
    u = geometric_function()
    # p = 2: |block|^2 is a trigonometric polynomial, so both quadratures are exact
    assert abs(besov_seminorm(u, 2.0) - ref_besov(u, 2.0)) < 1e-12
    # non-even p: |block|^p has kinks at the zeros, quadrature converges algebraically
    for p in (1.0, 3.5):
        ref = ref_besov(u, p)
        assert abs(besov_seminorm(u, p) - ref) < 1e-3 * ref


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

def test_json_roundtrip(tmp_path):
    u = HardyFunction(np.array([1.0 + 2.0j, -0.25]), declared_radius=0.9)
    path = tmp_path / "u.json"
    from szegolab.fileio import dump_json
    dump_json(u.to_json_obj(), path)
    v = HardyFunction.load_json(path)
    assert np.array_equal(u.coeffs, v.coeffs)
    assert v.declared_radius == 0.9


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


def test_validation_errors():
    with pytest.raises(ValidationError):
        HardyFunction(np.array([]))
    with pytest.raises(ValidationError):
        HardyFunction(np.array([np.nan]))
    with pytest.raises(ValidationError):
        HardyFunction(np.array([1.0]), declared_radius=1.5)
    with pytest.raises(ValidationError):
        FullCircleFunction(np.ones(4))  # even length has no center
