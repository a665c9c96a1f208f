import time

import numpy as np
import pytest

from szegolab import (HardyFunction, InsufficientTruncation, SpectralData, ValidationError,
                      check_rank_one_identity, check_trace_identity, hankel_matrix,
                      pair_singular_values, reconstruct_function, shifted_hankel_matrix,
                      sobolev_norm, sum_rule_residual, tail_mass)
from szegolab.hankel import TAU_RANK


def geometric_function(b=0.75, p=0.5, m=64):
    return HardyFunction(b * p ** np.arange(m))


# --- matrix construction ---------------------------------------------------

def test_hankel_constant_only():
    a = hankel_matrix(HardyFunction(np.array([3.0])), 2)
    assert np.array_equal(a, np.array([[3.0, 0.0], [0.0, 0.0]]))


def test_hankel_two_coefficients():
    a = hankel_matrix(HardyFunction(np.array([1.0, 0.5])), 2)
    assert np.array_equal(a, np.array([[1.0, 0.5], [0.5, 0.0]]))


def test_hankel_symmetric():
    rng = np.random.default_rng(0)
    u = HardyFunction(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    a = hankel_matrix(u, 6)
    assert np.array_equal(a, a.T)


def test_shifted_hankel_examples():
    assert np.array_equal(shifted_hankel_matrix(HardyFunction(np.array([1.0, 0.5])), 1),
                          np.array([[0.5]]))
    assert np.all(shifted_hankel_matrix(HardyFunction(np.array([2.0])), 3) == 0)


def test_shifted_equals_hankel_of_shifted_coefficients():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    u = HardyFunction(c)
    shifted = HardyFunction(c[1:])
    assert np.array_equal(shifted_hankel_matrix(u, 4), hankel_matrix(shifted, 4))


# --- singular values ---------------------------------------------------------

def test_rank_one_pair():
    # rank-one data: rho = b/(1-p^2), sigma = p rho
    u = geometric_function()
    spec = pair_singular_values(u, 64)
    assert spec.rho.size == 1 and spec.sigma.size == 1
    assert abs(spec.rho[0] - 1.0) < 1e-8
    assert abs(spec.sigma[0] - 0.5) < 1e-8
    assert spec.tail_mass == 0.0


def test_two_coefficient_pair():
    # oracle: eigenvalues of the 2x2 section [[1, .5], [.5, 0]], trace 1.5, det 0.0625
    lam_plus = (1.5 + np.sqrt(2.0)) / 2.0
    lam_minus = (1.5 - np.sqrt(2.0)) / 2.0
    spec = pair_singular_values(HardyFunction(np.array([1.0, 0.5])), 8)
    assert np.abs(spec.rho - [np.sqrt(lam_plus), np.sqrt(lam_minus)]).max() < 1e-12
    assert np.abs(spec.sigma - [0.5]).max() < 1e-14


def test_constant_function_spectrum():
    spec = pair_singular_values(HardyFunction(np.array([-2.0 + 1.0j])), 4)
    assert np.abs(spec.rho - [np.sqrt(5.0)]).max() < 1e-14
    assert spec.sigma.size == 0
    assert np.array_equal(spec.merged(), spec.rho)


def test_antidiagonal_multiplicity_merges():
    u = HardyFunction(np.array([0.0, 0.0, 0.0, 1.0]))
    spec = pair_singular_values(u, 4)
    assert spec.rho.size == 1 and abs(spec.rho[0] - 1.0) < 1e-12
    assert spec.sigma.size == 1 and abs(spec.sigma[0] - 1.0) < 1e-12


def test_interlacing_random_draws():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 24))
        u = HardyFunction((rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.6 ** np.arange(m))
        spec = pair_singular_values(u, 2 * m)
        assert spec.interlacing_ok()


@pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-160, 1e-300])
def test_spectrum_commutes_with_scaling(scale):
    # the cut, merge and interlacing tolerances are relative and the SVD squares nothing,
    # so tiny data keeps its four values down to the bottom of the double range
    s = scale * np.array([1.0, 0.3, 0.09, 0.027])
    spec = pair_singular_values(reconstruct_function(SpectralData(s, np.zeros(4)), 128), 128)
    got = spec.merged()
    assert got.size == 4
    assert np.all(np.abs(got - s) <= 1e-9 * s)
    assert spec.interlacing_ok()


@pytest.mark.parametrize("r", [0.2, 0.1])
@pytest.mark.parametrize("spread", [False, True])
def test_small_values_relative_accuracy(r, spread):
    # every value, however small against s_1, comes back to 1e-12 of itself
    s = r ** np.arange(6.0)
    psi = np.linspace(0.0, 2 * np.pi, 6, endpoint=False) + 0.3 if spread else np.zeros(6)
    got = pair_singular_values(reconstruct_function(SpectralData(s, psi), 128), 128).merged()
    assert got.size == 6
    assert np.all(np.abs(got - s) <= 1e-12 * s)


@pytest.mark.parametrize("s", [0.02 ** np.arange(6.0), np.array([1.0, 0.7, 0.5, 0.36, 0.25, 0.18])])
def test_trimmed_block_matches_the_full_svd(s):
    # dropping the coefficients that sum below eps * ||u_hat|| moves no value by more than eps * s_1
    u = reconstruct_function(SpectralData(s, np.random.default_rng(5).uniform(0, 2 * np.pi, 6)), 256)
    spec = pair_singular_values(u, 256)
    for got, full in ((spec.rho, hankel_matrix(u, 256)), (spec.sigma, shifted_hankel_matrix(u, 256))):
        ref = np.linalg.svd(full, compute_uv=False)
        ref = ref[ref > TAU_RANK * ref[0]]
        assert got.size == ref.size
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * spec.rho[0]


def test_cost_follows_the_occupied_block():
    t0 = time.perf_counter()
    spec = pair_singular_values(HardyFunction(np.array([1.0, 0.5])), 2048)
    assert time.perf_counter() - t0 < 1.0
    assert np.abs(spec.rho - [(1 + np.sqrt(2)) / 2, (np.sqrt(2) - 1) / 2]).max() < 1e-14
    assert np.abs(spec.sigma - [0.5]).max() < 1e-15


def test_tail_guard():
    u = geometric_function(m=64)
    assert tail_mass(u, 64) == 0.0
    # the squared coefficients underflow at 1e-300; the guard must trip all the same
    for scale in (1.0, 1e-160, 1e-300):
        with pytest.raises(InsufficientTruncation):
            pair_singular_values(geometric_function(b=0.75 * scale, m=64), 4)
    # a size below 1 is invalid input (exit 2), not a tripped tail guard (exit 3)
    for m in (0, -3):
        with pytest.raises(ValidationError, match="must be >= 1"):
            pair_singular_values(u, m)
    with pytest.raises(ValidationError):
        tail_mass(u, -1)


def test_phase_invariance():
    # the Gram eigenvalues are invariant under a global phase of the coefficients
    rng = np.random.default_rng(3)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    base = pair_singular_values(HardyFunction(c), 12)
    rot = pair_singular_values(HardyFunction(np.exp(0.7j) * c), 12)
    scale = max(1.0, base.rho[0] ** 2)
    assert np.abs(base.rho ** 2 - rot.rho ** 2).max() < 1e-12 * scale
    assert np.abs(base.sigma ** 2 - rot.sigma ** 2).max() < 1e-12 * scale


# --- identities ---------------------------------------------------------------

def test_trace_identity_two_coefficients():
    u = HardyFunction(np.array([1.0, 0.5]))
    spec = pair_singular_values(u, 8)
    # sum rho^2 = 1 + 2 * 0.25 = 1.5
    assert abs(np.sum(spec.rho ** 2) - 1.5) < 1e-12
    assert check_trace_identity(u, spec) < 1e-12


def test_trace_identity_geometric():
    u = geometric_function()
    spec = pair_singular_values(u, 64)
    assert abs(sobolev_norm(u, 0.5) - 1.0) < 1e-12
    assert check_trace_identity(u, spec) < 1e-10


def test_trace_identity_zero_function():
    u = HardyFunction(np.zeros(4))
    spec = pair_singular_values(u, 4)
    assert check_trace_identity(u, spec) == 0.0
    assert spec.merged().size == 0 and spec.interlacing_ok()


def test_rank_one_identity_small_support():
    assert check_rank_one_identity(HardyFunction(np.array([1.0, 0.5])), 8) < 1e-14
    assert check_rank_one_identity(HardyFunction(np.zeros(3)), 8) == 0.0
    mono = HardyFunction(np.concatenate([np.zeros(3), [1.0]]))
    assert check_rank_one_identity(mono, 16) < 1e-14


def test_sum_rule():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(1, 16))
        u = HardyFunction((rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.7 ** np.arange(m))
        spec = pair_singular_values(u, 2 * m)
        assert sum_rule_residual(u, spec) < 1e-10 * max(1.0, sobolev_norm(u, 0.5) ** 2)


def test_csv_export(tmp_path):
    spec = pair_singular_values(geometric_function(), 64)
    path = tmp_path / "spec.csv"
    spec.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,kind,value"
    assert len(lines) == 3  # one rho and one sigma
