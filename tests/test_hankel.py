import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import szegolab.hankel as hankel_mod
from szegolab import (HardyFunction, InsufficientTruncation, NumericalError, SpectralData, ValidationError,
                      integrate, pair_singular_values, reconstruct_function, sobolev_norm)
from szegolab.hankel import SKETCH_WIDTH, TAU_EIG, TAU_RANK, HankelSpectrum, _hankel_rows, _merge_close

from references import (check_rank_one_identity, check_trace_identity, interlacing_ok, sum_rule_residual,
                        tail_mass)


def geometric_function(b=0.75, p=0.5, m=64):
    return HardyFunction(b * p ** np.arange(m))


# --- matrix construction ---------------------------------------------------

def test_hankel_constant_only():
    a = _hankel_rows(np.array([3.0]), 2)[:-1]
    assert np.array_equal(a, np.array([[3.0, 0.0], [0.0, 0.0]]))


def test_hankel_two_coefficients():
    a = _hankel_rows(np.array([1.0, 0.5]), 2)[:-1]
    assert np.array_equal(a, np.array([[1.0, 0.5], [0.5, 0.0]]))


def test_hankel_symmetric():
    rng = np.random.default_rng(0)
    u = HardyFunction(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    a = _hankel_rows(u.coeffs, 6)[:-1]
    assert np.array_equal(a, a.T)


def test_shifted_hankel_examples():
    assert np.array_equal(_hankel_rows(np.array([1.0, 0.5]), 1)[1:],
                          np.array([[0.5]]))
    assert np.all(_hankel_rows(np.array([2.0]), 3)[1:] == 0)


def test_shifted_equals_hankel_of_shifted_coefficients():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    u = HardyFunction(c)
    shifted = HardyFunction(c[1:])
    assert np.array_equal(_hankel_rows(u.coeffs, 4)[1:], _hankel_rows(shifted.coeffs, 4)[:-1])


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
        assert interlacing_ok(spec)


@pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-160, 1e-300])
def test_spectrum_commutes_with_scaling(scale):
    # the cut, merge and interlacing tolerances are relative and the SVD squares nothing,
    # so tiny data keeps its four values down to the bottom of the double range
    s = scale * np.array([1.0, 0.3, 0.09, 0.027])
    spec = pair_singular_values(reconstruct_function(SpectralData(s, np.zeros(4)), 128), 128)
    got = spec.merged()
    assert got.size == 4
    assert np.all(np.abs(got - s) <= 1e-9 * s)
    assert interlacing_ok(spec)


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
    h = _hankel_rows(u.coeffs, 256)
    for got, full in ((spec.rho, h[:-1]), (spec.sigma, h[1:])):
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


def chain(n_pairs, seed, m=256, ratios=(0.45, 0.7)):
    rng = np.random.default_rng(seed)
    s = np.concatenate([[1.0], np.cumprod(rng.uniform(*ratios, 2 * n_pairs - 1))])
    return reconstruct_function(SpectralData(s, rng.uniform(0, 2 * np.pi, 2 * n_pairs)), m)


def resolved_chain(n_pairs, seed, m=256):
    """chain(n_pairs, s, m) for the first s >= seed whose coefficients past m modes sum to at
    most eps times the norm of those before: a derandomized property then draws only data that
    its cut at m resolves, whatever examples the source's literals steer it to."""
    while True:
        u = chain(n_pairs, seed, 2 * m)
        a = np.abs(u.coeffs)
        if a[m:].sum() <= np.finfo(float).eps * np.hypot.reduce(a[:m]):
            return HardyFunction(u.coeffs[:m])
        seed += 1


def plateau():
    # 0.905^n cut at n = 255, |u_hat(255)| = 1.6e-12 s_1: the section's corner leaves a
    # plateau of values near that level
    return HardyFunction(0.905 ** np.arange(256.0))


def flow_states():
    return [st.u for st in integrate(chain(2, 9, 128, (0.3, 0.6)), 1.0, 1e-3, 128, n_samples=4)]


def dense_values(a):
    s = np.linalg.svd(a, compute_uv=False)
    return _merge_close(s[s > TAU_RANK * s[0]], TAU_EIG)


def spy_certificates(monkeypatch):
    """Record each certificate decision of pair_singular_values."""
    seen = []
    real = hankel_mod._certified

    def spy(s, r):
        seen.append(real(s, r))
        return seen[-1]
    monkeypatch.setattr(hankel_mod, "_certified", spy)
    return seen


@pytest.mark.parametrize("u", [chain(n, n) for n in (*range(1, 7), 10)] + [plateau()] + flow_states())
def test_certified_sketch_matches_the_dense_svd(u, monkeypatch):
    # B = H Q gives every value of the full matrices to eps * rho_1, with the same counts
    m = len(u)
    seen = spy_certificates(monkeypatch)
    spec = pair_singular_values(u, m)
    assert seen and all(seen)  # the sketch was taken
    h = _hankel_rows(u.coeffs, m)
    for got, full in ((spec.rho, h[:-1]), (spec.sigma, h[1:])):
        ref = dense_values(full)
        assert got.size == ref.size
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * spec.rho[0]


@pytest.mark.parametrize("u, k", [
    (HardyFunction(np.random.default_rng(6).standard_normal(256)
                   + 1j * np.random.default_rng(7).standard_normal(256)), 256),  # full rank
    (HardyFunction(np.eye(101)[100]), 101),                                       # z^100
    (chain(10, 10, ratios=(0.6, 0.8)), 256),  # 10 pairs not resolved at 256 modes: the
                                              # truncation level holds more values than the sketch
])
def test_failed_certificate_gives_the_dense_values(u, k, monkeypatch):
    # the residual rejects the sketch (before or in the certificate), Q is the identity, and
    # the values are those of the dense SVD of the k x k sections the coefficients occupy,
    # bit for bit
    assert k >= 2 * SKETCH_WIDTH
    seen = spy_certificates(monkeypatch)
    spec = pair_singular_values(u, 256)
    assert not any(seen)
    assert np.array_equal(spec.rho, dense_values(_hankel_rows(u.coeffs, k)[:-1]))
    assert np.array_equal(spec.sigma, dense_values(_hankel_rows(u.coeffs, k)[1:]))


def spy_sketches(monkeypatch):
    """Record the width of each sketch B = H Q, read from the residual's row chunks of B, and
    the lists each sketch returns."""
    widths, lists = [], []
    real_matmul, real_sketch = np.matmul, hankel_mod._sketched_spectra

    def matmul(a, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return real_matmul(a, *args, **kwargs)

    def sketch(h):
        lists.append(real_sketch(h))
        return lists[-1]
    monkeypatch.setattr(np, "matmul", matmul)
    monkeypatch.setattr(hankel_mod, "_sketched_spectra", sketch)
    return widths, lists


@pytest.mark.parametrize("n", range(1, 7))
def test_sketch_is_as_wide_as_the_rank(n, monkeypatch):
    # the first rows of the block of an n-pair chain have numerical rank n, so Q keeps n
    # columns, and the certified lists hold n values each
    u = chain(n, n)
    widths, lists = spy_sketches(monkeypatch)
    pair_singular_values(u, 256)
    assert set(widths) == {n}
    assert len(lists) == 1 and [s.size for s in lists[0]] == [n, n]


@pytest.mark.parametrize("u", [
    HardyFunction(np.random.default_rng(6).standard_normal(256)
                  + 1j * np.random.default_rng(7).standard_normal(256)),  # full rank
    HardyFunction(np.eye(101)[100]),                                      # z^100
])
def test_sketch_of_full_rank_rows_keeps_every_column(u, monkeypatch):
    widths, lists = spy_sketches(monkeypatch)
    pair_singular_values(u, 256)
    assert set(widths) == {SKETCH_WIDTH} and lists == [None]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 10 ** 6), lam=st.floats(1e-12, 1e3),
       theta=st.floats(0, 2 * np.pi, exclude_max=True), phi=st.floats(0, 2 * np.pi, exclude_max=True))
def test_sketch_commutes_with_scaling_phase_and_rotation(n, seed, lam, theta, phi):
    # lam e^{i theta} u_hat(n) e^{i n phi} maps H to lam e^{i theta} D H D' with D, D' diagonal
    # unitary, and the leading rows with it: the same decisions, counts and values / lam
    u = resolved_chain(n, seed)
    m = len(u)
    v = HardyFunction(lam * np.exp(1j * (theta + phi * np.arange(m))) * u.coeffs)
    runs = []
    for w in (u, v):
        with pytest.MonkeyPatch.context() as patch:
            seen = spy_certificates(patch)
            runs.append((seen, pair_singular_values(w, m)))
    (seen, base), (seen_v, got) = runs
    assert seen_v == seen
    for a, b in ((base.rho, got.rho), (base.sigma, got.sigma)):
        assert a.size == b.size
        assert np.abs(b / lam - a).max(initial=0.0) <= 1e-14 * base.rho[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 10 ** 6), t=st.floats(0, 1))
def test_power_of_two_scaling_is_exact(n, seed, t):
    # 2^k u_hat is exact while every nonzero coefficient stays normal, and so, bit for bit,
    # is the transform: rho and sigma scale by 2^k and the tail mass by 2^(2k)
    u = chain(n, seed)
    parts = np.abs(u.coeffs.view(float))
    # k keeps every nonzero coefficient part normal, and 2^k rho_1 and 2^(2k) tail mass finite;
    # k may pass 1023 where max|u_hat| < 1/2, beyond a float 2^k, so each part takes ldexp
    lo = -1021 - np.frexp(parts[parts > 0].min())[1]
    try:
        base = pair_singular_values(u, 192)
    except InsufficientTruncation:  # a slowly decaying chain: the guard trips at every scale alike
        k = int(lo + round(t * (1023 - np.frexp(parts.max())[1] - lo)))
        with pytest.raises(InsufficientTruncation):
            pair_singular_values(HardyFunction(np.ldexp(u.coeffs.view(float), k).view(complex)), 192)
        return
    hi = min(1023 - np.frexp(max(parts.max(), base.rho[0]))[1],
             (1023 - np.frexp(base.tail_mass)[1]) // 2)
    k = int(lo + round(t * (hi - lo)))
    got = pair_singular_values(HardyFunction(np.ldexp(u.coeffs.view(float), k).view(complex)), 192)
    assert np.array_equal(got.rho, np.ldexp(base.rho, k))
    assert np.array_equal(got.sigma, np.ldexp(base.sigma, k))
    assert got.tail_mass == np.ldexp(base.tail_mass, 2 * k)


def test_certificate_conditions():
    eps = np.finfo(float).eps
    # kept values move by at most ||R||^2 / (2 s_min): certified only while that is <= eps * s_0
    s = np.array([1.0, 1e-3])
    assert hankel_mod._certified(s, np.sqrt(2 * eps * 1e-3) * 0.99)
    assert not hankel_mod._certified(s, np.sqrt(2 * eps * 1e-3) * 1.01)
    # a value just below the cut may rise above it by ||R||^2: certified only if it cannot
    s = np.array([1.0, TAU_RANK * (1 - 1e-12)])
    assert hankel_mod._certified(s, 1e-14)
    assert not hankel_mod._certified(s, 1e-9)
    assert hankel_mod._certified(np.array([1.0]), 0.0)


def test_zero_block_is_not_certified():
    spec = pair_singular_values(HardyFunction(np.zeros(256)), 256)
    assert spec.rho.size == 0 and spec.sigma.size == 0
    # a zero block wide enough to sketch: B = 0 cannot be certified and Q stays the identity
    k = 2 * SKETCH_WIDTH
    lists = hankel_mod._block_spectra(np.zeros((k + 1, k), dtype=complex))
    assert [s.size for s in lists] == [k, k] and not any(s.any() for s in lists)


def test_spectra_are_deterministic_across_calls_and_threads():
    inputs = [chain(n, 20 + n) for n in range(1, 5)] + [plateau()]
    serial = [pair_singular_values(u, 256) for u in inputs]
    again = [pair_singular_values(u, 256) for u in inputs]
    results = [None] * len(inputs)
    start = threading.Barrier(len(inputs), timeout=30)

    def worker(i):
        start.wait()
        results[i] = pair_singular_values(inputs[i], 256)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for want, *others in zip(serial, again, results):
        for got in others:
            assert got.rho.tobytes() == want.rho.tobytes()
            assert got.sigma.tobytes() == want.sigma.tobytes()


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
    # the tail is summed on its own power of two, so a tail far below max |u_hat|^2 keeps its digits
    c = np.zeros(12)
    c[[0, 1, 10, 11]] = 1e150, 5e149, 1e-10, 3e-11
    assert abs(pair_singular_values(HardyFunction(c), 8).tail_mass / 1.208e-19 - 1) <= 1e-15


@pytest.mark.xfail(strict=True, reason="TAU_RANK cuts below the Weyl bound of the truncation at M modes")
def test_truncation_at_m_modes_adds_no_singular_values():
    # three rho and three sigma; u cut at M = 256 leaves |u_hat(255)| = 9.8e-8 s_1 and moves the zero
    # singular values by up to sum over n >= M of |u_hat(n)| = 2.0e-6 s_1, above TAU_RANK = 1e-6, while
    # its tail mass past M is 0: the spectrum must give the six values or trip a guard
    d = SpectralData(0.9 * 0.5 ** np.arange(6.0), np.linspace(0.3, 2.0, 6))
    u = reconstruct_function(d, 256)
    try:
        spec = pair_singular_values(u, 256)
    except NumericalError:
        return
    assert (spec.rho.size, spec.sigma.size) == (3, 3)


def test_phase_invariance():
    # the singular values are invariant under a global phase of the coefficients
    rng = np.random.default_rng(3)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    base = pair_singular_values(HardyFunction(c), 12)
    rot = pair_singular_values(HardyFunction(np.exp(0.7j) * c), 12)
    scale = max(1.0, base.rho[0] ** 2)
    assert np.abs(base.rho ** 2 - rot.rho ** 2).max() < 1e-12 * scale
    assert np.abs(base.sigma ** 2 - rot.sigma ** 2).max() < 1e-12 * scale


def merge_close_loop(vals, tau):
    out, run = [], []
    for v in vals:
        if run and run[-1] - v > tau * vals[0]:
            out.append(np.mean(run))
            run = []
        run.append(v)
    return np.array(out + [np.mean(run)] if run else out, dtype=float)


def merged_loop(rho, sigma):
    out = []
    for j in range(max(rho.size, sigma.size)):
        out += [x[j] for x in (rho, sigma) if j < x.size]
    return np.array(out, dtype=float)


TAU = 2.0 ** -20


@pytest.mark.parametrize("vals, runs", [
    ([1.0, 1 - 0.6 * TAU, 1 - 1.2 * TAU, 1 - 1.8 * TAU, 0.5], 2),  # chained: each gap <= TAU,
                                                                  # the spread > TAU
    ([1.0, 1 - TAU, 0.5], 2),                                      # a gap of exactly TAU merges
    ([1.0, 1 - TAU - 2.0 ** -52, 0.5], 3),                         # one just above it does not
    ([4.0, 3.0, 1.0, 1.0, 1.0], 3),                                # a run at the end
    ([2.5], 1),
    ([], 0),
    (np.repeat(np.linspace(1.0, 0.1, 40), np.arange(40) % 4 + 1), 40),  # ties of 1 to 4 values
])
def test_merge_close_matches_the_loop(vals, runs):
    vals = np.array(vals, dtype=float)
    got = _merge_close(vals, TAU)
    assert got.size == runs
    assert got.tobytes() == merge_close_loop(vals, TAU).tobytes()


@pytest.mark.parametrize("n_rho, n_sigma", [(0, 0), (3, 3), (4, 3), (1, 0), (2, 4)])
def test_merged_matches_the_loop(n_rho, n_sigma):
    rng = np.random.default_rng(n_rho + 10 * n_sigma)
    rho, sigma = rng.uniform(size=n_rho), rng.uniform(size=n_sigma)
    got = HankelSpectrum(rho=rho, sigma=sigma, tail_mass=0.0).merged()
    assert got.dtype == float and got.tobytes() == merged_loop(rho, sigma).tobytes()


# --- identities ---------------------------------------------------------------

def test_trace_identity_two_coefficients():
    u = HardyFunction(np.array([1.0, 0.5]))
    spec = pair_singular_values(u, 8)
    # sum rho^2 = 1 + 2 * 0.25 = 1.5
    assert abs(np.sum(spec.rho ** 2) - 1.5) < 1e-12
    assert check_trace_identity(u, spec) < 1e-12 / 1.5  # relative to the trace 1.5


def test_trace_identity_geometric():
    u = geometric_function()
    spec = pair_singular_values(u, 64)
    assert abs(sobolev_norm(u, 0.5) - 1.0) < 1e-12
    assert check_trace_identity(u, spec) < 1e-10


def test_trace_identity_zero_function():
    u = HardyFunction(np.zeros(4))
    spec = pair_singular_values(u, 4)
    assert check_trace_identity(u, spec) == 0.0
    assert spec.merged().size == 0 and interlacing_ok(spec)


def test_identities_are_the_same_at_every_scale():
    # squared unscaled, (1e200, 5e199) overflowed (a raw OverflowError and a NaN) and
    # (1e-200, 5e-201) underflowed on both sides to a 0.0 that read as a pass. Against the
    # spectrum of (1, .5), the data (1, .25) has H^(1/2) trace 1.125 against sum rho^2 = 1.5,
    # and sum (1+2n)|u_hat|^2 = 1.1875 against sum s^2 = 1.75
    for scale in (1.0, 1e200, 1e-200):
        spec = pair_singular_values(HardyFunction(scale * np.array([1.0, 0.5])), 2)
        assert check_trace_identity(HardyFunction(scale * np.array([1.0, 0.5])), spec) < 1e-15
        assert sum_rule_residual(HardyFunction(scale * np.array([1.0, 0.5])), spec) < 1e-15
        other = HardyFunction(scale * np.array([1.0, 0.25]))
        assert abs(check_trace_identity(other, spec) - 0.375 / 1.125) < 1e-15
        assert abs(sum_rule_residual(other, spec) - 0.5625 / 1.1875) < 1e-15


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
        # relative to sum (1+2n)|u_hat(n)|^2, at most twice the squared H^(1/2) norm, so this is
        # no looser than an absolute 1e-10 * max(1, ||u||^2)
        assert sum_rule_residual(u, spec) < 5e-11


def test_csv_export(tmp_path):
    spec = pair_singular_values(geometric_function(), 64)
    path = tmp_path / "spec.csv"
    spec.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,kind,value"
    assert len(lines) == 3  # one rho and one sigma
