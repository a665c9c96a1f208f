import json
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szegolab import (AnglesNotZero, C1LowerBounds, DegenerateSpectrum, SingularMatrix, SpectralData,
                      ValidationError, a_explicit, b_delta, c0_inverse_sum_bound, c1_closed_form,
                      c1_lower_bound, cauchy_neumann_factors, operator_bounds,
                      pair_singular_values, reconstruct_function, reconstruct_point,
                      taylor_coefficients)
from szegolab import inverse as inverse_mod

from disc_extraction import coeffs_from_disc_samples
from references import (build_c_matrix, build_cdot_matrix, cauchy_factors_mpmath, cauchy_ones_solve,
                        entry_bound_table, taylor_mpmath, weighted_first_moment)

PAIR1 = SpectralData(np.array([1.0, 0.5]), np.zeros(2))


def random_data(rng, n, ratio_lo=0.5, ratio_hi=0.8, psi_zero=False):
    s1 = rng.uniform(0.5, 1.0)
    ratios = rng.uniform(ratio_lo, ratio_hi, size=2 * n - 1)
    s = s1 * np.concatenate([[1.0], np.cumprod(ratios)])
    psi = np.zeros(2 * n) if psi_zero else rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    return SpectralData(s, psi)


# --- data validation ---------------------------------------------------------

def test_data_validation():
    with pytest.raises(ValidationError, match="even"):
        SpectralData(np.array([1.0, 0.5, 0.25]), np.zeros(3))
    with pytest.raises(ValidationError, match="strict decrease violated at r=1"):
        SpectralData(np.array([0.5, 0.5]), np.zeros(2))
    # r = 2 and r = 4 both violate; the first is named
    with pytest.raises(ValidationError, match="strict decrease violated at r=2: s_2=0.9"):
        SpectralData(np.array([1.0, 0.9, 0.95, 0.2, 0.3, 0.1]), np.zeros(6))
    with pytest.raises(ValidationError, match="positive"):
        SpectralData(np.array([1.0, -0.5]), np.zeros(2))
    for m in (0, -1):
        with pytest.raises(ValidationError, match="m >= 1"):
            taylor_coefficients(PAIR1, m)
        with pytest.raises(ValidationError, match="m >= 1"):
            reconstruct_function(PAIR1, m)


def test_data_json_accepts_only_numbers(tmp_path):
    # strings and booleans are not JSON numbers, even where float() would take them
    for s0, psi0, bad in (("1.0", 0.0, "'1.0'"), (1.0, True, "True"), (10 ** 400, 0.0, "too large")):
        obj = {"pairs": [{"s": s0, "psi": psi0}, {"s": 0.5, "psi": 0.0}]}
        with pytest.raises(ValidationError, match=bad):
            SpectralData.from_json_obj(obj)
    d = SpectralData.from_json_obj({"pairs": [{"s": 2, "psi": 0}, {"s": 0.5, "psi": 1.5}]})
    assert np.array_equal(d.s, [2.0, 0.5]) and np.array_equal(d.psi, [0.0, 1.5])
    # an unknown key is named, in a pair or beside "pairs"
    for obj, key in (({"pairs": [{"s": 1.0, "psi": 0, "sgima": 3}, {"s": 0.5, "psi": 0}]}, "sgima"),
                     ({"pairs": [{"s": 1.0, "psi": 0}, {"s": 0.5, "psi": 0}], "N": 1}, "N")):
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            SpectralData.from_json_obj(obj)
    # a repeated key would keep its last copy, so the file is refused, at any depth
    path = tmp_path / "d.json"
    for text, key in (('{"pairs": [{"s": 1.0, "psi": 0, "s": 0.9}, {"s": 0.5, "psi": 0}]}', "s"),
                      ('{"pairs": [{"s": 1.0, "psi": 0}, {"s": 0.5, "psi": 0}], "pairs": []}', "pairs")):
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"duplicate key '{key}'"):
            SpectralData.load_json(path)


def test_data_json_rejects_unreadable_files(tmp_path):
    path = tmp_path / "d.json"
    for raw in (b'{"pairs": [', b'{"pairs": [\xff]}', b'{"pairs": [{"s": ' + b"1" * 5000 + b"}]}"):
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="not valid JSON"):
            SpectralData.load_json(path)


def test_data_json_roundtrip(tmp_path):
    d = SpectralData(np.array([0.9, 0.3, 0.1, 0.05]), np.array([0.0, 1.0, 2.0, 3.0]))
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"pairs": [{"s": float(a), "psi": float(b)} for a, b in zip(d.s, d.psi)]}))
    e = SpectralData.load_json(path)
    assert np.array_equal(d.s, e.s) and np.array_equal(d.psi, e.psi)


# --- the reconstruction matrix ----------------------------------------------

def test_c_matrix_rank_one():
    cm = build_c_matrix(PAIR1, 0.3)
    assert cm.shape == (1, 1)
    assert abs(cm[0, 0] - (1.0 - 0.5 * 0.3) / 0.75) < 1e-15


def test_c_matrix_at_zero():
    rng = np.random.default_rng(0)
    d = random_data(rng, 3, psi_zero=True)
    cm = build_c_matrix(d, 0.0)
    expected = d.s_odd[:, None] / (d.s_odd[:, None] ** 2 - d.s_even[None, :] ** 2)
    assert np.abs(cm - expected).max() < 1e-14 * np.abs(expected).max()


def test_c_matrix_row_phase():
    # at z = 0 only the odd angles enter, so shifting them scales the rows;
    # shifting every angle scales the whole matrix at any z
    rng = np.random.default_rng(1)
    d = random_data(rng, 2, psi_zero=True)
    alpha = 0.9
    odd_shift = SpectralData(d.s, np.where(np.arange(4) % 2 == 0, alpha, 0.0))
    a0 = build_c_matrix(d, 0.0)
    b0 = build_c_matrix(odd_shift, 0.0)
    assert np.abs(b0 - np.exp(1j * alpha) * a0).max() < 1e-14 * np.abs(a0).max()
    all_shift = SpectralData(d.s, d.psi + alpha)
    a = build_c_matrix(d, 0.4)
    b = build_c_matrix(all_shift, 0.4)
    assert np.abs(b - np.exp(1j * alpha) * a).max() < 1e-14 * np.abs(a).max()


def test_degenerate_denominator_rejected():
    # the guard runs when the data is made, so no formula ever sees a cancelling pair
    with pytest.raises(DegenerateSpectrum, match=r"\|s_1\^2 - s_2\^2\| cancels"):
        SpectralData(np.array([1.0, 1.0 - 1e-15]), np.zeros(2))
    # the squares of the second pair underflow to 0, and the guard must not read 0/0 as a pass
    with pytest.raises(DegenerateSpectrum, match=r"\|s_3\^2 - s_4\^2\| cancels"):
        SpectralData(np.array([1.0, 0.5, 1e-170, 1e-170 * (1 - 1e-15)]), np.zeros(4))
    # sigma_1 = s_2 and rho_2 = s_3 nearly coincide: an even value before an odd one
    with pytest.raises(DegenerateSpectrum, match=r"\|s_2\^2 - s_3\^2\| cancels"):
        SpectralData(np.array([1.0, 0.5, 0.5 * (1 - 1e-15), 0.1]), np.zeros(4))


def table_gap(s):
    """The N x N table of 1 - q^2 over every odd/even pair that the consecutive-ratio guard
    replaced, kept as its reference: its least value and the indices of that pair."""
    a = s[0::2][:, None]
    b = s[1::2][None, :]
    q = np.minimum(a, b) / np.maximum(a, b)
    rel = (1.0 - q) * (1.0 + q)
    j, k = np.unravel_index(int(np.argmin(rel)), rel.shape)
    return rel.min(), sorted((2 * j + 1, 2 * k + 2))


def guard_message(s):
    try:
        SpectralData(s, np.zeros(s.size))
    except DegenerateSpectrum as exc:
        return str(exc)
    return None


# 1 - q: a cancelling gap 10^-(11..16), or a ratio q anywhere in [1e-12, 1)
GAPS = st.one_of(st.integers(11, 16).map(lambda k: 10.0 ** -k), st.floats(-16, -10.5).map(lambda x: 10.0 ** x),
                 st.floats(-12, 0, exclude_max=True).map(lambda x: 1.0 - 10.0 ** x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scale=st.floats(-300, 300), gaps=st.lists(GAPS, min_size=1, max_size=15))
def test_gap_guard_matches_the_pair_table(scale, gaps):
    gaps = gaps[:(len(gaps) - 1) // 2 * 2 + 1]  # 2N - 1 ratios for 2N values
    s = 10.0 ** scale * np.cumprod([1.0] + [1.0 - g for g in gaps])
    if not (np.all(s[:-1] > s[1:]) and s[-1] > 0):
        return  # not valid spectral data, rejected before the guard runs
    least, pair = table_gap(s)
    assert (guard_message(s) is None) == (least >= inverse_mod.EPS_DEN)  # the same decision
    # above every 1 - q^2 the threshold always trips the guard, whose message then shows
    # its least value and pair: the table's
    with mock.patch.object(inverse_mod, "EPS_DEN", 2.0):
        message = guard_message(s)
    assert f"|s_{pair[0]}^2 - s_{pair[1]}^2| cancels to {least:.3e} relative" in message


def test_underflowing_squares_reconstruct_without_warnings():
    d = SpectralData(np.array([1.0, 0.5, 1e-170, 5e-171]), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = taylor_coefficients(d, 6)
    assert np.allclose(coeffs, 0.75 * 0.5 ** np.arange(6), rtol=1e-14, atol=0)


# --- point reconstruction -----------------------------------------------------

def test_point_rank_one_values():
    assert abs(reconstruct_point(PAIR1, 0.0) - 0.75) < 1e-14
    assert abs(reconstruct_point(PAIR1, 0.5) - 1.0) < 1e-14


def test_point_phase_pi_flips_sign():
    d = SpectralData(np.array([1.0, 0.5]), np.array([np.pi, 0.0]))
    assert abs(reconstruct_point(d, 0.0) + 0.75) < 1e-14


def test_point_methods_agree():
    # reference: a dense solve of C(z) x = 1
    rng = np.random.default_rng(2)
    for n in (1, 3, 5):
        d = random_data(rng, n)
        for z in (0.0, 0.4 + 0.2j, -0.7):
            dense = np.linalg.solve(build_c_matrix(d, z), np.ones(n)).sum()
            neumann = reconstruct_point(d, z, method="neumann")
            assert abs(dense - neumann) < 1e-11


def test_point_singular_matrix():
    # the rank-one reconstruction has its pole at z = s1/s2 = 2
    with pytest.raises(SingularMatrix):
        reconstruct_point(PAIR1, 2.0)


def test_point_rejects_non_finite_z(capfd):
    # NaN reached the SVD in cond (a raw LinAlgError, and LAPACK may complain on stderr),
    # and inf times a zero entry of P warned in I - z P before SingularMatrix
    phased = SpectralData(np.array([1.0, 0.5, 0.25, 0.1]), np.array([0.3, -0.2, 1.0, 0.5]))
    for d in (PAIR1, phased):
        for z in (np.nan, complex(0.0, np.nan), complex(np.nan, np.nan), np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValidationError, match="z must be finite"):
                reconstruct_point(d, z)
    assert capfd.readouterr().err == ""


def _calls(monkeypatch, name="cond"):
    """Record each call of np.linalg.<name>."""
    calls = []
    fn = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_point_values_far_out_take_no_svd(monkeypatch):
    # the two pairs of norms are about 1e308 and 1e-308 at z = -1e308 + 1e308j, so their
    # products are near 1, while ||m||_1 ||m||_inf alone overflows
    calls, solves = _calls(monkeypatch), _calls(monkeypatch, "solve")
    d = SpectralData(np.array([1.0, 0.5, 0.2, 0.05]), np.zeros(4))
    near, far = -4.2954545454545457e-200, 2.1477272727272735e-308
    assert reconstruct_point(d, 1e200) == near
    assert reconstruct_point(d, complex(-1e308, 1e308)) == complex(far, far)
    assert calls == [] and len(solves) == 2
    # the 60-digit values are -4.29545454545454545...e-200 and 2.14772727272727278...e-308 (1 + i)
    for z, u in ((1e200, near), (complex(-1e308, 1e308), complex(far, far))):
        ref = _u_mpmath(d, z, 60)
        assert abs(u - ref) <= 4 * np.finfo(float).eps * abs(ref)


def _lu_bound(m, rhs):
    """The bound of _guarded_solve, sqrt((||m||_1 ||X||_1) (||m||_inf ||X||_inf)), from the same
    solve of m [rhs | I]; NaN where the LU is singular."""
    try:
        inv = np.linalg.solve(m, np.column_stack((rhs, np.eye(m.shape[0]))))[:, 1:]
    except np.linalg.LinAlgError:
        return np.nan
    am, ai = np.abs(m), np.abs(inv)
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = am.sum(axis=0).max() * ai.sum(axis=0).max()
        return np.sqrt(k1 * (am.sum(axis=1).max() * ai.sum(axis=1).max()))


def test_point_near_a_pole_takes_the_svd(monkeypatch):
    # the pole of u nearest 0 is at 1 / lambda_1(P) = 1.2369323736...; here cond(I - z P) is
    # 1.46e7 and the LU bound 2.04e7, above sqrt(EPS_COND), so the SVD decides and passes, and
    # w is column 0 of the one solve
    d = SpectralData(np.array([1.0, 0.5, 0.2, 0.05]), np.zeros(4))
    c, p = cauchy_neumann_factors(d)
    assert 1e6 < _lu_bound(np.eye(2) - 1.2369323 * p, c) < 1e12
    calls, solves = _calls(monkeypatch), _calls(monkeypatch, "solve")
    u = reconstruct_point(d, 1.2369323)
    assert u == 3242966.8550504535
    assert len(calls) == 1 and len(solves) == 1
    # within cond * eps of the 60-digit value 3242966.854423731...
    ref = _u_mpmath(d, 1.2369323, 60)
    assert abs(u - ref) <= 1.46e7 * np.finfo(float).eps * abs(ref)


def _u_mpmath(d, z, dps):
    """u(z) = sum of C(z)^(-1) 1 by an mpmath LU solve at dps digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        a = [mp.mpf(float(v)) * mp.expj(mp.mpf(float(t))) for v, t in zip(d.s, d.psi)]
        x = [mp.mpf(float(v)) ** 2 for v in d.s]
        n, zz = d.n_pairs, mp.mpc(complex(z))
        c = mp.matrix([[(a[2 * j] - zz * a[2 * k + 1]) / (x[2 * j] - x[2 * k + 1]) for k in range(n)]
                       for j in range(n)])
        return complex(mp.fsum(mp.lu_solve(c, mp.matrix([1] * n))))


def test_point_at_the_top_of_the_double_range(capfd, monkeypatch):
    # at z = 1e308, z P or the SVD of I - z P overflows on 27 of these data sets (LAPACK prints
    # DLASCL errors on stdout for some), although each system is well conditioned once z is
    # factored out; 2^-k (I - z P) keeps its entries 2^24 below overflow
    calls = _calls(monkeypatch)
    rng = np.random.default_rng(11)
    for i in range(200):
        n = int(rng.integers(1, 21))
        s = np.concatenate([[1.0], np.cumprod(rng.uniform(0.05, 0.9, 2 * n - 1))])
        d = SpectralData(s, rng.uniform(0.0, 2.0 * np.pi, 2 * n))
        u = reconstruct_point(d, 1e308)
        if i < 20:  # forward error of the solve: eps cond(I/z - P), plus the subnormal spacing
            ref = _u_mpmath(d, 1e308, 80)
            sv = np.linalg.svd(cauchy_neumann_factors(d)[1], compute_uv=False)
            assert abs(u - ref) <= 4 * (np.finfo(float).eps * sv[0] / sv[-1] * abs(ref) + 2.0 ** -1074)
    assert calls == [] and capfd.readouterr().out == ""  # the LU proved every guard


@st.composite
def guarded_systems(draw):
    """(m, rhs): Gaussian, graded (U diag(s) V* with cond 1..1e20), permuted diagonal, or the
    identity with one dense row or column, on which ||m||_1 ||X||_1 or ||m||_inf ||X||_inf alone
    lies below cond_2(m); times a scale in 1e-150..1e150."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "graded", "diagonal", "row", "column"]))
    gauss = lambda: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))  # noqa: E731
    if kind == "gaussian":
        m = gauss()
    elif kind == "graded":
        s = 10.0 ** np.linspace(0.0, -draw(st.floats(0.0, 20.0)), n)
        m = (np.linalg.qr(gauss())[0] * s) @ np.linalg.qr(gauss())[0].conj().T
    elif kind == "diagonal":
        m = np.diag(10.0 ** rng.uniform(-draw(st.floats(0.0, 13.0)), 0.0, n))[rng.permutation(n)] + 0j
    else:
        m = np.eye(n, dtype=complex)
        m[0] += 10.0 ** draw(st.floats(0.0, 8.0)) * gauss()[0]
        if kind == "column":
            m = m.T.copy()
    m *= 10.0 ** draw(st.floats(-150.0, 150.0))
    return m, rng.standard_normal(n) + 1j * rng.standard_normal(n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(guarded_systems())
def test_guarded_solve_passes_only_what_the_svd_passes(system):
    from szegolab.geometric import EPS_TRUNC
    m, rhs = system
    n = m.shape[0]
    cond, bound = np.linalg.cond(m), _lu_bound(m, rhs)
    for ceiling in (inverse_mod.EPS_COND, 1.0 / EPS_TRUNC):
        with pytest.MonkeyPatch.context() as mp:
            calls = _calls(mp)
            try:
                x = inverse_mod._guarded_solve(m, rhs, ceiling, SingularMatrix)
            except SingularMatrix as exc:  # the SVD decided, with the cond it reports
                assert not cond <= ceiling and np.array_equal(exc.args[0], cond, equal_nan=True)
                x = None
        # the SVD runs exactly where the LU bound does not prove the guard
        assert len(calls) == (0 if bound <= np.sqrt(ceiling) else 1)
        if x is None:
            continue
        assert cond <= ceiling
        if not calls:  # equal in exact arithmetic for a permuted diagonal m; each side carries
            # rounding of about n eps cond relative
            assert cond <= bound * (1.0 + 4 * n * np.finfo(float).eps * bound)
        assert np.array_equal(x, np.linalg.solve(m, rhs))


@st.composite
def ceiling_systems(draw):
    """(m, rhs, ceiling): a near-identity, random, graded, near-singular or singular (a zero
    column) m of size 1..60, real or complex, and a ceiling in 1e4..1e13."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["near-identity", "random", "graded", "near-singular", "singular"]))
    m = rng.standard_normal((n, n))
    if draw(st.booleans()):
        m = m + 1j * rng.standard_normal((n, n))
    if kind == "near-identity":
        m = np.eye(n) + 10.0 ** draw(st.floats(-16.0, 0.0)) * m
    elif kind == "graded":  # rows and columns scaled over up to 10 decades each
        m *= 10.0 ** np.linspace(0.0, -draw(st.floats(0.0, 10.0)), n)[:, None]
        m *= 10.0 ** np.linspace(0.0, -draw(st.floats(0.0, 10.0)), n)
    elif kind == "near-singular":  # the last column a combination of the others, plus a nudge
        m[:, -1] = m[:, :-1] @ rng.standard_normal(n - 1) + 10.0 ** -draw(st.floats(0.0, 18.0)) * m[:, -1]
    elif kind == "singular":
        m[:, rng.integers(n)] = 0.0
    return m, rng.standard_normal(n), 10.0 ** draw(st.floats(4.0, 13.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ceiling_systems())
def test_guarded_solve_returns_only_within_its_ceiling(system):
    # the proof, not its mechanism: a returned x means cond_2(m) <= ceiling, and a raise means
    # cond_2(m) > ceiling (NaN included) or an LU that found m singular
    m, rhs, ceiling = system
    cond = np.linalg.cond(m)
    try:
        inverse_mod._guarded_solve(m, rhs, ceiling, SingularMatrix)
    except SingularMatrix as exc:
        assert not cond <= ceiling or isinstance(exc.__cause__, np.linalg.LinAlgError)
    else:
        assert cond <= ceiling


def test_unknown_method():
    for method in ("cramer", "dense", "auto"):
        with pytest.raises(ValidationError):
            reconstruct_point(PAIR1, 0.0, method=method)


# --- function reconstruction ---------------------------------------------------

def test_taylor_matches_the_mpmath_recursion():
    # every coefficient against the plain recursion on the closed-form c and P at 50 digits:
    # normwise within 4 eps of max|u_hat|, and within 1e-12 of the largest coefficient from it on
    # wherever that lies above 1e-12 of the peak (worst on these data: 2.73 eps and 1.6e-13,
    # and 2.73 eps and 1.8e-13 for the one-step-at-a-time loop); s -> 2^k s scales them exactly
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 30):
        d = SpectralData(np.cumprod(rng.uniform(0.3, 0.9, 2 * n)), rng.uniform(-np.pi, np.pi, 2 * n))
        got, want = taylor_coefficients(d, 300), taylor_mpmath(d, 300)
        err = np.abs(got - want)
        later = np.maximum.accumulate(np.abs(want)[::-1])[::-1]
        assert err.max() <= 4 * eps * later[0]
        kept = later >= 1e-12 * later[0]
        assert np.all(err[kept] <= 1e-12 * later[kept])
        for k in (-60, 60):
            assert np.array_equal(taylor_coefficients(SpectralData(np.ldexp(d.s, k), d.psi), 300),
                                  got * 2.0 ** k)


def test_taylor_workspace_is_of_the_result_size():
    # baby steps and giant steps hold N (a + w) numbers beside the result, a and w near sqrt(m);
    # an N x m layout would take 50 MiB here, at N = 50 pairs
    m = 2 ** 16
    d = random_data(np.random.default_rng(12), 50)
    cauchy_neumann_factors(d)  # the factors are built before the trace starts
    tracemalloc.start()
    try:
        out = taylor_coefficients(d, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == m
    assert peak < 2 * out.nbytes


def test_reconstruct_geometric_series():
    u = reconstruct_function(PAIR1, 32)
    expected = 0.75 * 0.5 ** np.arange(32)
    assert np.abs(u.coeffs - expected).max() < 1e-14


def test_series_and_samples_methods_agree():
    # reference: DFT extraction from point values on circles of radius 0.7 and 0.63
    rng = np.random.default_rng(3)
    d = random_data(rng, 3, ratio_lo=0.4, ratio_hi=0.6)
    a = reconstruct_function(d, 24)
    b = coeffs_from_disc_samples(lambda zs: [reconstruct_point(d, z) for z in zs], r0=0.7, m=24)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-9


def test_scaling_homogeneity():
    rng = np.random.default_rng(4)
    d = random_data(rng, 2)
    lam = 1.7
    scaled = SpectralData(lam * d.s, d.psi)
    a = taylor_coefficients(d, 16)
    b = taylor_coefficients(scaled, 16)
    assert np.abs(b - lam * a).max() < 1e-12 * lam


def test_zero_angles_give_nonnegative_coefficients():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        d = random_data(rng, n, psi_zero=True)
        u = reconstruct_function(d, 128)
        assert np.abs(u.coeffs.imag).max() < 1e-12
        assert u.coeffs.real.min() > -1e-9 * u.coeffs.real[0]


def test_global_phase_moves_u_by_phase():
    # shifting every psi_r by alpha multiplies C(z) by e^{i alpha}, hence the
    # reconstruction by e^{-i alpha}; |u| is pointwise invariant
    rng = np.random.default_rng(6)
    d = random_data(rng, 3)
    alpha = 1.234
    rot = SpectralData(d.s, d.psi + alpha)
    for z in (0.0, 0.3 - 0.6j, 0.8):
        u0 = reconstruct_point(d, z)
        u1 = reconstruct_point(rot, z)
        assert abs(abs(u1) - abs(u0)) < 1e-12
        assert abs(u1 - np.exp(-1j * alpha) * u0) < 1e-12


def test_roundtrip_small():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4, 6):
        d = random_data(rng, n)
        u = reconstruct_function(d, 256)
        spec = pair_singular_values(u, 256)
        assert spec.rho.size == n and spec.sigma.size == n
        got = np.empty(2 * n)
        got[0::2] = spec.rho
        got[1::2] = spec.sigma
        assert np.abs((got - d.s) / d.s).max() < 1e-7


# --- explicit Cauchy inverse ----------------------------------------------------

def test_inverse_rank_one():
    assert np.abs(PAIR1._factors.cinv - np.array([[0.75]])).max() < 1e-15


def test_inverse_is_inverse():
    rng = np.random.default_rng(8)
    for n in (2, 4, 7):
        d = random_data(rng, n)
        inv = d._factors.cinv
        c0 = build_c_matrix(d, 0.0)
        assert np.abs(c0 @ inv - np.eye(n)).max() < 1e-10


def test_inverse_matches_dense_inverse():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5, 8):
        d = random_data(rng, n)
        inv = d._factors.cinv
        dense = np.linalg.inv(build_c_matrix(d, 0.0))
        rel = np.linalg.norm(inv - dense) / np.linalg.norm(dense)
        assert rel < 1e-10


def test_inverse_survives_extreme_decay():
    n = 40
    s = 0.05 ** np.arange(1, 2 * n + 1)
    d = SpectralData(s, np.zeros(2 * n))
    inv = d._factors.cinv
    assert np.all(np.isfinite(inv))
    # row sums stay below the explicit constant bound
    assert np.abs(inv).sum() <= c0_inverse_sum_bound(d)


def test_entry_bound_table_geometric():
    for delta in (0.2, 0.5):
        n = 12
        d = SpectralData(delta ** np.arange(1, 2 * n + 1), np.zeros(2 * n))
        _, _, ok = entry_bound_table(d)
        assert np.all(ok)


# --- operator bounds --------------------------------------------------------------

def test_bounds_rank_one():
    rep = operator_bounds(PAIR1)
    # C(0)^-1 Cdot is the 1x1 matrix [sigma/rho] = [0.5]
    assert abs(rep.l1_norm_product - 0.5) < 1e-14
    assert rep.certified_radius is not None
    assert abs(rep.certified_radius - 1.0) < 1e-12


def test_bounds_below_explicit_constant():
    for delta in (0.1, 0.25, 0.4, 0.5):
        for n in (5, 25):
            d = SpectralData(delta ** np.arange(1, 2 * n + 1), np.zeros(2 * n))
            rep = operator_bounds(d)
            assert rep.l1_norm_product <= rep.bound_value
            assert rep.l1_norm_c0inv_sum <= rep.c0inv_sum_bound


def test_b_delta_and_a_explicit_values():
    # direct truncated-product oracle for the infinite product
    delta = 0.5
    ref = np.prod([(1 - delta ** (4 * m)) ** -2.0 for m in range(1, 60)])
    assert abs(b_delta(delta) - ref) < 1e-12
    assert a_explicit(delta) > 0
    # delta = 0 is the empty product; s = (1e300, 1e-300) has ratio 1e-600, which underflows to it
    assert b_delta(0.0) == 1.0 and a_explicit(0.0) == 0.0
    for bad in (-1e-300, 1.0, np.nan):
        with pytest.raises(ValidationError, match="delta must be in"):
            b_delta(bad)


def test_b_delta_stops_at_overflow():
    t0 = time.perf_counter()
    assert b_delta(1.0 - 1e-6) == np.inf
    assert time.perf_counter() - t0 < 0.5


def test_certificate_soundness():
    # certified radius => uniform boundedness on the larger circle
    n = 30
    delta = 0.1
    d = SpectralData(delta ** np.arange(1, 2 * n + 1), np.zeros(2 * n))
    rep = operator_bounds(d)
    assert rep.certified_radius is not None and rep.certified_radius > 0.1
    rho = 0.1
    cap = 2.0 * rep.l1_norm_c0inv_sum / (1.0 - (1.0 + rho) * rep.l1_norm_product)
    for w in np.exp(2j * np.pi * np.arange(64) / 64):
        val = reconstruct_point(d, (1.0 + rho) * w, method="neumann")
        assert np.isfinite(val.real) and abs(val) <= cap


def test_neumann_factors_consistency():
    rng = np.random.default_rng(10)
    d = random_data(rng, 4)
    c, p = cauchy_neumann_factors(d)
    inv = d._factors.cinv
    assert np.abs(c - inv.sum(axis=1)).max() < 1e-12
    assert np.abs(p - inv @ build_cdot_matrix(d)).max() < 1e-12


def test_factors_scale_covariant():
    # C(0) scales like 1/lambda and Cdot stays fixed, so P is scale free and c scales with s
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        d = random_data(rng, n)
        c, p = cauchy_neumann_factors(d)
        for lam in (1e-150, 1e100):
            c2, p2 = cauchy_neumann_factors(SpectralData(lam * d.s, d.psi))
            assert np.linalg.norm(c2 / lam - c) <= 1e-11 * np.linalg.norm(c)
            assert np.linalg.norm(p2 - p) <= 1e-11 * np.linalg.norm(p)


def test_factors_survive_underflowing_squares():
    # delta = 1e-3 at N = 50 takes s down to 1e-300; the squares from s_54 on underflow to 0
    delta, n = 1e-3, 50
    d = SpectralData(delta ** np.arange(1, 2 * n + 1), np.zeros(2 * n))
    c, p = cauchy_neumann_factors(d)
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(p))
    assert np.abs(p).sum(axis=0).max() <= a_explicit(delta)


def _factors_mpmath(d, dps):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        so, se = (mp.matrix([mp.mpf(float(v)) for v in a]) for a in (d.s_odd, d.s_even))
        po, pe = ([mp.expj(mp.mpf(float(v))) for v in a] for a in (d.psi_odd, d.psi_even))
        n = d.n_pairs
        den = [[so[j] ** 2 - se[k] ** 2 for k in range(n)] for j in range(n)]
        c0 = mp.matrix([[so[j] * po[j] / den[j][k] for k in range(n)] for j in range(n)])
        cdot = mp.matrix([[se[k] * pe[k] / den[j][k] for k in range(n)] for j in range(n)])
        inv = c0 ** -1
        p = inv * cdot
        c = inv * mp.matrix([1] * n)
        return (np.array([complex(c[k]) for k in range(n)]),
                np.array([[complex(p[k, l]) for l in range(n)] for k in range(n)]))


def test_factors_match_mpmath():
    rng = np.random.default_rng(12)
    n = 8
    for delta in (0.05, 0.5):
        for psi in (np.zeros(2 * n), rng.uniform(0.0, 2.0 * np.pi, size=2 * n)):
            d = SpectralData(delta ** np.arange(1, 2 * n + 1), psi)
            c, p = cauchy_neumann_factors(d)
            c_ref, p_ref = _factors_mpmath(d, 120)
            assert np.linalg.norm(c - c_ref) <= 1e-12 * np.linalg.norm(c_ref)
            assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


def test_factors_match_closed_form_across_the_double_range():
    # C(0)^(-1) per entry and P normwise against the closed form in mpmath; an entry whose true
    # value is subnormal or smaller is off by at most the subnormal spacing
    rng = np.random.default_rng(44)
    cases = [SpectralData(10.0 ** e * d.s, d.psi) for d in (random_data(rng, n, 0.2) for n in (1, 3, 5))
             for e in range(-300, 301, 100)]
    cases += [SpectralData(10.0 ** (300 - 12 * np.arange(32)), rng.uniform(0.0, 2.0 * np.pi, 32)),
              SpectralData(np.array([1e300, 1e-300]), np.array([0.3, 1.0])),
              SpectralData(np.array([1e300, 5e299]), np.zeros(2))]
    tiny = 2.0 ** -1074
    for d in cases:
        cinv_ref, p_ref = cauchy_factors_mpmath(d)
        assert np.all(np.abs(d._factors.cinv - cinv_ref) <= 1e-14 * np.abs(cinv_ref) + tiny)
        assert np.linalg.norm(d._factors.p - p_ref) <= 1e-14 * np.linalg.norm(p_ref) + d.n_pairs * tiny
    assert cases[-1]._factors.cinv[0, 0] == 7.5e299  # s_1 - s_2^2 / s_1, exactly


def test_factors_scale_by_powers_of_two_bitwise():
    # s -> 2^k s moves only the exponents of the products, so c scales exactly and P keeps its bits
    rng = np.random.default_rng(45)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        s = rng.uniform(0.5, 1.0) * np.cumprod(np.concatenate([[1.0], rng.uniform(0.05, 0.9, 2 * n - 1)]))
        psi = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
        c, p = cauchy_neumann_factors(SpectralData(s, psi))
        for k in (-900, -1, 1, 900):
            c2, p2 = cauchy_neumann_factors(SpectralData(np.ldexp(s, k), psi))
            assert np.array_equal(p2, p) and np.array_equal(c2, c * 2.0 ** k)


# --- the factorization shared by one value ------------------------------------------

def count_builds(monkeypatch):
    built = []
    real = inverse_mod._build_factors

    def counting(d):
        built.append(d)
        return real(d)

    monkeypatch.setattr(inverse_mod, "_build_factors", counting)
    return built


def test_factors_built_once_per_value(monkeypatch):
    built = count_builds(monkeypatch)
    d = random_data(np.random.default_rng(40), 6)
    operator_bounds(d)
    for w in np.exp(2j * np.pi * np.arange(32) / 32):
        reconstruct_point(d, 0.9 * w)
    taylor_coefficients(d, 16)
    entry_bound_table(d)  # reads the cached C(0) inverse
    assert len(built) == 1


def test_factors_are_read_only():
    d = random_data(np.random.default_rng(41), 4)
    c, p = cauchy_neumann_factors(d)
    c_before, p_before = c.copy(), p.copy()
    with pytest.raises(ValueError):
        c[0] = 0.0
    with pytest.raises(ValueError):
        p[0, 0] = 0.0
    c2, p2 = cauchy_neumann_factors(d)
    assert np.array_equal(c2, c_before) and np.array_equal(p2, p_before)
    inv = d._factors.cinv
    with pytest.raises(ValueError):
        inv[0, 0] = 0.0
    assert d._factors.cinv is inv


def test_separate_values_agree_bitwise():
    rng = np.random.default_rng(42)
    s = 0.9 * np.cumprod(np.concatenate([[1.0], rng.uniform(0.5, 0.8, size=9)]))
    psi = rng.uniform(0.0, 2.0 * np.pi, size=10)
    d1, d2 = SpectralData(s, psi), SpectralData(s, psi)
    for a, b in zip(cauchy_neumann_factors(d1), cauchy_neumann_factors(d2)):
        assert np.array_equal(a, b)
    assert np.array_equal(taylor_coefficients(d1, 40), taylor_coefficients(d2, 40))
    zs = 0.95 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert [reconstruct_point(d1, z) for z in zs] == [reconstruct_point(d2, z) for z in zs]


def test_concurrent_points_match_serial():
    rng = np.random.default_rng(43)
    serial_d = random_data(rng, 8)
    zs = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    serial = [reconstruct_point(serial_d, z) for z in zs]
    shared = SpectralData(serial_d.s, serial_d.psi)          # unbuilt: the threads race on first use
    results = [None] * zs.size
    start = threading.Barrier(4, timeout=30)

    def worker(i):
        start.wait()
        for k in range(i, zs.size, 4):
            results[k] = reconstruct_point(shared, zs[k])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
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
    assert results == serial


# --- first-moment formulas ----------------------------------------------------------

def test_c1_closed_form_rank_one():
    assert abs(c1_closed_form(PAIR1) - 1.5) < 1e-15


def test_c1_closed_form_matches_moment():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(1, 6))
        d = random_data(rng, n, ratio_lo=0.40, ratio_hi=0.65, psi_zero=True)
        closed = c1_closed_form(d)
        m = 512
        while True:
            u = reconstruct_function(d, m)
            tail = m * abs(u.coeffs[-1])
            if tail < 1e-12 * closed or m >= 1 << 15:
                break
            m *= 2
        moment = weighted_first_moment(u)
        assert abs(closed - moment) <= 1e-8 * closed


def test_c1_requires_zero_angles():
    d = SpectralData(np.array([1.0, 0.5]), np.array([0.1, 0.0]))
    with pytest.raises(AnglesNotZero):
        c1_closed_form(d)


def test_c1_lower_bounds_rank_one():
    bounds = c1_lower_bound(PAIR1)
    assert abs(bounds.corollary - 1.5) < 1e-15
    assert abs(bounds.pairs_sum - 1.0) < 1e-15


def test_c1_lower_bound_below_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(8):
        n = int(rng.integers(1, 6))
        d = random_data(rng, n, psi_zero=True)
        assert c1_lower_bound(d).corollary <= c1_closed_form(d) * (1 + 1e-12)


def test_c1_scales_to_the_bottom_of_the_range():
    # both bounds and the closed form are homogeneous of degree 1 in s
    s = np.array([2.0, 1.0, 0.5, 0.25])
    d = SpectralData(s, np.zeros(4))
    ref, closed = c1_lower_bound(d), c1_closed_form(d)
    assert ref == C1LowerBounds(corollary=3.75, pairs_sum=2.5) and closed > 0
    for lam in (1e-170, 1e-300):
        e = SpectralData(lam * s, np.zeros(4))
        got = c1_lower_bound(e)
        assert abs(got.corollary / lam - ref.corollary) <= 1e-14 * ref.corollary
        assert abs(got.pairs_sum / lam - ref.pairs_sum) <= 1e-14 * ref.pairs_sum
        assert abs(c1_closed_form(e) / lam - closed) <= 1e-14 * closed
    # a ratio sigma / rho of 1e-600 underflows, and neither bound may read it as 0
    wide = c1_lower_bound(SpectralData(np.array([1e300, 1e-300]), np.zeros(2)))
    assert wide == C1LowerBounds(corollary=1e-300, pairs_sum=1e-300)


def test_c1_small_gap_blowup():
    d = SpectralData(np.array([1.0, 1.0 - 1e-6]), np.zeros(2))
    bounds = c1_lower_bound(d)
    assert abs(bounds.corollary - (1.0 - 1e-6) * (2.0 - 1e-6) / 1e-6) < 1e-3 * bounds.corollary
    assert bounds.corollary > 1.9e6


# --- closed-form Cauchy solves ---------------------------------------------------------

def test_cauchy_ones_rank_one():
    x, y = cauchy_ones_solve(np.array([1.0]), np.array([0.5]))
    assert abs(x[0] - 1.5) < 1e-15 and abs(y[0] - 1.5) < 1e-15


def test_cauchy_ones_against_dense_solve():
    rng = np.random.default_rng(13)
    for _ in range(5):
        d = random_data(rng, 3, psi_zero=True)
        rho, sig = d.s_odd, d.s_even
        x, y = cauchy_ones_solve(rho, sig)
        c = 1.0 / (rho[:, None] + sig[None, :])
        assert np.abs(c @ x - 1.0).max() < 1e-10
        assert np.abs(c.T @ y - 1.0).max() < 1e-10


def test_cauchy_ones_defining_equations():
    rng = np.random.default_rng(14)
    d = random_data(rng, 4, psi_zero=True)
    rho, sig = d.s_odd, d.s_even
    x, _ = cauchy_ones_solve(rho, sig)
    for j in range(4):
        assert abs(np.sum(x / (rho[j] + sig)) - 1.0) < 1e-10


@pytest.mark.parametrize("n, delta", [(20, 0.1), (40, 0.5), (60, 0.6), (50, 0.9)])
def test_cauchy_ones_match_mpmath_on_geometric_data(n, delta):
    # apart, prod (rho + sigma_k) and prod (sigma_k - sigma_l) both scale like s^N and underflow
    mp = pytest.importorskip("mpmath")
    s = delta ** np.arange(1, 2 * n + 1)
    rho, sig = s[0::2], s[1::2]
    x, y = cauchy_ones_solve(rho, sig)
    with mp.workdps(400):
        r, q = [mp.mpf(v) for v in rho], [mp.mpf(v) for v in sig]
        for k in range(n):
            want_x = mp.fprod(rl + q[k] for rl in r) / mp.fprod(q[k] - q[l] for l in range(n) if l != k)
            want_y = mp.fprod(r[k] + ql for ql in q) / mp.fprod(r[k] - r[l] for l in range(n) if l != k)
            assert abs(x[k] - want_x) <= 1e-14 * abs(want_x)
            assert abs(y[k] - want_y) <= 1e-14 * abs(want_y)


def test_cauchy_ones_needs_interlacing():
    with pytest.raises(DegenerateSpectrum):
        cauchy_ones_solve(np.array([1.0, 0.3]), np.array([0.2, 0.1]))
