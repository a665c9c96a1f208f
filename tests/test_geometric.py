import time

import numpy as np
import pytest
from scipy.integrate import quad

from szegolab import (GeometricParams, NearPole, SingularTruncation, SymbolGrid, ValidationError,
                      ZeroOnContour, check_functional_equations, elliptic_check, f_gamma,
                      fhat_closed_form, geometric_spectral_data, index_profile,
                      phi_laurent_coeff, phi_symbol, poisson_gap_bound, reconstruct_point,
                      stability_scan, toeplitz_truncated, u_via_toeplitz,
                      wiener_hopf_factorize, wiener_hopf_inverse_residual, winding_index,
                      zero_gap)

GAMMA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


# --- geometric data -------------------------------------------------------

def test_geometric_data_halving():
    d = geometric_spectral_data(GeometricParams(h=np.log(2.0)), 1)
    assert np.abs(d.s - [0.5, 0.25]).max() < 1e-15
    assert np.all(d.psi == 0)


def test_geometric_data_is_omega_powers():
    p = GeometricParams(h=0.8, theta=0.6)
    d = geometric_spectral_data(p, 3)
    r = np.arange(1, 7)
    assert np.abs(d.s * np.exp(1j * d.psi) - p.omega ** r).max() < 1e-14


def test_gamma_derivation():
    p = GeometricParams(h=np.log(2.0))
    assert abs(p.gamma - 0.25) < 1e-15
    assert abs(abs(p.omega) ** 2 - p.gamma) < 1e-16


# --- the kernel ---------------------------------------------------------------

def test_kernel_zeros():
    for g in GAMMA_GRID:
        assert abs(f_gamma(g, g)) < 1e-12
        assert abs(f_gamma(g, g ** 3)) < 1e-12


def test_kernel_conjugation_symmetry():
    z = 0.62 + 0.31j
    for g in (0.2, 0.8):
        assert abs(f_gamma(g, np.conj(z)) - np.conj(f_gamma(g, z))) < 1e-13


def test_functional_equations():
    cases = [(0.25, 0.7 * np.exp(1j)), (0.5, 0.9 + 0j), (0.9, 1.4 * np.exp(0.5j))]
    for g, zeta in cases:
        r1, r2 = check_functional_equations(g, zeta)
        assert r1 <= 1e-11 and r2 <= 1e-11


def test_dual_truncation_agreement():
    # the dual-nome kernel against the pole series summed term by term to 2000 terms
    l = np.arange(2000)
    angles = np.exp(1j * np.array([0.4, 2.0, -2.9]))
    zetas = [r * e for r in (0.02, 0.3, 1.3, 5.0) for e in angles]
    zetas += [0.5 + 0.2j, 1.3 * np.exp(2j)]
    zetas += [complex(-0.5, 0.0), complex(-0.5, -0.0), -1 + 1e-12j, -1 - 1e-12j]  # both sides of the cut
    for g in (0.01, 0.09, 0.25, 0.3, 0.5, 0.9):
        for zeta in zetas:
            full = np.sum(g ** l / (1.0 - zeta * g ** (2 * l)))
            full += np.sum(g ** l[1:] / (g ** (2 * l[1:]) - zeta))
            assert abs(f_gamma(g, zeta) - full) < 1e-12


def test_kernel_matches_mpmath():
    zetas = (-1.0, np.exp(0.3j), np.exp(2.5j), 0.999 * np.exp(1j))
    for g in (0.5, 0.9, 0.99):
        for zeta in zetas + (-g,):
            want = complex(_kernel_mpmath(g, zeta))
            assert abs(f_gamma(g, zeta) - want) <= 1e-14 * abs(want)
    # gamma = 0.999: the direct sum needs 92 000 terms a side, about 7 s a point,
    # so these are _kernel_mpmath's values printed to 17 digits, at the same zeta
    pinned = {
        -1.0: 1570.0107976663125,
        -0.999: 1570.7963923102529,
        0.955336489125606 + 0.29552020666133955j: 234.61948156663959 + 1552.3812687797455j,
        -0.8011436155469337 + 0.5984721441039565j: 1489.9160992075259 + 495.05951370622187j,
        0.5397620035622717 + 0.8406295138230886j: 753.07990642088188 + 1378.5035221717867j,
    }
    for zeta, want in pinned.items():
        assert abs(f_gamma(0.999, zeta) - want) <= 1e-14 * abs(want)
    # gamma = 0.9999: 921 000 terms a side, about half a minute a point, at the same zeta
    pinned = dict(zip(pinned, (
        15707.177856696675,
        15715.037340729512,
        2347.2513253354218 + 15530.803180699106j,
        14905.870199487787 + 4952.8244283362483j,
        7534.1902412644076 + 13791.242729680274j,
    )))
    for zeta, want in pinned.items():
        assert abs(f_gamma(0.9999, zeta) - want) <= 1e-14 * abs(want)


def test_kernel_near_one_is_fast():
    # the dual-nome sums need a bounded number of terms as gamma -> 1
    t0 = time.perf_counter()
    rep = zero_gap(0.9999)
    vals = f_gamma(0.9999, 0.9995 * np.exp(2j * np.pi * np.arange(512) / 512))
    assert time.perf_counter() - t0 < 1.0
    assert np.all(np.isfinite(vals)) and rep.gap >= 0.0


def test_kernel_rejects_non_finite_zeta():
    for zeta in (np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0), np.array([0.5, np.nan])):
        with pytest.raises(ValidationError, match="zeta must be finite"):
            f_gamma(0.5, zeta)


def test_near_pole_guard():
    with pytest.raises(NearPole):
        f_gamma(0.5, 1.0 + 1e-9)
    with pytest.raises(NearPole):
        f_gamma(0.5, 0.25 * (1 + 1e-8))


def test_near_pole_guard_at_threshold():
    # zeta = gamma^(2l) (1 + d e^(i phi)) sits at relative distance d from the pole
    phases = np.exp(1j * np.array([0.3, 1.7, 2.9, -2.2]))
    for gamma in (1e-6, 0.09, 0.5, 0.9, 0.999):
        for ell in (-3, -1, 0, 1, 2, 5):
            pole = gamma ** (2 * ell)
            assert np.all(np.isfinite(f_gamma(gamma, pole * (1.0 + 1.1e-6 * phases))))
            for zz in pole * (1.0 + 0.9e-6 * phases):
                with pytest.raises(NearPole, match="relative of pole"):
                    f_gamma(gamma, zz)


# --- the symbol ------------------------------------------------------------------

def test_symbol_at_z0_is_kernel():
    p = GeometricParams(h=np.log(2.0), theta=0.3)
    zeta = 0.8 * np.exp(0.4j)
    assert abs(phi_symbol(p, 0.0, zeta) - f_gamma(p.gamma, zeta)) < 1e-14


def test_laurent_ell0():
    p = GeometricParams(h=np.log(2.0), theta=0.2)
    z = 0.7 + 0.1j
    expected = (1.0 - z * p.omega) / (1.0 - p.gamma)
    assert abs(phi_laurent_coeff(p, z, 0) - expected) < 1e-15


def test_laurent_matches_contour_quadrature():
    p = GeometricParams(h=0.6, theta=0.4)
    z, r, k = 0.9 + 0.2j, 0.8, 4096
    zeta = np.exp(2j * np.pi * np.arange(k) / k)
    vals = phi_symbol(p, z, r * zeta)
    dft = np.fft.fft(vals) / k
    freq = np.fft.fftfreq(k, 1.0 / k).astype(int)
    for ell in range(-6, 7):
        got = dft[np.nonzero(freq == ell)[0][0]]
        assert abs(got - phi_laurent_coeff(p, z, ell, r)) < 1e-10


# --- winding ---------------------------------------------------------------------

def test_winding_constant():
    assert winding_index(lambda zz: np.ones_like(zz)) == 0


def test_winding_identity_map():
    assert winding_index(lambda zz: zz) == 1


def test_winding_kernel_across_unit_circle():
    for g in GAMMA_GRID:
        assert winding_index(lambda zz: f_gamma(g, (1 - 1e-3) * zz)) == 0
        assert winding_index(lambda zz: f_gamma(g, (1 + 1e-3) * zz)) == -1


def test_winding_grid_input():
    assert winding_index(lambda zz: zz ** 2) == 2
    assert winding_index(lambda zz: zz ** 40) == 40  # 40 turns on the first 256 nodes: fine


def test_winding_rejects_bad_radius():
    for r in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValidationError, match="radius must be positive and finite"):
            winding_index(lambda zz: zz, radius=r)
    with pytest.raises(ValidationError):
        index_profile(0.5, [np.nan])


def test_winding_zero_on_contour():
    with pytest.raises(ZeroOnContour):
        winding_index(lambda zz: zz - 1.0)
    with pytest.raises(ZeroOnContour):  # a NaN sample trips the guard too
        winding_index(lambda zz: np.where(np.abs(zz - 1.0) < 1e-3, np.nan, zz))


def test_index_profile_relations():
    for g in (0.3, 0.7):
        radii = [g ** (k / 2.0) for k in (3, 1, -1)]
        prof = dict(index_profile(g, radii + [1.0 / r for r in radii] + [r * g ** 2 for r in radii]))
        for r in radii:
            assert prof[r] is not None
            assert prof[r] + prof[1.0 / r] == -1
            assert prof[r * g ** 2] == prof[r]


def test_index_profile_flags_bad_radii():
    # |zeta| = gamma passes through a kernel zero: the row is flagged, not fatal
    g = 0.5
    prof = dict(index_profile(g, [g, np.sqrt(g)]))
    assert prof[g] is None
    assert prof[np.sqrt(g)] is not None


def test_index_profile_zero_and_pole_bookkeeping():
    # index jumps across the circles: m = 1 zero on |zeta| = gamma, n = 0 zeros
    # in the open annulus, N = 0 zeros on the unit circle
    g = 0.4
    eps = 1e-3
    i_in = dict(index_profile(g, [g * (1 + eps)]))[g * (1 + eps)]
    i_out = dict(index_profile(g, [g * (1 - eps)]))[g * (1 - eps)]
    i_1m = dict(index_profile(g, [1 - eps]))[1 - eps]
    i_1p = dict(index_profile(g, [1 + eps]))[1 + eps]
    assert i_in - i_out == 1          # m = 1
    assert i_1m - i_in == 0            # n = 0
    assert i_1p - i_1m == 0 - 1        # N - 1 with N = 0 (the pole at zeta = 1)


# --- zero gap -----------------------------------------------------------------------

def test_zero_gap_certificate():
    for g in GAMMA_GRID:
        rep = zero_gap(g)
        assert rep.poisson_bound > 0
        assert rep.gap >= rep.poisson_bound - 1e-12


def _kernel_mpmath(gamma, zeta):
    """Two-sided kernel series at 40 digits, summed until gamma^|l| < 1e-40."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, z = mp.mpf(gamma), mp.mpc(zeta)
        n = int(mp.ceil(mp.log(mp.mpf("1e-40")) / mp.log(g)))
        total, gl, g2l = 1 / (1 - z), mp.mpf(1), mp.mpf(1)
        for _ in range(n):  # the terms l and -l
            gl *= g
            g2l *= g * g
            total += gl / (1 - z * g2l) + gl / (g2l - z)
        return total


def test_zero_gap_extrema_match_mpmath():
    # both extrema sit on the negative real axis: |F(-1)| and sqrt(gamma) |F(-gamma)|
    for g in (0.05, 0.25, 0.5, 0.9):
        rep = zero_gap(g)
        want_min = float(abs(_kernel_mpmath(g, -1)))
        want_max = float(abs(_kernel_mpmath(g, -g))) * np.sqrt(g)
        assert abs(rep.min_unit - want_min) <= 1e-14 * want_min
        assert abs(rep.max_inner_scaled - want_max) <= 1e-14 * want_max


def _gap_mpmath(gamma):
    """|F(-1)| k'^2 / (1 + k), with k' from its theta product at 60 digits and k = sqrt(1 - k'^2)."""
    mp = pytest.importorskip("mpmath")
    f_minus_one = abs(_kernel_mpmath(gamma, -1))
    with mp.workdps(60):
        g = mp.mpf(gamma)
        n = int(mp.ceil(mp.log(mp.mpf("1e-62")) / mp.log(g)))
        kp = mp.fprod(((1 - g ** (2 * j - 1)) / (1 + g ** (2 * j - 1))) ** 4 for j in range(1, n + 1))
        return f_minus_one * kp ** 2 / (1 + mp.sqrt(1 - kp ** 2))


def test_zero_gap_matches_mpmath_without_slack():
    for g in (0.05, 0.25, 0.5, 0.8, 0.9, 0.95):
        rep = zero_gap(g)
        want = float(_gap_mpmath(g))
        assert abs(rep.gap - want) <= 1e-13 * want
        assert rep.gap >= rep.poisson_bound
    assert zero_gap(0.99).gap >= 0.0


def test_zero_gap_extrema_dominate_an_angle_scan():
    # the scan the closed form replaced, kept as a cross-check of the sn argument
    theta = np.linspace(0.0, np.pi, 2049)[1:]
    for g in (0.05, 0.25, 0.5, 0.9):
        rep = zero_gap(g)
        unit = np.abs(f_gamma(g, np.exp(1j * theta)))
        inner = np.abs(f_gamma(g, g * np.exp(1j * theta)))
        assert unit.min() >= rep.min_unit * (1.0 - 1e-13)
        assert inner.max() <= rep.max_inner_scaled * (1.0 + 1e-13) / np.sqrt(g)


def test_poisson_bound_series():
    g = 0.5
    lg = abs(np.log(g))
    ref = 0.0
    for n in range(1, 200):
        term = (np.pi / lg) / np.cosh(np.pi ** 2 * n / lg)
        if term < 1e-18:
            break
        ref += term
    assert abs(poisson_gap_bound(g) - ref) < 1e-15


def test_poisson_bound_near_one():
    # cosh(pi^2 n / |log gamma|) is beyond float range here, so the terms must underflow to 0
    for g in (0.975, 0.99, 0.999, 1 - 1e-9):
        b = poisson_gap_bound(g)
        assert np.isfinite(b) and b >= 0.0


# --- the cosh transform ----------------------------------------------------------------

def test_fhat_at_zero():
    for g in (0.2, 0.6):
        assert abs(fhat_closed_form(g, 1.1, 0.0) - np.pi / (2 * abs(np.log(g)))) < 1e-14


def test_fhat_rejects_gamma_outside_unit_interval():
    for g in (0.0, 1.0, 1.5, -0.5, float("nan")):
        with pytest.raises(ValidationError, match="gamma must be in"):
            fhat_closed_form(g, 1.1, 0.0)
        with pytest.raises(ValidationError, match="gamma must be in"):
            poisson_gap_bound(g)


def test_fhat_even_in_xi():
    assert abs(fhat_closed_form(0.4, 2.0, 1.7) - fhat_closed_form(0.4, 2.0, -1.7)) < 1e-15


def test_fhat_matches_quadrature():
    def integrand(x, g, th, xi):
        return (abs(np.sin(th / 2)) * g ** x * (1 + g ** (2 * x))
                / (1 + g ** (4 * x) - 2 * g ** (2 * x) * np.cos(th)) * np.cos(x * xi))

    for g, th, xi in ((0.3, 1.0, 0.7), (0.6, 2.5, 1.9), (0.5, np.pi, 0.0)):
        val, _ = quad(integrand, 0, np.inf, args=(g, th, xi), limit=200)
        ref = 2.0 * val  # the integrand is even in x
        assert abs(fhat_closed_form(g, th, xi) - ref) < 1e-8


# --- truncated Toeplitz -------------------------------------------------------------------

def test_toeplitz_constant_symbol():
    a = toeplitz_truncated(1.0 * (np.arange(-3, 4) == 0), 4)
    assert np.array_equal(a, np.eye(4))


def test_toeplitz_shift_symbol():
    a = toeplitz_truncated(1.0 * (np.arange(-3, 4) == 1), 4)
    assert np.array_equal(a, np.diag(np.ones(3), -1))
    # index-1 symbol: truncations are nilpotent, hence singular
    assert np.linalg.svd(a, compute_uv=False)[-1] < 1e-13


def test_toeplitz_entries_and_length():
    c = np.arange(-4, 5) * (1.0 + 0.5j)  # c_m = m (1 + i/2), stored from m = -4
    jk = np.subtract.outer(np.arange(5), np.arange(5))
    assert np.array_equal(toeplitz_truncated(c, 5), jk * (1.0 + 0.5j))
    for bad in (c[:-1], np.append(c, 0.0), c.reshape(3, 3)):
        with pytest.raises(ValidationError, match="2N - 1 = 9"):
            toeplitz_truncated(bad, 5)


def test_geometric_toeplitz_entries():
    p = GeometricParams(h=np.log(2.0), theta=0.3)
    z, r, n = 0.5 + 0.5j, 0.9, 5
    from szegolab.geometric import _geometric_toeplitz
    t = _geometric_toeplitz(p, z, r, n)
    for j in range(n):
        for k in range(n):
            assert abs(t[j, k] - phi_laurent_coeff(p, z, k - j, r)) < 1e-14


def test_stability_constant_symbol():
    # symbol identically 1 corresponds to h -> infinity limits; emulate directly
    a = toeplitz_truncated(1.0 * (np.arange(-7, 8) == 0), 8)
    assert abs(1.0 / np.linalg.svd(a, compute_uv=False)[-1] - 1.0) < 1e-14


def test_all_zero_section_trips_the_truncation_guard():
    # at h = log 2, omega = 1/2 exactly, so z = 2 makes c_0 = 1 - z omega = 0: the 1 x 1 section is 0,
    # whose singular values pass sv[-1] >= EPS_TRUNC sv[0] as 0 >= 0
    p = GeometricParams(h=np.log(2.0))
    assert p.omega == 0.5
    with pytest.raises(SingularTruncation, match="n=1"):
        u_via_toeplitz(p, 2.0, 0.95, 1)
    with pytest.raises(SingularTruncation, match="n=1"):
        stability_scan(p, 2.0, 0.95, [1, 2])


def test_toeplitz_route_rejects_non_finite_z(capfd):
    # NaN reached the SVD (a raw LinAlgError, and LAPACK may complain on stderr), and inf
    # warned in the Laurent coefficients before the matrix was built
    for p in (GeometricParams(h=np.log(2.0)), GeometricParams(h=0.8, theta=0.6)):
        for z in (np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValidationError, match="z must be finite"):
                u_via_toeplitz(p, z, 0.95, 8)
            with pytest.raises(ValidationError, match="z must be finite"):
                stability_scan(p, z, 0.95, [4, 8])
    assert capfd.readouterr().err == ""


def test_stability_scan_plateaus():
    p = GeometricParams(h=np.log(2.0))
    scan = dict(stability_scan(p, 1.0, 0.95, [50, 100, 200]))
    assert max(scan.values()) <= 1.05 * scan[50]


# --- two routes to the same value ----------------------------------------------------------

def test_u_via_toeplitz_rank_one_matches_c_formula():
    p = GeometricParams(h=np.log(2.0), theta=0.2)
    z = 0.4 - 0.3j
    d = geometric_spectral_data(p, 1)
    u1 = u_via_toeplitz(p, z, r=0.9, n=1)
    # 1x1 closed form: u = (s1^2 - s2^2) / (s1 e^{i psi1} - z s2 e^{i psi2})
    a = d.s[0] * np.exp(1j * d.psi[0])
    b = d.s[1] * np.exp(1j * d.psi[1])
    assert abs(u1 - (d.s[0] ** 2 - d.s[1] ** 2) / (a - z * b)) < 1e-13


def test_route_equality():
    for h in (np.log(2.0), 1.0):
        for theta in (0.0, 0.5):
            p = GeometricParams(h=h, theta=theta)
            d = geometric_spectral_data(p, 12)
            for z in (0.0, 0.5, 1.0, 1j):
                u_t = u_via_toeplitz(p, z, r=0.95, n=12)
                u_c = reconstruct_point(d, z, method="neumann")
                assert abs(u_t - u_c) <= 1e-9


def test_routes_share_the_phase_at_huge_theta():
    # theta h is reduced mod 2 pi once, so omega and psi_r describe one torus point however
    # far theta h lies past 2 pi; r theta h in full overflows at theta = 1e308
    for theta in (1e300, 1e308):
        p = GeometricParams(h=0.7, theta=theta)
        d = geometric_spectral_data(p, 12)
        assert 0 <= p.phase < 2 * np.pi and np.all(d.psi == np.arange(1, 25) * p.phase)
        for z in (0.0, 0.5, 1.0, 1j):
            assert abs(u_via_toeplitz(p, z, r=0.95, n=12) - reconstruct_point(d, z, method="neumann")) <= 1e-9


def test_phase_leaves_omega_unchanged_below_two_pi():
    for h, theta in ((0.8, 0.6), (np.log(2.0), 0.2), (0.7, 8.9), (1e-3, -6000.0), (2.0, 0.0)):
        p = GeometricParams(h=h, theta=theta)
        assert p.phase == theta * h
        assert p.omega == complex(np.exp(-h * (1.0 - 1j * theta)))


def test_params_reject_a_non_finite_theta_h():
    for theta in (1e308, np.inf, np.nan):
        with pytest.raises(ValidationError, match="theta h finite"):
            GeometricParams(h=10.0, theta=theta)
    with pytest.raises(ValidationError, match="theta h finite"):
        GeometricParams(h=np.float64(10.0), theta=np.float64(1e308))


def test_u_via_toeplitz_r_independent():
    p = GeometricParams(h=0.7, theta=0.4)
    z = 0.8
    vals = [u_via_toeplitz(p, z, r=r, n=15) for r in (0.6, 0.95)]
    assert abs(vals[0] - vals[1]) <= 1e-9


def test_u_via_toeplitz_r_validation():
    p = GeometricParams(h=np.log(2.0))
    with pytest.raises(ValidationError):
        u_via_toeplitz(p, 0.0, r=0.1, n=4)  # r below gamma
    for r in (0.1, 1.0, np.nan):  # the scan shares the check
        with pytest.raises(ValidationError):
            stability_scan(p, 0.0, r, [4])


# --- Wiener-Hopf -----------------------------------------------------------------------------

def geometric_grid(h=np.log(2.0), theta=0.0, z=1.0, r=0.95, k=4096):
    p = GeometricParams(h=h, theta=theta)
    return SymbolGrid.sample(lambda zeta: phi_symbol(p, z, r * zeta), k=k)


def test_wh_constant_symbol():
    grid = SymbolGrid.sample(lambda zz: np.ones_like(zz), k=256)
    f = wiener_hopf_factorize(grid)
    assert np.abs(f.plus_values - 1.0).max() < 1e-14
    assert np.abs(f.minus_bar_values - 1.0).max() < 1e-14


def test_wh_analytic_symbol_splits_trivially():
    a = 0.6
    grid = SymbolGrid.sample(lambda zz: 1.0 - a * zz, k=512)
    f = wiener_hopf_factorize(grid)
    zeta = np.exp(2j * np.pi * np.arange(512) / 512)
    assert np.abs(f.plus_values - (1.0 - a * zeta)).max() < 1e-12
    assert np.abs(f.minus_bar_values - 1.0).max() < 1e-12
    cp = np.fft.fft(f.plus_values) / 512
    assert abs(cp[0] - 1.0) < 1e-12 and abs(cp[1] + a) < 1e-12


def test_wh_geometric_product_residual():
    grid = geometric_grid()
    f = wiener_hopf_factorize(grid)
    assert np.abs(f.plus_values * f.minus_bar_values - grid.values).max() <= 1e-9
    # plus factor really is one-sided: negative-mode leakage at noise level
    k = grid.nodes
    cp = np.fft.fft(f.plus_values) / k
    freq = np.fft.fftfreq(k, 1.0 / k).astype(int)
    assert np.abs(cp[freq < 0]).max() < 1e-10


def test_wh_inverse_interior_block():
    grid = geometric_grid()
    assert wiener_hopf_inverse_residual(grid, 256) <= 1e-6


def test_wh_inverse_size_limited_by_grid():
    grid = SymbolGrid.sample(lambda zz: np.ones_like(zz), k=256)
    assert wiener_hopf_inverse_residual(grid, 128) < 1e-14
    with pytest.raises(ValidationError):
        wiener_hopf_inverse_residual(grid, 129)


def test_wh_rejects_nonzero_index():
    from szegolab import NonzeroIndex
    grid = SymbolGrid.sample(lambda zz: zz, k=256)
    with pytest.raises(NonzeroIndex):
        wiener_hopf_factorize(grid)


def test_wh_rejects_zero_on_contour():
    grid = SymbolGrid.sample(lambda zz: zz - 1.0, k=256)
    with pytest.raises(ZeroOnContour):
        wiener_hopf_factorize(grid)
    vals = np.exp(np.exp(2j * np.pi * np.arange(256) / 256))  # e^zeta: index 0, no zeros
    vals[5] = np.nan
    with pytest.raises(ZeroOnContour):
        wiener_hopf_factorize(SymbolGrid(values=vals))


# --- doubly periodic cross-check ----------------------------------------------------------------

def test_elliptic_tau1():
    rep = elliptic_check(GeometricParams(h=np.pi / 2.0))  # gamma = e^(-pi), tau = 1
    assert abs(rep.tau - 1.0) < 1e-14
    assert rep.period_residual_1 <= 1e-9
    assert rep.period_residual_tau <= 1e-9
    assert rep.pole_coeff_residual <= 1e-4
    assert rep.zero_residual <= 1e-10


def test_elliptic_pole_coefficient_scales_quadratically():
    # Laurent-fit oracle: the residual after removing the double pole is
    # c0 w^2 + O(w^4), so shrinking |w| by 10 shrinks the residual ~100x.
    p = GeometricParams(h=np.pi / 2.0)
    gam = p.gamma

    def g(w):
        zeta = np.exp(2j * np.pi * w)
        return zeta * f_gamma(gam, zeta) ** 2

    res = {}
    for r in (1e-2, 1e-3):
        ws = r * np.exp(1j * np.linspace(0.3, 5.9, 6))
        res[r] = max(abs(w ** 2 * g(w) + 1.0 / (4 * np.pi ** 2)) for w in ws)
    ratio = res[1e-2] / res[1e-3]
    assert 50 < ratio < 200


def test_elliptic_requires_zero_theta():
    with pytest.raises(ValidationError):
        elliptic_check(GeometricParams(h=1.0, theta=0.5))


def test_symbol_grid_validation():
    with pytest.raises(ValidationError):
        SymbolGrid(values=np.ones(100))     # not a power of two >= 256
    with pytest.raises(ValidationError):
        SymbolGrid(values=np.ones(300))
