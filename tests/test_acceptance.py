"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated
at run time.
"""

import time

import numpy as np
import pytest

from szegolab import (GeometricParams, SpectralData, SymbolGrid, a_explicit,
                      c0_inverse_sum_bound, c1_closed_form, c1_lower_bound,
                      check_functional_equations, compare_flows, conservation_report,
                      elliptic_check, f_gamma, geometric_spectral_data, integrate,
                      operator_bounds, pair_singular_values, phi_symbol,
                      reconstruct_function, reconstruct_point, stability_scan,
                      u_via_toeplitz, weighted_first_moment, wiener_hopf_factorize,
                      wiener_hopf_inverse_residual, winding_index, zero_gap)


class Gate:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed <= self.budget, f"{self.name} exceeded budget: {elapsed:.1f}s"
        return False


def draw_spectral(rng, n, ratio_lo, ratio_hi, psi_zero=False):
    s1 = rng.uniform(0.5, 1.0)
    ratios = rng.uniform(ratio_lo, ratio_hi, size=2 * n - 1)
    s = s1 * np.concatenate([[1.0], np.cumprod(ratios)])
    psi = np.zeros(2 * n) if psi_zero else rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    return SpectralData(s, psi)


def draw_resolvable(rng, n, m, ratio_lo=0.45, ratio_hi=0.8):
    """Random data whose reconstruction m truncation actually captures it.

    The direct transform's contract makes the caller responsible for a
    sufficient matrix size; with m pinned, draws whose coefficient tail
    is still visible at mode m-1 (a pole creeping toward the circle) are
    redrawn, exactly as a caller would have to reject them.
    """
    for _ in range(400):
        d = draw_spectral(rng, n, ratio_lo, ratio_hi)
        tail = abs(reconstruct_function(d, m).coeffs[-1])
        if tail <= 2e-10 * d.s[-1]:
            return d
    raise AssertionError("could not draw tail-resolvable data")


def test_criterion_1_roundtrip_fidelity():
    """50 random data sets, N in 1..6: reconstruct at M=256, recover every s_r to 1e-7."""
    with Gate("1 roundtrip fidelity", 60):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 7))
            d = draw_resolvable(rng, n, 256)
            assert np.min(1.0 - d.s[1:] / d.s[:-1]) >= 1e-3  # relative gaps well above the floor
            u = reconstruct_function(d, 256)
            spec = pair_singular_values(u, 256)
            assert spec.rho.size == n and spec.sigma.size == n
            got = np.empty(2 * n)
            got[0::2] = spec.rho
            got[1::2] = spec.sigma
            worst = max(worst, float(np.abs((got - d.s) / d.s).max()))
        print(f"[acceptance] 1: worst relative recovery error {worst:.3e}")
        assert worst <= 1e-7


def test_criterion_2_first_moment_formula():
    """20 zero-angle data sets (N <= 5): closed form == reconstruction moment to 1e-8."""
    with Gate("2 first-moment closed form", 30):
        rng = np.random.default_rng(314159)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 6))
            d = draw_spectral(rng, n, 0.40, 0.65, psi_zero=True)
            closed = c1_closed_form(d)  # raises if any summand fails positivity
            bounds = c1_lower_bound(d)
            assert bounds.corollary <= closed * (1.0 + 1e-12)
            m = 512
            while True:  # the moment needs the whole coefficient tail
                u = reconstruct_function(d, m)
                if m * abs(u.coeffs[-1]) < 1e-12 * closed or m >= (1 << 15):
                    break
                m *= 2
            moment = weighted_first_moment(u, tau_pos=1e-9 * max(1.0, float(u.coeffs.real[0])))
            worst = max(worst, abs(closed - moment) / closed)
        print(f"[acceptance] 2: worst relative moment mismatch {worst:.3e}")
        assert worst <= 1e-8


FLOW_DATA = [
    SpectralData(np.array([0.95, 0.55]), np.array([0.3, 1.1])),
    SpectralData(np.array([0.95, 0.35, 0.12, 0.04]), np.array([1.6, 2.8, 3.17, 3.48])),
]


def test_criterion_3_flow_equivalence():
    """Spectral route vs RK4 at T=1, dt=1e-3, M=128, plus the 4th-order check."""
    with Gate("3 flow equivalence", 120):
        for d in FLOW_DATA:
            disc = compare_flows(d, 1.0, 1e-3, 128)
            assert disc <= 1e-6
            disc_half = compare_flows(d, 1.0, 5e-4, 128)
            assert disc / disc_half >= 8.0
            u0 = reconstruct_function(d, 128)
            rows = conservation_report(integrate(u0, 1.0, 1e-3, 128, n_samples=5))
            assert max(r.mass_drift for r in rows) <= 1e-7
            assert max(r.h_half_drift for r in rows) <= 1e-7
            assert max(r.sv_drift_max for r in rows) <= 1e-6
            print(f"[acceptance] 3: N={d.n_pairs} discrepancy {disc:.3e}, "
                  f"dt-halving factor {disc / disc_half:.1f}")


def test_criterion_4_l1_bounds_and_uniform_boundedness():
    """Explicit l1 bounds for geometric-ratio data up to N=50; boundedness on |z|=1.1."""
    with Gate("4 l1 operator bounds", 60):
        rho = 0.1
        for delta in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            reports = {}
            for n in (5, 20, 50):
                d = SpectralData(delta ** np.arange(1, 2 * n + 1), np.zeros(2 * n))
                rep = operator_bounds(d)
                reports[n] = rep
                assert rep.l1_norm_product <= a_explicit(delta)
                assert rep.l1_norm_c0inv_sum <= c0_inverse_sum_bound(d)
            rep = reports[50]
            line = (f"[acceptance] 4: delta={delta} l1_product={rep.l1_norm_product:.4f} "
                    f"<= {a_explicit(delta):.4f}")
            if (1.0 + rho) * rep.l1_norm_product < 1.0:
                maxima = []
                for n in (10, 30, 50):
                    d = SpectralData(delta ** np.arange(1, 2 * n + 1), np.zeros(2 * n))
                    ws = (1.0 + rho) * np.exp(2j * np.pi * np.arange(64) / 64)
                    vals = [abs(reconstruct_point(d, z, method="neumann")) for z in ws]
                    maxima.append(max(vals))
                assert all(np.isfinite(maxima))
                cap = 2.0 * rep.l1_norm_c0inv_sum / (1.0 - (1.0 + rho) * rep.l1_norm_product)
                assert max(maxima) <= cap
                assert max(maxima) - min(maxima) <= 1e-6 * max(maxima)  # stable in N
                line += f" |u| on 1.1-circle {maxima[-1]:.6f} (cap {cap:.3f})"
            print(line)


def test_criterion_5_kernel_certificates():
    """Zero gap vs its closed-form bound, boundary winding indices, kernel relations."""
    with Gate("5 kernel certificates", 60):
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            rep = zero_gap(gamma)
            assert rep.poisson_bound > 0.0
            assert rep.gap >= rep.poisson_bound - 1e-12
            assert winding_index(lambda zz: f_gamma(gamma, (1.0 - 1e-3) * zz)) == 0
            assert winding_index(lambda zz: f_gamma(gamma, (1.0 + 1e-3) * zz)) == -1
            for zeta in (0.7 * np.exp(1j), 1.2 * np.exp(0.4j), np.exp(2.2j)):
                r1, r2 = check_functional_equations(gamma, zeta)
                assert r1 <= 1e-11 and r2 <= 1e-11
            # index relations at 10 radii spread over the pole/zero ladder
            radii = [gamma ** (k / 2.0) for k in (5, 4.3, 3, 2.5, 1, 0.6, -1, -1.5, -3, -3.7)]
            for r in radii:
                i_r = winding_index(lambda zz: f_gamma(gamma, r * zz))
                i_inv = winding_index(lambda zz: f_gamma(gamma, (1.0 / r) * zz))
                i_scaled = winding_index(lambda zz: f_gamma(gamma, (r * gamma ** 2) * zz))
                assert i_r + i_inv == -1
                assert i_scaled == i_r
            print(f"[acceptance] 5: gamma={gamma} gap={rep.gap:.3e} "
                  f"poisson={rep.poisson_bound:.3e}")


def test_criterion_6_route_equality_and_stability():
    """Toeplitz route equals Cauchy route to 1e-9; inverse norms plateau in N."""
    with Gate("6 Toeplitz/Cauchy routes", 120):
        worst = 0.0
        for h in (np.log(2.0), 1.0):
            for theta in (0.0, 0.5):
                p = GeometricParams(h=h, theta=theta)
                d = geometric_spectral_data(p, 20)
                for z in (0.0, 0.5, 1.0, 1j):
                    u_t = u_via_toeplitz(p, z, r=0.95, n=20)
                    u_c = reconstruct_point(d, z, method="neumann")
                    worst = max(worst, abs(u_t - u_c))
        assert worst <= 1e-9
        scan = dict(stability_scan(GeometricParams(h=np.log(2.0)), 1.0, 0.95,
                                   [50, 75, 100, 150, 200]))
        assert max(scan.values()) <= 1.05 * scan[50]
        print(f"[acceptance] 6: worst route delta {worst:.3e}, "
              f"inv-norm plateau {scan[50]:.2f} -> {scan[200]:.2f}")


def test_criterion_7_wiener_hopf():
    """Factor product to 1e-9 and interior inverse block to 1e-6."""
    with Gate("7 Wiener-Hopf", 30):
        p = GeometricParams(h=np.log(2.0), theta=0.0)
        grid = SymbolGrid.sample(lambda zeta: phi_symbol(p, 1.0, 0.95 * zeta), k=4096)
        factors = wiener_hopf_factorize(grid)
        prod_res = float(np.abs(factors.plus_values * factors.minus_bar_values - grid.values).max())
        inv_res = wiener_hopf_inverse_residual(grid, 256)
        assert prod_res <= 1e-9 and inv_res <= 1e-6
        worst_prod = worst_inv = 0.0
        rng = np.random.default_rng(7)
        for _ in range(10):
            n_in, n_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = rng.uniform(0.2, 0.7, n_in) * np.exp(2j * np.pi * rng.uniform(size=n_in))
            b = rng.uniform(0.2, 0.7, n_out) * np.exp(2j * np.pi * rng.uniform(size=n_out))

            def sym(zz, a=a, b=b):
                out = np.ones_like(zz)
                for ai in a:
                    out = out * (1.0 - ai * zz)
                for bi in b:
                    out = out * (1.0 - bi / zz)
                return out

            tgrid = SymbolGrid.sample(sym, k=1024)
            tf = wiener_hopf_factorize(tgrid)
            worst_prod = max(worst_prod, float(np.abs(
                tf.plus_values * tf.minus_bar_values - tgrid.values).max()))
            worst_inv = max(worst_inv, wiener_hopf_inverse_residual(tgrid, 64))
        assert worst_prod <= 1e-9 and worst_inv <= 1e-6
        print(f"[acceptance] 7: geometric product {prod_res:.2e} interior {inv_res:.2e}; "
              f"random polys product {worst_prod:.2e} interior {worst_inv:.2e}")


def test_criterion_8_elliptic_cross_check():
    """Double periodicity, pole coefficient and half-period zero at tau=1."""
    with Gate("8 elliptic cross-check", 10):
        rep = elliptic_check(GeometricParams(h=np.pi / 2.0))
        assert rep.period_residual_1 <= 1e-9
        assert rep.period_residual_tau <= 1e-9
        assert rep.pole_coeff_residual <= 1e-4
        assert rep.zero_residual <= 1e-10
        print(f"[acceptance] 8: periods ({rep.period_residual_1:.1e}, "
              f"{rep.period_residual_tau:.1e}) pole {rep.pole_coeff_residual:.1e} "
              f"zero {rep.zero_residual:.1e}")


def small_gap_data(n):
    """Pairs (1/j, (1/j)(1 - 0.4 j^-2)): gaps shrink like j^-2 relative."""
    j = np.arange(1, n + 1, dtype=float)
    s = np.empty(2 * n)
    s[0::2] = 1.0 / j
    s[1::2] = (1.0 / j) * (1.0 - 0.4 / j ** 2)
    return SpectralData(s, np.zeros(2 * n))


def test_criterion_9_small_gap_blowup():
    """The pairwise-gap sum grows without bound while the energy stays bounded."""
    with Gate("9 small-gap blowup", 5):
        sums = []
        energies = []
        for n in (10, 20, 40):
            d = small_gap_data(n)
            sums.append(c1_lower_bound(d).pairs_sum)
            energies.append(float(np.sum(d.s ** 2)))
        assert sums[0] < sums[1] < sums[2]
        assert sums[1] >= 2.0 * sums[0] and sums[2] >= 2.0 * sums[1]
        assert max(energies) <= 7.0
        print(f"[acceptance] 9: gap sums {sums[0]:.1f} -> {sums[1]:.1f} -> {sums[2]:.1f}, "
              f"energy <= {max(energies):.3f}")
