import numpy as np
import pytest

from szegolab import (BlowupDetected, HardyFunction, SpectralData, ValidationError,
                      compare_flows, conservation_report, integrate, l2_distance,
                      reconstruct_function, spectral_evolve, szego_rhs)

FLOW_N1 = SpectralData(np.array([0.95, 0.55]), np.array([0.3, 1.1]))


# --- exact action-angle flow -------------------------------------------------

def test_spectral_evolve_identity_at_t0():
    d = SpectralData(np.array([1.0, 0.5]), np.array([0.2, 0.4]))
    e = spectral_evolve(d, 0.0)
    assert np.array_equal(e.s, d.s) and np.array_equal(e.psi, d.psi)


def test_spectral_evolve_rates():
    d = SpectralData(np.array([1.0, 0.5]), np.zeros(2))
    e = spectral_evolve(d, 1.0)
    assert np.abs(e.psi - [1.0, 0.25]).max() < 1e-15
    assert np.array_equal(e.s, d.s)


def test_spectral_evolve_periodicity():
    d = SpectralData(np.array([np.sqrt(2.0), 1.0]), np.array([0.3, 0.9]))  # rates 2 and 1
    e = spectral_evolve(d, 2.0 * np.pi)
    assert np.abs(e.psi - d.psi).max() < 1e-12


# --- right-hand side -----------------------------------------------------------

def test_rhs_zero():
    out = szego_rhs(HardyFunction(np.zeros(8)))
    assert np.all(out.coeffs == 0)


def test_rhs_constant():
    c = 0.8 - 0.3j
    out = szego_rhs(HardyFunction(np.array([c, 0.0, 0.0])))
    assert abs(out.coeffs[0] - (-1j * abs(c) ** 2 * c)) < 1e-15
    assert np.abs(out.coeffs[1:]).max() < 1e-15


def test_rhs_single_oscillation():
    # |c z|^2 (c z) = |c|^2 c z on the circle
    c = 1.3 + 0.4j
    out = szego_rhs(HardyFunction(np.array([0.0, c, 0.0, 0.0])))
    assert abs(out.coeffs[1] - (-1j * abs(c) ** 2 * c)) < 1e-13
    assert np.abs(np.delete(out.coeffs, 1)).max() < 1e-13


def ref_rhs_dense(coeffs):
    """Dense convolution oracle for the projected cubic term."""
    m = coeffs.size
    conv2 = np.convolve(coeffs, coeffs)
    full = np.convolve(conv2, np.conj(coeffs)[::-1])
    # index of frequency 0 in 'full' is m - 1  (conv2 spans 0..2m-2, reversed conj spans -(m-1)..0)
    return -1j * full[m - 1:2 * m - 1]


def test_rhs_matches_convolution_oracle():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    got = szego_rhs(HardyFunction(c)).coeffs
    want = ref_rhs_dense(c)
    assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


# --- integrator -------------------------------------------------------------------

def test_constant_solution_order4():
    c = 1.0
    exact = lambda t: c * np.exp(-1j * abs(c) ** 2 * t)
    errs = []
    for dt in (2e-2, 1e-2):
        traj = integrate(HardyFunction(np.array([c + 0j])), 1.0, dt, 4, n_samples=2)
        errs.append(abs(traj[-1].u.coeffs[0] - exact(1.0)))
    assert errs[0] / errs[1] > 8.0  # 4th order: halving dt cuts the error ~16x
    assert errs[1] < 1e-8


def test_zero_initial_data():
    traj = integrate(HardyFunction(np.zeros(4)), 0.5, 1e-2, 4, n_samples=3)
    for state in traj:
        assert np.all(state.u.coeffs == 0)


def test_mass_conservation():
    u0 = reconstruct_function(FLOW_N1, 128)
    traj = integrate(u0, 1.0, 1e-3, 128, n_samples=3)
    mass0 = np.sum(np.abs(traj[0].u.coeffs) ** 2)
    massT = np.sum(np.abs(traj[-1].u.coeffs) ** 2)
    assert abs(massT - mass0) <= 1e-8 * mass0


def test_step_validation():
    with pytest.raises(ValidationError):
        integrate(HardyFunction(np.array([1.0])), 1.0, -1e-3, 4)
    with pytest.raises(ValidationError):
        integrate(HardyFunction(np.array([10.0])), 1.0, 1e-2, 4)  # dt |u|^2 > 0.1
    with pytest.raises(ValidationError):
        integrate(HardyFunction(np.array([1e200])), 1.0, 1e-3, 4)  # |u|^2 overflows
    for t_final, dt in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.inf), (1.0, np.nan)):
        with pytest.raises(ValidationError):
            integrate(HardyFunction(np.array([1.0])), t_final, dt, 4)
    for m in (0, -1):
        with pytest.raises(ValidationError, match="m >= 1"):
            integrate(HardyFunction(np.array([1.0])), 1.0, 0.1, m)
    # fewer than two samples would drop the endpoint and its mass check
    for n_samples in (-1, 0, 1):
        with pytest.raises(ValidationError, match="n_samples >= 2"):
            integrate(HardyFunction(np.array([1.0])), 1.0, 1e-3, 4, n_samples=n_samples)


def test_blowup_guard_trips_on_corrupted_rhs(monkeypatch):
    import szegolab.flow as flow_mod

    def bad_rhs(c):
        return 0.05 * c  # injects anti-damping: mass grows

    monkeypatch.setattr(flow_mod, "_rhs_raw", bad_rhs)
    with pytest.raises(BlowupDetected):
        flow_mod.integrate(HardyFunction(np.array([1.0 + 0j])), 10.0, 0.05, 2, n_samples=40)


def test_blowup_guard_trips_on_nan_rhs(monkeypatch):
    import szegolab.flow as flow_mod

    monkeypatch.setattr(flow_mod, "_rhs_raw", lambda c: np.full(c.size, np.nan + 0j))
    with pytest.raises(BlowupDetected):
        flow_mod.integrate(HardyFunction(np.array([1.0 + 0j])), 0.1, 0.05, 2)


# --- route comparison ----------------------------------------------------------------

def test_compare_flows_t0():
    assert compare_flows(FLOW_N1, 0.0, 1e-3, 64) < 1e-14


def test_compare_flows_rank_one():
    disc = compare_flows(FLOW_N1, 1.0, 1e-3, 64)
    assert disc <= 1e-6


def test_compare_flows_order4():
    d1 = compare_flows(FLOW_N1, 1.0, 2e-3, 64)
    d2 = compare_flows(FLOW_N1, 1.0, 1e-3, 64)
    assert d1 / d2 >= 8.0


# --- conservation report ----------------------------------------------------------------

def test_report_constant_solution():
    traj = integrate(HardyFunction(np.array([1.0 + 0j])), 1.0, 1e-2, 4, n_samples=5)
    rows = conservation_report(traj)
    for row in rows:
        assert row.mass_drift < 1e-10
        assert row.h_half_drift < 1e-10
        assert row.sv_drift_max < 1e-10


def test_report_generic_two_pairs():
    d = SpectralData(np.array([0.95, 0.35, 0.12, 0.04]), np.array([1.6, 2.8, 3.17, 3.48]))
    u0 = reconstruct_function(d, 128)
    traj = integrate(u0, 1.0, 1e-3, 128, n_samples=3)
    rows = conservation_report(traj)
    assert rows[-1].sv_drift_max <= 1e-6
    assert rows[-1].h_half_drift <= 1e-7
    assert rows[-1].rho.size == 2 and rows[-1].sigma.size == 2


def test_report_zero_solution():
    traj = integrate(HardyFunction(np.zeros(4)), 0.2, 1e-2, 4, n_samples=3)
    rows = conservation_report(traj)
    for row in rows:
        assert row.mass == 0.0 and row.sv_drift_max == 0.0


def test_l2_distance_pads():
    a = HardyFunction(np.array([1.0, 1.0]))
    b = HardyFunction(np.array([1.0]))
    assert abs(l2_distance(a, b) - 1.0) < 1e-15
