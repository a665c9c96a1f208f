import itertools
import sys
import threading

import numpy as np
import pytest

from szegolab import (BlowupDetected, FlowState, HardyFunction, InsufficientTruncation, SpectralData,
                      ValidationError, compare_flows, conservation_report, integrate, l2_distance,
                      reconstruct_function, spectral_evolve)
from szegolab.flow import _cubic_rhs

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

def szego_rhs(u):
    """-i P(|u|^2 u) on 2M nodes for an M-mode u, from one call of the integrator's kernel."""
    rhs, _ = _cubic_rhs(len(u))
    out = np.empty(len(u), dtype=complex)
    rhs(u.coeffs, out, -1j)
    return HardyFunction(out)


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


@pytest.mark.parametrize("m", [1, 2, 7, 100, 128, 129, 300])
def test_rhs_is_bitwise_the_public_fft_route(m):
    # the kernel calls the pocketfft gufuncs behind np.fft directly; a numpy whose private
    # gufunc stops matching these public calls fails here rather than drifting
    rng = np.random.default_rng(m)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    vals = np.fft.ifft(np.concatenate((c, np.zeros(m))), norm="forward")
    want = np.fft.fft(np.conjugate(vals) * vals * vals, norm="forward")[:m] * -1j
    assert szego_rhs(HardyFunction(c)).coeffs.tobytes() == want.tobytes()


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
    # a step count past MAX_STEPS, or one that overflows to inf, is rejected before any step
    for t_final, dt in ((1.0, 5e-324), (1.0, 1e-300), (1.0, 1e-12), (1.0001, 1e-7)):
        with pytest.raises(ValidationError, match="more than MAX_STEPS"):
            integrate(HardyFunction(np.array([1.0])), t_final, dt, 4)


def pow2(a, k):
    """2^k a, exactly, for a real or complex array."""
    return np.ldexp(a.view(float), k).view(a.dtype)


@pytest.mark.parametrize("k", [-500, -1, 1, 490])
def test_integrate_is_scale_covariant(k):
    # u -> 2^k u, t -> 4^-k t maps the flow to itself; the steps run on one power-of-two scale,
    # so the samples are 2^k times the unscaled ones bit for bit, also where the unscaled
    # |u|^2 u of 2^k u leaves the double range
    u0 = HardyFunction(decaying_data(np.random.default_rng(8), 16))
    want = integrate(u0, 0.05, 1e-3, 16)
    got = integrate(HardyFunction(pow2(u0.coeffs, k)), np.ldexp(0.05, -2 * k),
                    np.ldexp(1e-3, -2 * k), 16)
    assert len(got) == len(want) == 17
    for g, w in zip(got, want):
        assert g.u.coeffs.tobytes() == pow2(w.u.coeffs, k).tobytes()
        assert (g.t, g.dt) == (np.ldexp(w.t, -2 * k), np.ldexp(w.dt, -2 * k))


def test_integrate_checks_the_coefficients_it_drops():
    # at m = 2 only (1, .5) is integrated: mass 1.25 of the 2.14 in u0
    with pytest.raises(InsufficientTruncation, match="increase m=2"):
        integrate(HardyFunction(np.array([1, .5, .25, .125, .9])), 0.1, 1e-2, 2)
    # a tail within TAIL_RTOL of the trace is cut as before
    cut = integrate(HardyFunction(np.array([1, .5, 1e-8])), 0.1, 1e-2, 2, n_samples=3)
    plain = integrate(HardyFunction(np.array([1, .5])), 0.1, 1e-2, 2, n_samples=3)
    assert [s.u.coeffs.tobytes() for s in cut] == [s.u.coeffs.tobytes() for s in plain]


def test_blowup_guard_trips_on_corrupted_rhs(monkeypatch):
    import szegolab.flow as flow_mod

    def bad_rhs(x, out, h):
        np.multiply(x, 0.05j * h, out=out)  # h = -i dt folded in: injects anti-damping, mass grows

    monkeypatch.setattr(flow_mod, "_cubic_rhs", lambda m: (bad_rhs, np.zeros(m, dtype=complex)))
    with pytest.raises(BlowupDetected):
        flow_mod.integrate(HardyFunction(np.array([1.0 + 0j])), 10.0, 0.05, 2, n_samples=40)


def test_blowup_guard_trips_on_nan_rhs(monkeypatch):
    import szegolab.flow as flow_mod

    def nan_rhs(x, out, h):
        out[:] = np.nan

    monkeypatch.setattr(flow_mod, "_cubic_rhs", lambda m: (nan_rhs, np.zeros(m, dtype=complex)))
    with pytest.raises(BlowupDetected):
        flow_mod.integrate(HardyFunction(np.array([1.0 + 0j])), 0.1, 0.05, 2)


def test_blowup_guard_names_the_step_between_samples(monkeypatch):
    import szegolab.flow as flow_mod

    real = flow_mod._cubic_rhs

    def nan_in_step_five(m):
        rhs, head = real(m)
        calls = itertools.count()

        def stub(x, out, h):
            rhs(x, out, h)
            if next(calls) == 4 * 4 + 1:  # the second stage of step 5
                out[0] = np.nan
        return stub, head

    monkeypatch.setattr(flow_mod, "_cubic_rhs", nan_in_step_five)
    with pytest.raises(BlowupDetected, match=r"to nan.* at t = 0\.05$"):
        flow_mod.integrate(HardyFunction(np.array([1.0 + 0j])), 1.0, 0.01, 2, n_samples=2)


# --- the kernel against an allocating reference ------------------------------------

def ref_integrate(c, t_final, dt):
    """Textbook allocating RK4 on the dense convolution oracle, endpoint only."""
    n_steps = int(round(t_final / dt))
    h = t_final / n_steps
    for _ in range(n_steps):
        k1 = ref_rhs_dense(c)
        k2 = ref_rhs_dense(c + 0.5 * h * k1)
        k3 = ref_rhs_dense(c + 0.5 * h * k2)
        k4 = ref_rhs_dense(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


def decaying_data(rng, m):
    n = np.arange(m)
    return 0.6 ** n * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


@pytest.mark.parametrize("m", [1, 7, 100, 128])
def test_integrate_matches_allocating_reference(m):
    u0 = HardyFunction(decaying_data(np.random.default_rng(m), m))
    before = u0.coeffs.copy()
    traj = integrate(u0, 0.2, 1e-3, m, n_samples=3)
    want = ref_integrate(u0.coeffs, 0.2, 1e-3)
    got = traj[-1].u.coeffs
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(u0.coeffs, before)
    arrays = [u0.coeffs] + [state.u.coeffs for state in traj]
    assert all(not np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_szego_rhs_is_repeatable():
    u = HardyFunction(decaying_data(np.random.default_rng(3), 100))
    a, b = szego_rhs(u).coeffs, szego_rhs(u).coeffs
    assert a.tobytes() == b.tobytes()


def test_concurrent_trajectories_match_serial():
    inputs = [HardyFunction(decaying_data(np.random.default_rng(k), 64)) for k in range(4)]
    serial = [integrate(u, 0.05, 1e-3, 64, n_samples=3) for u in inputs]
    results = [None] * len(inputs)
    start = threading.Barrier(len(inputs), timeout=30)

    def worker(i):
        start.wait()
        results[i] = integrate(inputs[i], 0.05, 1e-3, 64, n_samples=3)

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
    for got, want in zip(results, serial):
        assert [s.t for s in got] == [s.t for s in want]
        assert all(a.u.coeffs.tobytes() == b.u.coeffs.tobytes() for a, b in zip(got, want))


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


def test_report_counts_a_change_in_the_number_of_values():
    # [1, 0.5] has two singular values and [1] one: the count change reads as a full drift
    states = [FlowState(HardyFunction(np.array(c)), t, 0.5) for t, c in ((0.0, [1.0, 0.5]), (0.5, [1.0]))]
    rows = conservation_report(states)
    assert [r.t for r in rows] == [0.0, 0.5]
    assert rows[0].sv_drift_max == 0.0 and rows[1].sv_drift_max == 1.0
    assert conservation_report([]) == []


def test_report_drift_from_or_to_the_zero_function():
    # a change from or to the zero function is a drift, not 0
    zero, nonzero = np.zeros(3), np.array([1.0, 0.5, 0.25])
    for a, b in ((zero, nonzero), (nonzero, zero)):
        states = [FlowState(HardyFunction(c), t, 0.5) for t, c in ((0.0, a), (0.5, b))]
        rows = conservation_report(states)
        assert rows[0].mass_drift == rows[0].h_half_drift == rows[0].sv_drift_max == 0.0
        assert rows[1].sv_drift_max >= 1.0
        if not a.any():
            assert rows[1].mass_drift == rows[1].h_half_drift == np.inf
        else:
            assert rows[1].mass_drift == rows[1].h_half_drift == 1.0


@pytest.mark.parametrize("k", [600, -600])
def test_report_drifts_are_the_same_at_every_scale(k):
    # ||u||^2 leaves the double range at 2^+-600 times this data, ||u|| and the values do not
    traj = integrate(reconstruct_function(FLOW_N1, 32), 0.5, 2e-2, 32, n_samples=5)
    scaled = [FlowState(HardyFunction(np.ldexp(s.u.coeffs.view(float), k).view(complex)), s.t, s.dt)
              for s in traj]
    rows, rows_k = conservation_report(traj), conservation_report(scaled)
    assert rows[-1].mass_drift > 0
    drifts = lambda r: (r.mass_drift, r.h_half_drift, r.sv_drift_max)
    assert [drifts(r) for r in rows_k] == [drifts(r) for r in rows]
    assert all(r.mass == (np.inf if k > 0 else 0.0) for r in rows_k)


def test_l2_distance_pads():
    a = HardyFunction(np.array([1.0, 1.0]))
    b = HardyFunction(np.array([1.0]))
    assert abs(l2_distance(a, b) - 1.0) < 1e-15
