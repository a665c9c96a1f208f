"""Tests of the benchmark itself: its references, its checks and its tracer.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import szegolab  # noqa: E402
import szegolab.cli  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from run import tail_index  # noqa: E402
from tracing import Tracer  # noqa: E402

S1 = np.array([0.9, 0.4])
PSI1 = np.array([0.3, 1.2])


def one_pair(s, psi):
    """N = 1: u(z) = a / (1 - q z), a = (s1^2 - s2^2) e^(-i psi1) / s1, q = (s2/s1) e^(i(psi2 - psi1))."""
    a = (s[0] ** 2 - s[1] ** 2) / s[0] * np.exp(-1j * psi[0])
    q = s[1] / s[0] * np.exp(1j * (psi[1] - psi[0]))
    return a, q


def test_references_on_the_one_pair_closed_form():
    a, q = one_pair(S1, PSI1)
    n = np.arange(40)
    assert np.allclose(ref.taylor_dense(S1, PSI1, 40), a * q ** n, rtol=1e-13, atol=0)
    for z in (0.5 * np.exp(1j), -0.3, 0.8j):
        assert abs(ref.u_mpmath(S1, PSI1, z) - a / (1 - q * z)) <= 1e-15
    assert ref.mass_closed_form(S1) == pytest.approx(abs(a) ** 2 / (1 - abs(q) ** 2), rel=1e-14)
    assert ref.h_half_closed_form(S1) == pytest.approx(abs(a) ** 2 / (1 - abs(q) ** 2) ** 2, rel=1e-14)


def test_evolved_angles_solve_the_cubic_szego_equation():
    """d/dt u_hat = -i P(|u|^2 u) for the one-pair closed form with angles psi + t s^2."""
    m, k, t, h = 96, 512, 0.37, 1e-5

    def coeffs(time):
        a, q = one_pair(S1, ref.evolve_angles(S1, PSI1, time))
        return a * q ** np.arange(m)

    du = (coeffs(t + h) - coeffs(t - h)) / (2 * h)
    vals = np.fft.ifft(coeffs(t), n=k) * k
    rhs = -1j * (np.fft.fft(vals * vals * np.conj(vals)) / k)[:m]
    assert np.abs(du - rhs).max() <= 1e-8


def run_roundtrip(tmp_path, entry):
    pool = {"moderate": [entry]}
    wl.roundtrip_prepare(pool, tmp_path)
    out = wl.roundtrip_item(szegolab, entry, 0)
    return wl.read_spectrum(out["spectrum"]), out


def test_roundtrip_check_rejects_one_value_off_by_a_millionth(tmp_path):
    entry = wl.roundtrip_inputs(3)["moderate"][0]
    got, out = run_roundtrip(tmp_path, entry)
    assert wl.roundtrip_check(entry, None, out).ok
    for r in range(got.size):
        bad = got.copy()
        bad[r] *= 1 + 1e-6
        assert not wl.check_spectrum(entry["s"], bad).ok
    assert not wl.check_spectrum(entry["s"], got[:-2]).ok


def test_rapid_decay_item_fails_on_the_gram_cut(tmp_path):
    entry = wl.roundtrip_inputs(0)["rapid"][0]
    got, out = run_roundtrip(tmp_path, entry)
    outcome = wl.roundtrip_check(entry, None, out)
    assert not outcome.ok and got.size < entry["s"].size


def test_flow_check_rejects_a_time_reversed_trajectory():
    """conj(u(-t)) solves the same equation, so conj-integrate-conj runs time backwards.

    That trajectory keeps mass, H^(1/2) and the spectrum; only u(T) tells it apart.
    """
    entry = wl.flow_inputs(5)["flow"][1]
    refs = wl.flow_references(entry)
    out = wl.flow_item(szegolab, entry, 0)
    assert wl.check_flow(entry, refs, out).ok

    d = szegolab.SpectralData(entry["s"], entry["psi"])
    u0 = szegolab.reconstruct_function(d, wl.FLOW_MODES)
    traj = szegolab.integrate(szegolab.HardyFunction(np.conj(u0.coeffs)), wl.FLOW_T, wl.FLOW_DT,
                              wl.FLOW_MODES, n_samples=wl.FLOW_SAMPLES)
    rows = szegolab.conservation_report(traj)
    backwards = {"rows": [(r.t, r.mass, r.h_half_norm, r.rho, r.sigma) for r in rows],
                 "final": np.conj(traj[-1].u.coeffs), "t_final": traj[-1].t}
    outcome = wl.check_flow(entry, refs, backwards)
    assert not outcome.ok and outcome.reason.startswith("u(T)")


def test_certify_check_passes_and_rejects_a_perturbed_value():
    entry = wl.certify_inputs(7)["certify"][0]
    refs = wl.certify_references(entry)
    out = wl.certify_item(szegolab, entry, 0)
    assert wl.check_certify(entry, refs, out).ok
    bad = dict(out, u_circle=out["u_circle"] * (1 + 1e-6))
    assert not wl.check_certify(entry, refs, bad).ok
    assert not wl.check_certify(entry, refs, dict(out, winding=(-1, -1))).ok


def test_explicit_cap_needs_the_certificate():
    with pytest.raises(ValueError):
        ref.neumann_cap(0.3, 0.3, 1.1)
    assert ref.neumann_cap(0.1, 0.1, 1.1) > 0


def test_tracer_records_nested_spans_and_restores_the_program():
    original = szegolab.hankel.pair_singular_values
    tracer = Tracer(szegolab)
    tracer.install()
    try:
        assert szegolab.flow.pair_singular_values is not original
        assert szegolab.pair_singular_values is not original
        d = szegolab.SpectralData(S1, PSI1)
        tracer.run_item(0, lambda: szegolab.inverse.reconstruct_function(d, 16))
    finally:
        tracer.uninstall()
    assert szegolab.flow.pair_singular_values is original
    assert szegolab.pair_singular_values is original
    tot = tracer.totals()
    assert tot["inverse.reconstruct_function"]["calls"] == 1
    assert tot["inverse.taylor_coefficients"]["calls"] == 1
    assert tot["inverse.cauchy_neumann_factors"]["calls"] == 1
    names = tracer.names
    by_name = {names[s[0]]: s for s in tracer.spans}
    parent = tracer.spans[by_name["inverse.taylor_coefficients"][3]]
    assert names[parent[0]] == "inverse.reconstruct_function"
    total_self = sum(v["self_s"] for v in tot.values())
    assert total_self == pytest.approx(tot["item"]["incl_s"], rel=1e-9)


def test_tail_index_keeps_ten_samples_beyond():
    assert tail_index(1000, 95.0) == 949
    assert tail_index(100, 95.0) == 89
    assert tail_index(5, 95.0) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
