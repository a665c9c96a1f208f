"""The paper's symmetries, each as a derandomized property across the pipeline.

A phase u -> e^{i theta} u and a rotation u_hat(n) -> e^{i n phi} u_hat(n) commute with the
cubic Szego flow; on spectral data they are psi -> psi - theta and psi_even -> psi_even + phi,
which leave the singular values and operator_bounds unchanged. Every comparison is relative,
to 1e-13 of the largest value compared.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from szegolab import (HardyFunction, SpectralData, integrate, operator_bounds, pair_singular_values,
                      reconstruct_function)

M = 64
RTOL = 1e-13
angles = st.floats(0, 2 * np.pi, exclude_max=True)


@st.composite
def spectral_data(draw):
    """1 to 3 pairs, s_1 in [1/2, 1] and each ratio in [0.3, 0.7], angles anywhere."""
    n = 2 * draw(st.integers(1, 3))
    ratios = draw(st.lists(st.floats(0.3, 0.7), min_size=n - 1, max_size=n - 1))
    s = draw(st.floats(0.5, 1.0)) * np.cumprod([1.0, *ratios])
    return SpectralData(s, np.array(draw(st.lists(angles, min_size=n, max_size=n))))


def close(a, b):
    return np.abs(np.asarray(a) - b).max(initial=0.0) <= RTOL * np.abs(b).max(initial=0.0)


def samples(d, t_final, g):
    """Coefficients of integrate's samples from u0 = reconstruct_function(d, M) and from g(u0),
    g acting on coefficient vectors, side by side; at most 100 steps of dt = 1e-3."""
    u0 = reconstruct_function(d, M).coeffs
    runs = [integrate(HardyFunction(c), t_final, 1e-3, M) for c in (u0, g(u0))]
    return [(a.u.coeffs, b.u.coeffs) for a, b in zip(*runs)]


flows = dict(d=spectral_data(), t_final=st.floats(1e-3, 0.1))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(theta=angles, **flows)
def test_flow_commutes_with_phase(d, t_final, theta):
    for a, b in samples(d, t_final, lambda c: np.exp(1j * theta) * c):
        assert close(b, np.exp(1j * theta) * a)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(phi=angles, **flows)
def test_flow_commutes_with_rotation(d, t_final, phi):
    turn = np.exp(1j * phi * np.arange(M))
    for a, b in samples(d, t_final, lambda c: turn * c):
        assert close(b, turn * a)


def keeps_the_spectrum_and_the_bounds(d, e):
    """(u, v) reconstructed from d and e, once the singular values of u and v and every field
    of the two OperatorBounds agree to RTOL; a radius of None on both sides is the same."""
    u, v = (reconstruct_function(x, M) for x in (d, e))
    a, b = (pair_singular_values(w, M) for w in (u, v))
    assert close(b.rho, a.rho) and close(b.sigma, a.sigma)
    for x, y in zip(vars(operator_bounds(d)).values(), vars(operator_bounds(e)).values()):
        assert x is y is None or close(y, x)
    return u.coeffs, v.coeffs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(d=spectral_data(), theta=angles)
def test_bounds_are_invariant_under_phase(d, theta):
    # (s, psi + theta) reconstructs e^{-i theta} u
    u, v = keeps_the_spectrum_and_the_bounds(d, SpectralData(d.s, d.psi + theta))
    assert close(v, np.exp(-1j * theta) * u)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(d=spectral_data(), phi=angles)
def test_bounds_are_invariant_under_rotation(d, phi):
    # (s, psi_odd, psi_even + phi) reconstructs u(e^{i phi} z)
    psi = d.psi.copy()
    psi[1::2] += phi
    u, v = keeps_the_spectrum_and_the_bounds(d, SpectralData(d.s, psi))
    assert close(v, np.exp(1j * phi * np.arange(M)) * u)
