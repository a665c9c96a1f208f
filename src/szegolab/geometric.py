"""Totally geometric spectral data and its Toeplitz-operator machinery.

For s_r = e^(-r h), psi_r = r (theta h mod 2 pi) the reconstruction matrix row-reduces
to a truncated Toeplitz matrix whose symbol is built from the kernel

    f_gamma(zeta) = sum over integer l of gamma^l / (1 - zeta gamma^(2l)),

with gamma = e^(-2h).  The kernel's poles sit on the circles |zeta| =
gamma^(2l) and its zeros on |zeta| = gamma^(2l+1); invertibility of the
Toeplitz operator (no zeros on the contour, winding index zero) is the
certificate that the reconstruction stays bounded past the unit circle.
Here that certificate is the zero gap of the kernel, its winding index on
a circle and the stability of finite sections; the Toeplitz route to u(z)
is checked against the Cauchy route of inverse.

The kernel, the modulus k' of the zero-gap certificate and its Poisson
bound are all evaluated in the dual nome e^(-pi^2/a), a = -log gamma
(Jacobi's imaginary transformation), where each series needs a number of
terms that stays bounded as gamma -> 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearPole, SingularTruncation, ValidationError, ZeroOnContour
from .inverse import SpectralData, _guarded_solve

EPS_POLE = 1e-6   # relative pole-distance guard
EPS_ZERO = 1e-9   # contour zero guard
EPS_TRUNC = 1e-13  # smallest/largest singular value floor of a truncated Toeplitz matrix
WINDING_NODES = (256, 1 << 18)  # first and last node count of the winding refinement
DEFAULT_R = 0.95


@dataclass(frozen=True)
class GeometricParams:
    """Decay rate h > 0 and angle slope theta."""

    h: float
    theta: float = 0.0

    def __post_init__(self):
        # theta h in Python floats, where an overflow reads inf without a warning; it is not
        # finite for an infinite h either (inf or 0 * inf = nan)
        if not (self.h > 0 and math.isfinite(float(self.theta) * float(self.h))):
            raise ValidationError(f"need h > 0 and theta h finite, got h={self.h}, theta={self.theta}")

    @property
    def phase(self) -> float:
        """theta h mod 2 pi (math.fmod: exact, with the sign of theta h), the angle step that
        omega and geometric_spectral_data both read, so both routes reach one torus point."""
        return math.fmod(float(self.theta) * float(self.h), 2.0 * math.pi)

    @property
    def omega(self) -> complex:
        return complex(np.exp(complex(-self.h, self.phase)))

    @property
    def gamma(self) -> float:
        return float(np.exp(-2.0 * self.h))


def geometric_spectral_data(p: GeometricParams, n: int) -> SpectralData:
    """2n pairs (e^(-r h), r phase), phase = theta h mod 2 pi; so s_r e^(i psi_r) = omega^r."""
    r = np.arange(1, 2 * n + 1, dtype=float)
    return SpectralData(np.exp(-r * p.h), r * p.phase)


def _log_nome(gamma: float) -> float:
    """a = -log gamma for a nome gamma in (0, 1); the dual nome is e^(-pi^2 / a)."""
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"gamma must be in (0, 1), got {gamma}")
    return -math.log(gamma)


def _sum_to_eps(terms):
    """Sum terms up to and including the first whose modulus is below double epsilon.

    Every series here is scaled to be of order one, with terms falling like
    powers of the dual nome, so this absolute stop is a relative one.
    """
    total = 0.0
    for term in terms:
        total = total + term
        if np.all(np.abs(term) < np.finfo(float).eps):
            return total


def f_gamma(gamma: float, zeta):
    """The geometric kernel, summed in the dual nome.

    With a = -log gamma and c = log(zeta) / 2 on the principal branch,

        f_gamma(zeta) = -(pi / 2a) zeta^(-1/2) sum over integer n of (-1)^n cot(pi (c - i pi n) / a).

    Proof: zeta^(1/2) gamma^l / (1 - zeta gamma^(2l)) = -1 / (2 sinh(c - a l)),
    so both sides times zeta^(1/2) are functions of c that change sign under
    c -> c + i pi, are periodic under c -> c + a, and have simple poles at
    c = a l + i pi n with residue -(-1)^n / 2.  Their difference is therefore
    a pole-free elliptic function, hence a constant, and since both sides
    are odd in c the constant is 0.

    With w = i pi log(zeta) / a and p = e^(-2 pi^2 / a), the n = 0 term is
    cot(pi c / a) = +-i (e + 1) / (e - 1) for e = e^(+-w), the sign chosen
    so that |e| <= 1, and the n and -n terms together are
    2i (-1)^n [x_n / (1 - x_n) - y_n / (1 - y_n)] with x_n = p^n e^(-w) and
    y_n = p^n e^w, both of modulus at most e^(-(2n - 1) pi^2 / a).
    Nothing overflows: x_1 and y_1 are each one exp of a sum of exponents,
    so as gamma -> 1 an overflowing e^(+-w) never meets p underflowing to 0.
    """
    a = _log_nome(gamma)
    scalar = np.isscalar(zeta) or np.ndim(zeta) == 0
    zarr = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if not np.all(np.isfinite(zarr)):  # NaN trips too
        raise ValidationError("zeta must be finite")
    if np.any(zarr == 0):
        raise NearPole("zeta = 0 is outside the kernel domain")
    log_zeta = np.log(np.abs(zarr)) + 1j * np.angle(zarr)  # principal branch, cheaper than np.log
    # the pole gamma^(2l) nearest in log distance; |expm1| is exactly |zeta - pole| / pole
    ell = np.rint(-log_zeta.real / (2.0 * a))
    rel = np.abs(np.expm1(log_zeta + 2.0 * a * ell))
    if np.any(rel < EPS_POLE):
        i = int(np.argmin(rel))
        raise NearPole(f"zeta = {zarr[i]:.9g} within {EPS_POLE:g} "
                       f"relative of pole {gamma ** (2.0 * ell[i]):.9g}")
    w = 1j * math.pi * log_zeta / a
    sign = np.where(w.real > 0, -1.0, 1.0)
    em1 = np.expm1(sign * w)  # e - 1, exact near the poles where e -> 1
    log_p = -2.0 * math.pi ** 2 / a
    p = math.exp(log_p)

    def pair_terms():
        x, y, alt = np.exp(log_p - w), np.exp(log_p + w), -2j
        while True:
            yield alt * (x / (1.0 - x) - y / (1.0 - y))
            x, y, alt = x * p, y * p, -alt

    total = sign * 1j * (em1 + 2.0) / em1 + _sum_to_eps(pair_terms())
    total *= -(math.pi / (2.0 * a)) * np.exp(-0.5 * log_zeta)
    return complex(total[0]) if scalar else total


def _phi_laurent_coeff(p: GeometricParams, z: complex, ell, r: float = 1.0):
    """Laurent coefficient at index ell (an int or an int array) of zeta -> Phi(z, r zeta), the
    symbol Phi(z, zeta) = f_gamma(zeta) - z omega f_gamma(zeta omega^2).

    c_ell = r^ell (1 - z omega^(2 ell + 1)) / (1 - gamma^(2 ell + 1)); the
    negative-index form is rebalanced by gamma^(2|ell|-1) so that both
    branches raise gamma and omega only to e = 2|ell| +- 1 >= 1.
    """
    ell = np.asarray(ell)
    neg = ell < 0
    e = 2 * np.abs(ell) + np.where(neg, -1, 1)
    ge = p.gamma ** e
    num = np.where(neg, ge - z * np.conj(p.omega) ** e, 1.0 - z * p.omega ** e)
    return float(r) ** ell * num / np.where(neg, ge - 1.0, 1.0 - ge)


# --- winding ---------------------------------------------------------------


def _winding_from_values(vals: np.ndarray):
    mods = np.abs(vals)
    if not mods.min() > EPS_ZERO:  # NaN trips too
        raise ZeroOnContour(f"min |symbol| = {mods.min():.3e} is not above zero guard {EPS_ZERO:g}")
    incr = np.angle(np.roll(vals, -1) / vals)
    return int(np.rint(incr.sum() / (2.0 * np.pi))), float(np.abs(incr).max())


def winding_index(fn, radius: float = 1.0) -> int:
    """Winding number around 0 of zeta -> fn(zeta) on |zeta| = radius.

    Counts principal-branch argument increments, resampling at doubling
    node counts until every increment is below pi/2 and two successive
    refinements give the same integer.
    """
    if not 0.0 < radius < math.inf:  # NaN trips too
        raise ValidationError(f"radius must be positive and finite, got {radius}")
    k, k_max = WINDING_NODES
    prev = None
    while k <= k_max:
        zeta = radius * np.exp(2j * np.pi * np.arange(k) / k)
        idx, max_incr = _winding_from_values(np.asarray(fn(zeta), dtype=complex))
        if max_incr < np.pi / 2 and prev == idx:
            return idx
        prev = idx
        k *= 2
    raise ZeroOnContour(f"winding did not stabilize below {k_max} nodes")


def index_profile(gamma: float, radii) -> list[tuple[float, int | None]]:
    """Winding index of the kernel on |zeta| = R for each R; None where a guard trips."""
    out = []
    for r in radii:
        try:
            out.append((float(r), winding_index(lambda zz: f_gamma(gamma, zz), radius=float(r))))
        except (ZeroOnContour, NearPole):
            out.append((float(r), None))
    return out


# --- the zero-gap certificate -------------------------------------------


def poisson_gap_bound(gamma: float) -> float:
    """(pi/a) sum over n >= 1 of 1/cosh(pi^2 n / a), a = -log gamma, in the dual nome.

    1/cosh(pi^2 n / a) = 2 qd^n / (1 + qd^(2n)) with qd = e^(-pi^2 / a); qd is
    factored out so that the summed terms start at order one.
    """
    a = _log_nome(gamma)
    qd = math.exp(-math.pi ** 2 / a)
    return (2.0 * math.pi * qd / a) * _sum_to_eps(
        qd ** (n - 1) / (1.0 + qd ** (2 * n)) for n in itertools.count(1))


@dataclass(frozen=True)
class ZeroGapReport:
    gamma: float
    min_unit: float
    max_inner_scaled: float
    gap: float
    poisson_bound: float


def zero_gap(gamma: float) -> ZeroGapReport:
    """Gap between min |kernel| on |zeta|=1 and sqrt(gamma) max |kernel| on |zeta|=gamma.

    Both extrema are proved, not searched.  With q = gamma^2 and
    theta(x; q) = (x; q)(q/x; q), Kronecker's product
    F(zeta) = (q; q)^2 theta(gamma zeta; q) / (theta(gamma; q) theta(zeta; q))
    gives, for zeta = e^(2iz) with z real and the Jacobi thetas of nome gamma,
    |F(e^(2iz))| = c |theta4(z) / theta1(z)| and
    |F(gamma e^(2iz))| = c' |theta1(z) / theta4(z)| with c, c' > 0.  Since
    theta1/theta4 = sqrt(k) sn(2Kz/pi, k) with |sn| <= 1 on the real line,
    and equality only at z = pi/2 mod pi, the unit-circle minimum is |F(-1)|
    and the inner maximum is |F(-gamma)|, for every gamma in (0, 1).  Their
    ratio sqrt(gamma) |F(-gamma)| / |F(-1)| is the modulus k, so

        gap = |F(-1)| (1 - k) = |F(-1)| k'^2 / (1 + k).

    Jacobi's imaginary transformation makes k' the modulus of the dual nome
    qd = e^(-pi^2 / a), a = -log gamma, so k'^2 = 16 qd prod over n >= 1 of
    ((1 + qd^(2n)) / (1 + qd^(2n-1)))^8, that is

        log k'^2 = log 16 - pi^2 / a + 8 sum over n >= 1 of [log1p(qd^(2n)) - log1p(qd^(2n-1))].

    The gap is formed in log space, so no two nearly equal numbers are
    subtracted; it underflows to 0.0 only where the true gap is below the
    double range, from gamma of about 0.987 on.  Positivity of the gap is
    the no-zeros certificate, and poisson_bound is its closed-form lower bound.
    """
    a = _log_nome(gamma)
    mn = abs(f_gamma(gamma, -1.0))
    scaled = math.sqrt(gamma) * abs(f_gamma(gamma, -gamma))
    qd = math.exp(-math.pi ** 2 / a)
    log_kp2 = math.log(16.0) - math.pi ** 2 / a + 8.0 * _sum_to_eps(
        math.log1p(qd ** (2 * n)) - math.log1p(qd ** (2 * n - 1)) for n in itertools.count(1))
    gap = math.exp(math.log(mn) + log_kp2 - math.log1p(scaled / mn))
    return ZeroGapReport(gamma=gamma, min_unit=mn, max_inner_scaled=scaled,
                         gap=gap, poisson_bound=poisson_gap_bound(gamma))


# --- truncated Toeplitz machinery ----------------------------------------


def _toeplitz_truncated(c, n: int) -> np.ndarray:
    """N x N read-only A[j, k] = c_(j-k): the column-reversed sliding window of the
    2N - 1 coefficients c_(-(N-1)) .. c_(N-1), like hankel._hankel_rows."""
    if n < 1:
        raise ValidationError(f"matrix size must be >= 1, got {n}")
    c = np.array(c, dtype=complex)
    if c.shape != (2 * n - 1,):
        raise ValidationError(f"need 2N - 1 = {2 * n - 1} coefficients, got shape {c.shape}")
    return np.lib.stride_tricks.sliding_window_view(c, n)[:, ::-1]


def _geometric_toeplitz(p: GeometricParams, z: complex, r: float, n: int) -> np.ndarray:
    """T[j, k] = r^(k-j) (1 - z omega^(2(k-j)+1)) / (1 - gamma^(2(k-j)+1))."""
    if not (p.gamma < r < 1.0):
        raise ValidationError(f"need gamma = {p.gamma:.6g} < r < 1, got r = {r}")
    if not np.isfinite(z):  # a NaN reaches the SVD, which fails; an inf warns in the coefficients
        raise ValidationError(f"z must be finite, got {z}")
    return _toeplitz_truncated(_phi_laurent_coeff(p, z, np.arange(n - 1, -n, -1), r), n)


def u_via_toeplitz(p: GeometricParams, z: complex, r: float = DEFAULT_R, n: int = 20) -> complex:
    """Reconstruction value through the Toeplitz route.

    Solves the r-rescaled truncated system against (r^-j conj(omega)^(2j-1))
    and pairs with (r^k); the answer does not depend on r inside
    (gamma, 1), which is itself a useful cross-check.  inverse._guarded_solve decides
    the EPS_TRUNC guard, as a condition ceiling of 1 / EPS_TRUNC.
    """
    t = _geometric_toeplitz(p, z, r, n)
    j = np.arange(1, n + 1, dtype=float)
    rhs = r ** (-j) * np.conj(p.omega) ** (2 * j - 1)
    x = _guarded_solve(t, rhs, 1.0 / EPS_TRUNC, lambda cond: _singular_truncation(t.shape[0], z))
    return complex(np.sum(x * r ** j))


def _singular_truncation(n: int, z: complex) -> SingularTruncation:
    return SingularTruncation(f"truncated Toeplitz matrix singular at n={n}, z={z}")


def stability_scan(p: GeometricParams, z: complex, r: float, n_list) -> list[tuple[int, float]]:
    """Spectral norm of the inverse truncated matrix per size N.

    A bounded, plateauing trend in N is the numerical certificate that the
    full Toeplitz operator is invertible.  Each section passes the EPS_TRUNC guard of
    u_via_toeplitz, read from the one SVD that gives the norm.
    """
    out = []
    for n in n_list:
        sv = np.linalg.svd(_geometric_toeplitz(p, z, r, int(n)), compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = sv[0] / sv[-1]
        if not cond <= 1.0 / EPS_TRUNC:  # an all-zero section reads 0/0 = NaN and trips too
            raise _singular_truncation(int(n), z)
        out.append((int(n), 1.0 / float(sv[-1])))
    return out
