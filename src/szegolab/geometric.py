"""Totally geometric spectral data and its Toeplitz-operator machinery.

For s_r = e^(-r h), psi_r = r theta h the reconstruction matrix row-reduces
to a truncated Toeplitz matrix whose symbol is built from the kernel

    f_gamma(zeta) = sum over integer l of gamma^l / (1 - zeta gamma^(2l)),

with gamma = e^(-2h).  The kernel's poles sit on the circles |zeta| =
gamma^(2l) and its zeros on |zeta| = gamma^(2l+1); invertibility of the
Toeplitz operator (no zeros on the contour, winding index zero) is the
certificate that the reconstruction stays bounded past the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NearPole, NonzeroIndex, SingularTruncation, ValidationError,
                     ZeroOnContour)
from .inverse import SpectralData

EPS_POLE = 1e-6   # relative pole-distance guard
EPS_ZERO = 1e-9   # contour zero guard
EPS_TRUNC = 1e-13  # smallest/largest singular value floor of a truncated Toeplitz matrix
F_TOL = 1e-14     # tail tolerance of the truncated kernel series
WINDING_NODES = (256, 1 << 18)  # first and last node count of the winding refinement
ELLIPTIC_GRID = (6, 4)  # real x imaginary sample counts of the periodicity check
DEFAULT_R = 0.95


@dataclass(frozen=True)
class GeometricParams:
    """Decay rate h > 0 and angle slope theta."""

    h: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)) or not np.isfinite(self.theta):
            raise ValidationError(f"need h > 0 finite and theta finite, got h={self.h}, theta={self.theta}")

    @property
    def omega(self) -> complex:
        return complex(np.exp(-self.h * (1.0 - 1j * self.theta)))

    @property
    def gamma(self) -> float:
        return float(np.exp(-2.0 * self.h))


def geometric_spectral_data(p: GeometricParams, n: int) -> SpectralData:
    """2n pairs (e^(-r h), r theta h); equivalently s_r e^(i psi_r) = omega^r."""
    r = np.arange(1, 2 * n + 1, dtype=float)
    return SpectralData(np.exp(-r * p.h), r * p.theta * p.h)


def _check_pole_distance(gamma: float, zeta: np.ndarray) -> None:
    mods = np.abs(np.atleast_1d(zeta))
    if np.any(mods == 0):
        raise NearPole("zeta = 0 is outside the kernel domain")
    # only the two lattice circles bracketing |zeta| can host the nearest pole
    l0 = np.log(mods) / (2.0 * math.log(gamma))
    for lq in (np.floor(l0), np.ceil(l0)):
        pole = gamma ** (2.0 * lq)
        rel = np.abs(np.atleast_1d(zeta) - pole) / pole
        if np.any(rel < EPS_POLE):
            i = int(np.argmin(rel))
            raise NearPole(f"zeta = {np.atleast_1d(zeta)[i]:.9g} within {EPS_POLE:g} "
                           f"relative of pole {pole[i]:.9g}")


def f_gamma(gamma: float, zeta):
    """Two-sided pole series of the geometric kernel, truncated at the F_TOL tail.

    Terms decay like gamma^|l| in both directions; negative-l terms are
    rewritten as gamma^|l| / (gamma^(2|l|) - zeta) so nothing overflows.
    """
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"gamma must be in (0, 1), got {gamma}")
    scalar = np.isscalar(zeta) or np.ndim(zeta) == 0
    zarr = np.atleast_1d(np.asarray(zeta, dtype=complex))
    _check_pole_distance(gamma, zarr)
    order = int(math.ceil(math.log(F_TOL * (1.0 - gamma)) / math.log(gamma))) + 4
    total = np.zeros_like(zarr)
    for l in range(order + 1):
        total += gamma ** l / (1.0 - zarr * gamma ** (2 * l))
    for l in range(1, order + 1):
        total += gamma ** l / (gamma ** (2 * l) - zarr)
    return complex(total[0]) if scalar else total


def check_functional_equations(gamma: float, zeta: complex):
    """Residuals of f(1/zeta) = -zeta f(zeta) and f(zeta/gamma^2) = gamma f(zeta)."""
    f0 = f_gamma(gamma, zeta)
    res1 = abs(f_gamma(gamma, 1.0 / zeta) + zeta * f0)
    res2 = abs(f_gamma(gamma, zeta / gamma ** 2) - gamma * f0)
    return float(res1), float(res2)


def phi_symbol(p: GeometricParams, z: complex, zeta):
    """Symbol value f_gamma(zeta) - z omega f_gamma(zeta omega^2)."""
    om = p.omega
    return f_gamma(p.gamma, zeta) - z * om * f_gamma(p.gamma, np.asarray(zeta, dtype=complex) * om ** 2)


def phi_laurent_coeff(p: GeometricParams, z: complex, ell: int, r: float = 1.0) -> complex:
    """Laurent coefficient of zeta -> Phi(z, r zeta) at index ell.

    c_ell = r^ell (1 - z omega^(2 ell + 1)) / (1 - gamma^(2 ell + 1)); the
    negative-index form is rebalanced by gamma^(2|ell|-1) so that only
    decaying powers appear.
    """
    om = p.omega
    gam = p.gamma
    if ell >= 0:
        return r ** ell * (1.0 - z * om ** (2 * ell + 1)) / (1.0 - gam ** (2 * ell + 1))
    m = -ell
    return r ** ell * (gam ** (2 * m - 1) - z * np.conj(om) ** (2 * m - 1)) / (gam ** (2 * m - 1) - 1.0)


# --- contour sampling and winding ---------------------------------------


@dataclass(frozen=True)
class SymbolGrid:
    """Samples of a circle symbol at the K-th roots of unity."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        k = v.size
        if k < 256 or (k & (k - 1)) != 0:
            raise ValidationError(f"node count must be a power of two >= 256, got {k}")
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def nodes(self) -> int:
        return self.values.size

    @classmethod
    def sample(cls, fn, k: int) -> "SymbolGrid":
        zeta = np.exp(2j * np.pi * np.arange(k) / k)
        return cls(np.asarray(fn(zeta), dtype=complex))


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
    """(pi/|log gamma|) sum over n >= 1 of 1/cosh(pi^2 n / |log gamma|), as 2 fhat(pi, 2 pi n)."""
    total = 0.0
    n = 1
    while True:
        term = 2.0 * fhat_closed_form(gamma, math.pi, 2.0 * math.pi * n)
        total += term
        if term < 1e-18 * max(total, 1e-300) or n > 10000:
            break
        n += 1
    return total


@dataclass(frozen=True)
class ZeroGapReport:
    gamma: float
    min_unit: float
    max_inner_scaled: float
    gap: float
    poisson_bound: float

    def as_dict(self) -> dict:
        return {"gamma": self.gamma, "min_unit": self.min_unit,
                "max_inner_scaled": self.max_inner_scaled, "gap": self.gap,
                "poisson_bound": self.poisson_bound}


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

        gap = |F(-1)| (1 - k) = |F(-1)| k'^2 / (1 + k),
        log k' = 4 sum over n >= 1 of log((1 - x_n) / (1 + x_n)) = -8 sum atanh(x_n),

    with x_n = gamma^(2n-1).  The gap is formed in log space, so no two
    nearly equal numbers are subtracted; it underflows to 0.0 only where
    the true gap is below the double range, from gamma of about 0.987 on.
    Positivity of the gap is the no-zeros certificate, and poisson_bound
    is its closed-form lower bound.
    """
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"gamma must be in (0, 1), got {gamma}")
    mn = abs(f_gamma(gamma, -1.0))
    scaled = math.sqrt(gamma) * abs(f_gamma(gamma, -gamma))
    # log k'^2 = -16 sum atanh(x_n); the terms after x_n add less than x_n / (1 - gamma^2)
    tail = 16.0 / (1.0 - gamma * gamma)
    terms, n = [], 1
    while tail * gamma ** (2 * n - 1) >= np.finfo(float).eps:
        terms.append(math.atanh(gamma ** (2 * n - 1)))
        n += 1
    gap = math.exp(math.log(mn) - 16.0 * math.fsum(terms) - math.log1p(scaled / mn))
    return ZeroGapReport(gamma=gamma, min_unit=mn, max_inner_scaled=scaled,
                         gap=gap, poisson_bound=poisson_gap_bound(gamma))


def fhat_closed_form(gamma: float, theta_angle: float, xi: float) -> float:
    """Fourier transform of the gap integrand: a ratio of cosh factors.

    Evaluates (pi / 2|log gamma|) cosh((pi - theta) xi / 2 log gamma) /
    cosh(pi xi / 2 log gamma) in overflow-safe exponential form.
    """
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"gamma must be in (0, 1), got {gamma}")
    if not (0.0 < theta_angle < 2.0 * math.pi):
        raise ValidationError(f"theta_angle must be in (0, 2 pi), got {theta_angle}")
    lg = abs(math.log(gamma))
    a = abs((math.pi - theta_angle) * xi / (2.0 * lg))
    b = abs(math.pi * xi / (2.0 * lg))
    # cosh(a)/cosh(b) = e^(a-b) (1 + e^(-2a)) / (1 + e^(-2b))
    ratio = math.exp(a - b) * (1.0 + math.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * b))
    return (math.pi / (2.0 * lg)) * ratio


# --- truncated Toeplitz machinery ----------------------------------------


def toeplitz_truncated(coeff_fn, n: int) -> np.ndarray:
    """N x N matrix A[j, k] = c_(j-k) from a Laurent-coefficient callback."""
    if n < 1:
        raise ValidationError(f"matrix size must be >= 1, got {n}")
    c = np.array([coeff_fn(m) for m in range(-(n - 1), n)], dtype=complex)
    jj, kk = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return c[(jj - kk) + n - 1]


def _geometric_toeplitz(p: GeometricParams, z: complex, r: float, n: int) -> np.ndarray:
    """T[j, k] = r^(k-j) (1 - z omega^(2(k-j)+1)) / (1 - gamma^(2(k-j)+1))."""
    if not (p.gamma < r < 1.0):
        raise ValidationError(f"need gamma = {p.gamma:.6g} < r < 1, got r = {r}")
    return toeplitz_truncated(lambda m: phi_laurent_coeff(p, z, -m, r), n)


def u_via_toeplitz(p: GeometricParams, z: complex, r: float = DEFAULT_R, n: int = 20) -> complex:
    """Reconstruction value through the Toeplitz route.

    Solves the r-rescaled truncated system against (r^-j conj(omega)^(2j-1))
    and pairs with (r^k); the answer does not depend on r inside
    (gamma, 1), which is itself a useful cross-check.
    """
    t = _geometric_toeplitz(p, z, r, n)
    _min_singular_value(t, z)
    j = np.arange(1, n + 1, dtype=float)
    rhs = r ** (-j) * np.conj(p.omega) ** (2 * j - 1)
    x = np.linalg.solve(t, rhs)
    return complex(np.sum(x * r ** j))


def _min_singular_value(t: np.ndarray, z: complex) -> float:
    """Smallest singular value of a truncated Toeplitz matrix, which must not be singular."""
    sv = np.linalg.svd(t, compute_uv=False)
    if not sv[-1] >= EPS_TRUNC * sv[0]:  # NaN trips too
        raise SingularTruncation(f"truncated Toeplitz matrix singular at n={t.shape[0]}, z={z}")
    return float(sv[-1])


def stability_scan(p: GeometricParams, z: complex, r: float, n_list) -> list[tuple[int, float]]:
    """Spectral norm of the inverse truncated matrix per size N.

    A bounded, plateauing trend in N is the numerical certificate that the
    full Toeplitz operator is invertible.
    """
    out = []
    for n in n_list:
        t = _geometric_toeplitz(p, z, r, int(n))
        out.append((int(n), 1.0 / _min_singular_value(t, z)))
    return out


# --- Wiener-Hopf factorization -------------------------------------------


@dataclass(frozen=True)
class WienerHopfFactors:
    """Factorization Phi = plus * minus_bar on the sampling grid.

    plus has only nonnegative Fourier modes, minus_bar only nonpositive ones.
    """

    plus_values: np.ndarray
    minus_bar_values: np.ndarray


def wiener_hopf_factorize(grid: SymbolGrid) -> WienerHopfFactors:
    """Split log(Phi) by Fourier-mode sign and exponentiate.

    Requires no zeros on the contour and winding index zero; the continuous
    logarithm branch comes from unwrapped argument increments, and a branch
    jump on the sampled grid aborts rather than being patched over.
    """
    vals = grid.values
    k = grid.nodes
    idx, max_incr = _winding_from_values(vals)
    if max_incr >= np.pi / 2:
        raise ValidationError(f"grid of {k} nodes too coarse to unwrap the symbol argument")
    if idx != 0:
        raise NonzeroIndex(f"winding index {idx} != 0: no bounded factorization")
    phi = np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))
    phih = np.fft.fft(phi) / k
    freq = np.fft.fftfreq(k, 1.0 / k).astype(int)
    plus_part = np.fft.ifft(np.where(freq >= 0, phih, 0.0) * k)
    minus_part = phi - plus_part
    return WienerHopfFactors(plus_values=np.exp(plus_part), minus_bar_values=np.exp(minus_part))


def wiener_hopf_inverse_residual(grid: SymbolGrid, n: int) -> float:
    """Interior-block residual of T(1/plus) T(1/minus_bar) T(Phi) against identity.

    Products are applied right to left; with that order the only truncation
    leakage decays with the negative-mode coefficients, so the middle
    N/2 x N/2 block isolates the genuine factorization error.
    """
    k = grid.nodes
    if n > k // 2:
        raise ValidationError(f"matrix size {n} needs modes beyond the {k}-node grid")
    f = wiener_hopf_factorize(grid)

    def toeplitz_of(values):
        ch = np.fft.fft(values) / k
        return toeplitz_truncated(lambda m: ch[m % k], n)

    t_phi = toeplitz_of(grid.values)
    t_p = toeplitz_of(1.0 / f.plus_values)
    t_m = toeplitz_of(1.0 / f.minus_bar_values)
    prod = t_p @ (t_m @ t_phi)
    inner = slice(n // 4, 3 * n // 4)
    eye = np.eye(n, dtype=complex)
    return float(np.abs(prod[inner, inner] - eye[inner, inner]).max())


# --- doubly periodic cross-check ------------------------------------------


@dataclass(frozen=True)
class EllipticReport:
    tau: float
    period_residual_1: float
    period_residual_tau: float
    pole_coeff_residual: float
    zero_residual: float


def elliptic_check(p: GeometricParams) -> EllipticReport:
    """Double periodicity, pole coefficient and half-period zero of zeta f^2.

    With gamma = e^(-pi tau), g(w) = e^(2 i pi w) f_gamma(e^(2 i pi w))^2 is
    doubly periodic for the lattice Z + i tau Z with double poles at the
    lattice points (leading coefficient -1/(4 pi^2)) and zeros at the
    half-period i tau / 2.
    """
    if abs(p.theta) > 0:
        raise ValidationError("elliptic check is defined for theta = 0")
    gam = p.gamma
    tau = -math.log(gam) / math.pi

    def g(w):
        zeta = np.exp(2j * np.pi * np.asarray(w, dtype=complex))
        return np.exp(2j * np.pi * np.asarray(w, dtype=complex)) * f_gamma(gam, zeta) ** 2

    nx, ny = ELLIPTIC_GRID
    xs = np.linspace(0.12, 0.88, nx)
    ys = tau * np.linspace(-0.38, 0.38, ny)
    w = (xs[:, None] + 1j * ys[None, :]).ravel()
    res1 = float(np.abs(g(w + 1.0) - g(w)).max())
    res_tau = float(np.abs(g(w + 1j * tau) - g(w)).max())
    w_small = 1e-3 * np.exp(1j * np.linspace(0.2, 2.0 * np.pi - 0.2, 8))
    pole = float(np.abs(w_small ** 2 * g(w_small) + 1.0 / (4.0 * np.pi ** 2)).max())
    zero = float(abs(g(np.array([0.5j * tau]))[0]))
    return EllipticReport(tau=tau, period_residual_1=res1, period_residual_tau=res_tau,
                          pole_coeff_residual=pole, zero_residual=zero)
