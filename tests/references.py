"""Reference formulas and identity checks the tests compare the package against.

Dense reconstruction matrices, the explicit entry bounds of C(0)^(-1), the closed form of
C(0)^(-1) and P in mpmath and the Taylor coefficients it gives, closed-form Cauchy solves, the
Hankel trace, sum-rule and rank-one identities, the tail mass and the interlacing check, a
row-by-row coefficient CSV reader, the first moment sum n u_hat(n), the closed-form Fourier
transform of the gap integrand, the kernel's functional equations and Toeplitz symbol, the
symbol's Wiener-Hopf factorization and the doubly periodic check of the kernel. Independent
of the routes the package computes by, so the tests can compare the two; not part of the
package.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from szegolab import (DegenerateSpectrum, GeometricParams, HankelSpectrum, HardyFunction,
                      SpectralData, ValidationError, b_delta, f_gamma)
from szegolab.geometric import _log_nome, _toeplitz_truncated, _winding_from_values
from szegolab.fileio import read_csv
from szegolab.hankel import TAU_EIG, _hankel_rows, _tail_sum
from szegolab.hardy import _relative_gap, _square_sum


def build_c_matrix(d: SpectralData, z: complex) -> np.ndarray:
    """The N x N reconstruction matrix at evaluation point z."""
    a = d.s_odd * np.exp(1j * d.psi_odd)
    b = d.s_even * np.exp(1j * d.psi_even)
    den = d.s_odd[:, None] ** 2 - d.s_even[None, :] ** 2
    return (a[:, None] - z * b[None, :]) / den


def build_cdot_matrix(d: SpectralData) -> np.ndarray:
    """Entry (j, k) = s_even_k e^(i psi_even_k) / (s_odd_j^2 - s_even_k^2).

    Built from its own entry formula, not by differencing C(0) and C(z).
    """
    b = d.s_even * np.exp(1j * d.psi_even)
    den = d.s_odd[:, None] ** 2 - d.s_even[None, :] ** 2
    return b[None, :] / den


def entry_bound_table(d: SpectralData):
    """Per-cell diagnostic for the explicit inverse entry bounds.

    Returns (abs_entries, bounds, ok) arrays indexed (row k, column j); the
    bound pattern is delta^(2(k-j)) above the diagonal, 1 on j in {k, k+1},
    and delta^(2(j-k-1)) below.  Valid whenever every consecutive ratio is
    at most delta.
    """
    delta = d.delta()
    n = d.n_pairs
    abs_entries = np.abs(d._factors.cinv)
    jj, kk = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1))
    pattern = np.where(jj < kk, delta ** (2.0 * (kk - jj)),
                       np.where(jj <= kk + 1, 1.0, delta ** (2.0 * (jj - kk - 1))))
    bounds = (b_delta(delta) / (1.0 - delta ** 2)) * d.s_odd[jj - 1] * pattern
    return abs_entries, bounds, abs_entries <= bounds


def _cauchy_factors_mp(d: SpectralData):
    """C(0)^(-1) and P as nested lists of mpmath numbers at the caller's working precision."""
    import mpmath as mp

    n = d.n_pairs
    rho, sig = ([mp.mpf(float(v)) for v in a] for a in (d.s_odd, d.s_even))
    x, y = [r * r for r in rho], [s * s for s in sig]
    a = [mp.fprod(x[j] - y[l] for l in range(n)) / mp.fprod(x[j] - x[l] for l in range(n) if l != j)
         for j in range(n)]
    b = [mp.fprod(x[l] - y[k] for l in range(n)) / mp.fprod(y[l] - y[k] for l in range(n) if l != k)
         for k in range(n)]
    cinv = [[mp.expj(-mp.mpf(float(d.psi_odd[j]))) * a[j] * b[k] / ((x[j] - y[k]) * rho[j])
             for j in range(n)] for k in range(n)]
    cdot = [[sig[l] * mp.expj(mp.mpf(float(d.psi_even[l]))) / (x[j] - y[l]) for l in range(n)]
            for j in range(n)]
    p = [[mp.fsum(cinv[k][j] * cdot[j][l] for j in range(n)) for l in range(n)] for k in range(n)]
    return cinv, p


def cauchy_factors_mpmath(d: SpectralData, dps: int = 50):
    """C(0)^(-1) and P = C(0)^(-1) Cdot from their closed form in mpmath at dps digits, rounded once.

    With x = s_odd^2 and y = s_even^2 (exact squares of the doubles), entry (k, j) of C(0)^(-1) is
    e^(-i psi_odd_j) A_j B_k / ((x_j - y_k) s_odd_j), A_j = prod_l (x_j - y_l) / prod_(l != j)
    (x_j - x_l) and B_k = prod_l (x_l - y_k) / prod_(l != k) (y_l - y_k), and P[k, l] sums
    C(0)^(-1)[k, j] s_even_l e^(i psi_even_l) / (x_j - y_l) over j. No matrix is inverted, so
    dps needs to cover only the EPS_DEN cancellation, whatever the span of s; entries outside
    the double range round to 0 or inf.
    """
    import mpmath as mp

    with mp.workdps(dps):
        return tuple(np.array([[complex(v) for v in row] for row in m]) for m in _cauchy_factors_mp(d))


def taylor_mpmath(d: SpectralData, m: int, dps: int = 50) -> np.ndarray:
    """u_hat(n) = 1^T P^n c for n < m, c the row sums of C(0)^(-1), by the plain recursion
    v -> P v on the closed-form c and P of cauchy_factors_mpmath, all at dps digits; each
    coefficient is rounded once."""
    import mpmath as mp

    with mp.workdps(dps):
        cinv, p = _cauchy_factors_mp(d)
        v = [mp.fsum(row) for row in cinv]
        out = []
        for _ in range(m):
            out.append(complex(mp.fsum(v)))
            v = [mp.fsum(a * b for a, b in zip(row, v)) for row in p]
        return np.array(out)


def cauchy_ones_solve(rho: np.ndarray, sigma: np.ndarray):
    """Closed-form solves of C x = 1 and C^T y = 1 for C[j, k] = 1/(rho_j + sigma_k).

    x_k = prod_l (rho_l + sigma_k) / (sigma_k - sigma_l) and y_j = prod_l (rho_j + sigma_l) /
    (rho_j - rho_l), the l = k (l = j) denominator read as 1.  Taken apart, the numerator and
    denominator products both scale like s^N and underflow to 0/0 for s_r = delta^r.
    """
    rho = np.asarray(rho, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if rho.size != sigma.size or rho.size == 0:
        raise ValidationError("rho and sigma must have equal positive length")
    merged = np.empty(2 * rho.size)
    merged[0::2] = rho
    merged[1::2] = sigma
    if not np.all(merged[:-1] > merged[1:]):
        raise DegenerateSpectrum("rho and sigma must strictly interlace")
    num = rho[:, None] + sigma  # [l, k] = rho_l + sigma_k
    diag = np.eye(rho.size, dtype=bool)
    x = np.prod(num / np.where(diag, 1.0, sigma - sigma[:, None]), axis=0)
    y = np.prod(num / np.where(diag, 1.0, rho[:, None] - rho), axis=1)
    return x, y


def check_trace_identity(u: HardyFunction, spectrum: HankelSpectrum) -> float:
    """|sum rho_j^2 - ||u||^2| / ||u||^2 in the H^(1/2) norm; zero up to tail mass and roundoff.
    Relative, since at |u_hat| near 1e200 or 1e-200 the absolute residual leaves the double range."""
    return _relative_gap(_square_sum(spectrum.rho, 1.0), _square_sum(u.coeffs, np.arange(1.0, len(u) + 1)))


def check_rank_one_identity(u: HardyFunction, m: int) -> float:
    """Entrywise residual of (shifted Gram) = (Gram) - outer(u_hat, u_hat).

    Measured on the top-left m/2 block where truncation edge effects vanish
    for coefficients supported in [0, m/2].
    """
    h = _hankel_rows(u.coeffs, m)
    g = h @ h.conj().T
    c = h[0]  # u_hat(0..m-1)
    resid = g[1:, 1:] - g[:-1, :-1] + np.outer(c, c.conj())
    half = max(m // 2, 1)
    return float(np.abs(resid[:half, :half]).max())


def sum_rule_residual(u: HardyFunction, spectrum: HankelSpectrum) -> float:
    """|sum of all s_r^2 - sum (1+2n)|u_hat(n)|^2|, the two-operator trace identity, relative
    to the second sum, as check_trace_identity is."""
    return _relative_gap(_square_sum(np.concatenate((spectrum.rho, spectrum.sigma)), 1.0),
                         _square_sum(u.coeffs, np.arange(1.0, 2 * len(u), 2)))


def tail_mass(u: HardyFunction, m: int) -> float:
    """Discarded trace: sum over n >= m of (1+n) |u_hat(n)|^2, summed on the tail's own power
    of two, so it is subnormal or inf only where its true value is."""
    if m < 0:
        raise ValidationError(f"truncation index must be >= 0, got {m}")
    t, e = _tail_sum(u, m)
    return float(np.ldexp(t, 2 * e))


def interlacing_ok(spectrum: HankelSpectrum) -> bool:
    """Whether the merged list rho_1, sigma_1, rho_2, ... descends, to within TAU_EIG * s_1."""
    s = spectrum.merged()
    return bool(s.size == 0 or np.all(s[:-1] >= s[1:] - TAU_EIG * s[0]))


def load_by_rows(path):
    """The row-by-row reader that HardyFunction.load_csv is checked against: per-row complex()
    and np.isfinite, and no header check."""
    _, rows = read_csv(path)
    if not rows:
        raise ValidationError(f"{path}: no coefficient rows")
    coeffs = np.zeros(len(rows), dtype=complex)
    seen = set()
    for row in rows:
        if len(row) != 3:
            raise ValidationError(f"{path}: bad row {row}: need exactly 3 fields n,re,im")
        if any("_" in field or not field.isascii() for field in row):
            raise ValidationError(f"{path}: bad row {row}: non-ASCII and underscores are not accepted")
        try:
            n = int(row[0])
            value = complex(float(row[1]), float(row[2]))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad row {row}: {exc}") from exc
        if not np.isfinite(value):
            raise ValidationError(f"{path}: bad row {row}: re and im must be finite")
        if not 0 <= n < len(rows):
            raise ValidationError(f"{path}: bad row {row}: n = {n} outside 0..{len(rows) - 1}, "
                                  f"so some index is missing")
        if n in seen:
            raise ValidationError(f"{path}: bad row {row}: n = {n} repeated")
        seen.add(n)
        coeffs[n] = value
    return HardyFunction(coeffs)


def fhat_closed_form(gamma: float, theta_angle: float, xi: float) -> float:
    """Fourier transform of the gap integrand: a ratio of cosh factors.

    Evaluates (pi / 2|log gamma|) cosh((pi - theta) xi / 2 log gamma) /
    cosh(pi xi / 2 log gamma) in overflow-safe exponential form.
    """
    lg = _log_nome(gamma)
    if not (0.0 < theta_angle < 2.0 * math.pi):
        raise ValidationError(f"theta_angle must be in (0, 2 pi), got {theta_angle}")
    a = abs((math.pi - theta_angle) * xi / (2.0 * lg))
    b = abs(math.pi * xi / (2.0 * lg))
    # cosh(a)/cosh(b) = e^(a-b) (1 + e^(-2a)) / (1 + e^(-2b))
    ratio = math.exp(a - b) * (1.0 + math.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * b))
    return (math.pi / (2.0 * lg)) * ratio


def weighted_first_moment(u: HardyFunction) -> float:
    """Sum of n * u_hat(n), defined for coefficients that are real and nonnegative to within
    1e-9 of max |u_hat|; it equals u'(1), the sup norm of u' on the disc, for such u."""
    re, im = u.coeffs.real, u.coeffs.imag
    tol = 1e-9 * np.abs(u.coeffs).max()
    if re.min() < -tol or np.abs(im).max() > tol:
        n_bad = int(np.argmax(np.maximum(-re, np.abs(im))))
        raise ValueError(f"coefficient {n_bad} = {u.coeffs[n_bad]:.3e} is not nonnegative within {tol:.3g}")
    return float(np.sum(np.arange(len(u), dtype=float) * re))


def check_functional_equations(gamma: float, zeta: complex):
    """Residuals of f(1/zeta) = -zeta f(zeta) and f(zeta/gamma^2) = gamma f(zeta)."""
    f0 = f_gamma(gamma, zeta)
    return (float(abs(f_gamma(gamma, 1.0 / zeta) + zeta * f0)),
            float(abs(f_gamma(gamma, zeta / gamma ** 2) - gamma * f0)))


def phi_symbol(p: GeometricParams, z: complex, zeta):
    """Symbol value f_gamma(zeta) - z omega f_gamma(zeta omega^2)."""
    om = p.omega
    return f_gamma(p.gamma, zeta) - z * om * f_gamma(p.gamma, np.asarray(zeta, dtype=complex) * om ** 2)


@dataclass(frozen=True)
class SymbolGrid:
    """Samples of a circle symbol at the K-th roots of unity, K a power of two >= 256."""

    values: np.ndarray

    def __post_init__(self):
        if self.nodes < 256 or self.nodes & (self.nodes - 1):
            raise ValidationError(f"node count must be a power of two >= 256, got {self.nodes}")

    @property
    def nodes(self) -> int:
        return self.values.size

    @classmethod
    def sample(cls, fn, k: int) -> "SymbolGrid":
        return cls(np.asarray(fn(np.exp(2j * np.pi * np.arange(k) / k)), dtype=complex))


class WienerHopfFactors(NamedTuple):
    """Phi = plus * minus_bar on the sampling grid; plus has only nonnegative Fourier modes,
    minus_bar only nonpositive ones."""

    plus_values: np.ndarray
    minus_bar_values: np.ndarray


def wiener_hopf_factorize(grid: SymbolGrid) -> WienerHopfFactors:
    """Split log(Phi) by Fourier-mode sign and exponentiate.

    Requires no zeros on the contour and winding index zero; the continuous
    logarithm branch comes from unwrapped argument increments, and a branch
    jump on the sampled grid aborts rather than being patched over.
    """
    vals, k = grid.values, grid.nodes
    idx, max_incr = _winding_from_values(vals)
    if max_incr >= np.pi / 2:
        raise ValidationError(f"grid of {k} nodes too coarse to unwrap the symbol argument")
    if idx != 0:
        raise ValueError(f"winding index {idx} != 0: no bounded factorization")
    phi = np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))
    plus_part = np.fft.ifft(np.where(np.fft.fftfreq(k, 1.0 / k) >= 0, np.fft.fft(phi), 0.0))
    return WienerHopfFactors(np.exp(plus_part), np.exp(phi - plus_part))


def wiener_hopf_inverse_residual(grid: SymbolGrid, n: int) -> float:
    """Interior-block residual of T(1/plus) T(1/minus_bar) T(Phi) against identity.

    Products are applied right to left; with that order the only truncation
    leakage decays with the negative-mode coefficients, so the middle
    N/2 x N/2 block isolates the genuine factorization error.
    """
    k = grid.nodes
    if n > k // 2:
        raise ValidationError(f"matrix size {n} needs modes beyond the {k}-node grid")
    plus, minus_bar = wiener_hopf_factorize(grid)

    def toeplitz_of(values):
        return _toeplitz_truncated(np.fft.fft(values)[np.arange(-(n - 1), n) % k] / k, n)

    prod = toeplitz_of(1.0 / plus) @ (toeplitz_of(1.0 / minus_bar) @ toeplitz_of(grid.values))
    inner = slice(n // 4, 3 * n // 4)
    return float(np.abs(prod[inner, inner] - np.eye(n)[inner, inner]).max())


class EllipticReport(NamedTuple):
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
    half-period i tau / 2. Sampled on a 6 x 4 grid inside one period cell.
    """
    if abs(p.theta) > 0:
        raise ValidationError("elliptic check is defined for theta = 0")
    tau = -math.log(p.gamma) / math.pi

    def g(w):
        zeta = np.exp(2j * np.pi * np.asarray(w, dtype=complex))
        return zeta * f_gamma(p.gamma, zeta) ** 2

    w = (np.linspace(0.12, 0.88, 6)[:, None] + 1j * (tau * np.linspace(-0.38, 0.38, 4))).ravel()
    w_small = 1e-3 * np.exp(1j * np.linspace(0.2, 2.0 * np.pi - 0.2, 8))
    periods = [float(np.abs(g(w + step) - g(w)).max()) for step in (1.0, 1j * tau)]
    pole = float(np.abs(w_small ** 2 * g(w_small) + 1.0 / (4.0 * np.pi ** 2)).max())
    return EllipticReport(tau, *periods, pole, float(abs(g(np.array([0.5j * tau]))[0])))
