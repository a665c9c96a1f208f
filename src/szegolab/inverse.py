"""Inverse spectral transform and the explicit Cauchy-matrix machinery.

A finite list of singular-value/angle pairs determines a rational Hardy
function through the N x N matrix

    C(z)[j, k] = (s_odd_j e^(i psi_odd_j) - z s_even_k e^(i psi_even_k))
                 / (s_odd_j^2 - s_even_k^2),

as u(z) = <C(z)^(-1) 1, 1>.  C(0) is a column-scaled Cauchy matrix whose
inverse is known in closed form; that inverse also powers the l1 operator
bounds that certify analytic extension past the unit circle, and the
closed-form first-moment identities for zero angles.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnglesNotZero, DegenerateSpectrum, SingularMatrix, ValidationError
from .fileio import dump_json, load_json
from .hardy import HardyFunction

EPS_DEN = 1e-13    # relative-cancellation threshold for s_odd^2 - s_even^2
EPS_COND = 1e12    # condition ceiling for the solve against I - z P

_Factors = namedtuple("_Factors", "cinv c p")


@dataclass(frozen=True)
class SpectralData:
    """Pairs (s_r, psi_r), r = 1..2N, with s strictly decreasing and positive."""

    s: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if s.ndim != 1 or s.size == 0 or s.size % 2 != 0:
            raise ValidationError(f"need an even, positive number of pairs, got {s.size} values")
        if psi.shape != s.shape:
            raise ValidationError("s and psi must have the same length")
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(psi)):
            raise ValidationError("spectral data must be finite")
        if s[-1] <= 0:
            raise ValidationError(f"all s_r must be positive, got s_{s.size} = {s[-1]}")
        for r in range(s.size - 1):
            if not s[r] > s[r + 1]:
                raise ValidationError(f"strict decrease violated at r={r + 1}: "
                                      f"s_{r + 1}={s[r]:.17g} <= s_{r + 2}={s[r + 1]:.17g}")
        s = s.copy(); s.flags.writeable = False
        psi = psi.copy(); psi.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "psi", psi)

    @property
    def n_pairs(self) -> int:
        return self.s.size // 2

    @property
    def s_odd(self) -> np.ndarray:
        return self.s[0::2]

    @property
    def s_even(self) -> np.ndarray:
        return self.s[1::2]

    @property
    def psi_odd(self) -> np.ndarray:
        return self.psi[0::2]

    @property
    def psi_even(self) -> np.ndarray:
        return self.psi[1::2]

    @cached_property
    def _factors(self) -> _Factors:
        """Read-only explicit C(0) inverse and (c, P), built on first use;
        a build that raises caches nothing.  Threads racing on the first use may
        each build it, bitwise identically, so whichever result is kept is right."""
        return _build_factors(self)

    def delta(self) -> float:
        """Largest consecutive ratio s_(r+1)/s_r."""
        return float(np.max(self.s[1:] / self.s[:-1]))

    def to_json_obj(self) -> dict:
        return {"pairs": [{"s": float(sr), "psi": float(pr)} for sr, pr in zip(self.s, self.psi)]}

    @classmethod
    def from_json_obj(cls, obj) -> "SpectralData":
        try:
            pairs = [(p["s"], p["psi"]) for p in obj["pairs"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad spectral data object: {exc}") from exc
        for value in (v for pair in pairs for v in pair):
            if isinstance(value, bool) or not isinstance(value, (int, float)):  # JSON numbers only
                raise ValidationError(f"bad spectral data object: {value!r} is not a number")
        try:
            s = np.array([float(a) for a, _ in pairs])
            psi = np.array([float(b) for _, b in pairs])
        except OverflowError as exc:  # an int beyond the float range
            raise ValidationError(f"bad spectral data object: {exc}") from exc
        return cls(s, psi)

    @classmethod
    def load_json(cls, path) -> "SpectralData":
        return cls.from_json_obj(load_json(path))

    def save_json(self, path) -> None:
        dump_json(self.to_json_obj(), path)


def _check_denominators(d: SpectralData) -> None:
    # degeneracy means catastrophic cancellation in x_j - y_k, so the guard is
    # relative to the operands; an absolute floor would reject healthy data
    # with strong decay, whose small denominators are exact to working precision.
    # |x - y| / max(x, y) = 1 - q^2 with q = min/max of the s pair: no square
    # is formed, so it cannot underflow to 0/0
    a = d.s_odd[:, None]
    b = d.s_even[None, :]
    q = np.minimum(a, b) / np.maximum(a, b)
    rel = (1.0 - q) * (1.0 + q)
    if not rel.min() >= EPS_DEN:  # NaN trips too
        j, k = np.unravel_index(int(np.argmin(rel)), rel.shape)
        raise DegenerateSpectrum(
            f"|s_{2*j+1}^2 - s_{2*k+2}^2| cancels to {rel.min():.3e} relative, below {EPS_DEN:g}")


def build_c_matrix(d: SpectralData, z: complex) -> np.ndarray:
    """The N x N reconstruction matrix at evaluation point z."""
    _check_denominators(d)
    a = d.s_odd * np.exp(1j * d.psi_odd)
    b = d.s_even * np.exp(1j * d.psi_even)
    den = d.s_odd[:, None] ** 2 - d.s_even[None, :] ** 2
    return (a[:, None] - z * b[None, :]) / den


def build_cdot_matrix(d: SpectralData) -> np.ndarray:
    """Entry (j, k) = s_even_k e^(i psi_even_k) / (s_odd_j^2 - s_even_k^2).

    Built from its own entry formula, not by differencing C(0) and C(z).
    """
    _check_denominators(d)
    b = d.s_even * np.exp(1j * d.psi_even)
    den = d.s_odd[:, None] ** 2 - d.s_even[None, :] ** 2
    return b[None, :] / den


def _log_abs_diff(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """log|e^la - e^lb| computed from the logs, safe for huge dynamic range."""
    hi = np.maximum(la, lb)
    lo = np.minimum(la, lb)
    with np.errstate(divide="ignore"):
        return hi + np.log1p(-np.exp(np.minimum(lo - hi, -1e-300)))


def _build_factors(d: SpectralData) -> _Factors:
    """The explicit C(0) inverse and (c, P), every array read-only.

    Entries are formed from log magnitudes, and P = C(0)^(-1) Cdot is one
    product whose factors cannot overflow: the left one, |C(0)^(-1)[k, j]|
    / s_odd_j, stays at or below B_delta / (1 - delta^2) by the entry bound
    that entry_bound_table checks, and the right one, s_odd_j s_even_l /
    |s_odd_j^2 - s_even_l^2| = q / (1 - q^2) with q < 1 the pair ratio
    that EPS_DEN guards, at or below 1 / EPS_DEN.
    """
    _check_denominators(d)
    n = d.n_pairs
    log_odd = np.log(d.s_odd)
    logx = 2.0 * log_odd
    logy = 2.0 * np.log(d.s_even)
    lxy = _log_abs_diff(logx[:, None], logy[None, :])        # log|x_j - y_k|
    lxx = _log_abs_diff(logx[:, None], logx[None, :])
    lyy = _log_abs_diff(logy[:, None], logy[None, :])
    np.fill_diagonal(lxx, 0.0)
    np.fill_diagonal(lyy, 0.0)
    log_alpha = lxy.sum(axis=1) - lxx.sum(axis=1)
    log_beta = lxy.sum(axis=0) - lyy.sum(axis=0)
    # row k, column j; the total sign reduces to sign(x_j - y_k), + exactly when j <= k
    logmag = log_alpha[None, :] + log_beta[:, None] - lxy.T - log_odd[None, :]
    sgn = 2.0 * np.tri(n) - 1.0
    signed_phase = sgn * np.exp(-1j * d.psi_odd)[None, :]
    cinv = signed_phase * np.exp(logmag)
    c = cinv.sum(axis=1)
    left = signed_phase * np.exp(logmag - log_odd[None, :])
    right = sgn.T * np.exp(np.log(d.s_even)[None, :] - lxy + log_odd[:, None])
    p = (left @ right) * np.exp(1j * d.psi_even)[None, :]
    out = _Factors(cinv, c, p)
    for a in out:
        a.flags.writeable = False
    return out


def cauchy_inverse_c0(d: SpectralData) -> np.ndarray:
    """Closed-form inverse of C(0) via products of squared-value differences,
    read-only and shared.

    Products are accumulated in log space so the formula stays usable for
    strongly decaying data where a dense solve has nothing left to offer.
    """
    return d._factors.cinv


def cauchy_neumann_factors(d: SpectralData):
    """(c, P) with c = C(0)^(-1) 1 and P = C(0)^(-1) Cdot, read-only and shared.

    These satisfy C(z)^(-1) 1 = (I - z P)^(-1) c, the splitting behind both
    the analytic-continuation bounds and the Taylor recursion u_hat(n) = 1^T P^n c.
    """
    return d._factors.c, d._factors.p


def reconstruct_point(d: SpectralData, z: complex, method: str = "neumann") -> complex:
    """u(z) = <C(z)^(-1) 1, 1>.

    Goes through the explicit C(0) inverse and solves the well-scaled
    system (I - z P) w = c, which holds up at dynamic ranges where a dense
    factorization of C(z) is unusable.  "neumann" is the only method.
    """
    if method != "neumann":
        raise ValidationError(f"unknown method {method!r}")
    c, p = cauchy_neumann_factors(d)
    m = np.eye(d.n_pairs, dtype=complex) - z * p
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > EPS_COND:
        raise SingularMatrix(f"cond(I - z P) = {cond:.3e} exceeds {EPS_COND:g} at z = {z}")
    w = np.linalg.solve(m, c)
    return complex(w.sum())


def taylor_coefficients(d: SpectralData, m: int) -> np.ndarray:
    """First m Taylor coefficients via the recursion u_hat(n) = 1^T P^n c."""
    if m < 1:
        raise ValidationError(f"need m >= 1 coefficients, got {m}")
    c, p = cauchy_neumann_factors(d)
    out = np.empty(m, dtype=complex)
    v = c.copy()
    for n in range(m):
        out[n] = v.sum()
        v = p @ v
    return out


def reconstruct_function(d: SpectralData, m: int) -> HardyFunction:
    """HardyFunction with m Taylor coefficients of the reconstruction.

    Expands u(z) = sum z^n (1^T P^n c) directly, so every coefficient comes
    out at working precision with no radius choice.
    """
    return HardyFunction(taylor_coefficients(d, m))


# --- explicit-constant bounds ------------------------------------------


def b_delta(delta: float) -> float:
    """Product over m >= 1 of (1 - delta^(4m))^(-2), truncated below 1e-16.

    Returns inf as soon as the partial product overflows: every later factor
    exceeds 1, and near delta = 1 the full product takes O(1/(1 - delta)) factors.
    """
    if not (0 < delta < 1):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    out = 1.0
    m = 1
    while delta ** (4 * m) >= 1e-16:
        out *= (1.0 - delta ** (4 * m)) ** -2
        if out == np.inf:
            return out
        m += 1
    return out


def a_explicit(delta: float) -> float:
    """Proof-explicit l1 -> l1 bound for C(0)^(-1) Cdot at ratio delta.

    Sum of the off-diagonal column bound (twice) and the diagonal bound.
    """
    b = b_delta(delta)
    off = 2.0 * (delta * b / (1.0 - delta ** 2) ** 4) * ((1.0 + 3.0 * delta ** 2) / (1.0 + delta ** 2))
    diag = 2.0 * delta * b / ((1.0 - delta ** 2) ** 2 * (1.0 - delta ** 4))
    return off + diag


def c0_inverse_sum_bound(d: SpectralData) -> float:
    """Explicit bound 2 B_delta s_1 / (1 - delta^2)^3 for the entry l1 sum."""
    delta = d.delta()
    return 2.0 * b_delta(delta) * float(d.s[0]) / (1.0 - delta ** 2) ** 3


@dataclass(frozen=True)
class OperatorBounds:
    delta: float
    l1_norm_c0inv_sum: float
    l1_norm_product: float
    bound_value: float
    certified_radius: float | None
    c0inv_sum_bound: float

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "l1_norm_c0inv_sum": self.l1_norm_c0inv_sum,
            "l1_norm_product": self.l1_norm_product,
            "bound_value": self.bound_value,
            "certified_radius": self.certified_radius if self.certified_radius is not None else "none",
            "c0inv_sum_bound": self.c0inv_sum_bound,
        }


def operator_bounds(d: SpectralData) -> OperatorBounds:
    """l1 norms of the explicit inverse and of C(0)^(-1) Cdot, with certificates.

    certified_radius = 1 / ||C(0)^(-1) Cdot||_l1 - 1 when positive: inside
    |z| < 1 + certified_radius the matrix I - z C(0)^(-1) Cdot is invertible
    by a convergent geometric series, so the reconstruction extends
    holomorphically that far.
    """
    delta = d.delta()
    if delta >= 1.0:
        raise ValidationError(f"s must be strictly decreasing, got ratio {delta}")
    inv_sum = float(np.abs(d._factors.cinv).sum())
    l1 = float(np.abs(d._factors.p).sum(axis=0).max())
    radius = 1.0 / l1 - 1.0 if l1 > 0 else np.inf
    return OperatorBounds(
        delta=delta,
        l1_norm_c0inv_sum=inv_sum,
        l1_norm_product=l1,
        bound_value=a_explicit(delta),
        certified_radius=radius if radius > 0 else None,
        c0inv_sum_bound=c0_inverse_sum_bound(d),
    )


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


# --- zero-angle closed forms -------------------------------------------


def _require_zero_angles(d: SpectralData) -> None:
    if np.abs(d.psi).max() > 1e-12:
        r = int(np.argmax(np.abs(d.psi)))
        raise AnglesNotZero(f"psi_{r + 1} = {d.psi[r]:.3e} is not zero")


def c1_closed_form(d: SpectralData) -> float:
    """Closed-form first moment sum n u_hat(n) for zero-angle data.

    Every summand is positive for strictly interlacing data; a nonpositive
    summand means the data is numerically degenerate.
    """
    _require_zero_angles(d)
    _check_denominators(d)
    rho = d.s_odd
    sig = d.s_even
    total = 0.0
    for k in range(d.n_pairs):
        term = sig[k] * np.prod((rho + sig[k]) / (rho - sig[k]))
        others = np.delete(np.arange(d.n_pairs), k)
        term *= np.prod((sig[k] + sig[others]) / (sig[others] - sig[k]))
        if not term > 0:
            raise DegenerateSpectrum(f"summand {k + 1} = {term:.3e} is not positive")
        total += float(term)
    return total


@dataclass(frozen=True)
class C1LowerBounds:
    """Two lower bounds for the first moment from the singular values alone."""

    corollary: float  # sum sigma_k (rho_k + sigma_k) / (rho_k - sigma_k)
    pairs_sum: float  # sum rho_j sigma_j / (rho_j - sigma_j)


def c1_lower_bound(d: SpectralData) -> C1LowerBounds:
    _check_denominators(d)
    rho = d.s_odd
    sig = d.s_even
    return C1LowerBounds(
        corollary=float(np.sum(sig * (rho + sig) / (rho - sig))),
        pairs_sum=float(np.sum(rho * sig / (rho - sig))),
    )


def cauchy_ones_solve(rho: np.ndarray, sigma: np.ndarray):
    """Closed-form solves of C x = 1 and C^T y = 1 for C[j, k] = 1/(rho_j + sigma_k).

    x_k = prod_j (rho_j + sigma_k) / prod_(l != k) (sigma_k - sigma_l),
    y_j = prod_l (rho_j + sigma_l) / prod_(i != j) (rho_j - rho_i).
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
    n = rho.size
    x = np.empty(n)
    y = np.empty(n)
    for k in range(n):
        others = np.delete(np.arange(n), k)
        x[k] = np.prod(rho + sigma[k]) / np.prod(sigma[k] - sigma[others])
        y[k] = np.prod(rho[k] + sigma) / np.prod(rho[k] - rho[others])
    return x, y
