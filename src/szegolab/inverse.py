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
    """Pairs (s_r, psi_r), r = 1..2N: s strictly decreasing, positive, no odd/even pair within EPS_DEN."""

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
        bad = np.flatnonzero(~(s[:-1] > s[1:]))
        if bad.size:
            r = int(bad[0])
            raise ValidationError(f"strict decrease violated at r={r + 1}: "
                                  f"s_{r + 1}={s[r]:.17g} <= s_{r + 2}={s[r + 1]:.17g}")
        s = s.copy(); s.flags.writeable = False
        psi = psi.copy(); psi.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "psi", psi)
        _check_denominators(self)

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
        """Read-only explicit C(0) inverse and (c, P), built on first use.  Threads racing on
        the first use may each build it, bitwise identically, so whichever result is kept is right."""
        return _build_factors(self)

    @property
    def _ratios(self) -> np.ndarray:
        """Consecutive ratios q_r = s_(r+1)/s_r, r = 1..2N-1."""
        return self.s[1:] / self.s[:-1]

    def delta(self) -> float:
        """Largest consecutive ratio s_(r+1)/s_r."""
        return float(np.max(self._ratios))

    def to_json_obj(self) -> dict:
        return {"pairs": [{"s": float(sr), "psi": float(pr)} for sr, pr in zip(self.s, self.psi)]}

    @classmethod
    def from_json_obj(cls, obj) -> "SpectralData":
        try:
            pairs = [(p["s"], p["psi"]) for p in obj["pairs"]]
            unknown = ([k for k in obj if k != "pairs"]
                       + [k for p in obj["pairs"] for k in p if k not in ("s", "psi")])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad spectral data object: {exc}") from exc
        if unknown:
            raise ValidationError(f"bad spectral data object: unknown key {unknown[0]!r}")
        for value in (v for pair in pairs for v in pair):
            if type(value) not in (int, float):  # JSON numbers only; a bool is an int subclass
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
    # |x - y| / max(x, y) = 1 - q^2 with q the smaller over the larger s of the pair: no
    # square is formed, so it cannot underflow to 0/0. An odd/even pair spans a run of
    # consecutive values, so its q is a product of consecutive ratios and at most each
    # of them (rounding keeps that order); every consecutive pair is an odd/even pair,
    # so the least 1 - q^2 over all N^2 pairs is the least over the consecutive ratios
    q = d._ratios
    rel = (1.0 - q) * (1.0 + q)
    r = int(np.argmin(rel))
    if not rel[r] >= EPS_DEN:  # NaN trips too
        raise DegenerateSpectrum(
            f"|s_{r + 1}^2 - s_{r + 2}^2| cancels to {rel[r]:.3e} relative, below {EPS_DEN:g}")


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


def _guarded_solve(m: np.ndarray, rhs: np.ndarray, ceiling: float):
    """(x, bound) with x = m^(-1) rhs from one LU factorization of m, which also proves
    cond_2(m) <= ceiling, or (None, bound) where it does not and an SVD must decide.

    One solve of m [rhs | I] gives x and X = m^(-1). Since ||A||_2 <= sqrt(||A||_1 ||A||_inf)
    for every A (Higham, Accuracy and Stability of Numerical Algorithms, ch. 6),

        bound = sqrt((||m||_1 ||X||_1) (||m||_inf ||X||_inf)) >= ||m||_2 ||X||_2,

    the norms paired so that no product of two large norms overflows. x is returned only
    where bound <= sqrt(ceiling). The computed X has relative error of about
    n eps cond(m) g, g the pivot growth that the plain solve relies on being small:
    each column solves (m + E_j) X e_j = e_j with ||E_j|| <= n eps g ||m||, so
    m X = I - R with ||R|| <= sqrt(n) n eps g ||m|| ||X|| <= sqrt(n) n eps g sqrt(ceiling),
    far below 1/2 for ceiling <= 1e13 and n in the hundreds, and then
    cond_2(m) <= ||m|| ||X|| / (1 - ||R||) <= 2 sqrt(ceiling) <= ceiling. A NaN or inf bound,
    a singular LU, or a bound above sqrt(ceiling) returns None, so the caller's SVD guard
    decides exactly where it decided before; x is then None and bound may be NaN.
    """
    n = m.shape[0]
    try:
        sol = np.linalg.solve(m, np.column_stack((rhs, np.eye(n))))
    except np.linalg.LinAlgError:
        return None, np.nan
    x, inv = sol[:, 0], sol[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        am, ai = np.abs(m), np.abs(inv)
        k1 = am.sum(axis=0).max() * ai.sum(axis=0).max()
        kinf = am.sum(axis=1).max() * ai.sum(axis=1).max()
        bound = float(np.sqrt(k1 * kinf))
    return (x if bound <= np.sqrt(ceiling) else None), bound


def reconstruct_point(d: SpectralData, z: complex, method: str = "neumann") -> complex:
    """u(z) = <C(z)^(-1) 1, 1>.

    Goes through the explicit C(0) inverse and solves the well-scaled
    system (I - z P) w = c, which holds up at dynamic ranges where a dense
    factorization of C(z) is unusable.  "neumann" is the only method.
    The LU of the solve proves the EPS_COND guard wherever it can (_guarded_solve);
    elsewhere the SVD decides, and the system is solved after it passes.
    """
    if method != "neumann":
        raise ValidationError(f"unknown method {method!r}")
    if not np.isfinite(z):  # a NaN or inf in I - z P reaches LAPACK, which fails or warns
        raise ValidationError(f"z must be finite, got {z}")
    c, p = cauchy_neumann_factors(d)
    m = np.eye(d.n_pairs, dtype=complex) - z * p
    w = _guarded_solve(m, c, EPS_COND)[0]
    if w is None:
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > EPS_COND:
            raise SingularMatrix(f"cond(I - z P) = {cond:.3e} exceeds {EPS_COND:g} at z = {z}")
        w = np.linalg.solve(m, c)
    return complex(w.sum())


def taylor_coefficients(d: SpectralData, m: int) -> np.ndarray:
    """First m Taylor coefficients via the recursion u_hat(n) = 1^T P^n c.

    v = P^n c lives in one of two buffers and P v is written into the other, so
    no step allocates an array; the sums and products are those of v.sum() and p @ v.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1 coefficients, got {m}")
    c, p = cauchy_neumann_factors(d)
    out = np.empty(m, dtype=complex)
    v, w = c.copy(), np.empty_like(c)
    for n in range(m):
        out[n] = np.add.reduce(v)
        np.matmul(p, v, out=w)
        v, w = w, v
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
    if not (0 <= delta < 1):  # delta = 0 is the empty product
        raise ValidationError(f"delta must be in [0, 1), got {delta}")
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


def operator_bounds(d: SpectralData) -> OperatorBounds:
    """l1 norms of the explicit inverse and of C(0)^(-1) Cdot, with certificates.

    certified_radius = 1 / ||C(0)^(-1) Cdot||_l1 - 1 when positive: inside
    |z| < 1 + certified_radius the matrix I - z C(0)^(-1) Cdot is invertible
    by a convergent geometric series, so the reconstruction extends
    holomorphically that far.
    """
    delta = d.delta()
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

    By strict interlacing, both products in summand k (from 0) have N - 1 - k negative factors,
    each of modulus above 1, so every summand is positive (or +inf) and none needs a check.
    """
    _require_zero_angles(d)
    rho, sig = d.s_odd, d.s_even
    col = sig[:, None]  # row k of both tables
    plus = col + sig
    term = sig * np.prod((rho + col) / (rho - col), axis=1)
    term *= np.prod(plus / np.where(np.eye(d.n_pairs, dtype=bool), plus, sig - col), axis=1)  # l = k reads 1
    return float(np.cumsum(term)[-1])  # a running sum in index order, not a pairwise one


@dataclass(frozen=True)
class C1LowerBounds:
    """Two lower bounds for the first moment from the singular values alone."""

    corollary: float  # sum sigma_k (rho_k + sigma_k) / (rho_k - sigma_k)
    pairs_sum: float  # sum rho_j sigma_j / (rho_j - sigma_j)


def c1_lower_bound(d: SpectralData) -> C1LowerBounds:
    rho, sig = d.s_odd, d.s_even
    return C1LowerBounds(  # sigma times a ratio above 1, so no term underflows before sigma does
        corollary=float(np.sum(sig * ((rho + sig) / (rho - sig)))),
        pairs_sum=float(np.sum(sig * (rho / (rho - sig)))),
    )


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
