"""Inverse spectral transform and the explicit Cauchy-matrix machinery.

A finite list of singular-value/angle pairs determines a rational Hardy
function through the N x N matrix

    C(z)[j, k] = (s_odd_j e^(i psi_odd_j) - z s_even_k e^(i psi_even_k))
                 / (s_odd_j^2 - s_even_k^2),

as u(z) = <C(z)^(-1) 1, 1>.  C(0) is a row-scaled Cauchy matrix whose
inverse is known in closed form; that inverse also powers the l1 operator
bounds that certify analytic extension past the unit circle, and the
closed-form first-moment identities for zero angles.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnglesNotZero, DegenerateSpectrum, SingularMatrix, ValidationError
from .fileio import load_json
from .hardy import HardyFunction, _pow2_product

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


def _build_factors(d: SpectralData) -> _Factors:
    """The explicit C(0) inverse and (c, P), every array read-only.

    With x = s_odd^2 and y = s_even^2, entry (k, j) of C(0)^(-1) is
    e^(-i psi_odd_j) A_j B_k / ((x_j - y_k) s_odd_j), where A_j = prod_l (x_j - y_l) / prod_(l != j)
    (x_j - x_l) and B_k = prod_l (x_l - y_k) / prod_(l != k) (y_l - y_k). Each a^2 - b^2 is
    (u - v)(u + v) 4^E, with u = a 2^-E and v = b 2^-E below 1 for E the frexp exponent of the
    larger, so no square is formed and no sum overflows; every product is a signed mantissa and
    a power of two (hardy._pow2_product), and each entry's power is applied once by ldexp. So
    s -> 2^k s scales C(0)^(-1) and c by 2^k exactly and leaves P's bits unchanged.

    P = C(0)^(-1) Cdot is one product whose factors cannot overflow: the left one, |C(0)^(-1)[k, j]|
    / s_odd_j, stays at or below B_delta / (1 - delta^2) by the explicit entry bound (times a
    power of delta, at most 1), and the right one, s_odd_j s_even_l / (x_j - y_l), is
    v / (u + v) * u / (u - v): two quotients of modulus at most 1 and 1 / (1 - q) < 2 / EPS_DEN,
    q < 1 the pair ratio that EPS_DEN guards.
    """
    def squares(a, b):  # (t, e, u, v) with a_j^2 - b_k^2 = t 2^e, and 1 = t 2^e where a_j = b_k
        big = np.maximum.outer(np.frexp(a)[1], np.frexp(b)[1])
        u, v = np.ldexp(a[:, None], -big), np.ldexp(b, -big)
        same = u == v  # elsewhere |u - v| >= 2^-54, as max(u, v) >= 1/2, so (u - v)(u + v) is normal
        t, e = np.frexp(np.where(same, 1.0, (u - v) * (u + v)))
        return t, np.where(same, e, e + 2 * big), u, v

    txy, exy, u, v = squares(d.s_odd, d.s_even)
    (an, ean), (ad, ead) = _pow2_product(txy, exy, 1), _pow2_product(*squares(d.s_odd, d.s_odd)[:2], 1)
    (bn, ebn), (bd, ebd) = _pow2_product(txy, exy, 0), _pow2_product(*squares(d.s_even, d.s_even)[:2], 0)
    mr, er = np.frexp(d.s_odd)
    # row k, column j: A_j B_k / ((x_j - y_k) s_odd_j) = q 2^eq, with 1/8 < |q| < 32
    q = (an / (ad * mr))[None, :] * (bn / bd)[:, None] / txy.T
    eq = (ean - ead - er)[None, :] + (ebn - ebd)[:, None] - exy.T
    phase = np.exp(-1j * d.psi_odd)[None, :]
    cinv = np.ldexp(q, eq) * phase
    c = cinv.sum(axis=1)
    left = np.ldexp(q / mr, eq - er) * phase
    p = (left @ (v / (u + v) * (u / (u - v)))) * np.exp(1j * d.psi_even)[None, :]
    out = _Factors(cinv, c, p)
    for a in out:
        a.flags.writeable = False
    return out


def cauchy_neumann_factors(d: SpectralData):
    """(c, P) with c = C(0)^(-1) 1 and P = C(0)^(-1) Cdot, read-only and shared.

    These satisfy C(z)^(-1) 1 = (I - z P)^(-1) c, the splitting behind both
    the analytic-continuation bounds and the Taylor recursion u_hat(n) = 1^T P^n c.
    """
    return d._factors.c, d._factors.p


def _guarded_solve(m: np.ndarray, rhs: np.ndarray, ceiling: float, fail) -> np.ndarray:
    """x = m^(-1) rhs where cond_2(m) <= ceiling; elsewhere raises fail(cond_2(m)).

    One solve of m [rhs | I] gives x and X = m^(-1). Since ||A||_2 <= sqrt(||A||_1 ||A||_inf)
    for every A (Higham, Accuracy and Stability of Numerical Algorithms, ch. 6),

        bound = sqrt((||m||_1 ||X||_1) (||m||_inf ||X||_inf)) >= ||m||_2 ||X||_2,

    the norms paired so that no product of two large norms overflows. Where
    bound <= sqrt(ceiling), x is returned with no SVD. The computed X has relative error of
    about n eps cond(m) g, g the pivot growth that the plain solve relies on being small:
    each column solves (m + E_j) X e_j = e_j with ||E_j|| <= n eps g ||m||, so
    m X = I - R with ||R|| <= sqrt(n) n eps g ||m|| ||X|| <= sqrt(n) n eps g sqrt(ceiling),
    far below 1/2 for ceiling <= 1e13 and n in the hundreds, and then
    cond_2(m) <= ||m|| ||X|| / (1 - ||R||) <= 2 sqrt(ceiling) <= ceiling. Elsewhere (a NaN or
    inf bound, or a bound above sqrt(ceiling) near a singular m) the SVD decides: fail(cond)
    is raised unless cond <= ceiling (NaN trips too), and x is the same column of the one
    solve. A singular LU has no x and raises fail(cond) whatever cond reads.
    """
    n = m.shape[0]
    try:
        sol = np.linalg.solve(m, np.column_stack((rhs, np.eye(n))))
    except np.linalg.LinAlgError as exc:
        raise fail(np.linalg.cond(m)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        am, ai = np.abs(m), np.abs(sol[:, 1:])
        k1 = am.sum(axis=0).max() * ai.sum(axis=0).max()
        kinf = am.sum(axis=1).max() * ai.sum(axis=1).max()
    if np.sqrt(k1 * kinf) <= np.sqrt(ceiling):
        return sol[:, 0]
    cond = np.linalg.cond(m)
    if not cond <= ceiling:
        raise fail(cond)
    return sol[:, 0]


def reconstruct_point(d: SpectralData, z: complex, method: str = "neumann") -> complex:
    """u(z) = <C(z)^(-1) 1, 1>.

    Goes through the explicit C(0) inverse and solves the well-scaled
    system (I - z P) w = c, which holds up at dynamic ranges where a dense
    factorization of C(z) is unusable.  "neumann" is the only method.
    _guarded_solve decides the EPS_COND guard.
    """
    if method != "neumann":
        raise ValidationError(f"unknown method {method!r}")
    if not np.isfinite(z):  # a NaN or inf in I - z P reaches LAPACK, which fails or warns
        raise ValidationError(f"z must be finite, got {z}")
    c, p = cauchy_neumann_factors(d)
    # the system is 2^-k (I - z P) w = c, formed exactly, with u = 2^-k sum(w): k > 0 where z P
    # comes within 2^24 of overflow; max|P| is read only past |z| = 2^24, below which that
    # would take an entry of P past 2^976
    big = max(abs(z.real), abs(z.imag))
    k = max(0, math.frexp(big)[1] + math.frexp(np.abs(p).max())[1] - 1000) if big > 2.0 ** 24 else 0
    m = np.eye(d.n_pairs, dtype=complex) - z * p if k == 0 else (
        np.ldexp(np.eye(d.n_pairs), -k) - complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) * p)
    u = _guarded_solve(m, c, EPS_COND, lambda cond: SingularMatrix(
        f"cond(I - z P) = {cond:.3e} exceeds {EPS_COND:g} at z = {z}")).sum()
    return complex(math.ldexp(u.real, -k), math.ldexp(u.imag, -k))


def taylor_coefficients(d: SpectralData, m: int) -> np.ndarray:
    """First m Taylor coefficients u_hat(n) = 1^T P^n c, by baby steps and giant steps.

    With w = ceil(sqrt(m)) and a = ceil(m / w), u_hat(j w + b) = (1^T Q^j)(P^b c) for Q = P^w:
    the rows 1^T Q^j, j < a, and the columns P^b c, b < w, take a - 1 vector-matrix products
    and w - 1 matrix-vector products, and one (a x N)(N x w) product gives every coefficient
    (Paterson and Stockmeyer, SIAM J. Comput. 1973). That is about 2 sqrt(m) numpy calls where
    the plain recursion takes 2m, in N (a + w) numbers of workspace beside the result. s -> 2^k s
    scales c by 2^k and keeps P's bits, so it scales every coefficient by 2^k exactly while
    none is subnormal.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1 coefficients, got {m}")
    c, p = cauchy_neumann_factors(d)
    w = math.isqrt(m - 1) + 1
    a = -(-m // w)
    cols = np.empty((w, c.size), dtype=complex)  # row b is P^b c
    cols[0] = c
    for b in range(1, w):
        np.matmul(p, cols[b - 1], out=cols[b])
    rows = np.empty((a, c.size), dtype=complex)  # row j is 1^T Q^j
    rows[0] = 1.0
    q = np.linalg.matrix_power(p, w)
    for j in range(1, a):
        np.matmul(rows[j - 1], q, out=rows[j])
    return (rows @ cols.T).ravel()[:m]


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
