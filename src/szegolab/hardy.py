"""Hardy-space functions on the unit disc as finite coefficient vectors.

A function u in L^2_+ of the circle is stored as its Taylor coefficients
u_hat(0..M-1); everything here is a pure function of those coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fileio import FLOAT_FORMAT, read_csv


@dataclass(frozen=True)
class HardyFunction:
    """Coefficient vector u_hat(0..M-1)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValidationError("HardyFunction needs a 1-d coefficient vector of length >= 1")
        if not np.all(np.isfinite(c)):
            raise ValidationError("HardyFunction coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size

    def save_csv(self, path) -> None:
        """Header n,re,im, then one line n,re,im per coefficient, CRLF-ended, in FLOAT_FORMAT."""
        line = f"%d,{FLOAT_FORMAT},{FLOAT_FORMAT}\r\n"
        rows = zip(range(len(self)), self.coeffs.real.tolist(), self.coeffs.imag.tolist())
        Path(path).write_text("n,re,im\r\n" + "".join(map(line.__mod__, rows)), encoding="utf-8", newline="")

    @classmethod
    def load_csv(cls, path) -> "HardyFunction":
        """Rows n,re,im, each n in 0..rows-1 once. A fault names the first offending row in file
        order, with the first check that row fails."""
        header, rows = read_csv(path)
        if [h.strip() for h in header] != ["n", "re", "im"]:
            raise ValidationError(f"{path}: expected header n,re,im, got {header}")
        if not rows:
            raise ValidationError(f"{path}: no coefficient rows")
        size = len(rows)
        real, imag, seen = [0.0] * size, [0.0] * size, set()
        for row in rows:
            try:
                if len(row) != 3:
                    raise ValueError("need exactly 3 fields n,re,im")
                # int and float read 1_0 as 10 and ١ as 1, and strip an em space
                if "_" in (text := "".join(row)) or not text.isascii():
                    raise ValueError("non-ASCII and underscores are not accepted")
                n, re, im = int(row[0]), float(row[1]), float(row[2])
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ValueError("re and im must be finite")
                # size distinct indices in 0..size-1 leave no gap
                if not 0 <= n < size:
                    raise ValueError(f"n = {n} outside 0..{size - 1}, so some index is missing")
                if n in seen:
                    raise ValueError(f"n = {n} repeated")
            except ValueError as exc:
                raise ValidationError(f"{path}: bad row {row}: {exc}") from exc
            seen.add(n)
            real[n], imag[n] = re, im
        coeffs = np.empty(size, dtype=complex)
        coeffs.real, coeffs.imag = real, imag  # apart, so -0.0 keeps its sign
        return cls(coeffs)


def _pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-e a, e) for a contiguous real or complex a, with 2^(e-1) <= max |a| < 2^e (e = 0 for
    an empty or zero a); exact, since ldexp scales the real and imaginary parts apart."""
    e = int(np.frexp(np.abs(a).max(initial=0.0))[1])
    return np.ldexp(a.view(float), -e).view(a.dtype), e


def _square_sum(a: np.ndarray, w) -> tuple[float, int]:
    """(t, e) with sum w |a|^2 = t 4^e, summed on 2^-e a (_pow2_scaled), so for weights w >= 1
    no square leaves the double range and t >= 1/4 unless a is zero."""
    v, e = _pow2_scaled(a)
    return float(np.sum(w * np.abs(v) ** 2)), e


def _pow2_product(m: np.ndarray, e, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, k) with prod(m 2^e, axis) = t 2^k, t = 0 or 1/2 <= |t| < 1, for a finite real m and
    integer e that broadcast together: m is split by frexp, its signed mantissas are multiplied in
    runs of 1000 (so each run stays above 2^-1000) whose mantissas are multiplied in turn (up to
    10^6 factors), and every exponent is summed apart as an integer, so no partial product leaves
    the double range; the product analogue of _pow2_scaled and _square_sum."""
    t, k = np.frexp(m)
    t, j = np.frexp(np.multiply.reduceat(t, np.arange(0, t.shape[axis], 1000), axis=axis))
    t, i = np.frexp(t.prod(axis))
    return t, (k + e).sum(axis) + j.sum(axis) + i


def _relative_gap(lhs: tuple[float, int], rhs: tuple[float, int]) -> float:
    """|L - R| / R for square sums L = t 4^e and R = t' 4^e' as _square_sum returns them, with the
    exponents combined before any power is formed, so the ratio is the same at every scale of the
    data; 0 where both are 0, inf where only R is."""
    (t, e), (tr, er) = lhs, rhs
    if tr == 0:
        return 0.0 if t == 0 else np.inf
    with np.errstate(over="ignore"):
        return float(abs(np.ldexp(t / tr, 2 * (e - er)) - 1.0))


def _padded(c: np.ndarray, n: int) -> np.ndarray:
    """c(0..n-1) as a new complex array, zero past the end of c."""
    return np.concatenate((c[:n], np.zeros(n - min(c.size, n), dtype=complex)))


def sobolev_norm(u: HardyFunction, s: float) -> float:
    """Sqrt of sum (1+n)^(2s) |u_hat(n)|^2 for s >= 0, summed on a power of two (_square_sum)."""
    if not s >= 0:  # NaN trips too
        raise ValidationError(f"sobolev_norm needs s >= 0, got {s}")
    t, e = _square_sum(u.coeffs, np.arange(1.0, len(u) + 1) ** (2.0 * s))
    return float(np.ldexp(np.sqrt(t), e))
