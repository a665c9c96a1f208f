"""Hardy-space functions on the unit disc as finite coefficient vectors.

A function u in L^2_+ of the circle is stored as its Taylor coefficients
u_hat(0..M-1); everything here is a pure function of those coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NegativeCoefficients, ValidationError
from .fileio import FLOAT_FORMAT, read_csv

TAU_POS = 1e-9  # "nonnegative real coefficient" tolerance, relative to max |u_hat|


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
        """Rows n,re,im, each n in 0..rows-1 once. Each check runs over all rows; a fault names
        the first offending row in file order, with the first check that row fails."""
        header, rows = read_csv(path)
        if [h.strip() for h in header] != ["n", "re", "im"]:
            raise ValidationError(f"{path}: expected header n,re,im, got {header}")
        if not rows:
            raise ValidationError(f"{path}: no coefficient rows")
        size = len(rows)
        end, fault = size, None  # later checks look only at the rows before the first fault
        if set(map(len, rows)) - {3}:
            end = next(i for i, row in enumerate(rows) if len(row) != 3)
            fault = "need exactly 3 fields n,re,im"
        # int and float read 1_0 as 10 and ١ as 1, and strip an em space
        text = "".join(map("".join, rows[:end]))
        if "_" in text or not text.isascii():
            end = next(i for i, row in enumerate(rows) if "_" in "".join(row) or not "".join(row).isascii())
            fault = "non-ASCII and underscores are not accepted"
        try:
            n, real, imag = _parse_columns(rows[:end])
        except ValueError:
            end, exc = next((i, exc) for i, row in enumerate(rows[:end]) if (exc := _parse_error(row)))
            fault = str(exc)
            n, real, imag = _parse_columns(rows[:end])
        finite = np.isfinite(real) & np.isfinite(imag)
        if not finite.all():
            end = int(finite.argmin())
            fault = "re and im must be finite"
            n = n[:end]
        # `end` distinct indices in 0..size-1; with end = size they leave no gap
        if n and not (min(n) >= 0 and max(n) < size):
            end = next(i for i, k in enumerate(n) if not 0 <= k < size)
            fault = f"n = {n[end]} outside 0..{size - 1}, so some index is missing"
        idx = np.array(n[:end], dtype=np.intp)
        repeat = np.ones(end, dtype=bool)
        repeat[np.unique(idx, return_index=True)[1]] = False
        if repeat.any():
            end = int(repeat.argmax())
            fault = f"n = {n[end]} repeated"
        if fault is not None:
            raise ValidationError(f"{path}: bad row {rows[end]}: {fault}")
        coeffs = np.zeros(size, dtype=complex)
        coeffs.real[idx] = real  # real and imaginary parts apart, so -0.0 keeps its sign
        coeffs.imag[idx] = imag
        return cls(coeffs)


def _parse_columns(rows):
    """Lists n, re, im of 3-field rows, through int and float; raises their ValueError."""
    ns, res, ims = zip(*rows) if rows else ((), (), ())
    return list(map(int, ns)), list(map(float, res)), list(map(float, ims))


def _parse_error(row):
    """The ValueError that _parse_columns raises on the one 3-field row, None if it raises none."""
    try:
        _parse_columns([row])
    except ValueError as exc:
        return exc
    return None


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


def _padded(c: np.ndarray, n: int) -> np.ndarray:
    """c(0..n-1) as a new complex array, zero past the end of c."""
    return np.concatenate((c[:n], np.zeros(n - min(c.size, n), dtype=complex)))


def sobolev_norm(u: HardyFunction, s: float) -> float:
    """Sqrt of sum (1+n)^(2s) |u_hat(n)|^2 for s >= 0, summed on a power of two (_square_sum)."""
    if s < 0:
        raise ValidationError(f"sobolev_norm needs s >= 0, got {s}")
    t, e = _square_sum(u.coeffs, np.arange(1.0, len(u) + 1) ** (2.0 * s))
    return float(np.ldexp(np.sqrt(t), e))


def weighted_first_moment(u: HardyFunction) -> float:
    """Sum of n * u_hat(n), defined for nonnegative real coefficients.

    Equals u'(1) when the coefficient positivity holds, which is how the
    sup-norm of the derivative is reached for such functions.
    """
    re = u.coeffs.real
    im = u.coeffs.imag
    tol = TAU_POS * np.abs(u.coeffs).max()
    if re.min() < -tol or np.abs(im).max() > tol:
        n_bad = int(np.argmax(np.maximum(-re, np.abs(im))))
        raise NegativeCoefficients(
            f"coefficient {n_bad} = {u.coeffs[n_bad]:.3e} violates nonnegativity within {tol:.3g}")
    n = np.arange(len(u), dtype=float)
    return float(np.sum(n * re))
