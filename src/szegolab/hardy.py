"""Hardy-space functions on the unit disc as finite coefficient vectors.

A function u in L^2_+ of the circle is stored as its Taylor coefficients
u_hat(0..M-1); everything here is a pure function of those coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeCoefficients, ValidationError
from .fileio import read_csv, write_csv

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
        write_csv(path, ["n", "re", "im"],
                  [(n, float(c.real), float(c.imag)) for n, c in enumerate(self.coeffs)])

    @classmethod
    def load_csv(cls, path) -> "HardyFunction":
        header, rows = read_csv(path)
        if [h.strip() for h in header] != ["n", "re", "im"]:
            raise ValidationError(f"{path}: expected header n,re,im, got {header}")
        coeffs = np.zeros(len(rows), dtype=complex)
        seen = set()
        for row in rows:
            if len(row) != 3:
                raise ValidationError(f"{path}: bad row {row}: need exactly 3 fields n,re,im")
            # int and float read 1_0 as 10 and ١ as 1, and strip an em space
            if any("_" in field or not field.isascii() for field in row):
                raise ValidationError(f"{path}: bad row {row}: non-ASCII and underscores are not accepted")
            try:
                n = int(row[0])
                value = complex(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise ValidationError(f"{path}: bad row {row}: {exc}") from exc
            # len(rows) distinct indices in 0..len-1 leave no gap
            if not 0 <= n < len(rows):
                raise ValidationError(f"{path}: bad row {row}: n = {n} outside 0..{len(rows) - 1}, "
                                      f"so some index is missing")
            if n in seen:
                raise ValidationError(f"{path}: bad row {row}: n = {n} repeated")
            seen.add(n)
            coeffs[n] = value
        return cls(coeffs)


def sobolev_norm(u: HardyFunction, s: float) -> float:
    """Sqrt of sum (1+n)^(2s) |u_hat(n)|^2 for s >= 0, with max |u_hat| factored out first."""
    if s < 0:
        raise ValidationError(f"sobolev_norm needs s >= 0, got {s}")
    n = np.arange(len(u), dtype=float)
    a = np.abs(u.coeffs)
    scale = a.max() or 1.0  # the zero function keeps the norm 0
    return float(scale * np.sqrt(np.sum((1.0 + n) ** (2.0 * s) * (a / scale) ** 2)))


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
