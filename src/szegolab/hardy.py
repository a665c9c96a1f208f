"""Hardy-space functions on the unit disc as finite coefficient vectors.

A function u in L^2_+ of the circle is stored as its Taylor coefficients
u_hat(0..M-1); everything here is a pure function of those coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistentSamples, NegativeCoefficients, ValidationError
from .fileio import load_json, read_csv, write_csv

TAU_POS = 1e-10  # absolute tolerance for "nonnegative real coefficient" checks
DEFAULT_SAMPLE_RADIUS = 0.75
OVERSAMPLE = 4
CONSISTENCY_RTOL = 1e-9  # largest tolerated two-radius disagreement, relative to max |coefficient|


@dataclass(frozen=True)
class HardyFunction:
    """Coefficient vector u_hat(0..M-1) plus the radius where it is trusted."""

    coeffs: np.ndarray
    declared_radius: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValidationError("HardyFunction needs a 1-d coefficient vector of length >= 1")
        if not np.all(np.isfinite(c)):
            raise ValidationError("HardyFunction coefficients must be finite")
        if not (0.0 < self.declared_radius <= 1.0):
            raise ValidationError(f"declared_radius must be in (0, 1], got {self.declared_radius}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # --- serialization -------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
            "declared_radius": float(self.declared_radius),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "HardyFunction":
        try:
            coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
            radius = float(obj.get("declared_radius", 1.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad HardyFunction object: {exc}") from exc
        return cls(coeffs, radius)

    @classmethod
    def load_json(cls, path) -> "HardyFunction":
        return cls.from_json_obj(load_json(path))

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
            try:
                n = int(row[0])
                value = complex(float(row[1]), float(row[2]))
            except (IndexError, ValueError) as exc:
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


@dataclass(frozen=True)
class FullCircleFunction:
    """Two-sided coefficient vector v_hat(n), n in [-max_mode, max_mode]."""

    coeffs: np.ndarray  # length 2*max_mode + 1, index n stored at n + max_mode
    max_mode: int = field(default=-1)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValidationError("FullCircleFunction needs an odd-length vector for n in [-M, M]")
        if not np.all(np.isfinite(c)):
            raise ValidationError("FullCircleFunction coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "max_mode", c.size // 2)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.max_mode:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.max_mode])


def szego_project(v: FullCircleFunction) -> HardyFunction:
    """Orthogonal projection onto nonnegative modes: negative modes are dropped."""
    return HardyFunction(v.coeffs[v.max_mode:])


def eval_disc(u: HardyFunction, z: complex) -> complex:
    """Horner evaluation of sum u_hat(n) z^n inside the declared radius."""
    if abs(z) > u.declared_radius * (1 + 1e-12):
        raise DomainError(f"|z| = {abs(z):.6g} exceeds declared_radius {u.declared_radius}")
    acc = 0.0 + 0.0j
    for c in u.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


def sobolev_norm(u: HardyFunction, s: float) -> float:
    """Sqrt of sum (1+n)^(2s) |u_hat(n)|^2 for s >= 0."""
    if s < 0:
        raise ValidationError(f"sobolev_norm needs s >= 0, got {s}")
    n = np.arange(len(u), dtype=float)
    return float(np.sqrt(np.sum((1.0 + n) ** (2.0 * s) * np.abs(u.coeffs) ** 2)))


def weighted_first_moment(u: HardyFunction, tau_pos: float = TAU_POS) -> float:
    """Sum of n * u_hat(n), defined for nonnegative real coefficients.

    Equals u'(1) when the coefficient positivity holds, which is how the
    sup-norm of the derivative is reached for such functions.
    """
    re = u.coeffs.real
    im = u.coeffs.imag
    if re.min() < -tau_pos or np.abs(im).max() > tau_pos:
        n_bad = int(np.argmax(np.maximum(-re, np.abs(im))))
        raise NegativeCoefficients(
            f"coefficient {n_bad} = {u.coeffs[n_bad]:.3e} violates nonnegativity within {tau_pos:g}")
    n = np.arange(len(u), dtype=float)
    return float(np.sum(n * re))


def _dyadic_blocks(m: int):
    """Block index ranges: block 0 holds modes {0, 1}, block j holds [2^j, 2^(j+1))."""
    blocks = [(0, min(2, m))]
    j = 1
    while 2 ** j < m:
        blocks.append((2 ** j, min(2 ** (j + 1), m)))
        j += 1
    return blocks


def besov_seminorm(u: HardyFunction, p: float) -> float:
    """Sum over dyadic blocks of 2^j times the circle mean of |block|^p."""
    if not (0 < p < np.inf):
        raise ValidationError(f"besov_seminorm needs 0 < p < inf, got {p}")
    total = 0.0
    for j, (lo, hi) in enumerate(_dyadic_blocks(len(u))):
        width = 2 ** (j + 1)
        k = max(4 * width, 8)
        block = np.zeros(k, dtype=complex)
        block[lo:hi] = u.coeffs[lo:hi]
        vals = np.fft.ifft(block) * k
        total += 2.0 ** j * float(np.mean(np.abs(vals) ** p))
    return total


def circle_samples(u: HardyFunction, k: int, radius: float = 1.0) -> np.ndarray:
    """u evaluated at the k-th roots of unity scaled by radius."""
    if k < len(u):
        raise ValidationError(f"need at least {len(u)} nodes, got {k}")
    scaled = u.coeffs * radius ** np.arange(len(u))
    return np.fft.ifft(scaled, n=k) * k


def _extract_at_radius(f, r0: float, m: int, k: int):
    nodes = r0 * np.exp(2j * np.pi * np.arange(k) / k)
    vals = np.asarray(f(nodes), dtype=complex)
    if vals.shape != nodes.shape:
        vals = np.array([f(z) for z in nodes], dtype=complex)
    dft = np.fft.fft(vals) / k
    coeffs = dft[:m] / r0 ** np.arange(m)
    return coeffs, float(np.abs(vals).max())


def coeffs_from_disc_samples(f, r0: float = DEFAULT_SAMPLE_RADIUS, m: int = 32) -> HardyFunction:
    """Taylor coefficients of a holomorphic callback from circle samples.

    Samples on |z| = r0 and on |z| = 0.9*r0 and cross-checks the two
    extractions.  The comparison tolerance includes the unavoidable
    roundoff amplification r^(-n), so the check flags genuine
    inconsistency (non-holomorphic input, insufficient decay) rather than
    floating-point noise on high modes.
    """
    if not (0 < r0 < 1):
        raise ValidationError(f"extraction radius must be in (0, 1), got {r0}")
    k = max(OVERSAMPLE * m, 8)
    c0, sup0 = _extract_at_radius(f, r0, m, k)
    r1 = 0.9 * r0
    c1, sup1 = _extract_at_radius(f, r1, m, k)
    n = np.arange(m, dtype=float)
    noise = 64 * np.finfo(float).eps * (sup0 * r0 ** -n + sup1 * r1 ** -n)
    scale = max(1.0, float(np.abs(c0).max()))
    bad = np.abs(c0 - c1) > CONSISTENCY_RTOL * scale + noise
    if np.any(bad):
        nb = int(np.argmax(bad))
        raise InconsistentSamples(
            f"two-radius extraction disagrees at n={nb}: {c0[nb]:.6e} vs {c1[nb]:.6e} "
            f"(allowance {CONSISTENCY_RTOL * scale + noise[nb]:.3e})")
    return HardyFunction(c0)
