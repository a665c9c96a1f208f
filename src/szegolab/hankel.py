"""Direct spectral transform: truncated Hankel matrices and their singular values.

The two matrices built from a coefficient vector are (u_hat(n+p)) and the
shifted (u_hat(n+p+1)).  Their singular values are extracted from the
Hermitian Gram matrices A A*, which is also how the trace and rank-one
identities are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTruncation, ValidationError
from .fileio import write_csv
from .hardy import HardyFunction, sobolev_norm

TAU_RANK = 1e-12   # relative eigenvalue cutoff for numerical rank
TAU_EIG = 1e-9     # distinctness / interlacing slack, relative to the largest value
TAIL_RTOL = 1e-10  # largest tolerated tail_mass / total trace


def _padded(u: HardyFunction, m: int) -> np.ndarray:
    c = np.zeros(2 * m, dtype=complex)
    take = min(len(u), 2 * m)
    c[:take] = u.coeffs[:take]
    return c


def hankel_matrix(u: HardyFunction, m: int) -> np.ndarray:
    """A[n, p] = u_hat(n + p), entries beyond the coefficient support are 0."""
    if m < 1:
        raise ValidationError(f"matrix size must be >= 1, got {m}")
    c = _padded(u, m)
    n = np.arange(m)
    return c[n[:, None] + n[None, :]]


def shifted_hankel_matrix(u: HardyFunction, m: int) -> np.ndarray:
    """A[n, p] = u_hat(n + p + 1)."""
    if m < 1:
        raise ValidationError(f"matrix size must be >= 1, got {m}")
    c = np.concatenate([_padded(u, m), [0.0]])
    n = np.arange(m)
    return c[n[:, None] + n[None, :] + 1]


def tail_mass(u: HardyFunction, m: int) -> float:
    """Discarded trace: sum over n >= m of (1+n) |u_hat(n)|^2."""
    if m < 0:
        raise ValidationError(f"truncation index must be >= 0, got {m}")
    if len(u) <= m:
        return 0.0
    n = np.arange(m, len(u), dtype=float)
    return float(np.sum((1.0 + n) * np.abs(u.coeffs[m:]) ** 2))


def _merge_close(vals: np.ndarray, tau: float) -> np.ndarray:
    """Collapse runs of values within tau of the largest (descending input) to their mean."""
    if vals.size == 0:
        return vals
    out = []
    run = [vals[0]]
    for v in vals[1:]:
        if run[-1] - v <= tau * vals[0]:
            run.append(v)
        else:
            out.append(np.mean(run))
            run = [v]
    out.append(np.mean(run))
    return np.array(out)


@dataclass(frozen=True)
class HankelSpectrum:
    """Singular values of the plain and shifted Hankel matrices."""

    rho: np.ndarray
    sigma: np.ndarray
    tail_mass: float

    def merged(self) -> np.ndarray:
        """Interleaved list s with s_(2j-1) = rho_j and s_(2k) = sigma_k."""
        n = min(self.rho.size, self.sigma.size)
        out = np.empty(self.rho.size + self.sigma.size)
        out[0:2 * n:2] = self.rho[:n]
        out[1:2 * n:2] = self.sigma[:n]
        if self.rho.size > n:
            out[2 * n:] = self.rho[n:]
        elif self.sigma.size > n:
            out[2 * n:] = self.sigma[n:]
        return out

    def interlacing_ok(self) -> bool:
        s = self.merged()
        return bool(s.size == 0 or np.all(s[:-1] >= s[1:] - TAU_EIG * s[0]))

    def save_csv(self, path) -> None:
        rows = [(j + 1, "rho", float(v)) for j, v in enumerate(self.rho)]
        rows += [(k + 1, "sigma", float(v)) for k, v in enumerate(self.sigma)]
        write_csv(path, ["index", "kind", "value"], rows)


def _gram_singular_values(a: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(a @ a.conj().T)[::-1]
    lam = np.clip(lam, 0.0, None)
    if lam.size == 0 or lam[0] == 0.0:
        return np.array([])
    keep = lam > TAU_RANK * lam[0]
    return _merge_close(np.sqrt(lam[keep]), TAU_EIG)


def pair_singular_values(u: HardyFunction, m: int) -> HankelSpectrum:
    """Descending singular-value lists of the m x m plain and shifted Hankel matrices.

    The caller owns the truncation: if the coefficient vector extends past m,
    the discarded trace must stay below TAIL_RTOL of the total.
    """
    if m < 1:
        raise ValidationError(f"matrix size must be >= 1, got {m}")
    tm = tail_mass(u, m)
    total = sobolev_norm(u, 0.5) ** 2
    if total > 0 and tm > TAIL_RTOL * total:
        raise InsufficientTruncation(
            f"tail mass {tm:.3e} exceeds {TAIL_RTOL:g} of total trace {total:.3e}; increase m={m}")
    rho = _gram_singular_values(hankel_matrix(u, m))
    sigma = _gram_singular_values(shifted_hankel_matrix(u, m))
    return HankelSpectrum(rho=rho, sigma=sigma, tail_mass=tm)


def check_trace_identity(u: HardyFunction, spectrum: HankelSpectrum) -> float:
    """|sum rho_j^2 - H^(1/2) norm squared|; zero up to tail mass and roundoff."""
    return float(abs(np.sum(spectrum.rho ** 2) - sobolev_norm(u, 0.5) ** 2))


def check_rank_one_identity(u: HardyFunction, m: int) -> float:
    """Entrywise residual of (shifted Gram) = (Gram) - outer(u_hat, u_hat).

    Measured on the top-left m/2 block where truncation edge effects vanish
    for coefficients supported in [0, m/2].
    """
    g = hankel_matrix(u, m)
    gs = shifted_hankel_matrix(u, m)
    c = _padded(u, m)[:m]
    resid = gs @ gs.conj().T - g @ g.conj().T + np.outer(c, c.conj())
    half = max(m // 2, 1)
    return float(np.abs(resid[:half, :half]).max())


def sum_rule_residual(u: HardyFunction, spectrum: HankelSpectrum) -> float:
    """|sum of all s_r^2 - sum (1+2n)|u_hat(n)|^2|, the two-operator trace identity."""
    n = np.arange(len(u), dtype=float)
    rhs = float(np.sum((1.0 + 2.0 * n) * np.abs(u.coeffs) ** 2))
    lhs = float(np.sum(spectrum.rho ** 2) + np.sum(spectrum.sigma ** 2))
    return abs(lhs - rhs)
