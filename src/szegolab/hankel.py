"""Direct spectral transform: truncated Hankel matrices and their singular values.

The two matrices built from a coefficient vector are (u_hat(n+p)) and the
shifted (u_hat(n+p+1)): the first and last m rows of one (m+1) x m array H.
Their singular values come from one SVD each of the two row ranges of the leading
block of H that the coefficients occupy; H H* serves the rank-one identity only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTruncation, ValidationError
from .fileio import write_csv
from .hardy import HardyFunction, sobolev_norm

TAU_RANK = 1e-6    # relative singular-value cutoff for numerical rank
TAU_EIG = 1e-9     # distinctness / interlacing slack, relative to the largest value
TAIL_RTOL = 1e-10  # largest tolerated tail_mass / total trace


def _hankel_rows(u: HardyFunction, m: int) -> np.ndarray:
    """(m+1) x m read-only view H[n, p] = u_hat(n + p) of u_hat(0..2m-1), zero past the
    support; rows 0..m-1 are the plain matrix and rows 1..m the shifted one."""
    if m < 1:
        raise ValidationError(f"matrix size must be >= 1, got {m}")
    c = np.zeros(2 * m, dtype=complex)
    take = min(len(u), 2 * m)
    c[:take] = u.coeffs[:take]
    return np.lib.stride_tricks.sliding_window_view(c, m)


def hankel_matrix(u: HardyFunction, m: int) -> np.ndarray:
    """A[n, p] = u_hat(n + p), entries beyond the coefficient support are 0."""
    return _hankel_rows(u, m)[:-1].copy()


def shifted_hankel_matrix(u: HardyFunction, m: int) -> np.ndarray:
    """A[n, p] = u_hat(n + p + 1)."""
    return _hankel_rows(u, m)[1:].copy()


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


def _singular_values(a: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(a, compute_uv=False)
    return _merge_close(s[s > TAU_RANK * s[0]], TAU_EIG)


def pair_singular_values(u: HardyFunction, m: int) -> HankelSpectrum:
    """Descending singular-value lists of the m x m plain and shifted Hankel matrices.

    rho and sigma are those of rows 0..k-1 and 1..k of the leading (k+1) x k block of
    H, where k <= m is the least size whose dropped coefficients u_hat(k..2m-1) sum
    to at most eps * ||u_hat(0..m-1)||_2. No value moves by more than eps * s_1: the
    dropped entries lie on antidiagonals of index >= k, each one coefficient times a
    partial permutation, so their operator norm is at most that sum (Weyl), while
    s_1 >= ||H e_0|| = ||u_hat(0..m-1)||_2.
    The caller owns the truncation: if the coefficient vector extends past m,
    the discarded trace must stay below TAIL_RTOL of the total; the ratio is formed
    from the coefficients divided by max |u_hat|, so it holds at any scale.
    """
    h = _hankel_rows(u, m)
    tm = tail_mass(u, m)
    scale = np.abs(u.coeffs).max()
    if scale > 0:
        v = HardyFunction(u.coeffs / scale)
        ratio = tail_mass(v, m) / sobolev_norm(v, 0.5) ** 2
        if not ratio <= TAIL_RTOL:
            raise InsufficientTruncation(
                f"tail mass {tm:.3e} is {ratio:.3e} of the total trace, above {TAIL_RTOL:g}; increase m={m}")
    a = np.abs(np.concatenate([h[0], h[-1]]))  # |u_hat(0..2m-1)|
    dropped = np.cumsum(a[::-1])[::-1]  # dropped[k] = sum of a[k:]
    k = min(m, max(1, np.count_nonzero(dropped > np.finfo(float).eps * np.hypot.reduce(a[:m]))))
    h = h[:k + 1, :k]
    return HankelSpectrum(rho=_singular_values(h[:-1]), sigma=_singular_values(h[1:]), tail_mass=tm)


def check_trace_identity(u: HardyFunction, spectrum: HankelSpectrum) -> float:
    """|sum rho_j^2 - H^(1/2) norm squared|; zero up to tail mass and roundoff."""
    return float(abs(np.sum(spectrum.rho ** 2) - sobolev_norm(u, 0.5) ** 2))


def check_rank_one_identity(u: HardyFunction, m: int) -> float:
    """Entrywise residual of (shifted Gram) = (Gram) - outer(u_hat, u_hat).

    Measured on the top-left m/2 block where truncation edge effects vanish
    for coefficients supported in [0, m/2].
    """
    h = _hankel_rows(u, m)
    g = h @ h.conj().T
    c = h[0]  # u_hat(0..m-1)
    resid = g[1:, 1:] - g[:-1, :-1] + np.outer(c, c.conj())
    half = max(m // 2, 1)
    return float(np.abs(resid[:half, :half]).max())


def sum_rule_residual(u: HardyFunction, spectrum: HankelSpectrum) -> float:
    """|sum of all s_r^2 - sum (1+2n)|u_hat(n)|^2|, the two-operator trace identity."""
    n = np.arange(len(u), dtype=float)
    rhs = float(np.sum((1.0 + 2.0 * n) * np.abs(u.coeffs) ** 2))
    lhs = float(np.sum(spectrum.rho ** 2) + np.sum(spectrum.sigma ** 2))
    return abs(lhs - rhs)
