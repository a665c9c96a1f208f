"""Direct spectral transform: truncated Hankel matrices and their singular values.

The two matrices built from a coefficient vector are (u_hat(n+p)) and the
shifted (u_hat(n+p+1)): the first and last m rows of one (m+1) x m array H.
Their singular values come from one SVD each of the two row ranges of B = H Q,
where H is now the leading block of that array the coefficients occupy and Q is
either the identity or an orthonormal basis of the span of H's first
SKETCH_WIDTH rows, as wide as their numerical rank: a Hankel operator of finite
rank r has a nonsingular leading r x r section (Kronecker), so its first r rows
span its row space. The sketch is taken when a residual certificate, which holds
for any orthonormal Q, proves it: with R = H - B Q* = H (I - Q Q*) and A, A_B, R_A
the same rows of H, B, R,
A A* = A_B A_B* + R_A R_A*, so 0 <= s_j(A)^2 - s_j(A_B)^2 <= ||R||^2 for every j,
and s_j(A) <= ||R|| past the sketch width; pair_singular_values states the two
conditions on ||R||_F that turn this into the eps * s_1 contract of the trim, all on
u_hat times the power of two that brings max |u_hat| into [1/2, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTruncation, ValidationError
from .fileio import write_csv
from .hardy import HardyFunction, _padded, _pow2_scaled, _square_sum

TAU_RANK = 1e-6    # relative singular-value cutoff for numerical rank
TAU_EIG = 1e-9     # distinctness slack, relative to the largest value
TAIL_RTOL = 1e-10  # largest tolerated tail_mass / total trace
SKETCH_WIDTH = 16  # rows the sketch probes, so its widest; narrower blocks than twice this are not sketched


def _hankel_rows(c: np.ndarray, m: int) -> np.ndarray:
    """(m+1) x m read-only view H[n, p] = c(n + p) of the coefficients c(0..2m-1), zero past
    the end of c; rows 0..m-1 are the plain matrix and rows 1..m the shifted one."""
    if m < 1:
        raise ValidationError(f"matrix size must be >= 1, got {m}")
    return np.lib.stride_tricks.sliding_window_view(_padded(c, 2 * m), m)


def _tail_sum(u: HardyFunction, m: int) -> tuple[float, int]:
    """(t, e) with sum over n >= m of (1+n) |u_hat(n)|^2 = t 4^e, on the tail's own power of two."""
    return _square_sum(u.coeffs[m:], np.arange(m + 1.0, len(u) + 1))


@np.errstate(over="ignore")
def _check_tail(u: HardyFunction, m: int) -> tuple[float, int]:
    """The tail's (t, e) from _tail_sum once the trace at n >= m is at most TAIL_RTOL of the
    total; InsufficientTruncation otherwise."""
    t, et = _tail_sum(u, m)
    total, e = _square_sum(u.coeffs, np.arange(1.0, len(u) + 1))
    # et <= e: the tail on the total's power of two can only underflow, below any total's
    # TAIL_RTOL; the total is 0 only for the zero function, whose tail is 0 too
    tm = np.ldexp(t, 2 * (et - e))
    if not tm <= TAIL_RTOL * total:
        raise InsufficientTruncation(f"tail mass {np.ldexp(t, 2 * et):.3e} is {tm / total:.3e} "
                                     f"of the total trace, above {TAIL_RTOL:g}; increase m={m}")
    return t, et


def _merge_close(vals: np.ndarray, tau: float) -> np.ndarray:
    """Collapse runs of values within tau of the largest (descending input) to their mean:
    a new run starts where a value lies more than tau * vals[0] below the one before."""
    gap = -np.diff(vals, prepend=np.inf)  # vals[i-1] - vals[i], and inf for i = 0
    starts = np.flatnonzero(gap > tau * vals[:1])
    return np.add.reduceat(vals, starts) / np.diff(starts, append=vals.size)


@dataclass(frozen=True)
class HankelSpectrum:
    """Singular values of the plain and shifted Hankel matrices."""

    rho: np.ndarray
    sigma: np.ndarray
    tail_mass: float

    def merged(self) -> np.ndarray:
        """Interleaved list s with s_(2j-1) = rho_j and s_(2k) = sigma_k."""
        n = min(self.rho.size, self.sigma.size)
        pairs = np.column_stack((self.rho[:n], self.sigma[:n])).ravel()
        return np.concatenate((pairs, self.rho[n:], self.sigma[n:]))

    def save_csv(self, path) -> None:
        rows = [(j + 1, "rho", float(v)) for j, v in enumerate(self.rho)]
        rows += [(k + 1, "sigma", float(v)) for k, v in enumerate(self.sigma)]
        write_csv(path, ["index", "kind", "value"], rows)


def _certified(s: np.ndarray, r: float) -> bool:
    """Whether the descending singular values s of one row range of B = H Q, given
    r = ||H - B Q*||_F / s_0, stand for those of H (see pair_singular_values)."""
    n = np.count_nonzero(s > TAU_RANK * s[0])  # s_0 > 0, so n >= 1
    s_next = s[n] / s[0] if n < s.size else 0.0
    return r * r <= 2 * np.finfo(float).eps * s[n - 1] / s[0] and s_next ** 2 + r * r < TAU_RANK ** 2


def _sketched_spectra(h: np.ndarray) -> list[np.ndarray] | None:
    """Singular values of rows 0..k-1 and 1..k of B = h Q for the contiguous (k+1) x k
    block h, or None when the certificate fails for either (see pair_singular_values)."""
    k = h.shape[1]
    q, r = np.linalg.qr(h[:SKETCH_WIDTH].conj().T)
    # keep the columns whose |r_ii| lies above 64 eps of the largest, as many as the numerical
    # rank of h's first rows; a subset of q's columns is orthonormal, so the certificate stands
    diag = np.abs(r.diagonal())
    q = q[:, diag > 64 * np.finfo(float).eps * diag.max()]
    b = h @ q
    # unit: the smaller Frobenius norm of b's two row ranges, at least that range's s_0
    unit = min(np.linalg.norm(a) for a in (b[:-1], b[1:]))
    if not unit > 0:
        return None
    # ||h - b q*||_F^2 over chunks of 64 rows in one buffer, so no other k x k array
    # exists; past 2 eps unit^2 the range whose norm is unit already fails the first
    # condition, so the SVDs of b are taken only below it
    qh = q.conj().T
    buf = np.empty((64, k), dtype=complex)
    r2 = 0.0
    for r0 in range(0, k + 1, 64):
        d = np.matmul(b[r0:r0 + 64], qh, out=buf[:min(64, k + 1 - r0)])
        d -= h[r0:r0 + 64]
        r2 += np.vdot(d, d).real
        if r2 > 2 * np.finfo(float).eps * unit ** 2:
            return None
    lists = [np.linalg.svd(a, compute_uv=False) for a in (b[:-1], b[1:])]
    return lists if all(_certified(s, np.sqrt(r2) / s[0]) for s in lists) else None


def _block_spectra(h: np.ndarray) -> list[np.ndarray]:
    """Singular values of rows 0..k-1 and 1..k of the (k+1) x k block h: those of B = h Q
    when the certificate holds for both, else those of h itself (Q the identity). The
    sketch works on a contiguous copy, released before the dense SVDs, so the two
    buffers never coexist."""
    lists = _sketched_spectra(np.array(h)) if h.shape[1] >= 2 * SKETCH_WIDTH else None
    return lists or [np.linalg.svd(a, compute_uv=False) for a in (h[:-1], h[1:])]


@np.errstate(over="ignore")
def pair_singular_values(u: HardyFunction, m: int) -> HankelSpectrum:
    """Descending singular-value lists of the m x m plain and shifted Hankel matrices.

    rho and sigma are those of rows 0..k-1 and 1..k of the leading (k+1) x k block of
    H, where k <= m is the least size whose dropped coefficients u_hat(k..2m-1) sum
    to at most eps * ||u_hat(0..m-1)||_2. No value moves by more than eps * s_1: the
    dropped entries lie on antidiagonals of index >= k, each one coefficient times a
    partial permutation, so their operator norm is at most that sum (Weyl), while
    s_1 >= ||H e_0|| = ||u_hat(0..m-1)||_2.

    Both lists then come from B = H Q, H now the (k+1) x k block, when k >= 2 SKETCH_WIDTH
    and the certificate below holds for both row ranges, and Q the identity otherwise,
    which leaves the dense SVD of the block. With H[:SKETCH_WIDTH]* = Q_0 R, Q keeps the
    columns i of Q_0 with |R_ii| above 64 eps max |R_ii|, so its width l is the numerical
    rank of those rows, and the sketch costs O(k^2 l). A Hankel operator of
    finite rank r <= SKETCH_WIDTH, as on the rational data of the tori, has its row space
    spanned by its first r rows (Kronecker), whose R_ii are nonzero, while those of the
    rows after lie at rounding level once the block is trimmed: l = r there. A block
    untrimmed at k = m ends in the zeros past the cut, which break the rank-r recurrence
    in its last columns, and may keep more. The map
    u_hat(n) -> lam e^{i theta} e^{i n phi} u_hat(n) takes H to c D H D', with
    c = lam e^{i theta} and D, D' diagonal unitary, and H[:SKETCH_WIDTH] with it; so in
    exact arithmetic |R_ii| scales by |c|, Q goes to D'* Q E and B to c D B E, E diagonal
    unitary, and the route commutes with scaling, phase and rotation.

    Certificate, for any orthonormal Q: let R = H - B Q* = H (I - Q Q*), A a row range
    of H and A_B, R_A the same rows of B, R. Then A = A_B Q* + R_A with
    A_B Q* R_A* = A Q Q* (I - Q Q*) A* = 0, so A A* = A_B A_B* + R_A R_A*, and Weyl's
    inequalities give
    0 <= s_j(A)^2 - s_j(A_B)^2 <= ||R_A||^2 <= ||R||_F^2 for every j, where
    s_j(A_B) = 0 for j > l. Let s_0 be the largest value of A_B, s_min the least above
    TAU_RANK * s_0 and s_next the one after it (0 if none). If
    ||R||_F^2 <= 2 eps s_0 s_min, each kept value moves by
    s_j(A) - s_j(A_B) <= ||R||^2 / (2 s_j(A_B)) <= eps * s_0 <= eps * s_1(A). If
    s_next^2 + ||R||_F^2 < (TAU_RANK s_0)^2, every later value of A stays below
    TAU_RANK * s_0 <= TAU_RANK * s_1(A), where the cut drops it from A as well. So
    the lists keep the trim's contract: the same values to eps * s_1, and the same
    count unless a value lies within that distance of the cut. ||R||_F^2 is summed over
    row chunks; once it exceeds 2 eps f^2, f the smaller Frobenius norm of B's two row
    ranges, that range fails its first condition since s_0 <= f, and B's SVDs are skipped.

    The caller owns the truncation: the trace at n >= m must stay below TAIL_RTOL of
    the total. All of this runs on v_hat = 2^-e u_hat, 2^(e-1) <= max |u_hat| < 2^e, and
    rho and sigma are scaled back exactly by 2^e, so a value beyond the range reads inf.
    The tail and the total are summed on their own powers of two (hardy._square_sum), so no
    sum of squares leaves the double range: the guard scales the tail to v_hat's power, and
    the reported tail mass to u_hat's, where it keeps full digits unless it is itself
    subnormal or inf.
    """
    v, e = _pow2_scaled(u.coeffs)
    h = _hankel_rows(v, m)
    t, et = _check_tail(u, m)
    a = np.abs(v[:2 * m])  # |v_hat(0..2m-1)|: the zeros past the support add nothing below
    dropped = np.cumsum(a[::-1])[::-1]  # dropped[k] = sum of a[k:]
    k = min(m, max(1, np.count_nonzero(dropped > np.finfo(float).eps * np.hypot.reduce(a[:m]))))
    rho, sigma = (np.ldexp(_merge_close(s[s > TAU_RANK * s[0]], TAU_EIG), e)
                  for s in _block_spectra(h[:k + 1, :k]))
    return HankelSpectrum(rho=rho, sigma=sigma, tail_mass=float(np.ldexp(t, 2 * et)))
