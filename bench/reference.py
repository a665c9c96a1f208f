"""Reference computations made apart from szegolab.

Nothing here imports the package under test.  The benchmark checks every
item against these values or against properties stated in the paper:

- u(z) = <C(z)^(-1) 1, 1> solved in mpmath on the equilibrated matrix,
- Taylor coefficients from a dense double-precision solve (used only to
  pick inputs whose coefficients the truncation captures),
- the closed forms of mass and H^(1/2) norm in terms of the s_r,
- the explicit l1 constants and the Poisson lower bound of the zero gap.
"""

from __future__ import annotations

import math

import numpy as np

MP_DPS = 30


def cauchy_matrix(s, psi, z) -> np.ndarray:
    """C(z)[j, k] = (s_(2j-1) e^(i psi_(2j-1)) - z s_(2k) e^(i psi_(2k))) / (s_(2j-1)^2 - s_(2k)^2)."""
    s = np.asarray(s, dtype=float)
    psi = np.asarray(psi, dtype=float)
    a = s[0::2] * np.exp(1j * psi[0::2])
    b = s[1::2] * np.exp(1j * psi[1::2])
    return (a[:, None] - z * b[None, :]) / (s[0::2, None] ** 2 - s[None, 1::2] ** 2)


def taylor_dense(s, psi, m: int) -> np.ndarray:
    """First m Taylor coefficients of u from dense solves of C(0).

    u(z) = 1^T (I - z P)^(-1) c with c = C(0)^(-1) 1 and P = -C(0)^(-1) dC/dz,
    so u_hat(n) = 1^T P^n c.  Only for well-scaled data.
    """
    c0 = cauchy_matrix(s, psi, 0.0)
    cdot = c0 - cauchy_matrix(s, psi, 1.0)
    c = np.linalg.solve(c0, np.ones(c0.shape[0], dtype=complex))
    p = np.linalg.solve(c0, cdot)
    out = np.empty(m, dtype=complex)
    v = c
    for n in range(m):
        out[n] = v.sum()
        v = p @ v
    return out


def evolve_angles(s, psi, t: float) -> np.ndarray:
    """Angles of the exact cubic Szego flow: psi_r + t s_r^2."""
    return np.asarray(psi, dtype=float) + t * np.asarray(s, dtype=float) ** 2


def _gauss_solve(a: list, b: list) -> list:
    """Partial-pivoted Gaussian elimination on lists of mpmath numbers."""
    n = len(a)
    rows = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(rows[i][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for i in range(col + 1, n):
            f = rows[i][col] / top[col]
            if f:
                row = rows[i]
                for k in range(col + 1, n + 1):
                    row[k] -= f * top[k]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        acc = rows[i][n]
        for k in range(i + 1, n):
            acc -= rows[i][k] * x[k]
        x[i] = acc / rows[i][i]
    return x


def u_mpmath(s, psi, z, dps: int = MP_DPS) -> complex:
    """u(z) = <C(z)^(-1) 1, 1> in mpmath at dps digits.

    Rows and then columns of C(z) are scaled to unit max-modulus before the
    elimination, so data spanning hundreds of decades solves at modest
    precision.  Real data at real z stays in real arithmetic.
    """
    import mpmath as mp

    with mp.workdps(dps):
        z = complex(z)
        real = not np.any(psi) and z.imag == 0.0
        sv = [mp.mpf(float(x)) for x in s]
        n = len(sv) // 2
        if real:
            a = sv[0::2]
            b = sv[1::2]
            zz = mp.mpf(z.real)
        else:
            a = [sv[2 * j] * mp.expj(float(psi[2 * j])) for j in range(n)]
            b = [sv[2 * k + 1] * mp.expj(float(psi[2 * k + 1])) for k in range(n)]
            zz = mp.mpc(z)
        c = [[(a[j] - zz * b[k]) / (sv[2 * j] ** 2 - sv[2 * k + 1] ** 2) for k in range(n)]
             for j in range(n)]
        row_scale = [1 / max(abs(v) for v in row) for row in c]
        c = [[v * row_scale[j] for v in row] for j, row in enumerate(c)]
        col_scale = [1 / max(abs(c[j][k]) for j in range(n)) for k in range(n)]
        c = [[v * col_scale[k] for k, v in enumerate(row)] for row in c]
        y = _gauss_solve(c, row_scale)
        return complex(mp.fsum(y[k] * col_scale[k] for k in range(n)))


def mass_closed_form(s) -> float:
    """||u||^2 = sum rho_j^2 - sum sigma_k^2."""
    s = np.asarray(s, dtype=float)
    return float(np.sum(s[0::2] ** 2) - np.sum(s[1::2] ** 2))


def h_half_closed_form(s) -> float:
    """||u||^2 in H^(1/2) = sum (1+n)|u_hat(n)|^2 = trace of H_u^2 = sum rho_j^2."""
    s = np.asarray(s, dtype=float)
    return float(np.sum(s[0::2] ** 2))


def b_delta(delta: float) -> float:
    """prod over m >= 1 of (1 - delta^(4m))^(-2), to double precision."""
    out = 1.0
    m = 1
    while delta ** (4 * m) > 1e-18:
        out /= (1.0 - delta ** (4 * m)) ** 2
        m += 1
    return out


def a_explicit(delta: float) -> float:
    """The paper's l1 -> l1 bound for C(0)^(-1) Cdot at consecutive ratio delta."""
    b = b_delta(delta)
    d2 = delta * delta
    off = 2.0 * delta * b * (1.0 + 3.0 * d2) / ((1.0 - d2) ** 4 * (1.0 + d2))
    diag = 2.0 * delta * b / ((1.0 - d2) ** 2 * (1.0 - d2 * d2))
    return off + diag


def c0_inverse_bound(s1: float, delta: float) -> float:
    """The paper's bound 2 B_delta s_1 / (1 - delta^2)^3 on the entry sum of C(0)^(-1)."""
    return 2.0 * b_delta(delta) * s1 / (1.0 - delta * delta) ** 3


def neumann_cap(s1: float, delta: float, radius: float) -> float:
    """|u(z)| <= 2 c0_bound / (1 - |z| a_explicit) on |z| = radius, when radius * a < 1."""
    a = a_explicit(delta)
    if radius * a >= 1.0:
        raise ValueError(f"no cap: radius {radius} times a_explicit {a:.4f} >= 1")
    return 2.0 * c0_inverse_bound(s1, delta) / (1.0 - radius * a)


def poisson_bound(gamma: float) -> float:
    """(pi / |log gamma|) sum over n >= 1 of sech(pi^2 n / |log gamma|)."""
    lg = -math.log(gamma)
    total = 0.0
    n = 1
    while True:
        x = math.pi ** 2 * n / lg
        if x > 700.0:
            break
        term = (math.pi / lg) / math.cosh(x)
        total += term
        if term < 1e-20 * total:
            break
        n += 1
    return total
