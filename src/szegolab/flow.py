"""Two evolution engines for the cubic Szego equation i u_t = P(|u|^2 u).

In spectral coordinates the flow is trivial: the singular values are
frozen and each angle advances linearly at rate s_r^2.  The direct engine
integrates the projected cubic nonlinearity pseudospectrally with a
classical 4th-order one-step scheme; agreement between the two routes and
conservation of mass, H^(1/2) norm and the full singular-value lists are
the diagnostics tying the package together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, ValidationError
from .hankel import pair_singular_values
from .hardy import HardyFunction, sobolev_norm
from .inverse import SpectralData, reconstruct_function

MASS_DRIFT_LIMIT = 0.01  # largest tolerated relative mass drift along a trajectory


@dataclass(frozen=True)
class FlowState:
    u: HardyFunction
    t: float
    dt: float


def spectral_evolve(d: SpectralData, t: float) -> SpectralData:
    """Exact action-angle flow: s fixed, psi_r advanced by t * s_r^2 mod 2 pi."""
    return SpectralData(d.s, np.mod(d.psi + t * d.s ** 2, 2.0 * np.pi))


def szego_rhs(u: HardyFunction) -> HardyFunction:
    """-i P(|u|^2 u), evaluated on a 4x oversampled grid.

    The cubic term of an M-mode function has bandwidth below 2M, so 4M
    nodes make the projection to the first M modes alias-free.
    """
    return HardyFunction(_rhs_raw(u.coeffs, 4 * len(u)))


def _rhs_raw(c: np.ndarray, k: int) -> np.ndarray:
    vals = np.fft.ifft(c, n=k) * k
    w = vals * vals * np.conj(vals)
    return -1j * (np.fft.fft(w) / k)[:c.size]


def integrate(u0: HardyFunction, t_final: float, dt: float, m: int,
              n_samples: int = 17) -> list[FlowState]:
    """Classical RK4 trajectory of the direct flow, sampled n_samples times.

    The step count is rounded so the samples land on exact step multiples;
    mass is monitored because the flow conserves it exactly, and a drift
    beyond MASS_DRIFT_LIMIT aborts with BlowupDetected.
    """
    if not (0 < dt < np.inf and 0 <= t_final < np.inf):  # NaN fails too
        raise ValidationError(f"need finite dt > 0 and t_final >= 0, got dt={dt}, T={t_final}")
    c = np.zeros(m, dtype=complex)
    take = min(len(u0), m)
    c[:take] = u0.coeffs[:take]
    sup = float(np.abs(np.fft.ifft(c, n=4 * m) * 4 * m).max())
    # compared as |u| <= sqrt(0.1 / dt) so huge data cannot overflow the check
    if not sup <= np.sqrt(0.1 / dt):
        raise ValidationError(f"dt = {dt:g} too large for max |u| = {sup:.3g} (dt |u|^2 <= 0.1)")

    n_steps = max(int(round(t_final / dt)), 1) if t_final > 0 else 0
    dt_eff = t_final / n_steps if n_steps else dt
    sample_at = sorted(set(np.linspace(0, n_steps, min(n_samples, n_steps + 1)).astype(int)))
    k = 4 * m
    mass0 = float(np.sum(np.abs(c) ** 2))
    out = []
    for step in range(n_steps + 1):
        if step in sample_at:
            mass = float(np.sum(np.abs(c) ** 2))
            if not abs(mass - mass0) <= MASS_DRIFT_LIMIT * mass0:  # NaN trips too
                raise BlowupDetected(
                    f"mass drifted from {mass0:.6e} to {mass:.6e} at t = {step * dt_eff:.6g}")
            out.append(FlowState(HardyFunction(c.copy()), t=step * dt_eff, dt=dt_eff))
        if step == n_steps:
            break
        k1 = _rhs_raw(c, k)
        k2 = _rhs_raw(c + 0.5 * dt_eff * k1, k)
        k3 = _rhs_raw(c + 0.5 * dt_eff * k2, k)
        k4 = _rhs_raw(c + dt_eff * k3, k)
        c = c + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def l2_distance(u: HardyFunction, v: HardyFunction) -> float:
    m = max(len(u), len(v))
    a = np.zeros(m, dtype=complex)
    b = np.zeros(m, dtype=complex)
    a[:len(u)] = u.coeffs
    b[:len(v)] = v.coeffs
    return float(np.linalg.norm(a - b))


def compare_flows(d: SpectralData, t_final: float, dt: float, m: int) -> float:
    """L2 gap at time T between the angle-advance route and direct integration."""
    u0 = reconstruct_function(d, m)
    traj = integrate(u0, t_final, dt, m, n_samples=2)
    u_direct = traj[-1].u
    u_spectral = reconstruct_function(spectral_evolve(d, t_final), m)
    return l2_distance(u_direct, u_spectral)


@dataclass(frozen=True)
class ConservationRow:
    t: float
    mass: float
    h_half_norm: float
    rho: np.ndarray
    sigma: np.ndarray
    mass_drift: float
    h_half_drift: float
    sv_drift_max: float


def conservation_report(trajectory: list[FlowState]) -> list[ConservationRow]:
    """Conserved quantities per sampled state and their relative drift from t=0."""
    if not trajectory:
        return []
    rows = []
    ref = None
    for state in trajectory:
        mass = sobolev_norm(state.u, 0.0) ** 2
        h_half = sobolev_norm(state.u, 0.5)
        spec = pair_singular_values(state.u, len(state.u))
        merged = spec.merged()
        if ref is None:
            ref = (mass, h_half, merged)
        mass0, h0, s0 = ref
        n = min(merged.size, s0.size)
        if s0.size and n:
            sv_drift = float(np.max(np.abs(merged[:n] - s0[:n]) / s0[:n]))
            if merged.size != s0.size:
                sv_drift = max(sv_drift, 1.0)
        else:
            sv_drift = 0.0
        rows.append(ConservationRow(
            t=state.t,
            mass=mass,
            h_half_norm=h_half,
            rho=spec.rho,
            sigma=spec.sigma,
            mass_drift=abs(mass - mass0) / mass0 if mass0 else 0.0,
            h_half_drift=abs(h_half - h0) / h0 if h0 else 0.0,
            sv_drift_max=sv_drift,
        ))
    return rows
