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
from .hankel import _check_tail, pair_singular_values
from .hardy import HardyFunction, _padded, _pow2_scaled, _relative_gap, _square_sum, sobolev_norm
from .inverse import SpectralData, reconstruct_function

MASS_DRIFT_LIMIT = 0.01  # largest tolerated relative mass drift along a trajectory
MAX_STEPS = 10 ** 7      # largest RK4 step count T / dt that integrate accepts


@dataclass(frozen=True)
class FlowState:
    u: HardyFunction
    t: float
    dt: float


def spectral_evolve(d: SpectralData, t: float) -> SpectralData:
    """Exact action-angle flow: s fixed, psi_r advanced by t * s_r^2 mod 2 pi."""
    return SpectralData(d.s, np.mod(d.psi + t * d.s ** 2, 2.0 * np.pi))


def _cubic_rhs(m: int):
    """Kernel for h P(|x|^2 x) on m modes, and the padded head it reads its input from.

    The modes of |x|^2 x lie in [-(m-1), 2(m-1)].  On K nodes a kept mode
    i < m aliases only from i +- K, i +- 2K, ..., all outside that range once
    K >= 2m - 1 (i + K >= 2m - 1 and i - K <= -m), so K = 2m is alias-free.
    The kernel owns its 2m-node work arrays: a zero-padded input whose upper
    half stays zero, the node values, the cubic term and the spectrum.
    ``rhs(x, out, h)`` copies x into the head (nothing to copy when x is the
    head) and writes h P(|x|^2 x) into out, allocating no array.  Each caller
    builds its own kernel, so concurrent calls share nothing.

    The two transforms call the pocketfft gufuncs that np.fft.ifft and np.fft.fft end in,
    with the factors those wrappers pass for norm="forward" (1 for the ifft, 1/(2m) for the
    fft), so the bits are the same without the wrappers' per-call argument handling. The
    module is imported here, so a process that never integrates never loads numpy.fft.
    """
    from numpy.fft import _pocketfft_umath as pfu

    scale = 1.0 / (2 * m)
    pad = np.zeros(2 * m, dtype=complex)
    vals = np.empty(2 * m, dtype=complex)
    cubic = np.empty(2 * m, dtype=complex)
    spec = np.empty(2 * m, dtype=complex)
    head, spec_head = pad[:m], spec[:m]

    def rhs(x: np.ndarray, out: np.ndarray, h: complex) -> None:
        if x is not head:
            np.copyto(head, x)
        pfu.ifft(pad, 1.0, out=vals)                   # values at the nodes, unscaled
        np.conjugate(vals, out=cubic)
        np.multiply(cubic, vals, out=cubic)
        np.multiply(cubic, vals, out=cubic)            # |v|^2 v
        pfu.fft(cubic, scale, out=spec)                # scaled by 1/(2m)
        np.multiply(spec_head, h, out=out)

    return rhs, head


def integrate(u0: HardyFunction, t_final: float, dt: float, m: int,
              n_samples: int = 17) -> list[FlowState]:
    """Classical RK4 trajectory of the direct flow, sampled n_samples times.

    The step count T / dt is rounded so the samples land on exact step multiples,
    and a count above MAX_STEPS (an infinite one included) is invalid input;
    u0 is cut to its first m coefficients, so the trace of the rest must pass the
    TAIL_RTOL test of pair_singular_values (InsufficientTruncation otherwise);
    mass is checked after every step because the flow conserves it exactly,
    and a drift beyond MASS_DRIFT_LIMIT aborts with BlowupDetected. A step, and the
    dt |u|^2 <= 0.1 check before the first, run on u scaled by a power of two to
    max |u_hat| in [1/2, 1); a zero-length run takes no step and skips the check.
    """
    if not (0 < dt < np.inf and 0 <= t_final < np.inf and m >= 1 and n_samples >= 2):  # NaN fails too
        raise ValidationError(f"need finite dt > 0, t_final >= 0, m >= 1, n_samples >= 2, "
                              f"got dt={dt}, T={t_final}, m={m}, n_samples={n_samples}")
    steps = t_final / dt
    if not steps <= MAX_STEPS:
        raise ValidationError(f"T / dt = {steps:.3g} steps, more than MAX_STEPS = {MAX_STEPS}")
    _check_tail(u0, m)
    # v = 2^-e u with dt 4^e: u -> 2^k u, t -> 4^-k t maps solutions to solutions, and a power
    # of two scales every product and sum of a step exactly, so the bits are those of u
    # wherever nothing over- or underflows
    c, e = _pow2_scaled(_padded(u0.coeffs, m))
    n_steps = max(int(round(steps)), 1) if t_final > 0 else 0
    if n_steps:
        # dt |v|^2 4^e <= 0.1 with |v| sampled on 4M nodes, not the RHS's 2M, since a coarser
        # sample misses more of the peak; a dt 4^e past the double range reads inf and fails,
        # one below it reads 0 and passes
        sup = float(np.abs(np.fft.ifft(c, n=4 * m) * 4 * m).max())
        with np.errstate(over="ignore", divide="ignore"):
            if not sup <= np.sqrt(0.1 / np.ldexp(dt, 2 * e)):
                raise ValidationError(f"dt = {dt:g} too large for max |u| = {np.ldexp(sup, e):.3g} "
                                      f"(dt |u|^2 <= 0.1)")
    dt_eff = t_final / n_steps if n_steps else dt
    sample_at = set(np.linspace(0, n_steps, min(n_samples, n_steps + 1)).astype(int).tolist())
    rhs, stage = _cubic_rhs(m)
    k = np.empty((4, m), dtype=complex)
    update = np.empty(m, dtype=complex)
    weights = np.array([1.0, 2.0, 1.0, 1.0], dtype=complex) / 3.0  # complex: no cast per step
    # dt_eff 4^e < 0.6 past the check, since dt_eff < 1.5 dt and sup >= |v|_2 >= 1/2
    h = -1j * float(np.ldexp(dt_eff, 2 * e)) if n_steps else 0j
    half = 0.5 * h
    mass0 = np.vdot(c, c).real
    out = [_state(c, e, 0.0, dt_eff)]
    for step in range(1, n_steps + 1):
        # k_j = (h/2) f_j, except k_3 = h f_3, the step to the last stage;
        # the stage inputs go straight into the kernel's padded head
        rhs(c, k[0], half)
        np.add(c, k[0], out=stage)
        rhs(stage, k[1], half)
        np.add(c, k[1], out=stage)
        rhs(stage, k[2], h)
        np.add(c, k[2], out=stage)
        rhs(stage, k[3], half)
        # c += (h/6)(f_1 + 2 f_2 + 2 f_3 + f_4) = (k_1 + 2 k_2 + k_3 + k_4)/3, as one product
        np.add(c, np.matmul(weights, k, out=update), out=c)
        mass = np.vdot(c, c).real
        if not abs(mass - mass0) <= MASS_DRIFT_LIMIT * mass0:  # NaN trips too
            with np.errstate(over="ignore"):
                raise BlowupDetected(f"mass drifted from {np.ldexp(mass0, 2 * e):.6e} to "
                                     f"{np.ldexp(mass, 2 * e):.6e} at t = {step * dt_eff:.6g}")
        if step in sample_at:
            out.append(_state(c, e, step * dt_eff, dt_eff))
    return out


@np.errstate(over="ignore")  # a value past the double range reads inf, which HardyFunction rejects
def _state(c: np.ndarray, e: int, t: float, dt: float) -> FlowState:
    """The sample 2^e c at time t, in the caller's units."""
    return FlowState(HardyFunction(np.ldexp(c.view(float), e).view(complex)), t=t, dt=dt)


def l2_distance(u: HardyFunction, v: HardyFunction) -> float:
    m = max(len(u), len(v))
    return float(np.linalg.norm(_padded(u.coeffs, m) - _padded(v.coeffs, m)))


def compare_flows(d: SpectralData, t_final: float, dt: float, m: int) -> float:
    """L2 gap at time T between the angle-advance route and direct integration."""
    u0 = reconstruct_function(d, 2 * m)  # a tail past m for the TAIL_RTOL check of integrate
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
    """Conserved quantities per sampled state and their relative drift from t=0.

    From a zero reference a drift reads 0 only while the value stays zero, and inf otherwise;
    a change in the number of singular values, to or from none included, reads at least 1.
    The mass and its drift come from one power-of-two square sum (hardy._square_sum), so the
    drift is the same at every scale of the data, and a mass past the double range reads inf.
    """
    rows = []
    ref = None
    for state in trajectory:
        sq = _square_sum(state.u.coeffs, 1.0)
        with np.errstate(over="ignore"):
            mass = float(np.ldexp(sq[0], 2 * sq[1]))
        h_half = sobolev_norm(state.u, 0.5)
        spec = pair_singular_values(state.u, len(state.u))
        merged = spec.merged()
        if ref is None:
            ref = (sq, h_half, merged)
        sq0, h0, s0 = ref
        n = min(merged.size, s0.size)
        sv_drift = float(np.max(np.abs(merged[:n] - s0[:n]) / s0[:n], initial=0.0))
        if merged.size != s0.size:  # a value appeared or vanished, also where either side has none
            sv_drift = max(sv_drift, 1.0)
        rows.append(ConservationRow(
            t=state.t,
            mass=mass,
            h_half_norm=h_half,
            rho=spec.rho,
            sigma=spec.sigma,
            mass_drift=_relative_gap(sq, sq0),
            h_half_drift=abs(h_half - h0) / h0 if h0 else (np.inf if h_half else 0.0),
            sv_drift_max=sv_drift,
        ))
    return rows
