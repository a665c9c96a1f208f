"""Reference Taylor-coefficient extraction from point values on two circles.

Independent of the series recursion in `reconstruct_function`, so the
tests can compare the two; not part of the package.
"""

import numpy as np

from szegolab import HardyFunction, NumericalError, ValidationError

OVERSAMPLE = 4
CONSISTENCY_RTOL = 1e-9  # largest tolerated two-radius disagreement, relative to max |coefficient|


class InconsistentSamples(NumericalError):
    """Two-radius coefficient extraction disagrees beyond the noise model."""


def _extract_at_radius(f, r0: float, m: int, k: int):
    nodes = r0 * np.exp(2j * np.pi * np.arange(k) / k)
    vals = np.asarray(f(nodes), dtype=complex)
    if vals.shape != nodes.shape:
        vals = np.array([f(z) for z in nodes], dtype=complex)
    dft = np.fft.fft(vals) / k
    coeffs = dft[:m] / r0 ** np.arange(m)
    return coeffs, float(np.abs(vals).max())


def coeffs_from_disc_samples(f, r0: float = 0.75, m: int = 32) -> HardyFunction:
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
