"""Exception hierarchy.

Two families matter for the CLI exit-code contract: ValidationError (bad
input or config, exit 2) and NumericalError (a computation failed one of
its numerical guards, exit 3).
"""


class SzegoLabError(Exception):
    pass


class ValidationError(SzegoLabError):
    """Malformed input data, file, or parameters."""


class NumericalError(SzegoLabError):
    """A numerical guard tripped during a computation."""


class InsufficientTruncation(NumericalError):
    """Discarded coefficient mass too large for the requested matrix size."""


class DegenerateSpectrum(NumericalError):
    """Singular values too close for the explicit Cauchy-matrix formulas."""


class SingularMatrix(NumericalError):
    """Linear system condition estimate exceeds the double-precision ceiling."""


class AnglesNotZero(ValidationError):
    """Operation defined only for all-zero angles."""


class NearPole(NumericalError):
    """Evaluation point too close to a pole of the kernel."""


class ZeroOnContour(NumericalError):
    """Symbol modulus drops below the zero guard on the contour."""


class SingularTruncation(NumericalError):
    """Truncated Toeplitz matrix numerically singular."""


class BlowupDetected(NumericalError):
    """Conserved quantity drifted beyond the blow-up guard during integration."""
