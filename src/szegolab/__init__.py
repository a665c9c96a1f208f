"""szegolab: spectral transforms for Hankel operators on the Hardy space.

Direct transform (coefficients -> singular values of the plain and shifted
Hankel matrices), explicit inverse transform through Cauchy matrices,
action-angle evolution of the cubic Szego equation next to a direct
pseudospectral integrator, and the Toeplitz-symbol certificates of analytic
regularity for geometric spectral data.
"""

from .errors import (AnglesNotZero, BlowupDetected, DegenerateSpectrum, InsufficientTruncation,
                     NearPole, NumericalError, SingularMatrix, SingularTruncation, SzegoLabError,
                     ValidationError, ZeroOnContour)
from .flow import (ConservationRow, FlowState, compare_flows, conservation_report, integrate,
                   l2_distance, spectral_evolve)
from .geometric import (GeometricParams, ZeroGapReport, f_gamma, geometric_spectral_data,
                        index_profile, poisson_gap_bound, stability_scan, u_via_toeplitz,
                        winding_index, zero_gap)
from .hankel import HankelSpectrum, pair_singular_values
from .hardy import HardyFunction, sobolev_norm
from .inverse import (C1LowerBounds, OperatorBounds, SpectralData, a_explicit, b_delta,
                      c0_inverse_sum_bound, c1_closed_form, c1_lower_bound,
                      cauchy_neumann_factors, operator_bounds, reconstruct_function,
                      reconstruct_point, taylor_coefficients)

__version__ = "0.1.0"

__all__ = [
    # errors
    "AnglesNotZero", "BlowupDetected", "DegenerateSpectrum", "InsufficientTruncation",
    "NearPole", "NumericalError", "SingularMatrix", "SingularTruncation", "SzegoLabError",
    "ValidationError", "ZeroOnContour",
    # flow
    "ConservationRow", "FlowState", "compare_flows", "conservation_report", "integrate",
    "l2_distance", "spectral_evolve",
    # geometric
    "GeometricParams", "ZeroGapReport", "f_gamma", "geometric_spectral_data", "index_profile",
    "poisson_gap_bound", "stability_scan", "u_via_toeplitz", "winding_index", "zero_gap",
    # hankel
    "HankelSpectrum", "pair_singular_values",
    # hardy
    "HardyFunction", "sobolev_norm",
    # inverse
    "C1LowerBounds", "OperatorBounds", "SpectralData", "a_explicit", "b_delta",
    "c0_inverse_sum_bound", "c1_closed_form", "c1_lower_bound", "cauchy_neumann_factors",
    "operator_bounds", "reconstruct_function", "reconstruct_point", "taylor_coefficients",
]
