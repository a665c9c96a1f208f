"""szegolab: spectral transforms for Hankel operators on the Hardy space.

Direct transform (coefficients -> singular values of the plain and shifted
Hankel matrices), explicit inverse transform through Cauchy matrices,
action-angle evolution of the cubic Szego equation next to a direct
pseudospectral integrator, and the Toeplitz-symbol certificates of analytic
regularity for geometric spectral data.
"""

from .errors import (AnglesNotZero, BlowupDetected, DegenerateSpectrum, InsufficientTruncation,
                     NearPole, NegativeCoefficients, NonzeroIndex, NumericalError,
                     SingularMatrix, SingularTruncation, SzegoLabError, ValidationError,
                     ZeroOnContour)
from .flow import (ConservationRow, FlowState, compare_flows, conservation_report, integrate,
                   l2_distance, spectral_evolve, szego_rhs)
from .geometric import (EllipticReport, GeometricParams, SymbolGrid, WienerHopfFactors,
                        ZeroGapReport, check_functional_equations, elliptic_check, f_gamma,
                        fhat_closed_form, geometric_spectral_data, index_profile,
                        phi_laurent_coeff, phi_symbol, poisson_gap_bound, stability_scan,
                        toeplitz_truncated, u_via_toeplitz, wiener_hopf_factorize,
                        wiener_hopf_inverse_residual, winding_index, zero_gap)
from .hankel import (HankelSpectrum, check_rank_one_identity, check_trace_identity,
                     hankel_matrix, pair_singular_values, shifted_hankel_matrix,
                     sum_rule_residual, tail_mass)
from .hardy import HardyFunction, sobolev_norm, weighted_first_moment
from .inverse import (C1LowerBounds, OperatorBounds, SpectralData, a_explicit,
                      b_delta, build_c_matrix, build_cdot_matrix, c0_inverse_sum_bound,
                      c1_closed_form, c1_lower_bound, cauchy_inverse_c0,
                      cauchy_neumann_factors, cauchy_ones_solve, entry_bound_table,
                      operator_bounds, reconstruct_function, reconstruct_point,
                      taylor_coefficients)

__version__ = "0.1.0"

__all__ = [
    # errors
    "AnglesNotZero", "BlowupDetected", "DegenerateSpectrum", "InsufficientTruncation",
    "NearPole", "NegativeCoefficients", "NonzeroIndex", "NumericalError", "SingularMatrix",
    "SingularTruncation", "SzegoLabError", "ValidationError", "ZeroOnContour",
    # flow
    "ConservationRow", "FlowState", "compare_flows", "conservation_report", "integrate",
    "l2_distance", "spectral_evolve", "szego_rhs",
    # geometric
    "EllipticReport", "GeometricParams", "SymbolGrid", "WienerHopfFactors", "ZeroGapReport",
    "check_functional_equations", "elliptic_check", "f_gamma", "fhat_closed_form",
    "geometric_spectral_data", "index_profile", "phi_laurent_coeff", "phi_symbol",
    "poisson_gap_bound", "stability_scan", "toeplitz_truncated", "u_via_toeplitz",
    "wiener_hopf_factorize", "wiener_hopf_inverse_residual", "winding_index", "zero_gap",
    # hankel
    "HankelSpectrum", "check_rank_one_identity", "check_trace_identity", "hankel_matrix",
    "pair_singular_values", "shifted_hankel_matrix", "sum_rule_residual", "tail_mass",
    # hardy
    "HardyFunction", "sobolev_norm", "weighted_first_moment",
    # inverse
    "C1LowerBounds", "OperatorBounds", "SpectralData", "a_explicit", "b_delta",
    "build_c_matrix", "build_cdot_matrix", "c0_inverse_sum_bound", "c1_closed_form",
    "c1_lower_bound", "cauchy_inverse_c0", "cauchy_neumann_factors", "cauchy_ones_solve",
    "entry_bound_table", "operator_bounds", "reconstruct_function", "reconstruct_point",
    "taylor_coefficients",
]
