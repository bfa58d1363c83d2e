"""Exact constructions, enumeration and search for entry sums of inverses
of (0,1) triangular matrices, plus the Fibonacci machinery behind them."""

__version__ = "0.1.0"

from .construct import (GMatrix, WMatrix, band_partition, construct_w_matrix,
                        construct_with_sum, dominant_matrix,
                        extremal_pattern_matrix, sample_g_matrix,
                        small_extremal, toeplitz_sum_two)
from .fibonacci import (check_corollary3, check_corollary4, check_lemma1,
                        fib)
from .linalg import (InvariantError, SingularMatrixError, Triangular01,
                     adjugate_exact, determinant_exact, entry_sum, identity,
                     invert_unit_triangular, inverse_column_sums,
                     inverse_entry_sum, inverse_sum_via_determinant,
                     transpose)
from .matrixio import MatrixFormatError, format_matrix, parse_matrix
from .search import (KNOWN_GENERAL_MAX_7X7, KNOWN_GENERAL_MIN_7X7,
                     SearchConfig, SearchExhaustedError, SearchResult,
                     SumDistribution, enumerate_general,
                     enumerate_triangular, enumerate_w_determinants,
                     hill_climb_general, max_abs_row_sum_vector)
from .verify import (CheckResult, TheoremRangeReport, VerificationReport,
                     verify_theorem_range)

__all__ = [
    "__version__",
    "GMatrix", "WMatrix", "band_partition", "construct_w_matrix",
    "construct_with_sum", "dominant_matrix", "extremal_pattern_matrix",
    "sample_g_matrix", "small_extremal", "toeplitz_sum_two",
    "check_corollary3", "check_corollary4", "check_lemma1", "fib",
    "InvariantError", "SingularMatrixError", "Triangular01", "adjugate_exact",
    "determinant_exact", "entry_sum", "identity", "invert_unit_triangular",
    "inverse_column_sums", "inverse_entry_sum", "inverse_sum_via_determinant",
    "transpose",
    "MatrixFormatError", "format_matrix", "parse_matrix",
    "KNOWN_GENERAL_MAX_7X7", "KNOWN_GENERAL_MIN_7X7", "SearchConfig",
    "SearchExhaustedError", "SearchResult", "SumDistribution",
    "enumerate_general", "enumerate_triangular", "enumerate_w_determinants",
    "hill_climb_general", "max_abs_row_sum_vector",
    "CheckResult", "TheoremRangeReport", "VerificationReport",
    "verify_theorem_range",
]
