"""Exact q-series arithmetic for Jacobi theta functions and Dedekind
eta, the m = 1 mock building blocks Psi, and N=4 superconformal
characters, with numeric verification of their modular behaviour.

Series live on integer exponent lattices with Gaussian-rational
coefficients and carry explicit trust bounds; every identity in the
package is checkable either exactly (truncated series) or numerically
(mpmath residuals).
"""

from .qseries import (
    CoefficientRingError,
    GaussianRational,
    JacobiSeries,
    SeriesRatio,
    UntrustedOrderError,
)
from .theta import (
    DEFAULT_DPS,
    THETA_LABELS,
    eta,
    eta_numeric,
    theta_numeric,
    theta_shifted,
    theta_sum,
)
from .mockpsi import (
    PoleProximityError,
    PsiParams,
    phi_a11_numeric,
    psi_diag_ratio,
    psi_numeric,
    psi_pair_ratio,
)
from .characters import (
    CharacterSpec,
    ReductionParams,
    central_charge,
    character_series,
    denominator,
    h_s_values,
    index_set,
    nice_numerator,
    nice_param_to_j,
    reduction_hs,
    vanishes,
)
from .modular import (
    IllConditionedError,
    NumericPoint,
    SpanCertificate,
    default_points,
    span_closure,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientRingError",
    "GaussianRational",
    "JacobiSeries",
    "SeriesRatio",
    "UntrustedOrderError",
    "DEFAULT_DPS",
    "THETA_LABELS",
    "eta",
    "eta_numeric",
    "theta_numeric",
    "theta_shifted",
    "theta_sum",
    "PoleProximityError",
    "PsiParams",
    "phi_a11_numeric",
    "psi_diag_ratio",
    "psi_numeric",
    "psi_pair_ratio",
    "CharacterSpec",
    "ReductionParams",
    "central_charge",
    "character_series",
    "denominator",
    "h_s_values",
    "index_set",
    "nice_numerator",
    "nice_param_to_j",
    "reduction_hs",
    "vanishes",
    "IllConditionedError",
    "NumericPoint",
    "SpanCertificate",
    "default_points",
    "span_closure",
    "__version__",
]
