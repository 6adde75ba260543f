"""Coefficient sequences, area sums and univalence criteria for analytic
functions on the unit disk.

The package computes the coefficient families attached to a locally
univalent analytic function (the difference-quotient sequence phi_n, its
power-generalization Phi_{lambda,n}, and the exterior sequence Psi_n),
evaluates the weighted area sums and disk integrals they control, and checks
the univalence criteria built from them against a catalog of closed-form
test functions with known ground truth.
"""

from .catalog import CatalogFlags, CatalogFunction, from_spec, get, list_catalog, series_at
from .criteria import (
    CriterionReport,
    DecayReport,
    ScanResult,
    decay_bound_checks,
    default_grid,
    fullmap_scan,
    prawitz_sum_s,
    univalence_criterion,
)
from .errors import (
    ConfigError,
    NonInvertibleSeriesError,
    NormalizationError,
    NotLocallyUnivalentError,
    SeriesOverflowError,
    UnivalenceError,
)
from .quadrature import (
    QuadratureResult,
    grunsky_kernel_point,
    grunsky_norm,
    prawitz_integral,
    psi_grunsky_identity_check,
)
from .sequences import (
    LocalInvariants,
    SequenceSet,
    aharonov_phi,
    local_invariants,
    phi_capital_direct,
)
from .series import PowerSeries, ps_eval, ps_pow_real, ps_recip
from .transforms import phi_capital_recentered, psi_via_transform

__version__ = "0.1.0"
