"""Integration of permutation-invariant periodic functions.

Folded cubature rules, exact worst-case error formulas, and lower-bound
certificates that defeat any rule with too few nodes, in plain and
product-weighted smoothness classes.
"""

from types import ModuleType as _ModuleType

from .cubature import (
    CubatureRule,
    ErrorReport,
    apply_rule,
    folded_rectangle_rule,
    initial_error,
    rectangle_rule,
    rectangle_worst_case_error,
)
from .errors import (
    CapExceededError,
    CertificateError,
    DimensionMismatchError,
    NullspaceError,
    RefusalError,
    UnsupportedPatternError,
)
from .fooling import (
    CrosscheckReport,
    FoolingCertificate,
    NullspaceSolution,
    constraint_matrix,
    construct_certificate,
    crosscheck_coefficients,
    nullspace_solution,
)
from .fourier import (
    FourierPolynomial,
    MultiIndex,
    evaluate_at_points,
    random_polynomial,
)
from .korobov import korobov_norm, korobov_weight, riemann_zeta
from .symmetry import (
    InvariancePattern,
    OrbitStats,
    binary_orbit_representatives,
    binary_orbit_sizes,
    canonical_binary_vectors,
    canonicalize,
    critical_node_count,
    group_order,
    is_invariant,
    orbit,
    orbit_stats,
    parse_coordinate_set,
    parse_groups,
    symmetrize,
)
from .tractability import (
    InvarianceProfile,
    TractabilityReport,
    evaluate_profile,
    node_count_lower_bound,
)
from .weighted import (
    OrderedWeights,
    SupermultiplicativityReport,
    WeightPowerSums,
    WeightSchedule,
    check_weight_supermultiplicativity,
    construct_weighted_certificate,
    error_lower_bound,
    min_product_weight,
    order_weights,
    weight_power_sum,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules the imports bind are left out.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
