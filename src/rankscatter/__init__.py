"""Scattered subspaces over finite fields and their rank-metric codes.

Exact arithmetic in F_{q^n}, a family of maximum h-scattered subspaces of
F_{q^n}^{m(h+1)} with admissibility tests, exhaustive / witness-span /
sampled verifiers for scatteredness and evasiveness, and the associated MRD
codes with rank weights, generalized rank weights, duals and direct-sum
baselines.
"""

from .field import FieldTower, create_field
from .linalg import (
    FqSubspace,
    SubspaceQn,
    enumerate_subspaces,
    expand_vector,
    gaussian_binomial,
    matrix_rank,
    rref,
    sample_subspace,
)
from .construction import (
    ConstructionParams,
    QSystem,
    admissibility_feasible,
    cyclic_tuple_invariant,
    direct_sum,
    family_subspace,
    find_admissible,
    line_control_subspace,
    pseudoregulus_subspace,
    scan_admissible,
    tuple_admissible,
    tuple_invariant,
    tuple_strongly_admissible,
)
from .verify import (
    Verdict,
    Witness,
    max_weight_search,
    scattered_dim_bound,
    subspace_weight,
    verify_evasive,
    verify_h_scattered,
)
from .codes import (
    RankCode,
    WeightProfile,
    check_weight_axioms,
    code_from_system,
    compare_with_direct_sum,
    dual_code,
    family_weight_bounds,
    generalized_weights,
    is_mrd,
    min_distance,
    predicted_direct_sum_profile,
    random_code,
    rank_weight,
)

__version__ = "0.1.0"
