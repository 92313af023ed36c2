"""Generalized rank weights: sweeps, Wei duality, family vs direct sum.

Run with: python demos/04_generalized_weights.py
"""

from rankscatter import (
    ConstructionParams,
    check_weight_axioms,
    code_from_system,
    compare_with_direct_sum,
    create_field,
    direct_sum,
    dual_code,
    family_weight_bounds,
    generalized_weights,
    predicted_direct_sum_profile,
    pseudoregulus_subspace,
)

F8 = create_field(2, 1, 3)

# ---------------------------------------------------------------
# 1. The direct sum of two [3,2] pseudoregulus codes over F_8.  Its
#    generalized weight profile is exact and matches the closed-form
#    prediction (2, 3, 5, 6).  The [6,2] dual code sweeps 10 subspaces
#    where this [6,4] code would sweep 5916, so the profile is read off
#    the dual's by Wei-type duality (route "dual").
# ---------------------------------------------------------------
ds = direct_sum([pseudoregulus_subspace(F8, 1)] * 2)
profile = generalized_weights(ds)
print("exact profile:    ", profile.exact_tuple(), f"(route {profile.route}, {profile.swept} subspaces)")
print("predicted profile:", predicted_direct_sum_profile(2, 3, 1).exact_tuple())

# ---------------------------------------------------------------
# 2. Wei-type duality: the profile of the dual code reflects to the
#    complement of the profile inside {1, ..., t}.  The dual's own
#    profile comes from direct sweeps (route "primal").
# ---------------------------------------------------------------
dual_profile = generalized_weights(dual_code(code_from_system(ds)).system())
print("dual profile:     ", dual_profile.exact_tuple())
print("axioms hold:      ", check_weight_axioms(profile, dual_profile, 6))

# ---------------------------------------------------------------
# 3. With three blocks the prediction pins five indices and sandwiches
#    d_3 in [4, 5].  A direct sweep of d_3 walks 1.56e8 planes of F_8^6;
#    the [9,3] dual's full profile takes 147 subspaces and resolves it.
# ---------------------------------------------------------------
ds3 = direct_sum([pseudoregulus_subspace(F8, 1)] * 3)
pred3 = predicted_direct_sum_profile(3, 3, 1)
print("\nm=3 sandwich at rho=3:", pred3.bounds(3))
prof3 = generalized_weights(ds3, rho_list=[3])
print(f"exact d_3: {prof3.exact(3)} (route {prof3.route}, {prof3.swept} subspaces)")

# ---------------------------------------------------------------
# 4. The twisted family beats direct sums.  Over F_64 with m=3, h=2
#    the evasiveness bounds force d_6 >= 14, strictly above the best
#    any direct-sum code can do (12).
# ---------------------------------------------------------------
F64 = create_field(2, 1, 6)
params = ConstructionParams(F64, 3, 2, (F64.p, 1, 1))
print("\nfamily lower bounds:", [(e.rho, e.value) for e in family_weight_bounds(params).entries])
for row in compare_with_direct_sum(params):
    mark = "STRICTLY BETTER" if row["separated"] else "no separation promised"
    print(f"  rho={row['rho']}: family >= {row['family_lower']} vs baseline {row['baseline']} -> {mark}")
