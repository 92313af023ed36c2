"""Build the twisted subspace family and verify scatteredness.

Run with: python demos/02_build_and_verify.py
"""

from rankscatter import (
    ConstructionParams,
    create_field,
    family_subspace,
    line_control_subspace,
    pseudoregulus_subspace,
    scattered_dim_bound,
    tuple_admissible,
    tuple_invariant,
    verify_h_scattered,
)

F = create_field(2, 1, 4)
g = F.p

# ---------------------------------------------------------------
# 1. The admissibility invariant of the multiplier tuple decides
#    everything.  (g,1,1,1) has invariant g^8, which is not a 15th
#    power in F_16, so the tuple is admissible.
# ---------------------------------------------------------------
params = ConstructionParams(F, m=4, h=2, alphas=(g, 1, 1, 1))
print("invariant coefficients:", F.coeffs(tuple_invariant(F, params.m, params.alphas)))
print("admissible:", tuple_admissible(F, params.m, params.alphas))

# ---------------------------------------------------------------
# 2. Build the subspace.  It lives in F_16^12, has F_2-dimension
#    mn = 16 and meets the dimension bound rn/(h+1) = 16 exactly,
#    so scatteredness makes it a *maximum* 2-scattered subspace.
# ---------------------------------------------------------------
sysV = family_subspace(params)
print("\nambient:", sysV.ambient, " F_q-dim:", sysV.t)
print("bound rn/(h+1):", scattered_dim_bound(sysV.ambient, F.n, 2))
print("spans ambient:", sysV.spans_ambient)

# ---------------------------------------------------------------
# 3. A sampled probe (fast, never a proof): 20000 random planes.
#    The complete proof sweeps all d <= 2 tuples of U; see the slow
#    acceptance test for the full run.
# ---------------------------------------------------------------
v = verify_h_scattered(sysV, 2, mode="sampled", budget=20_000, seed=1)
print("\nsampled probe:", v.status, f"({v.checked} planes, no witness)")

# ---------------------------------------------------------------
# 4. The baseline pseudoregulus is small enough for a full proof in
#    milliseconds, and the line control shows what a violation and
#    its witness look like.
# ---------------------------------------------------------------
ps = pseudoregulus_subspace(F, 2)
proof = verify_h_scattered(ps, 2, mode="exhaustive")
print("\npseudoregulus exhaustive:", proof.status, f"({proof.checked} planes)")

bad = verify_h_scattered(line_control_subspace(F, 2), 1, mode="exhaustive")
print("line control:", bad.status, " witness weight:", bad.witness.weight)
print("witness basis:", bad.witness.H.basis)
