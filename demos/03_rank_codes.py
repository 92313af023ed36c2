"""From subspaces to rank-metric codes: distances, duals, MRD checks.

Run with: python demos/03_rank_codes.py
"""

import itertools

from rankscatter import (
    code_from_system,
    create_field,
    direct_sum,
    dual_code,
    generalized_weights,
    is_mrd,
    min_distance,
    pseudoregulus_subspace,
    rank_weight,
)

F16 = create_field(2, 1, 4)
F8 = create_field(2, 1, 3)

# ---------------------------------------------------------------
# 1. Rank weight: the F_q-dimension spanned by a word's coordinates.
# ---------------------------------------------------------------
g = F8.p
print("rank_weight (1,1,1)    =", rank_weight(F8, (1, 1, 1)))
print("rank_weight (1,g,g^2)  =", rank_weight(F8, (1, g, F8.mul(g, g))))

# ---------------------------------------------------------------
# 2. The pseudoregulus {(x, x^q)} in F_16^2 gives a [4,2] code with
#    minimum rank distance n - h = 3: an MRD code.  The minimum distance
#    is d_1 of the weight profile, t minus the largest weight of a
#    hyperplane; this code has 17 hyperplanes.
# ---------------------------------------------------------------
code = code_from_system(pseudoregulus_subspace(F16, 1))
prof = generalized_weights(code.system(), [1])
d = prof.entries[0]
print(f"\n[4,2] code: d = {d.value} from {prof.swept} subspaces ({prof.route} side)")
print("MRD:", is_mrd(code, d))

dual = dual_code(code)
dd = min_distance(dual)
print("dual code d =", dd.value, " MRD:", is_mrd(dual, dd))

# ---------------------------------------------------------------
# 3. Direct sums: two copies of the [3,2] pseudoregulus code over F_8
#    give a [6,4,2] code, again meeting the Singleton-like bound.  Its
#    d_1 comes from the [6,2] dual code, whose profile is 10 subspaces.
# ---------------------------------------------------------------
ps = pseudoregulus_subspace(F8, 1)
cds = code_from_system(direct_sum([ps, ps]))
prof = generalized_weights(cds.system(), [1])
dds = prof.entries[0]
print(f"\ndirect sum: [{cds.t},{cds.k},{dds.value}] from {prof.swept} subspaces "
      f"({prof.route} side)  MRD: {is_mrd(cds, dds)}")

# ---------------------------------------------------------------
# 4. The codeword side is the oracle: the least rank weight over all
#    8^4 - 1 nonzero messages must equal d_1.
# ---------------------------------------------------------------
least = min(
    rank_weight(F8, cds.codeword(msg))
    for msg in itertools.product(range(F8.order), repeat=cds.k)
    if any(msg)
)
assert least == dds.value
print("codeword oracle agrees:", least)
