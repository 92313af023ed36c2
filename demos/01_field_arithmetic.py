"""Tour of the field tower: F_q inside F_{q^n}, Frobenius, power residues.

Run with: python demos/01_field_arithmetic.py
"""

from rankscatter import create_field

# ---------------------------------------------------------------
# 1. Build F_16 over F_2.  With no modulus given, the deterministic
#    default (smallest irreducible by packed coefficient order) is
#    chosen: z^4 + z + 1.
# ---------------------------------------------------------------
F = create_field(2, 1, 4)
print("modulus coefficients (ascending):", F.modulus)
print("field order:", F.order, " base subfield size:", F.q)

# Elements are int values: the base-p packing of their coefficient
# vectors, lowest degree first.  All arithmetic goes through F.
g = F.p  # the class of z
print("\ng       =", g, " coefficients", F.coeffs(g))
print("g^2     =", F.mul(g, g), " coefficients", F.coeffs(F.mul(g, g)))
print("g^15    =", F.pow(g, 15), " (multiplicative order divides 15)")

# ---------------------------------------------------------------
# 2. Frobenius x -> x^q is an automorphism fixing exactly q elements.
# ---------------------------------------------------------------
print("\nfrobenius(g) =", F.frobenius(g), " equals g^2:", F.frobenius(g) == F.mul(g, g))
fixed = [x for x in range(F.order) if F.in_subfield(x)]
print("fixed points of x -> x^q:", fixed)

# ---------------------------------------------------------------
# 3. Power residues.  In F_16 the 15th powers collapse to {1}, so the
#    generator is not a 15th power; any exponent coprime to 15 is a
#    bijection and every element passes.
# ---------------------------------------------------------------
print("\nis g a 15th power?", F.is_power_residue(g, 15))
print("is g a 7th power? ", F.is_power_residue(g, 7))

# ---------------------------------------------------------------
# 4. A proper subfield tower: F_64 over F_4 (p=2, s=2, n=3).  The
#    subfield is recognised as the fixed field of x -> x^4, and every
#    element expands into 3 coordinates over F_4.
# ---------------------------------------------------------------
F64 = create_field(2, 2, 3)
print("\nF_64 over F_4: subfield =", F64.subfield_values)
x = 37
coords = F64.expand_scalar(x)
print(f"element {x} has F_4-coordinates {coords} on the q-basis")
print("roundtrip ok:", F64.unexpand_scalar(coords) == x)
