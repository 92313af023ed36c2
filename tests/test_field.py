"""Field tower arithmetic: construction, Frobenius, residues, expansion."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankscatter.field import FieldTower, create_field, default_modulus, is_irreducible, prime_factors


@pytest.fixture(scope="module")
def F16():
    return create_field(2, 1, 4, modulus=(1, 1, 0, 0, 1))


@pytest.fixture(scope="module")
def F64_over_F4():
    return create_field(2, 2, 3)


def test_standard_modulus_accepted(F16):
    assert F16.order == 16
    assert F16.modulus == (1, 1, 0, 0, 1)


def test_default_modulus_is_deterministic():
    a = create_field(2, 1, 4)
    b = create_field(2, 1, 4)
    assert a.modulus == b.modulus == (1, 1, 0, 0, 1)
    # smallest packed irreducible of degree 6 over F_2 is z^6 + z + 1
    assert default_modulus(2, 6) == (1, 1, 0, 0, 0, 0, 1)


def test_create_field_rejects_bad_input():
    with pytest.raises(ValueError):
        create_field(4, 1, 2)  # composite p
    with pytest.raises(ValueError):
        create_field(2, 1, 1, modulus=(1, 1))  # n >= 2 required
    with pytest.raises(ValueError):
        create_field(2, 1, 4, modulus=(1, 0, 0, 0, 1))  # z^4+1 = (z+1)^4
    with pytest.raises(ValueError):
        create_field(2, 1, 4, modulus=(1, 1, 1))  # wrong degree


def test_irreducibility_tester_agrees_with_factor_scan():
    # brute force: degree-4 polynomials over F_2 with no root and no
    # irreducible quadratic factor
    quadratics = [(1, 1, 1)]  # z^2+z+1, the only irreducible quadratic

    def divides(div, poly):
        rem = list(poly)
        while len(rem) >= len(div) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(div):
                break
            shift = len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] ^= c
        return not any(rem)

    for packed in range(16):
        coeffs = tuple((packed >> i) & 1 for i in range(4)) + (1,)
        has_root = (coeffs[0] == 0) or (sum(coeffs) % 2 == 0)
        brute = not has_root and not any(divides(q, coeffs) for q in quadratics)
        assert is_irreducible(coeffs, 2) == brute, coeffs


def test_frobenius_is_squaring_on_the_generator(F16):
    g = F16.p
    assert F16.frobenius(g, 1) == F16.mul(g, g)


def test_frobenius_order_and_zero(F16):
    for x in range(16):
        assert F16.frobenius(x, F16.n) == x
    assert F16.frobenius(0, 3) == 0


def test_frobenius_is_a_ring_homomorphism(F16):
    rng = random.Random(11)
    for _ in range(60):
        a, b = rng.randrange(16), rng.randrange(16)
        assert F16.frobenius(F16.add(a, b)) == F16.add(F16.frobenius(a), F16.frobenius(b))
        assert F16.frobenius(F16.mul(a, b)) == F16.mul(F16.frobenius(a), F16.frobenius(b))


@pytest.mark.parametrize("p,s,n", [(2, 1, 3), (2, 1, 4), (3, 1, 2), (2, 2, 3)])
def test_power_residues_match_enumeration(p, s, n):
    F = create_field(p, s, n)
    Q = F.order
    for e in (2, 3, 7, Q - 1, Q + 5):
        eth_powers = {F.pow(y, e) for y in range(1, Q)}
        for x in range(1, Q):
            assert F.is_power_residue(x, e) == (x in eth_powers), (x, e)


def test_power_residues_in_a_4096_element_field():
    # largest field covered by the brute-force oracle contract
    F = create_field(2, 1, 12)
    Q = F.order
    for e in (3, 9, (Q - 1) // 5):
        eth_powers = {F.pow(y, e) for y in range(1, Q)}
        for x in range(1, Q, 37):
            assert F.is_power_residue(x, e) == (x in eth_powers)


def test_power_residue_trivial_cases(F16):
    for e in (1, 2, 15, 100):
        assert F16.is_power_residue(1, e)
    # gcd(e, Q-1) = 1 makes the power map a bijection
    for x in range(1, 16):
        assert F16.is_power_residue(x, 7)
    # only 1 is a 15th power in F_16
    assert not F16.is_power_residue(F16.p, 15)
    with pytest.raises(ValueError):
        F16.is_power_residue(0, 3)


def test_power_residue_status_is_frobenius_invariant(F16):
    for x in range(1, 16):
        for e in (3, 5, 15):
            assert F16.is_power_residue(x, e) == F16.is_power_residue(F16.frobenius(x), e)


def test_subfield_is_the_fixed_field(F16, F64_over_F4):
    assert F16.in_subfield(0) and F16.in_subfield(1)
    assert not F16.in_subfield(F16.p)
    assert len(F16.subfield_values) == F16.q == 2
    # F_64 over F_4: exactly 4 fixed points of x -> x^4
    fixed = [x for x in range(64) if F64_over_F4.pow(x, 4) == x]
    assert len(fixed) == 4
    assert tuple(sorted(fixed)) == F64_over_F4.subfield_values


def test_prime_subfield_is_the_constants_without_a_scan(monkeypatch):
    scans = {}
    for p, n in ((2, 3), (3, 3), (3, 4)):
        F = create_field(p, 1, n)
        scans[(p, n)] = tuple(x for x in range(F.order) if F.in_subfield(x))

    def no_scan(self, a):
        raise AssertionError("subfield_values scanned the field")

    monkeypatch.setattr(FieldTower, "in_subfield", no_scan)
    for (p, n), scanned in scans.items():
        assert create_field(p, 1, n).subfield_values == scanned == tuple(range(p))


@pytest.mark.parametrize(
    "p, s, n",
    [(2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 4, 3),
     (3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 2, 2), (3, 3, 2), (2, 6, 2)],
)
def test_subfield_and_its_generator_match_a_scan_of_the_field(p, s, n):
    # the oracle: every element fixed by x -> x^q, and the first of them
    # past 0 and 1 with degree exactly s over F_p
    F = create_field(p, s, n)
    fixed = tuple(x for x in range(F.order) if F.pow(x, F.q) == x)
    theta = next(x for x in fixed[2:] if all(F.pow(x, p**j) != x for j in range(1, s)))
    assert F.subfield_values == fixed
    assert F._theta == theta


def test_subfield_is_found_without_a_scan(monkeypatch):
    def no_scan(self, a):
        raise AssertionError("subfield_values scanned the field")

    monkeypatch.setattr(FieldTower, "in_subfield", no_scan)
    # 2^24 elements: a scan of the field would take minutes
    F = create_field(2, 2, 12)
    assert len(F.subfield_values) == 4
    assert F.unexpand_scalar(F.expand_scalar(12345)) == 12345


def test_subfield_is_closed_under_field_operations(F64_over_F4):
    F = F64_over_F4
    vals = F.subfield_values
    for a in vals:
        for b in vals:
            assert F.add(a, b) in vals
            assert F.mul(a, b) in vals


def test_arithmetic_axioms_random(F64_over_F4):
    F = F64_over_F4
    rng = random.Random(5)
    for _ in range(80):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0


@pytest.mark.parametrize(
    "p, s, n, theta",
    [(2, 2, 3, 58), (2, 4, 3, 8), (3, 2, 2, 42), (2, 3, 2, 14), (5, 2, 2, 25), (2, 6, 2, 32), (3, 3, 2, 144)],
)
def test_subfield_generator_is_pinned(p, s, n, theta):
    # the expansion coordinates of every q > p field depend on this element
    F = create_field(p, s, n)
    assert F._theta == theta
    assert F.in_subfield(theta)


def test_expansion_is_linear_and_invertible(F64_over_F4):
    F = F64_over_F4
    rng = random.Random(9)
    for _ in range(40):
        a, b = rng.randrange(64), rng.randrange(64)
        ea, eb = F.expand_scalar(a), F.expand_scalar(b)
        es = F.expand_scalar(F.add(a, b))
        add_t = F.subfield_tables[0]
        assert tuple(add_t[x][y] for x, y in zip(ea, eb)) == es
        assert F.unexpand_scalar(ea) == a


def test_expansion_aligns_with_the_q_basis(F16):
    # basis element b_j expands to the j-th unit coordinate vector
    for j, b in enumerate(F16.q_basis):
        e = F16.expand_scalar(b)
        assert e == tuple(1 if i == j else 0 for i in range(F16.n))


def _towers(F16, F64_over_F4):
    """s = 1 and s > 1 towers, one of them on a modulus that is not the default."""
    return [F16, FieldTower(2, 1, 4, modulus=(1, 0, 0, 1, 1)), F64_over_F4, FieldTower(3, 2, 2)]


def test_tower_pickles_and_compares(F16, F64_over_F4):
    import pickle

    for F in _towers(F16, F64_over_F4):
        clone = pickle.loads(pickle.dumps(F))
        assert clone == F and hash(clone) == hash(F)
        assert clone.mul(7, 9) == F.mul(7, 9)
        assert clone.expand_scalar(F.order - 1) == F.expand_scalar(F.order - 1)


def test_descriptor_roundtrip(F16, F64_over_F4):
    for F in _towers(F16, F64_over_F4):
        desc = F.descriptor()
        assert desc == {"p": F.p, "s": F.s, "n": F.n, "modulus": list(F.modulus)}
        assert FieldTower.from_descriptor(desc) == F
    assert FieldTower(2, 1, 4, modulus=(1, 0, 0, 1, 1)) != F16


# small towers with log tables, s > 1 included: F_16, F_27, F_{4^3}, F_{9^2}, F_{8^2}, F_25
TABLE_TOWERS = [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2)]


@functools.cache
def _table_tower(p, s, n):
    return create_field(p, s, n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_TOWERS), st.integers(min_value=0), st.integers(min_value=0))
def test_log_tables_invert_exp_and_turn_products_into_sums(psn, x, y):
    # the census indexes these tables as arrays, so check them against the
    # polynomial product that builds nothing from them
    F = _table_tower(*psn)
    exp, log = F._tables
    qm1 = F.order - 1
    a, b = 1 + x % qm1, 1 + y % qm1
    assert exp[log[a]] == a and 0 <= log[a] < qm1
    assert log[F._mul_raw(a, b)] == (log[a] + log[b]) % qm1


def _first_generator(F):
    qm1 = F.order - 1
    return next(
        c for c in range(2, F.order) if all(F._pow_raw(c, qm1 // f) != 1 for f in prime_factors(qm1))
    )


@pytest.mark.parametrize("psn", TABLE_TOWERS + [(2, 1, 8), (2, 1, 10), (3, 1, 6), (5, 1, 4)])
def test_log_tables_are_the_powers_of_the_first_generator(psn):
    # the tables come from F_p matrix powers (from products past F_256 for
    # p = 2); every entry must be the product of the one before and the
    # generator
    F = _table_tower(*psn)
    exp, log = F._tables
    gen, qm1 = _first_generator(F), F.order - 1
    assert len(exp) == qm1 and len(log) == F.order and exp[0] == 1 and exp[1] == gen
    assert all(exp[(i + 1) % qm1] == F._mul_raw(exp[i], gen) for i in range(qm1))
    assert log[0] == -1 and all(log[exp[i]] == i for i in range(qm1))


def test_log_tables_of_a_large_odd_field():
    # F_{5^8}: 390,624 powers, past one block of the table build
    F = create_field(5, 1, 8)
    exp, log = F._tables
    qm1 = F.order - 1
    assert len(exp) == qm1 and exp[1] == _first_generator(F)
    rng = random.Random(8)
    for i in rng.sample(range(qm1), 300):
        assert log[exp[i]] == i
        assert exp[(i + 1) % qm1] == F._mul_raw(exp[i], exp[1])
    for a in rng.sample(range(1, F.order), 300):
        assert exp[log[a]] == a


# the table towers, and two past TABLE_CAP, whose products are polynomial
AXIOM_TOWERS = TABLE_TOWERS + [(2, 1, 21), (3, 1, 13)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(AXIOM_TOWERS), st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_field_axioms(psn, x, y, z):
    F = _table_tower(*psn)
    add, mul = F.add, F.mul
    a, b, c = (v % F.order for v in (x, y, z))
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, F.neg(a)) == 0 and F.sub(a, b) == add(a, F.neg(b))
    if a:
        assert mul(a, F.inv(a)) == 1
        assert F.pow(a, F.order - 1) == 1
