"""Family construction, admissibility invariants, baselines, census."""

import itertools
import random

import pytest

from rankscatter import construction
from rankscatter.field import create_field
from rankscatter.construction import (
    ConstructionParams,
    admissibility_feasible,
    cyclic_tuple_invariant,
    direct_sum,
    family_map,
    family_subspace,
    find_admissible,
    line_control_subspace,
    pseudoregulus_subspace,
    scan_admissible,
    system_from_desc,
    system_to_desc,
    tuple_admissible,
    tuple_invariant,
    tuple_strongly_admissible,
)
from rankscatter.linalg import SubspaceQn, derive_seed, matrix_rank, rand_below
from rankscatter.verify import subspace_weight


@pytest.fixture(scope="module")
def F16():
    return create_field(2, 1, 4)


@pytest.fixture(scope="module")
def F64():
    return create_field(2, 1, 6)


def test_params_validation(F16):
    with pytest.raises(ValueError):
        ConstructionParams(F16, 2, 2, (1, 1))  # m >= 3
    with pytest.raises(ValueError):
        ConstructionParams(F16, 3, 3, (1, 1, 1))  # h <= n-2
    with pytest.raises(ValueError):
        ConstructionParams(F16, 3, 2, (1, 0, 1))  # zero multiplier
    for a in (16, 17, -1):  # Q, Q + 1, negative: not an element of F_16^*
        with pytest.raises(ValueError):
            ConstructionParams(F16, 3, 2, (1, a, 1))
    with pytest.raises(ValueError):
        ConstructionParams(F16, 3, 2, (1, 1))  # wrong length


def test_alpha_invariant_trivial_and_pinned(F16):
    assert tuple_invariant(F16, 4, (1, 1, 1, 1)) == 1
    g = F16.p
    K = tuple_invariant(F16, 4, (g, 1, 1, 1))
    assert K == F16.pow(g, 8)  # g^(q^(m-1)) = g^8


def test_alpha_invariant_frobenius_identity(F64):
    rng = random.Random(12)
    for _ in range(25):
        al = tuple(1 + rng.randrange(63) for _ in range(4))
        shifted = tuple(F64.frobenius(a) for a in al)
        lhs = tuple_invariant(F64, 4, shifted)
        rhs = F64.frobenius(tuple_invariant(F64, 4, al))
        assert lhs == rhs


def test_admissibility_is_frobenius_invariant(F16):
    rng = random.Random(13)
    for _ in range(30):
        al = tuple(1 + rng.randrange(15) for _ in range(4))
        shifted = tuple(F16.frobenius(a) for a in al)
        assert tuple_admissible(F16, 4, al) == tuple_admissible(F16, 4, shifted)


def test_admissibility_examples(F16):
    assert not tuple_admissible(F16, 4, (1, 1, 1, 1))
    assert tuple_admissible(F16, 4, (F16.p, 1, 1, 1))


def test_feasibility_gcd_examples(F16, F64):
    assert not admissibility_feasible(F16, 3)  # gcd(7, 15) = 1
    assert admissibility_feasible(F16, 4)  # gcd(15, 15) = 15
    assert admissibility_feasible(F64, 3)  # gcd(7, 63) = 7


def test_infeasible_means_no_tuple_is_admissible(F16):
    rng = random.Random(14)
    for _ in range(200):
        al = tuple(1 + rng.randrange(15) for _ in range(3))
        assert not tuple_admissible(F16, 3, al)


def test_cyclic_invariant_unrolled_for_m3(F64):
    rng = random.Random(15)
    for _ in range(20):
        al = tuple(1 + rng.randrange(63) for _ in range(3))
        expect = F64.mul(F64.mul(F64.frobenius(al[1], 2), F64.frobenius(al[0], 1)), al[2])
        assert cyclic_tuple_invariant(F64, 3, al, 2) == expect
        # index 1 recovers the base invariant
        assert cyclic_tuple_invariant(F64, 3, al, 1) == tuple_invariant(F64, 3, al)


def test_all_ones_is_not_strongly_admissible(F64):
    assert not tuple_strongly_admissible(F64, 3, (1, 1, 1))


def test_strongly_admissible_tuples_exist_when_m_divides_n(F64):
    # m = 3 divides n = 6
    found = find_admissible(F64, 3, 2, strong=True)
    assert found is not None
    assert tuple_strongly_admissible(F64, 3, found.alphas)
    assert tuple_admissible(F64, 3, found.alphas)


def test_family_map_is_fq_linear(F16):
    params = ConstructionParams(F16, 4, 2, (F16.p, 1, 1, 1))
    rng = random.Random(16)
    zero = (0,) * 4
    assert family_map(params, zero) == (0,) * 12
    for _ in range(25):
        x = tuple(rng.randrange(16) for _ in range(4))
        y = tuple(rng.randrange(16) for _ in range(4))
        s = tuple(F16.add(a, b) for a, b in zip(x, y))
        fx, fy, fs = (family_map(params, v) for v in (x, y, s))
        assert fs == tuple(F16.add(a, b) for a, b in zip(fx, fy))


def test_family_dimensions_and_span(F16, F64):
    from rankscatter.verify import scattered_dim_bound

    params = ConstructionParams(F16, 4, 2, (F16.p, 1, 1, 1))
    sys1 = family_subspace(params)
    assert sys1.ambient == 12 and sys1.t == 16
    assert sys1.spans_ambient
    # the F_q-dimension meets the scattered dimension bound exactly
    assert sys1.t == scattered_dim_bound(sys1.ambient, F16.n, params.h)
    rng = random.Random(17)
    for _ in range(5):
        al = tuple(1 + rng.randrange(63) for _ in range(3))
        s = family_subspace(ConstructionParams(F64, 3, 2, al))
        assert s.t == 18 and s.ambient == 9
        assert s.spans_ambient
    # h = 1 is allowed by the builder
    s1 = family_subspace(ConstructionParams(F16, 4, 1, (F16.p, 1, 1, 1)))
    assert s1.ambient == 8 and s1.t == 16


def test_family_generators_span_over_extension_matches_criterion(F16):
    params = ConstructionParams(F16, 4, 2, (F16.p, 1, 1, 1))
    sysV = family_subspace(params)
    assert matrix_rank(F16, sysV.subspace.canonical_generators, 12) == 12


def test_pseudoregulus_dims(F16):
    ps = pseudoregulus_subspace(F16, 2)
    assert ps.ambient == 3 and ps.t == 4 and ps.spans_ambient
    with pytest.raises(ValueError):
        pseudoregulus_subspace(F16, 4)  # h <= n-1


def test_direct_sum_dims_and_block_weight(F16):
    ps = pseudoregulus_subspace(F16, 1)
    ds = direct_sum([ps, ps])
    assert ds.ambient == 4 and ds.t == 8
    assert direct_sum([ps]) is ps
    # weight of H x 0 inside U1 + U2 equals the weight of H inside U1
    rng = random.Random(18)
    for _ in range(10):
        v = (1, rng.randrange(16))
        H1 = SubspaceQn.from_vectors(F16, 2, [v])
        H = SubspaceQn.from_vectors(F16, 4, [v + (0, 0)])
        assert subspace_weight(ds, H) == subspace_weight(ps, H1)


def test_direct_sum_requires_one_tower(F16, F64):
    with pytest.raises(ValueError):
        direct_sum([pseudoregulus_subspace(F16, 1), pseudoregulus_subspace(F64, 1)])


def test_line_control_does_not_span(F16):
    lc = line_control_subspace(F16, 2)
    assert lc.t == 4 and not lc.spans_ambient


def test_census_full_scan_counts(F16):
    out = scan_admissible(F16, 4)
    assert out["exhaustive"]
    assert out["tuples_checked"] == 15**4 == 50625
    assert out["admissible"] == 47250
    assert out["feasible"]
    for ex in out["examples"]:
        tup = tuple(F16.val(c) for c in ex)
        assert tuple_admissible(F16, 4, tup)


def test_census_against_per_element_residue_oracle(F16):
    # independent recount: evaluate the invariant with plain field ops and
    # test membership against the enumerated set of e-th powers
    e = 1 + 2 + 4 + 8
    powers = {F16.pow(y, e) for y in range(1, 16)}
    import itertools

    count = 0
    for tup in itertools.product(range(1, 16), repeat=4):
        K = tuple_invariant(F16, 4, tup)
        if K not in powers:
            count += 1
    assert count == scan_admissible(F16, 4)["admissible"]


def _per_tuple_census(tower, m, budget, seed, check_strong):
    """scan_admissible's counts from tuple_admissible and
    tuple_strongly_admissible, one tuple at a time, on the same tuples."""
    Q = tower.order
    if budget is None:
        tuples = itertools.product(range(1, Q), repeat=m)
    else:
        rng = random.Random(derive_seed(seed, "census", m))
        tuples = [tuple(1 + rand_below(rng, Q - 1) for _ in range(m)) for _ in range(budget)]
    admissible, strong, examples = construction._census(tower, m, check_strong, tuples)
    return admissible, strong, [[list(tower.coeffs(a)) for a in tup] for tup in examples]


@pytest.mark.parametrize(
    "p, s, n, m, budget, seed",
    [
        (2, 1, 4, 4, None, 0),
        (2, 1, 6, 3, None, 0),
        (5, 1, 2, 3, None, 0),  # infeasible: gcd(31, 24) = 1
        (5, 1, 2, 2, None, 0),
        (2, 2, 3, 3, 20_000, 7),  # F_{4^3}
        (2, 1, 4, 40, 500, 3),  # 40 values a tuple: blocks of 102 tuples
        (2, 1, 20, 2, 70_000, 4),  # blocks end between the draws of one tuple
    ],
)
def test_block_census_matches_the_per_tuple_tests(p, s, n, m, budget, seed):
    tower = create_field(p, s, n)
    out = scan_admissible(tower, m, budget=budget, seed=seed, check_strong=True)
    assert tower._tables is not None
    assert out["tuples_checked"] == (budget or (tower.order - 1) ** m)
    expected = _per_tuple_census(tower, m, budget, seed, True)
    assert (out["admissible"], out["strongly_admissible"], out["examples"]) == expected


def test_census_random_mode_is_seeded(F64):
    a = scan_admissible(F64, 3, budget=500, seed=3)
    b = scan_admissible(F64, 3, budget=500, seed=3)
    assert a == b
    assert not a["exhaustive"] and a["tuples_checked"] == 500


def test_system_descriptors_roundtrip(F16):
    from rankscatter.codes import nondegenerate_dual

    params = ConstructionParams(F16, 4, 2, (F16.p, 1, 1, 1))
    for system in (
        family_subspace(params),
        pseudoregulus_subspace(F16, 2),
        line_control_subspace(F16, 3),
        direct_sum([pseudoregulus_subspace(F16, 1)] * 2),
        # a dual code's system is described by its generators, as "explicit"
        nondegenerate_dual(pseudoregulus_subspace(F16, 1)),
    ):
        desc = system_to_desc(system)
        clone = system_from_desc(F16, desc)
        assert clone.subspace == system.subspace
        assert clone.ambient == system.ambient
        assert clone.tag == system.tag
