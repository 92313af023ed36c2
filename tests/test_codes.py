"""Rank-metric codes: distances, duals, MRD, generalized weights."""

import itertools
import random

import pytest

from rankscatter.field import create_field
from rankscatter.construction import (
    ConstructionParams,
    direct_sum,
    explicit_system,
    family_subspace,
    find_admissible,
    pseudoregulus_subspace,
    tuple_admissible,
)
from rankscatter.codes import (
    EXACT,
    UPPER,
    ProfileEntry,
    RankCode,
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
    singleton_bound_rhs,
)
from rankscatter.linalg import gaussian_binomial
from rankscatter.verify import max_weight_search, plan, rederive


@pytest.fixture(scope="module")
def F16():
    return create_field(2, 1, 4)


@pytest.fixture(scope="module")
def F8():
    return create_field(2, 1, 3)


@pytest.fixture(scope="module")
def ds_code(F8):
    ps = pseudoregulus_subspace(F8, 1)
    return code_from_system(direct_sum([ps, ps]))


def test_rank_weight_basics(F8):
    assert rank_weight(F8, (0, 0, 0)) == 0
    assert rank_weight(F8, (1, 1, 1, 1)) == 1
    g = F8.p
    assert rank_weight(F8, (1, g, F8.mul(g, g))) == 3
    # scalar invariance
    rng = random.Random(20)
    for _ in range(20):
        v = tuple(rng.randrange(8) for _ in range(4))
        c = 1 + rng.randrange(7)
        cv = tuple(F8.mul(c, x) for x in v)
        assert rank_weight(F8, v) == rank_weight(F8, cv)


def test_rank_weight_over_f4():
    F = create_field(2, 2, 3)
    theta = next(x for x in F.subfield_values if x not in (0, 1))
    assert rank_weight(F, (1, theta)) == 1  # both lie in a 1-dim F_4-span? no:
    # 1 and theta are F_4-scalars of 1, so the span of coordinates is F_4 * 1
    assert rank_weight(F, (1, F.p)) == 2


def test_code_shapes(F16, F8, ds_code):
    c1 = code_from_system(pseudoregulus_subspace(F16, 1))
    assert (c1.k, c1.t) == (2, 4)
    assert (ds_code.k, ds_code.t) == (4, 6)
    params = ConstructionParams(F16, 4, 2, (F16.p, 1, 1, 1))
    cf = code_from_system(family_subspace(params))
    assert (cf.k, cf.t) == (12, 16)
    assert cf.nondegenerate


def _codeword_distance(code) -> int:
    """The oracle: the least rank weight over every nonzero message."""
    Q = code.tower.order
    return min(
        rank_weight(code.tower, code.codeword(msg))
        for msg in itertools.product(range(Q), repeat=code.k)
        if any(msg)
    )


def _assert_d1_is_the_codeword_distance(code):
    assert code.tower.order**code.k <= 4096
    d = _codeword_distance(code)
    assert min_distance(code).value == d
    # d_1 = t - the largest weight of a (k-1)-space, on the scalar oracle
    system = code.system()
    p = plan(system, code.k - 1, None, "exhaustive")
    assert p.complete and system.t - rederive(system, p, p.total).best["weight"] == d
    return d


def test_min_distance_pseudoregulus(F16):
    c = code_from_system(pseudoregulus_subspace(F16, 1))
    d = min_distance(c)
    assert (d.value, d.provenance) == (3, EXACT)  # n - h
    prof = generalized_weights(c.system(), [1])
    assert (prof.route, prof.swept) == ("primal", 17)  # [2, 1]_16 hyperplanes
    samp = min_distance(c, "sampled", budget=30, seed=4)
    assert samp.provenance == UPPER and samp.value >= d.value


def test_min_distance_direct_sum(ds_code):
    d = min_distance(ds_code)
    assert (d.value, d.provenance) == (2, EXACT)
    prof = generalized_weights(ds_code.system(), [1])
    assert (prof.route, prof.swept) == ("dual", 10)


def test_repeated_column_caps_distance(F8):
    # planted control: a repeated column forces d <= t - 1
    c = RankCode(F8, 2, 4, ((1, 1, 0, 2), (0, 0, 1, 3)))
    d = min_distance(c)
    assert d.value <= 3


@pytest.fixture(scope="module")
def oracle_codes(F16, F8, ds_code):
    F9, F27 = create_field(3, 1, 2), create_field(3, 1, 3)
    c1 = code_from_system(pseudoregulus_subspace(F16, 1))
    codes = {
        "F16-pseudoregulus": c1,
        "F16-pseudoregulus-dual": dual_code(c1),
        "F8-direct-sum": ds_code,
        "F8-repeated-column": RankCode(F8, 2, 4, ((1, 1, 0, 2), (0, 0, 1, 3))),
        "F16-paired-columns": RankCode(F16, 2, 4, ((1, 1, 0, 0), (0, 0, 1, 1))),
        "F9-pseudoregulus": code_from_system(pseudoregulus_subspace(F9, 1)),
        "F27-pseudoregulus": code_from_system(pseudoregulus_subspace(F27, 1)),
        "F27-pseudoregulus-dual": dual_code(code_from_system(pseudoregulus_subspace(F27, 1))),
    }
    # degenerate: the column span has F_q-dimension below t
    assert not codes["F8-repeated-column"].nondegenerate
    assert not codes["F16-paired-columns"].nondegenerate
    return codes


@pytest.mark.parametrize(
    "name, d",
    [
        ("F16-pseudoregulus", 3),
        ("F16-pseudoregulus-dual", 3),
        ("F8-direct-sum", 2),
        ("F8-repeated-column", 1),
        ("F16-paired-columns", 1),
        ("F9-pseudoregulus", 1),
        ("F27-pseudoregulus", 2),
        ("F27-pseudoregulus-dual", 3),
    ],
)
def test_min_distance_is_the_least_codeword_weight(oracle_codes, name, d):
    assert _assert_d1_is_the_codeword_distance(oracle_codes[name]) == d


def test_min_distance_rejects_modes_without_a_hyperplane_sweep(F8, ds_code):
    g = F8.p
    line = RankCode(F8, 1, 3, ((1, g, F8.mul(g, g)),))  # k = 1: the hyperplane is {0}
    assert min_distance(line).value == 3
    for code in (line, ds_code):
        for mode in ("projective", "witness_span", "typo"):
            with pytest.raises(ValueError, match="exhaustive or sampled"):
                min_distance(code, mode)
    with pytest.raises(ValueError, match="exhaustive or sampled"):
        generalized_weights(ds_code.system(), [4], mode="typo")


def test_dual_code_identities(F16, ds_code):
    c = code_from_system(pseudoregulus_subspace(F16, 1))
    dc = dual_code(c)
    assert (dc.k, dc.t) == (2, 4)
    for r in c.G:
        for s in dc.G:
            acc = 0
            for a, b in zip(r, s):
                acc = F16.add(acc, F16.mul(a, b))
            assert acc == 0
    # dual of dual spans the original row space
    ddc = dual_code(dc)
    from rankscatter.linalg import rref

    assert rref(F16, ddc.G, 4)[0] == rref(F16, c.G, 4)[0]
    # dual of the MRD pseudoregulus code is MRD with d = 3
    dd = min_distance(dc)
    assert dd.value == 3 and is_mrd(dc, dd)


def test_mrd_checks(F16, ds_code):
    c1 = code_from_system(pseudoregulus_subspace(F16, 1))
    assert singleton_bound_rhs(4, 4, 3) == 8
    assert is_mrd(c1, min_distance(c1))
    assert is_mrd(ds_code, min_distance(ds_code))
    assert is_mrd(c1, 3) and not is_mrd(c1, 2)
    # a strictly worse code is not MRD
    worse = RankCode(F16, 2, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    dw = min_distance(worse)
    assert dw.value < 3 and not is_mrd(worse, dw)
    # only an exact distance decides MRD
    with pytest.raises(ValueError):
        is_mrd(c1, min_distance(c1, "sampled", budget=10))
    with pytest.raises(ValueError):
        is_mrd(c1, ProfileEntry(1, 3, UPPER))


def test_direct_sum_profile_m2(ds_code, F8):
    prof = generalized_weights(ds_code.system())
    assert prof.exact_tuple() == (2, 3, 5, 6)
    prof.validate()
    pred = predicted_direct_sum_profile(2, 3, 1)
    assert pred.exact_tuple() == (2, 3, 5, 6)
    # d_1 equals the codeword-side minimum distance
    assert prof.exact(1) == _codeword_distance(ds_code)


def test_direct_sum_profile_dual_and_axioms(ds_code):
    prof = generalized_weights(ds_code.system())
    dual_prof = generalized_weights(dual_code(ds_code).system())
    assert dual_prof.exact_tuple() == (3, 6)
    assert check_weight_axioms(prof, dual_prof, 6)


def test_axioms_reject_bad_profiles(ds_code):
    from rankscatter.codes import WeightProfile, EXACT

    good = generalized_weights(ds_code.system())
    bad = WeightProfile(2, 6)
    bad.add(1, 3, EXACT)
    bad.add(2, 3, EXACT)  # repeat: monotonicity broken
    assert not check_weight_axioms(good, bad, 6)
    shifted = WeightProfile(2, 6)
    shifted.add(1, 2, EXACT)
    shifted.add(2, 6, EXACT)  # overlaps the complement set
    assert not check_weight_axioms(good, shifted, 6)
    # a dual entry outside 1..t breaks the partition and is no error
    for values in ((3, 7), (0, 3)):
        outside = WeightProfile(2, 6)
        for rho, value in enumerate(values, 1):
            outside.add(rho, value, EXACT)
        assert not check_weight_axioms(good, outside, 6)
    # exact entries must increase across a missing index too
    gap = WeightProfile(4, 6)
    gap.add(1, 5, EXACT)
    gap.add(3, 4, EXACT)
    with pytest.raises(ValueError, match="strictly increase"):
        gap.validate()
    with pytest.raises(ValueError, match=r"rho = 5 out of range 1\.\.4"):
        gap.add(5, 6, EXACT)


def test_full_flag_axioms_trivial_case(F8):
    # [t, t] full space: profile (1, ..., t), empty dual profile
    from rankscatter.codes import WeightProfile, EXACT

    t = 4
    p = WeightProfile(t, t)
    for i in range(1, t + 1):
        p.add(i, i, EXACT)
    empty = WeightProfile(0, t)
    assert check_weight_axioms(p, empty, t)


def test_predicted_profile_m3():
    pred = predicted_direct_sum_profile(3, 3, 1)
    assert pred.exact(1) == 2 and pred.exact(2) == 3
    assert pred.exact(4) == 6 and pred.exact(5) == 8 and pred.exact(6) == 9
    assert pred.bounds(3) == (4, 5)
    # block bound d_{j(h+1)} <= jn shows up at exact indices consistently
    assert pred.exact(2) <= 3 and pred.exact(4) <= 6


def test_predicted_profile_m2_overlap_is_consistent():
    # d_{(m-1)(h+1)} = n agrees with d_{h+1} = n when m = 2
    pred = predicted_direct_sum_profile(2, 4, 1)
    assert pred.exact(2) == 4


def test_random_codes_satisfy_weight_axioms():
    towers = [create_field(2, 1, 3), create_field(2, 1, 4)]
    shapes = [(2, 4), (2, 5), (3, 5), (3, 6), (2, 6)]
    done = 0
    seed = 0
    while done < 20:
        tower = towers[done % 2]
        k, t = shapes[done % len(shapes)]
        if tower.order**k > 2**20:
            seed += 1
            done += 1
            continue
        code = random_code(tower, k, t, seed=seed)
        prof = generalized_weights(code.system())
        dual_prof = generalized_weights(dual_code(code).system())
        assert check_weight_axioms(prof, dual_prof, t), (tower.order, k, t, seed)
        assert prof.exact(1) == _assert_d1_is_the_codeword_distance(code)
        seed += 1
        done += 1


def test_sampled_weights_bound_the_exact_profile(ds_code):
    exact = generalized_weights(ds_code.system())
    sampled = generalized_weights(ds_code.system(), mode="sampled", budget=40, seed=6)
    for rho in range(1, 4):
        lo, hi = sampled.bounds(rho)
        assert lo is None  # sampled values are upper bounds on d_rho
        assert hi is not None and hi >= exact.exact(rho)
    # rho = k sees only the zero subspace and is exact in every mode
    assert sampled.exact(4) == exact.exact(4) == 6


def _direct_profile(system):
    """The oracle: d_rho = t - max weight over dim k-rho, swept on the system itself."""
    k, t = system.ambient, system.t
    return tuple(t - max_weight_search(system, k - rho)[0] for rho in range(1, k + 1))


def _sweep_costs(system):
    """(primal, dual) subspace counts of a full exhaustive profile."""
    k, t, Q = system.ambient, system.t, system.tower.order
    kd = t - k
    primal = sum(gaussian_binomial(k, k - rho, Q) for rho in range(1, k + 1))
    dual = sum(gaussian_binomial(kd, kd - s, Q) for s in range(1, kd + 1))
    return primal, dual


def test_dual_route_matches_direct_sweep_m2(ds_code):
    system = ds_code.system()
    prof = generalized_weights(system)
    assert _sweep_costs(system) == (5916, 10)
    assert (prof.route, prof.swept) == ("dual", 10)
    assert prof.exact_tuple() == _direct_profile(system) == (2, 3, 5, 6)
    assert {e.provenance for e in prof.entries} == {"exact"}
    # a requested subset reads the same values off the same dual sweep
    part = generalized_weights(system, rho_list=[3, 1])
    assert part.route == "dual"
    assert [(e.rho, e.value) for e in part.entries] == [(3, 5), (1, 2)]
    # the primal route where it is cheaper: rho = k alone is one subspace
    last = generalized_weights(system, rho_list=[4])
    assert (last.route, last.swept, last.exact(4)) == ("primal", 1, 6)


def test_both_routes_match_direct_sweeps_on_random_codes():
    towers = [create_field(2, 1, 3), create_field(2, 1, 4)]
    shapes = [(2, 4), (2, 5), (3, 5), (3, 6), (2, 6)]
    routes = set()
    for seed in range(20):
        tower = towers[seed % 2]
        k, t = shapes[seed % len(shapes)]
        code = random_code(tower, k, t, seed=seed)
        for system in (code.system(), dual_code(code).system()):
            prof = generalized_weights(system)
            primal, dual = _sweep_costs(system)
            assert prof.route == ("dual" if dual < primal else "primal")
            assert prof.exact_tuple() == _direct_profile(system), (tower.order, k, t, seed)
            routes.add(prof.route)
    assert routes == {"primal", "dual"}


def test_degenerate_dual_falls_back_to_the_direct_sweep():
    F8 = create_field(2, 1, 3)
    g = F8.p
    system = explicit_system(F8, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (g, 1, 0)])
    primal, dual = _sweep_costs(system)
    assert dual < primal
    assert dual_code(code_from_system(system)).system().t < system.t
    prof = generalized_weights(system)
    assert prof.route == "primal"
    assert prof.swept == primal
    assert prof.exact_tuple() == _direct_profile(system) == (1, 2, 4)


@pytest.mark.parametrize(
    "fake_weight, message",
    [
        (lambda dim: 0, "not strictly increasing"),
        (lambda dim: dim - 2, "has 6 entries, not 4"),  # d_s = t + s: increasing, out of range
    ],
    ids=["not-increasing", "out-of-range"],
)
def test_dual_derivation_that_breaks_the_partition_raises(ds_code, monkeypatch, fake_weight, message):
    import rankscatter.codes as codes

    def fake_search(system, dim, **kw):
        return fake_weight(dim), [0], 1, True

    monkeypatch.setattr(codes, "max_weight_search", fake_search)
    with pytest.raises(AssertionError, match=message):
        generalized_weights(ds_code.system())


def test_the_swept_count_guard_holds_under_python_O():
    # python -O strips assert statements; the guard is an explicit raise
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "import rankscatter.codes as codes\n"
        "from rankscatter.construction import direct_sum, pseudoregulus_subspace\n"
        "from rankscatter.field import FieldTower\n"
        "search = codes.max_weight_search\n"
        "def miscounted(*args, **kwargs):\n"
        "    weight, key, checked, exact = search(*args, **kwargs)\n"
        "    return weight, key, checked + 1, exact\n"
        "codes.max_weight_search = miscounted\n"
        "ps = pseudoregulus_subspace(FieldTower(2, 1, 3), 1)\n"
        "try:\n"
        "    codes.generalized_weights(direct_sum([ps, ps]))\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 the weight sweeps did not check the 10 subspaces"), proc.stdout


def test_dual_route_rejects_a_budget_that_cuts_its_sweep(ds_code, F16):
    # A budget is rounded up to a chunk boundary, so it only cuts a sweep of
    # more than one chunk: the first dual sweep of this [20, 15] code has
    # [5, 4]_16 = 69,905 hyperplanes, five chunks.
    system = direct_sum([pseudoregulus_subspace(F16, 2)] * 5)
    with pytest.raises(ValueError, match="dual sweep"):
        generalized_weights(system, budget=5, rho_list=[2])
    assert generalized_weights(ds_code.system(), budget=100).exact_tuple() == (2, 3, 5, 6)


@pytest.mark.slow
def test_direct_sweep_m3_matches_the_dual_route(F8):
    system = direct_sum([pseudoregulus_subspace(F8, 1)] * 3)
    assert _direct_profile(system) == (2, 3, 5, 6, 8, 9)
    assert generalized_weights(system).exact_tuple() == (2, 3, 5, 6, 8, 9)


# The paper's MRD claim on family members out of reach of any codeword
# enumeration (the first would rank about 1.9e13 codewords): both profiles
# come from the dual side and equal the direct-sum profile, so no separation
# from the direct sum is observed at these sizes.
FAMILY_PROFILES = {
    "F16-m4-h2": (
        (2, 1, 4), 4, 2, (2, 1, 1, 1), 78_900,
        (2, 3, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16),
    ),
    "F64-m3-h4": (
        (2, 1, 6), 3, 4, (1, 1, 2), 8_323,
        (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18),
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILY_PROFILES))
def test_family_codes_are_mrd_and_meet_their_weight_bounds(name):
    field, m, h, alphas, swept, expected = FAMILY_PROFILES[name]
    tower = create_field(*field)
    params = ConstructionParams(tower, m, h, alphas)
    code = code_from_system(family_subspace(params))
    d = min_distance(code)
    assert (d.value, d.provenance) == (2, EXACT)
    assert is_mrd(code, d)
    prof = generalized_weights(code.system())
    assert (prof.route, prof.swept) == ("dual", swept)
    assert prof.exact_tuple() == expected
    bounds = family_weight_bounds(params)
    assert bounds.entries
    for e in bounds.entries:
        assert prof.exact(e.rho) >= e.value, (e.rho, e.value)
    baseline = generalized_weights(direct_sum([pseudoregulus_subspace(tower, h)] * m))
    assert baseline.exact_tuple() == expected


@pytest.mark.parametrize("n, m, h", [(4, 4, 2), (6, 3, 4), (3, 2, 1), (3, 3, 1)])
def test_exact_direct_sum_profile_lies_inside_the_prediction(n, m, h):
    pred = predicted_direct_sum_profile(m, n, h)
    upper = [e.rho for e in pred.entries if e.provenance == UPPER]
    assert len(upper) == len(set(upper)), "one upper bound per rho"
    tower = create_field(2, 1, n)
    prof = generalized_weights(direct_sum([pseudoregulus_subspace(tower, h)] * m))
    for rho in range(1, m * (h + 1) + 1):
        d = prof.exact(rho)
        if pred.exact(rho) is not None:
            assert d == pred.exact(rho), rho
        lo, hi = pred.bounds(rho)
        assert (lo is None or lo <= d) and (hi is None or d <= hi), (rho, lo, d, hi)


def test_predicted_profile_keeps_the_smaller_upper_bound():
    # at (m, n, h) = (4, 4, 2), rho = 6 gets 9 from the chain and 8 from the
    # block bound 2n
    pred = predicted_direct_sum_profile(4, 4, 2)
    assert [e.value for e in pred.entries if e.rho == 6 and e.provenance == UPPER] == [8]
    assert pred.bounds(6) == (7, 8)


def test_family_weight_bounds_instances():
    F64 = create_field(2, 1, 6)
    params = ConstructionParams(F64, 3, 2, (2, 1, 1))
    assert tuple_admissible(params.tower, params.m, params.alphas)
    prof = family_weight_bounds(params)
    lo, _ = prof.bounds(3)
    assert lo == 2 * 6 - 2 * 2 - 2 == 6
    lo, _ = prof.bounds(6)
    assert lo == 3 * 6 - 2 - 2 == 14
    # s-range bounds require strong admissibility; m = 3 has no valid s
    with pytest.raises(ValueError):
        family_weight_bounds(params, s_list=[2])


def test_family_weight_bounds_reject_bad_params(F16):
    not_adm = ConstructionParams(F16, 4, 2, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        family_weight_bounds(not_adm)
    adm_h1 = ConstructionParams(F16, 4, 1, (F16.p, 1, 1, 1))
    with pytest.raises(ValueError):
        family_weight_bounds(adm_h1)


def test_strong_bounds_with_m4():
    # m = 4 admits s = 2; find a strongly admissible tuple over F_256 (m | n = 8)
    F256 = create_field(2, 1, 8)
    params = find_admissible(F256, 4, 2, strong=True, limit=50_000)
    if params is None:
        pytest.skip("no strongly admissible tuple in the scan prefix")
    prof = family_weight_bounds(params, s_list=[2])
    n, h = 8, 2
    lo, _ = prof.bounds(2 * (h + 1))
    assert lo == 3 * (n - h - 1) == 15
    table = compare_with_direct_sum(params, s_list=[2])
    by_rho = {row["rho"]: row for row in table}
    # n > (s+1)(h+1): 8 > 9 is false, so no separation promised at s = 2
    assert by_rho[6]["baseline"] == 2 * n
    # but the top index always separates when n >= h+3
    assert by_rho[9]["separated"]


def test_sampled_family_weights_never_contradict_the_bounds():
    # a sampled upper bound on d_rho falling below a proved lower bound
    # would falsify the construction; check the two bounded indices
    F64 = create_field(2, 1, 6)
    params = ConstructionParams(F64, 3, 2, (2, 1, 1))
    sysV = family_subspace(params)
    bounds = family_weight_bounds(params)
    sampled = generalized_weights(sysV, rho_list=[3, 6], mode="sampled", budget=300, seed=8)
    for rho in (3, 6):
        lo, _ = bounds.bounds(rho)
        _, hi = sampled.bounds(rho)
        assert hi >= lo, f"sampled upper bound {hi} at rho={rho} contradicts proved lower {lo}"


def test_comparison_table_flags():
    F64 = create_field(2, 1, 6)
    params = ConstructionParams(F64, 3, 2, (2, 1, 1))
    table = compare_with_direct_sum(params)
    by_rho = {row["rho"]: row for row in table}
    # rho = h+1: bound 2n-2h-2 = 6 vs exact baseline n = 6 (n = 2h+2: no gap)
    assert by_rho[3] == {
        "rho": 3,
        "family_lower": 6,
        "baseline": 6,
        "baseline_provenance": "exact",
        "separated": False,
    }
    # rho = (m-1)(h+1): 14 > 12, strictly better than any direct sum
    assert by_rho[6]["separated"] and by_rho[6]["family_lower"] == 14


def test_profile_csv_export(ds_code):
    prof = generalized_weights(ds_code.system())
    csv = prof.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "rho,value,provenance,subspaces_checked"
    assert len(lines) == 5
    assert lines[1].startswith("1,2,exact,")


def test_dual_route_budget_that_covers_its_sweep_is_exact(ds_code):
    # the dual sweep's largest Grassmannian has [2, 1]_8 = 9 planes
    profile = generalized_weights(ds_code.system(), budget=9)
    assert profile.route == "dual"
    assert profile.exact_tuple() == (2, 3, 5, 6)
