"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a PASS line (visible with -s) after its assertions.  The
full tuple sweeps backing criterion 2 and proving the F_64 member are
marked slow and excluded from the default run; `pytest -m slow` executes
them.
"""

import json
import time

import pytest

from rankscatter import reports
from rankscatter.cli import main
from rankscatter.field import create_field
from rankscatter.construction import (
    ConstructionParams,
    direct_sum,
    family_subspace,
    line_control_subspace,
    pseudoregulus_subspace,
    scan_admissible,
    tuple_admissible,
    tuple_invariant,
)
from rankscatter.codes import (
    check_weight_axioms,
    code_from_system,
    dual_code,
    generalized_weights,
    is_mrd,
    min_distance,
    random_code,
)
from rankscatter.verify import SpanSweep, verify_evasive, verify_h_scattered


def ok(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def F16():
    return create_field(2, 1, 4)


@pytest.fixture(scope="module")
def F8():
    return create_field(2, 1, 3)


@pytest.fixture(scope="module")
def F64():
    return create_field(2, 1, 6)


@pytest.fixture(scope="module")
def family_params(F16):
    params = ConstructionParams(F16, 4, 2, (F16.p, 1, 1, 1))
    assert tuple_admissible(params.tower, params.m, params.alphas)
    return params


SAMPLED_ARGS = [
    "verify-scattered", "--field", "2,1,4", "--system", "family",
    "--m", "4", "--h", "2", "--alphas", "2,1,1,1",
    "--mode", "sampled", "--budget", "1000000", "--seed", "42",
]


@pytest.fixture(scope="module")
def sampled_report(tmp_path_factory):
    """Criterion 2's CI run, shared with criterion 10."""
    out = str(tmp_path_factory.mktemp("accept") / "sampled.json")
    rc = main(SAMPLED_ARGS + ["--out", out])
    with open(out) as f:
        return rc, json.load(f)


def test_criterion_01_pseudoregulus_exhaustive(F16):
    ps = pseudoregulus_subspace(F16, 2)
    t0 = time.perf_counter()
    ex = verify_h_scattered(ps, 2, mode="exhaustive")
    elapsed = time.perf_counter() - t0
    assert ex.status == "holds"
    assert ex.checked == 273
    assert elapsed < 1.0, f"exhaustive sweep took {elapsed:.2f}s"
    ws = verify_h_scattered(ps, 2, mode="witness_span")
    assert ws.status == ex.status == "holds"
    ok("C1", f"273 planes hold in {elapsed * 1e3:.0f} ms; witness_span agrees")


def test_criterion_02_ci_sampled_variant(sampled_report):
    rc, rep = sampled_report
    assert rc == 2
    res = rep["result"]
    assert res["status"] == "inconclusive"
    assert res["witness"] is None
    assert res["subspaces_checked"] == 1_000_000
    ok("C2", "sampled 10^6 subspaces: exit 2, no witness")


@pytest.mark.slow
def test_criterion_02_full_witness_span(F16, family_params):
    sysV = family_subspace(family_params)
    t0 = time.perf_counter()
    v = verify_h_scattered(sysV, 2, mode="witness_span", workers=1)
    elapsed = time.perf_counter() - t0
    assert v.status == "holds", f"theorem instance falsified: {v.serialize(F16)}"
    assert elapsed < 7200, f"sweep took {elapsed:.0f}s, budget is 2h"
    ok("C2-long", f"full d<=2 tuple sweep holds; {v.checked} tuples in {elapsed:.0f}s")


@pytest.mark.slow
def test_f64_family_member_is_2_scattered_by_witness_span(tmp_path):
    # F_64, m=3, h=2, tuple (1,1,2): the first q = 2 member where the
    # paper's weight bound beats the direct sum
    out = str(tmp_path / "f64.json")
    argv = ["verify-scattered", "--field", "2,1,6", "--system", "family", "--m", "3", "--h", "2",
            "--alphas", "1,1,2", "--mode", "witness_span", "--workers", "2", "--out", out]
    assert main(argv) == 0
    rep = reports.load_report(out)
    res = rep["result"]
    assert (res["status"], res["subspaces_checked"]) == ("holds", 34_359_607_296)
    ok("F64-long", f"d<=2 tuple sweep holds; {res['subspaces_checked']} tuples in {rep['timing']['seconds']:.0f}s")


def test_criterion_03_point_scatteredness_h1(F16, family_params):
    params = ConstructionParams(F16, 4, 1, family_params.alphas)
    sysV1 = family_subspace(params)
    assert sysV1.t == 16
    t0 = time.perf_counter()
    v = verify_h_scattered(sysV1, 1, mode="witness_span")
    sweep = SpanSweep(F16, sysV1, 1, 1, "auto")
    out = sweep.run_units(0, sweep.total_units)
    elapsed = time.perf_counter() - t0
    assert v.status == "holds"
    assert out.checked == 2**16 - 1
    assert out.best is not None and out.best["weight"] == 1
    assert elapsed < 60, f"point sweep took {elapsed:.1f}s"
    ok("C3", f"all {out.checked} nonzero vectors have point weight exactly 1 in {elapsed:.1f}s")


def test_criterion_04_negative_control_with_recheck(F16, tmp_path):
    lc = line_control_subspace(F16, 2)
    v = verify_h_scattered(lc, 1, mode="exhaustive")
    assert v.status == "violated"
    assert v.witness is not None and v.witness.weight == 4
    out = str(tmp_path / "control.json")
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "line-control",
        "--mode", "exhaustive", "--out", out,
    ])
    assert rc == 1
    with open(out) as f:
        rep = json.load(f)
    assert rep["result"]["witness"]["weight"] == 4
    assert main(["recheck", out]) == 0
    ok("C4", "line control violated with weight-4 witness; recheck confirms")


def test_criterion_05_direct_sum_profiles(F8):
    ps = pseudoregulus_subspace(F8, 1)
    t0 = time.perf_counter()
    prof2 = generalized_weights(direct_sum([ps, ps]))
    elapsed = time.perf_counter() - t0
    assert prof2.exact_tuple() == (2, 3, 5, 6)
    assert elapsed < 60, f"m=2 profile took {elapsed:.1f}s"

    prof3 = generalized_weights(direct_sum([ps, ps, ps]))
    got = prof3.exact_tuple()
    assert got[0] == 2 and got[1] == 3
    assert got[3] == 6 and got[4] == 8 and got[5] == 9
    assert got[2] == 5
    ok("C5", f"m=2 profile {prof2.exact_tuple()} exact; m=3 profile {got} exact, d_3 = 5")


def test_criterion_06_wei_duality_and_monotonicity(F8, F16):
    ps = pseudoregulus_subspace(F8, 1)
    ds = direct_sum([ps, ps])
    cds = code_from_system(ds)
    prof = generalized_weights(ds)
    dual_prof = generalized_weights(dual_code(cds).system())
    assert check_weight_axioms(prof, dual_prof, 6)

    towers = [F8, F16]
    shapes = [(2, 4), (2, 5), (3, 5), (3, 6), (2, 6)]
    count = 0
    seed = 0
    while count < 20:
        tower = towers[count % 2]
        k, t = shapes[count % len(shapes)]
        assert tower.order**k <= 2**20
        code = random_code(tower, k, t, seed=seed)
        p = generalized_weights(code.system())
        pd = generalized_weights(dual_code(code).system())
        assert check_weight_axioms(p, pd, t), (tower.order, k, t, seed)
        seed += 1
        count += 1
    ok("C6", "Wei-type duality and monotonicity hold for the m=2 pair and 20 random codes")


def test_criterion_07_mrd_checks(F16, F8, family_params):
    c1 = code_from_system(pseudoregulus_subspace(F16, 1))
    d1 = min_distance(c1)
    assert (c1.t, c1.k, d1.value) == (4, 2, 3)
    assert is_mrd(c1, d1)

    ps = pseudoregulus_subspace(F8, 1)
    cds = code_from_system(direct_sum([ps, ps]))
    dds = min_distance(cds)
    assert (cds.t, cds.k, dds.value) == (6, 4, 2)
    assert is_mrd(cds, dds)

    dual1 = dual_code(c1)
    dd = min_distance(dual1)
    assert dd.value == 3

    # the paper's family code: d_1 off the dual side's profile
    t0 = time.perf_counter()
    cf = code_from_system(family_subspace(family_params))
    df = min_distance(cf)
    elapsed = time.perf_counter() - t0
    assert (cf.t, cf.k, df.value, df.provenance) == (16, 12, 2, "exact")
    assert is_mrd(cf, df)
    ok(
        "C7",
        "[4,2,3], [6,4,2] and the F_16 m=4 h=2 family [16,12,2] meet the "
        f"Singleton-like bound (family in {elapsed:.3f}s); dual of the first has d=3",
    )


def test_criterion_08_evasiveness_sampling(F64):
    params = ConstructionParams(F64, 3, 2, (F64.p, 1, 1))
    assert tuple_admissible(params.tower, params.m, params.alphas)
    sysV = family_subspace(params)
    m, n, h = 3, 6, 2
    bound = m * n - 2 * (n - h - 1)
    assert bound == 12
    t0 = time.perf_counter()
    v = verify_evasive(sysV, 6, bound, mode="sampled", budget=10_000, seed=7)
    elapsed = time.perf_counter() - t0
    assert v.status == "inconclusive", "a sampled witness would falsify the bound"
    assert v.checked == 10_000
    assert elapsed < 600, f"sampling took {elapsed:.0f}s"
    ok("C8", f"10^4 codim-3 samples all within weight {bound} in {elapsed:.1f}s")


def test_criterion_09_admissibility_census(F16):
    t0 = time.perf_counter()
    out = scan_admissible(F16, 4)
    elapsed = time.perf_counter() - t0
    assert out["tuples_checked"] == 50625
    assert out["admissible"] == 47250
    assert elapsed < 10, f"census took {elapsed:.1f}s"
    # independent cross-check: plain field ops against the enumerated
    # set of (1+q+q^2+q^3)-th powers
    e = 15
    powers = {F16.pow(y, e) for y in range(1, 16)}
    import itertools

    recount = sum(
        1
        for tup in itertools.product(range(1, 16), repeat=4)
        if tuple_invariant(F16, 4, tup) not in powers
    )
    assert recount == 47250
    ok("C9", f"census 47250/50625 in {elapsed:.2f}s; residue-enumeration recount agrees")


def test_criterion_10_determinism_and_resume(sampled_report, tmp_path, F16, family_params):
    rc, straight = sampled_report
    assert rc == 2
    ck = str(tmp_path / "resume.jsonl")
    sysV = family_subspace(family_params)
    # simulate a kill at 50%: the partial run leaves only the checkpoint behind
    partial = verify_h_scattered(
        sysV, 2, mode="sampled", budget=1_000_000, seed=42,
        checkpoint=ck, _stop_after_units=500_000,
    )
    assert partial.checked < 1_000_000
    out = str(tmp_path / "resumed.json")
    rc2 = main(SAMPLED_ARGS + ["--out", out, "--checkpoint", ck])
    assert rc2 == 2
    with open(out) as f:
        resumed = json.load(f)
    assert reports.body_bytes(straight) == reports.body_bytes(resumed)
    # two workers split the chunks between processes; the body is the same
    out2 = str(tmp_path / "two-workers.json")
    assert main(SAMPLED_ARGS + ["--out", out2, "--workers", "2"]) == 2
    with open(out2) as f:
        assert reports.body_bytes(straight) == reports.body_bytes(json.load(f))
    ok("C10", "interrupted-at-50% resume and two workers reproduce the report body byte for byte")
