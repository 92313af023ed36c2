"""Verifier correctness: weights, modes, engines, witnesses, resume."""

import json

import pytest

from rankscatter.field import create_field
from rankscatter.construction import (
    explicit_system,
    line_control_subspace,
    pseudoregulus_subspace,
)
from rankscatter.linalg import SubspaceQn, gaussian_binomial
from rankscatter.runner import run_sweep, desc_hash
from rankscatter.verify import (
    build_sweep,
    max_weight_search,
    scattered_dim_bound,
    subspace_weight,
    verify_evasive,
    verify_h_scattered,
)


@pytest.fixture(scope="module")
def F16():
    return create_field(2, 1, 4)


@pytest.fixture(scope="module")
def F8():
    return create_field(2, 1, 3)


@pytest.fixture(scope="module")
def ps2(F16):
    return pseudoregulus_subspace(F16, 2)


def test_subspace_weight_trivials(F16):
    ps = pseudoregulus_subspace(F16, 1)
    full = SubspaceQn.from_vectors(F16, 2, [(1, 0), (0, 1)])
    zero = SubspaceQn.from_vectors(F16, 2, [])
    assert subspace_weight(ps, full) == ps.t
    assert subspace_weight(ps, zero) == 0
    # the diagonal point has weight 1: x = x^q forces x in the base field
    assert subspace_weight(ps, SubspaceQn.from_vectors(F16, 2, [(1, 1)])) == 1
    with pytest.raises(ValueError):
        subspace_weight(ps, SubspaceQn.from_vectors(F16, 3, [(1, 0, 0)]))


def test_subspace_weight_against_set_intersection_oracle(F8):
    # wt_U(H) = log_q |U n H| with membership tested vector by vector
    import math
    import random

    rng = random.Random(31)
    for _ in range(15):
        gens = [tuple(rng.randrange(8) for _ in range(3)) for _ in range(rng.randrange(2, 5))]
        U = explicit_system(F8, 3, gens)
        H = SubspaceQn.from_vectors(
            F8, 3, [tuple(rng.randrange(8) for _ in range(3)) for _ in range(rng.randrange(1, 3))]
        )
        count = sum(1 for v in U.subspace.elements() if H.contains(v))
        assert subspace_weight(U, H) == int(math.log2(count))


def test_scattered_dim_bound():
    assert scattered_dim_bound(9, 4, 2) == 12
    assert scattered_dim_bound(2, 4, 1) == 4
    assert scattered_dim_bound(12, 4, 2) == 16
    assert scattered_dim_bound(5, 3, 2) == 5
    with pytest.raises(ValueError):
        scattered_dim_bound(3, 4, 0)


def test_pseudoregulus_is_scattered_both_modes(ps2):
    ex = verify_h_scattered(ps2, 2, mode="exhaustive")
    ws = verify_h_scattered(ps2, 2, mode="witness_span")
    assert ex.status == ws.status == "holds"
    assert ex.checked == 273


def test_point_scattered_pseudoregulus(F16):
    ps1 = pseudoregulus_subspace(F16, 1)
    v = verify_h_scattered(ps1, 1, mode="exhaustive")
    assert v.status == "holds" and v.checked == 17
    v = verify_h_scattered(ps1, 1, mode="witness_span")
    assert v.status == "holds" and v.checked == 15


def test_line_control_is_violated_with_weight_n(F16):
    lc = line_control_subspace(F16, 2)
    for mode in ("exhaustive", "witness_span"):
        v = verify_h_scattered(lc, 1, mode=mode)
        assert v.status == "violated"
        assert v.witness is not None and v.witness.weight == 4
        # witness re-verifies by hand
        w = subspace_weight(lc, v.witness.H)
        assert w == v.witness.weight > v.bound
        assert len(v.witness.intersection) == v.witness.weight
    # first witness weight agrees between the two proof modes
    ex = verify_h_scattered(lc, 1, mode="exhaustive")
    ws = verify_h_scattered(lc, 1, mode="witness_span")
    assert ex.witness.weight == ws.witness.weight


def test_first_witness_weight_agrees_across_proof_modes_h2(F16):
    lc = line_control_subspace(F16, 3)
    ex = verify_h_scattered(lc, 2, mode="exhaustive")
    ws = verify_h_scattered(lc, 2, mode="witness_span")
    assert ex.status == ws.status == "violated"
    assert ex.witness.weight == ws.witness.weight == 4


def test_non_spanning_subspace_without_weight_witness(F16):
    # a single F_q-line: every weight is <= 1, but it cannot be 1-scattered
    tiny = explicit_system(F16, 2, [(1, 0)])
    v = verify_h_scattered(tiny, 1, mode="exhaustive")
    assert v.status == "violated"
    assert v.witness is None
    assert v.span_defect is not None and v.span_defect["span_dim"] == 1


def test_spanning_is_not_required_for_evasive(F16):
    lc = line_control_subspace(F16, 2)
    # rank 4 line expansion is (1, 4)-evasive vacuously
    v = verify_evasive(lc, 1, 4, mode="exhaustive")
    assert v.status == "holds"
    # and genuinely not (1, 3)-evasive
    v = verify_evasive(lc, 1, 3, mode="exhaustive")
    assert v.status == "violated" and v.witness.weight == 4


def test_scattered_implies_evasive_with_equal_parameters(ps2):
    assert verify_h_scattered(ps2, 2, mode="exhaustive").holds
    assert verify_evasive(ps2, 2, 2, mode="exhaustive").holds


def test_sampled_mode_never_holds(ps2):
    v = verify_h_scattered(ps2, 2, mode="sampled", budget=40, seed=5)
    assert v.status == "inconclusive" and v.checked == 40 and v.seed == 5
    v = verify_evasive(ps2, 2, 2, mode="sampled", budget=25, seed=1)
    assert v.status == "inconclusive" and v.checked == 25


def test_sampled_mode_finds_planted_violation(F16):
    lc = line_control_subspace(F16, 2)
    v = verify_h_scattered(lc, 1, mode="sampled", budget=400, seed=2)
    assert v.status == "violated"
    assert v.witness.weight > 1
    assert subspace_weight(lc, v.witness.H) == v.witness.weight


def test_budget_truncates_proof_modes(ps2):
    v = verify_h_scattered(ps2, 2, mode="exhaustive", budget=50, chunk_size=10)
    assert v.status == "inconclusive"
    assert 50 <= v.checked < 273


def test_engines_agree_exactly(F16, F8):
    systems = [
        (pseudoregulus_subspace(F16, 2), 2),
        (pseudoregulus_subspace(F8, 1), 1),
        (line_control_subspace(F16, 2), 1),
        (line_control_subspace(F8, 3), 2),
    ]
    for system, h in systems:
        for mode in ("exhaustive", "witness_span"):
            fast = verify_h_scattered(system, h, mode=mode, engine="auto")
            slow = verify_h_scattered(system, h, mode=mode, engine="scalar")
            assert fast.status == slow.status
            assert fast.checked == slow.checked
            if fast.witness is not None:
                assert fast.witness.weight == slow.witness.weight
                assert fast.witness.tuple_index == slow.witness.tuple_index


def test_engines_agree_on_sampled(F16):
    ps = pseudoregulus_subspace(F16, 2)
    fast = verify_h_scattered(ps, 2, mode="sampled", budget=64, seed=9)
    slow = verify_h_scattered(ps, 2, mode="sampled", budget=64, seed=9, engine="scalar")
    assert (fast.status, fast.checked) == (slow.status, slow.checked)
    # a violation: both engines cut at the same first witness
    lc = line_control_subspace(F16, 2)
    for engine in ("auto", "scalar"):
        v = verify_h_scattered(lc, 1, mode="sampled", budget=500, seed=3, engine=engine)
        assert (v.status, v.checked, v.witness.tuple_index) == ("violated", 9, [8])


def test_engines_agree_over_odd_characteristic():
    F9 = create_field(3, 1, 2)
    ps = pseudoregulus_subspace(F9, 1)
    v = verify_h_scattered(ps, 1, mode="exhaustive")
    assert v.status == "holds" and v.checked == gaussian_binomial(2, 1, 9)
    w = verify_h_scattered(ps, 1, mode="witness_span")
    assert w.status == "holds"


def test_max_weight_search_exact_and_sampled(ps2, F16):
    w, key, checked, exact = max_weight_search(ps2, 2, mode="exhaustive")
    assert exact and checked == 273
    assert w == 2  # scattered: planes meet in dimension at most h = 2
    w2, _, _, exact2 = max_weight_search(ps2, 2, mode="sampled", budget=30, seed=3)
    assert not exact2 and w2 <= w


def test_witness_span_engine_agreement_on_direct_sum(F8):
    # |U| = 2^6 here, small enough for the scalar engine to cross-validate
    from rankscatter.construction import direct_sum

    ds = direct_sum([pseudoregulus_subspace(F8, 1), pseudoregulus_subspace(F8, 1)])
    fast = verify_h_scattered(ds, 1, mode="witness_span")
    slow = verify_h_scattered(ds, 1, mode="witness_span", engine="scalar")
    assert fast.status == slow.status == "holds"
    assert fast.checked == slow.checked


def test_witness_span_engines_agree_at_depth_three(F16):
    # h = 3 exercises the recursive prefix walk (d = 3 tuples)
    ps3 = pseudoregulus_subspace(F16, 3)
    fast = verify_h_scattered(ps3, 3, mode="witness_span")
    slow = verify_h_scattered(ps3, 3, mode="witness_span", engine="scalar")
    assert fast.status == slow.status == "holds"
    assert fast.checked == slow.checked
    lc = line_control_subspace(F16, 4)
    fast = verify_h_scattered(lc, 3, mode="witness_span")
    slow = verify_h_scattered(lc, 3, mode="witness_span", engine="scalar")
    assert fast.status == slow.status == "violated"
    assert fast.checked == slow.checked
    assert fast.witness.tuple_index == slow.witness.tuple_index
    assert fast.witness.weight == slow.witness.weight


def test_checkpoint_resume_is_exact(tmp_path, F16):
    ps = pseudoregulus_subspace(F16, 2)
    desc = {
        "kind": "sampled",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "seed": 11,
        "budget": 200,
        "engine": "auto",
    }
    straight = run_sweep(desc, 200, 25)
    ck = str(tmp_path / "ck.jsonl")
    partial = run_sweep(desc, 200, 25, checkpoint=ck, stop_after_units=100)
    assert not partial.completed
    resumed = run_sweep(desc, 200, 25, checkpoint=ck)
    assert resumed.completed
    assert (resumed.checked, resumed.viol, resumed.best) == (
        straight.checked,
        straight.viol,
        straight.best,
    )


def test_checkpoint_rejects_other_jobs(tmp_path, F16):
    desc = {
        "kind": "sampled",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "seed": 11,
        "budget": 200,
        "engine": "auto",
    }
    ck = str(tmp_path / "ck.jsonl")
    run_sweep(desc, 200, 25, checkpoint=ck, stop_after_units=50)
    other = dict(desc, seed=12)
    with pytest.raises(ValueError):
        run_sweep(other, 200, 25, checkpoint=ck)


def test_parallel_workers_match_serial(F16):
    ps = pseudoregulus_subspace(F16, 2)
    serial = verify_h_scattered(ps, 2, mode="exhaustive", chunk_size=32)
    parallel = verify_h_scattered(ps, 2, mode="exhaustive", chunk_size=32, workers=2)
    assert serial.status == parallel.status == "holds"
    assert serial.checked == parallel.checked


def test_violation_key_is_minimal_under_parallelism(F16):
    lc = line_control_subspace(F16, 2)
    serial = verify_h_scattered(lc, 1, mode="exhaustive", chunk_size=2)
    parallel = verify_h_scattered(lc, 1, mode="exhaustive", chunk_size=2, workers=2)
    assert serial.witness.tuple_index == parallel.witness.tuple_index
    assert serial.witness.weight == parallel.witness.weight


def test_verdict_serialization_roundtrip(F16):
    lc = line_control_subspace(F16, 2)
    v = verify_h_scattered(lc, 1, mode="exhaustive")
    data = v.serialize(F16)
    assert data["status"] == "violated"
    wit = data["witness"]
    H = SubspaceQn.deserialize(F16, 2, wit["H_basis"])
    assert subspace_weight(lc, H) == wit["weight"] > wit["bound"]
    json.dumps(data)  # JSON-safe


def test_build_sweep_registry(F16):
    desc = {
        "kind": "exhaustive",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "engine": "auto",
    }
    sweep = build_sweep(desc)
    assert sweep.total_units == 273
    out = sweep.run_units(0, 273)
    assert out.checked == 273 and out.viol is None
    assert desc_hash(desc) == desc_hash(json.loads(json.dumps(desc)))



@pytest.fixture
def ps2_desc(F16):
    return {
        "kind": "exhaustive",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "engine": "auto",
    }


def test_checkpoint_torn_final_line_is_dropped_and_rerun(tmp_path, ps2_desc):
    straight = run_sweep(ps2_desc, 273, 20)
    ck = tmp_path / "ck.jsonl"
    run_sweep(ps2_desc, 273, 20, checkpoint=str(ck))
    data = ck.read_bytes()
    ck.write_bytes(data[: len(data) - 9])  # a kill in mid-append tears the last line
    assert run_sweep(ps2_desc, 273, 20, checkpoint=str(ck)) == straight
    # the torn tail was replaced by the rerun chunk's whole line
    lines = ck.read_text().splitlines()
    assert [json.loads(line)["lo"] for line in lines[1:]] == list(range(0, 273, 20))


def test_checkpoint_torn_header_starts_over(tmp_path, ps2_desc):
    ck = tmp_path / "ck.jsonl"
    ck.write_text('{"chunk_size": 20, "desc')
    assert run_sweep(ps2_desc, 273, 20, checkpoint=str(ck)) == run_sweep(ps2_desc, 273, 20)


def test_checkpoint_malformed_lines_name_the_line(tmp_path, ps2_desc):
    ck = tmp_path / "ck.jsonl"
    run_sweep(ps2_desc, 273, 20, checkpoint=str(ck))
    lines = ck.read_text().splitlines(keepends=True)
    for no, bad in ((3, lines[2][:-9] + "\n"), (4, '{"lo": 40}\n'), (1, "not json\n")):
        broken = tmp_path / f"broken{no}.jsonl"
        broken.write_text("".join(lines[: no - 1] + [bad] + lines[no:]))
        with pytest.raises(ValueError, match=f"checkpoint {broken} line {no} is malformed"):
            run_sweep(ps2_desc, 273, 20, checkpoint=str(broken))


def test_unknown_engine_is_rejected(F16, ps2_desc):
    ps = pseudoregulus_subspace(F16, 2)
    for engine in ("batch", "Scalar", "numpy"):
        with pytest.raises(ValueError, match="unknown engine"):
            verify_h_scattered(ps, 2, mode="exhaustive", engine=engine)
        with pytest.raises(ValueError, match="unknown engine"):
            build_sweep(dict(ps2_desc, engine=engine))


def test_max_weight_search_keeps_the_earliest_maximum(F8):
    # every engine, worker count and chunking reports the same first maximum
    from rankscatter.construction import direct_sum

    ds = direct_sum([pseudoregulus_subspace(F8, 1)] * 2)
    expected = {1: (1, [64], 585), 2: (3, [0], 4745), 3: (4, [1], 585)}
    for dim in (1, 2, 3):
        results = [
            max_weight_search(ds, dim, engine=engine, workers=workers, chunk_size=chunk)[:3]
            for engine in ("auto", "scalar")
            for workers in (1, 2)
            for chunk in (1, None)
        ]
        assert all(r == expected[dim] for r in results), (dim, results)
