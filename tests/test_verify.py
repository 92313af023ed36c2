"""Verifier correctness: weights, modes, backends, witnesses, resume."""

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankscatter.field import create_field
from rankscatter.construction import (
    ConstructionParams,
    explicit_system,
    family_subspace,
    line_control_subspace,
    pseudoregulus_subspace,
)
from rankscatter.linalg import SubspaceQn, expand_vector, gaussian_binomial, sample_subspace
from rankscatter import runner
from rankscatter.runner import SweepOutcome, run_sweep, desc_hash
from rankscatter.verify import (
    ExhaustiveSweep,
    Levels,
    SampledSweep,
    SpanSweep,
    _build_sweep,
    max_weight_search,
    plan,
    rederive,
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
    # rank 4 line expansion is (1, 4)-evasive vacuously, in every mode and
    # with no sweep: no subspace meets U in more than t = 4
    for mode, budget, seed in (("exhaustive", None, None), ("witness_span", None, None), ("sampled", 10, 0)):
        v = verify_evasive(lc, 1, 4, mode=mode, budget=budget)
        assert (v.status, v.checked, v.witness, v.backend, v.seed) == ("holds", 0, None, None, seed)
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


def test_a_sampled_witness_replays_from_its_verdict(F16):
    # a call without a seed draws from seed 0 and records it, so the
    # witness key names its sample
    lc = line_control_subspace(F16, 2)
    v = verify_h_scattered(lc, 1, mode="sampled", budget=400)
    assert (v.status, v.seed) == ("violated", 0)
    assert sample_subspace(F16, lc.ambient, 1, v.seed, *v.witness.tuple_index) == v.witness.H


def test_budget_truncates_proof_modes(ps2):
    v = verify_h_scattered(ps2, 2, mode="exhaustive", budget=50, chunk_size=10)
    assert v.status == "inconclusive"
    assert 50 <= v.checked < 273


def _rederived(system, v, budget=None):
    """(checked, witness key) of verdict v's plan rerun by `rederive` on the
    scalar oracle, over the units a run checks when no violation stops it."""
    p = plan(system, v.dim, v.bound, v.mode, budget, v.seed)
    fresh = rederive(system, p, p.units)
    return fresh.checked, None if fresh.viol is None else fresh.viol["key"]


def _seen(v):
    """(checked, witness key) of verdict v."""
    return v.checked, None if v.witness is None else v.witness.tuple_index


def _sweep(system, mode, dim, bound=None, budget=None, seed=None):
    """The sweep object that the plan of this question builds."""
    return _build_sweep(system, plan(system, dim, bound, mode, budget, seed))[0]


def test_engines_agree_exactly(F16, F8):
    systems = [
        (pseudoregulus_subspace(F16, 2), 2),
        (pseudoregulus_subspace(F8, 1), 1),
        (line_control_subspace(F16, 2), 1),
        (line_control_subspace(F8, 3), 2),
    ]
    for system, h in systems:
        for mode in ("exhaustive", "witness_span"):
            v = verify_h_scattered(system, h, mode=mode)
            assert v.status in ("holds", "violated") and _seen(v) == _rederived(system, v)


def test_engines_agree_on_sampled(F16):
    ps = pseudoregulus_subspace(F16, 2)
    v = verify_h_scattered(ps, 2, mode="sampled", budget=64, seed=9)
    assert (v.status, *_seen(v)) == ("inconclusive", *_rederived(ps, v, 64))
    # a violation: the kernel and the oracle cut at the same first witness
    lc = line_control_subspace(F16, 2)
    v = verify_h_scattered(lc, 1, mode="sampled", budget=500, seed=3)
    assert (v.status, *_seen(v)) == ("violated", 10, [9])
    assert _rederived(lc, v, 500) == (10, [9])


def _expand(blocks):
    """Each level of a stream of blocks as (head, start, weights): a dense
    block as it is, and each level of a Levels with its unlisted units at
    the level's base weight."""
    for block in blocks:
        if isinstance(block, Levels):
            for i, (head, start, size, base) in enumerate(
                zip(block.heads.tolist(), block.starts.tolist(), block.sizes.tolist(), block.bases.tolist())
            ):
                wts = np.full(size, base, dtype=np.int64)
                wts[block.pos[block.level == i]] = block.wts[block.level == i]
                yield tuple(head), start, wts
        else:
            head, start, wts = block
            yield head, start, np.asarray(wts, dtype=np.int64)


def _unit_weights(blocks):
    """The weight of every unit of a sweep's stream of blocks, its kernel's
    (`_weights`) or its scalar oracle's (`_oracle`)."""
    return np.concatenate([w for _, _, w in _expand(blocks)]).tolist()


def _sampled_systems():
    """(system, d, lo, hi, whether the weights vary) per agreement case."""
    from rankscatter.construction import ConstructionParams, family_subspace

    F16 = create_field(2, 1, 4)
    F4 = create_field(2, 1, 2)
    c2 = family_subspace(ConstructionParams(F16, 4, 2, (2, 1, 1, 1)))
    f4 = explicit_system(F4, 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1)])
    return [
        (c2, 2, 0, 2500, False),
        (c2, 9, 100, 300, True),
        (f4, 3, 0, 2000, False),
        (f4, 2, 0, 2000, True),
        # a block of one sample: alone, and after a full block of 2,048
        (c2, 2, 0, 1, False),
        (c2, 2, 0, 2049, False),
    ]


@pytest.mark.parametrize("case", range(6), ids=["C2-d2", "C2-d9", "F4-d3", "F4-d2", "C2-one", "C2-2049"])
def test_sampled_batch_weights_equal_scalar_weights_unit_by_unit(case):
    from rankscatter.linalg import matrix_rank, sample_values

    system, d, lo, hi, varied = _sampled_systems()[case]
    sweep = _sweep(system, "sampled", d, budget=hi, seed=17)
    assert sweep.backend == "gf2"
    fast = _unit_weights(sweep._weights(lo, hi))
    assert fast == _unit_weights(sweep._oracle(lo, hi))
    assert len(fast) == hi - lo and (len(set(fast)) > 1) == varied
    if system.tower.order == 4:
        # over F_4 about 31% of 3 x 3 and 8% of 2 x 3 matrices are singular
        vals, _ = sample_values(4, 3, d, 17, lo, hi, 0)
        singular = sum(matrix_rank(system.tower, m, 3) < d for m in vals.tolist())
        assert singular > (hi - lo) // 20


def test_sampled_engines_redraw_rejected_words_alike(monkeypatch):
    # a limit an eighth below 2^64 rejects words at q = 2 as well: every
    # kernel and the scalar oracle must redraw the same samples
    from rankscatter import linalg

    monkeypatch.setattr(linalg, "_word_limit", lambda Q: ((1 << 64) - (1 << 61)) // Q * Q)
    F9 = create_field(3, 1, 2)
    cases = [
        (explicit_system(create_field(2, 1, 2), 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1)]), 2),
        (explicit_system(F9, 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1)]), 2),
    ]
    for system, d in cases:
        _, accepted = linalg.sample_values(system.tower.order, 3, d, 23, 0, 400, 0)
        assert 0.3 < 1 - accepted.mean() < 0.7
        oracle = [
            subspace_weight(system, linalg.sample_subspace(system.tower, 3, d, 23, i))
            for i in range(400)
        ]
        sweep = _sweep(system, "sampled", d, budget=400, seed=23)
        assert _unit_weights(sweep._weights(0, 400)) == oracle, system.tower.order
        assert _unit_weights(sweep._oracle(0, 400)) == oracle, system.tower.order
        assert np.unique(oracle).size > 1


def test_scalar_sampled_stream_draws_a_block_at_once(monkeypatch):
    # the scalar oracle's samples are sample_subspace's index by index,
    # rejected words included, from one attempt-0 draw per SAMPLE_BLOCK
    from rankscatter import linalg, verify

    monkeypatch.setattr(linalg, "_word_limit", lambda Q: ((1 << 64) - (1 << 61)) // Q * Q)
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 64)
    draws = []
    sample_values = linalg.sample_values
    monkeypatch.setattr(
        linalg, "sample_values", lambda *a: draws.append(a[-1]) or sample_values(*a)
    )
    for F, d in ((create_field(2, 1, 2), 2), (create_field(3, 1, 2), 1)):
        system = explicit_system(F, 3, [(1, 2, 0), (0, 1, 3)])
        sweep = _sweep(system, "sampled", d, budget=300, seed=23)
        draws.clear()
        stream = list(sweep._subspaces(100, 300))
        assert draws.count(0) == 4 and len(draws) > 20
        assert [key for key, _ in stream] == [[i] for i in range(100, 300)]
        assert [H for _, H in stream] == [sample_subspace(F, 3, d, 23, i) for i in range(100, 300)]


def _kernel_draws(monkeypatch, sweep, lo, hi):
    """Runs units [lo, hi) of a batched sampled sweep; returns the value
    matrices its kernel built raw rows of and those it built reduced rows of."""
    built = ([], [])
    value_rows = sweep.kernel.value_rows

    def record(vals, reduced):
        built[reduced].extend(vals.tolist())
        return value_rows(vals, reduced)

    monkeypatch.setattr(sweep.kernel, "value_rows", record)
    _unit_weights(sweep._weights(lo, hi))
    return built


def _short_mod_u(system, d, seed, lo, hi):
    """The attempt-0 matrices of samples lo .. hi-1 whose rows reduced mod U
    have rank below d n (rejected, singular, or meeting U), and the number
    of those that are redrawn (rejected or singular)."""
    from rankscatter.linalg import matrix_rank, sample_values

    t, k = system.tower, system.ambient
    vals, accepted = sample_values(t.order, k, d, seed, lo, hi, 0)
    short, redrawn = [], 0
    for m, ok in zip(vals.tolist(), accepted.tolist()):
        redo = not ok or matrix_rank(t, m, k) < d
        redrawn += redo
        if redo or subspace_weight(system, SubspaceQn.from_vectors(t, k, m)) > 0:
            short.append(m)
    return short, redrawn


SHORT_MOD_U_CASES = {
    # (system, d, samples, seed, whether words are rejected)
    "C2-d2": (0, 2, 2500, 17, False),
    "C2-forced": (0, 2, 600, 17, True),
    "F4-d3": (2, 3, 2000, 17, False),
    "F27-forced": (None, 2, 300, 11, True),
}


@pytest.mark.parametrize(
    "case, backend",
    [(c, b) for c in SHORT_MOD_U_CASES for b in (("fp", "gf3") if c == "F27-forced" else ("gf2", "fp"))],
)
def test_sampled_sweeps_rank_raw_rows_only_of_samples_short_mod_u(monkeypatch, case, backend):
    # rank mod U <= rank <= d n: a sample of full rank mod U is never ranked
    # raw, and only a redrawn one is ranked mod U twice
    from rankscatter import linalg, verify

    which, d, hi, seed, forced = SHORT_MOD_U_CASES[case]
    if forced:
        monkeypatch.setattr(linalg, "_word_limit", lambda Q: ((1 << 64) - (1 << 61)) // Q * Q)
    if which is None:
        system = explicit_system(create_field(3, 1, 3), 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1), (5, 7, 1)])
    else:
        system = _sampled_systems()[which][0]
    sweep = _sweep(system, "sampled", d, budget=hi, seed=seed)
    if sweep.backend != backend:
        sweep.backend, sweep.kernel = backend, verify._KERNELS[backend](sweep)
    raw, reduced = _kernel_draws(monkeypatch, sweep, 0, hi)
    short, redrawn = _short_mod_u(system, d, seed, 0, hi)
    assert raw == short
    assert len(reduced) == hi + redrawn
    if case == "C2-d2":
        assert short == []
    elif case == "C2-forced":
        # C2's planes all have full rank mod U: the short draws are the rejected ones
        assert len(short) == redrawn > 0
    else:
        assert 0 < redrawn < len(short)


def test_sampled_sweep_raises_no_numpy_warning(tmp_path):
    # uint64 overflow is the hash's arithmetic; on numpy scalars it would warn
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for field, system in (("2,1,4", ["--h", "2"]), ("3,1,2", ["--h", "1"])):
        argv = [
            sys.executable, "-W", "error", "-m", "rankscatter.cli", "verify-scattered",
            "--field", field, "--system", "pseudoregulus", *system,
            "--mode", "sampled", "--budget", "3000", "--seed", "5",
            "--out", str(tmp_path / "r.json"),
        ]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr == ""


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
    # |U| = 2^6 here, small enough for the scalar oracle to cross-validate
    from rankscatter.construction import direct_sum

    ds = direct_sum([pseudoregulus_subspace(F8, 1), pseudoregulus_subspace(F8, 1)])
    v = verify_h_scattered(ds, 1, mode="witness_span")
    assert v.status == "holds" and _seen(v) == _rederived(ds, v)


def test_witness_span_engines_agree_at_depth_three(F16):
    # h = 3 exercises the recursive prefix walk (d = 3 tuples)
    ps3 = pseudoregulus_subspace(F16, 3)
    v = verify_h_scattered(ps3, 3, mode="witness_span")
    assert v.status == "holds" and _seen(v) == _rederived(ps3, v)
    lc = line_control_subspace(F16, 4)
    v = verify_h_scattered(lc, 3, mode="witness_span")
    assert v.status == "violated" and _seen(v) == _rederived(lc, v)
    assert v.witness.weight == subspace_weight(lc, v.witness.H) > 3


def _sampled_job(F16, seed):
    """A sampled sweep and the descriptor that names it in checkpoints."""
    ps = pseudoregulus_subspace(F16, 2)
    desc = {
        "kind": "sampled",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "seed": seed,
        "budget": 200,
        "engine": "auto",
    }
    return _sweep(ps, "sampled", 2, 2, 200, seed), desc


def test_checkpoint_resume_is_exact(tmp_path, F16, killed_after):
    job = _sampled_job(F16, 11)
    straight = run_sweep(*job, 25)
    ck = tmp_path / "ck.jsonl"
    with killed_after(SampledSweep, 100):
        run_sweep(*job, 25, checkpoint=str(ck))
    # the header and the 4 chunks of 8 that ran before the kill
    assert len(ck.read_text().splitlines()) == 1 + 4
    resumed = run_sweep(*job, 25, checkpoint=str(ck))
    assert resumed.completed
    assert (resumed.checked, resumed.viol, resumed.best) == (
        straight.checked,
        straight.viol,
        straight.best,
    )


def test_checkpoint_rejects_other_jobs(tmp_path, F16, killed_after):
    ck = str(tmp_path / "ck.jsonl")
    with killed_after(SampledSweep, 50):
        run_sweep(*_sampled_job(F16, 11), 25, checkpoint=ck)
    with pytest.raises(ValueError):
        run_sweep(*_sampled_job(F16, 12), 25, checkpoint=ck)


@pytest.mark.usefixtures("pool_at_once")
def test_parallel_workers_match_serial(F16):
    ps = pseudoregulus_subspace(F16, 2)
    serial = verify_h_scattered(ps, 2, mode="exhaustive", chunk_size=32)
    parallel = verify_h_scattered(ps, 2, mode="exhaustive", chunk_size=32, workers=2)
    assert serial.status == parallel.status == "holds"
    assert serial.checked == parallel.checked


@pytest.mark.usefixtures("pool_at_once")
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
    H = SubspaceQn.from_vectors(F16, 2, [tuple(F16.val(c) for c in row) for row in wit["H_basis"]])
    assert subspace_weight(lc, H) == wit["weight"] > wit["bound"]
    json.dumps(data)  # JSON-safe


@pytest.fixture
def ps2_job(F16, ps2):
    desc = {
        "kind": "exhaustive",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "engine": "auto",
    }
    return _sweep(ps2, "exhaustive", 2, 2), desc


def test_sweep_objects_run_their_own_units(ps2_job):
    sweep, desc = ps2_job
    assert sweep.total_units == 273
    out = sweep.run_units(0, 273)
    assert out.checked == 273 and out.viol is None
    assert desc_hash(desc) == desc_hash(json.loads(json.dumps(desc)))


def test_sweep_keys_name_the_subspaces_of_their_units(F8, F16, ps2):
    from rankscatter.construction import direct_sum
    from rankscatter.linalg import enumerate_subspaces

    # every Grassmannian index, over F_8^4 and F_16^3, and the zero space;
    # the pivot blocks of the sweep add up to the units its plan counts
    ds = direct_sum([pseudoregulus_subspace(F8, 1)] * 2)
    for system, dim in ((ds, 2), (ps2, 2), (ps2, 0)):
        p = plan(system, dim, None, "exhaustive")
        sweep = ExhaustiveSweep(system, p)
        k, total = system.ambient, sweep.total_units
        assert total == p.total == sum(count for *_, count in sweep.blocks)
        assert total == gaussian_binomial(k, dim, system.tower.order)
        listed = list(enumerate_subspaces(system.tower, k, dim))
        assert [sweep.subspace([i]) for i in range(total)] == listed
        for key in ([total], [-1], [0, 0], []):
            assert sweep.subspace(key) is None, (dim, key)
    sampled = SampledSweep(ps2, plan(ps2, 2, 2, "sampled", 10, 3))
    assert sampled.subspace([9]) == sample_subspace(F16, 3, 2, 3, 9)
    for key in ([10], [-1], [1, 1], []):
        assert sampled.subspace(key) is None, key
    span = SpanSweep(ps2, plan(ps2, 2, 2, "witness_span"))
    U = ps2.subspace
    assert span.subspace([2, 3, 8]) == SubspaceQn.from_vectors(F16, 3, [U.element(3), U.element(8)])
    for key in ([0], [1], [2, 3], [3, 1, 2, 3], [1, span.NU], [1, -1], [9, 9], []):
        assert span.subspace(key) is None, key


def test_checkpoint_torn_final_line_is_dropped_and_rerun(tmp_path, ps2_job):
    straight = run_sweep(*ps2_job, 20)
    ck = tmp_path / "ck.jsonl"
    run_sweep(*ps2_job, 20, checkpoint=str(ck))
    data = ck.read_bytes()
    ck.write_bytes(data[: len(data) - 9])  # a kill in mid-append tears the last line
    assert run_sweep(*ps2_job, 20, checkpoint=str(ck)) == straight
    # the torn tail was replaced by the rerun chunk's whole line
    lines = ck.read_text().splitlines()
    assert [json.loads(line)["lo"] for line in lines[1:]] == list(range(0, 273, 20))


def test_checkpoint_torn_header_starts_over(tmp_path, ps2_job):
    ck = tmp_path / "ck.jsonl"
    ck.write_text('{"chunk_size": 20, "desc')
    assert run_sweep(*ps2_job, 20, checkpoint=str(ck)) == run_sweep(*ps2_job, 20)


def test_checkpoint_malformed_lines_name_the_line(tmp_path, ps2_job):
    ck = tmp_path / "ck.jsonl"
    run_sweep(*ps2_job, 20, checkpoint=str(ck))
    lines = ck.read_text().splitlines(keepends=True)
    for no, bad in ((3, lines[2][:-9] + "\n"), (4, '{"lo": 40}\n'), (1, "not json\n")):
        broken = tmp_path / f"broken{no}.jsonl"
        broken.write_text("".join(lines[: no - 1] + [bad] + lines[no:]))
        with pytest.raises(ValueError, match=f"checkpoint {broken} line {no} is malformed"):
            run_sweep(*ps2_job, 20, checkpoint=str(broken))


def test_unknown_engine_is_rejected(F16):
    from rankscatter.reports import run_verify

    # a sweep runs its planned backend, and `rederive` the scalar oracle:
    # nothing takes an engine
    ps = pseudoregulus_subspace(F16, 2)
    config = {"h": 2, "mode": "exhaustive", "budget": None, "seed": None, "chunk_size": None}
    p = plan(ps, 2, 2, "exhaustive")
    for call in [
        lambda: verify_h_scattered(ps, 2, mode="exhaustive", engine="scalar"),
        lambda: verify_evasive(ps, 1, ps.t, engine="scalar"),
        lambda: max_weight_search(ps, 0, engine="scalar"),
        lambda: run_verify(ps, config, engine="scalar"),
        lambda: ExhaustiveSweep(ps, p, engine="scalar"),
        lambda: SpanSweep(ps, plan(ps, 2, 2, "witness_span"), engine="scalar"),
        lambda: SampledSweep(ps, plan(ps, 2, 2, "sampled", 5), engine="scalar"),
        lambda: _build_sweep(ps, p, engine="scalar"),
        lambda: rederive(ps, p, 1, engine="scalar"),
    ]:
        with pytest.raises(TypeError, match="engine"):
            call()
    # and they refuse an unknown mode, and sampled mode without a budget
    for call, match in [
        (lambda: verify_evasive(ps, 1, ps.t, mode="bogus"), "unknown mode 'bogus'"),
        (lambda: verify_evasive(ps, 1, ps.t, mode="sampled"), "sampled mode requires a budget"),
        (lambda: max_weight_search(ps, 0, mode="sampled"), "sampled mode requires a budget"),
    ]:
        with pytest.raises(ValueError, match=match):
            call()
    # a known outcome or a defect is decided inside verify.py, never passed in
    for call in [
        lambda: verify_h_scattered(ps, 2, known=SweepOutcome(0, None, None, True)),
        lambda: verify_evasive(ps, 1, 3, defect=lambda system: {"reason": "none"}),
        lambda: max_weight_search(ps, 1, defect=lambda system: {"reason": "none"}),
    ]:
        with pytest.raises(TypeError):
            call()


@pytest.mark.usefixtures("pool_at_once")
def test_max_weight_search_keeps_the_earliest_maximum(F8):
    # the oracle, every worker count and chunking report the same first maximum
    from rankscatter.construction import direct_sum

    ds = direct_sum([pseudoregulus_subspace(F8, 1)] * 2)
    expected = {1: (1, [64], 585), 2: (3, [0], 4745), 3: (4, [1], 585)}
    for dim, (weight, key, total) in expected.items():
        # two chunks that each hold a maximum: the merge keeps the first one
        half = -(-total // 2)
        sweep = _sweep(ds, "exhaustive", dim)
        bests = [sweep.run_units(lo, min(lo + half, total)).best for lo in (0, half)]
        assert bests[0] == {"key": key, "weight": weight} and bests[1]["weight"] == weight
        results = [
            max_weight_search(ds, dim, workers=workers, chunk_size=chunk)[:3]
            for workers in (1, 2)
            for chunk in (half, None)
        ]
        oracle = rederive(ds, plan(ds, dim, None, "exhaustive"), total)
        results.append((oracle.best["weight"], oracle.best["key"], oracle.checked))
        assert all(r == expected[dim] for r in results), (dim, results)


def test_odd_q_line_control_witnesses():
    # q = 3: the line {(x, 0)} meets <(1, 0)> in all of F_9, an F_3-plane
    F9 = create_field(3, 1, 2)
    lc = line_control_subspace(F9, 2)
    plane = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    for mode, key in (("exhaustive", [0]), ("witness_span", [1, 1])):
        v = verify_h_scattered(lc, 1, mode=mode)
        assert (v.status, v.checked, v.witness.tuple_index) == ("violated", 1, key)
        assert v.witness.weight == 2
        assert v.serialize(F9)["witness"]["intersection_basis"] == plane


@pytest.mark.parametrize("engine", ["auto", "scalar"])
def test_odd_q_span_proof_over_pairs(engine):
    # d = 2 tuples over F_27 start at every class representative in [3^e, 2*3^e);
    # "auto" is the verifier's kernel run, "scalar" its plan rerun by `rederive`
    ps = pseudoregulus_subspace(create_field(3, 1, 3), 2)
    v = verify_h_scattered(ps, 2, mode="witness_span")
    seen = _seen(v) if engine == "auto" else _rederived(ps, v)
    assert (v.status, *seen) == ("holds", 208, None)


# --- the F_p backend against the scalar oracle, unit by unit ---


def _keyed_weights(blocks):
    """(unit key, weight) of every counted unit of a stream of blocks:
    skipped units, which a kernel marks -1 and the scalar oracle never
    yields, drop out."""
    out = []
    for head, start, wts in _expand(blocks):
        out += [((*head, start + i), w) for i, w in enumerate(wts.tolist()) if w >= 0]
    return out


def _skipped(sweep, lo, hi):
    return sum(int(np.count_nonzero(w < 0)) for _, _, w in _expand(sweep._weights(lo, hi)))


def _force(sweep, backend):
    """The sweep, run on `backend`'s row kernel whatever its plan picked."""
    from rankscatter import verify

    sweep.backend, sweep.kernel = backend, verify._KERNELS[backend](sweep)
    return sweep


def _kernel_and_oracle(sweep, lo, hi, backend="fp"):
    """The keyed weights of units [lo, hi) of one sweep on its `backend`
    kernel and on its scalar oracle.  A q = 3 sweep planned on gf3 runs fp
    when asked, so fp keeps its q = 3 coverage."""
    if (sweep.backend, backend) == ("gf3", "fp"):
        _force(sweep, "fp")
    assert sweep.backend == backend
    return _keyed_weights(sweep._weights(lo, hi)), _keyed_weights(sweep._oracle(lo, hi))


@pytest.mark.parametrize("q", [3, 5])
def test_fp_exhaustive_weights_equal_scalar_weights_unit_by_unit(q):
    F = create_field(q, 1, 3 if q == 3 else 2)
    # the last system is all of F_q^(k n): its reduced rows have no columns
    everything = explicit_system(F, 2, [v for j in range(F.n) for v in ((q**j, 0), (0, q**j))])
    systems = [pseudoregulus_subspace(F, 2 if q == 3 else 1), line_control_subspace(F, 3), everything]
    if q == 5:
        systems.append(explicit_system(F, 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1), (7, 3, 1)]))
    seen = set()
    for system in systems:
        for dim in range(1, system.ambient):
            sweep = _sweep(system, "exhaustive", dim)
            weights, oracle = _kernel_and_oracle(sweep, 0, sweep.total_units)
            assert weights == oracle, (system.tag, dim)
            assert len(weights) == gaussian_binomial(system.ambient, dim, F.order)
            seen.update(w for _, w in weights)
    assert len(seen) >= 3


@pytest.mark.parametrize("system", ["pseudoregulus", "line-control"])
def test_fp_span_weights_equal_scalar_weights_unit_by_unit(system):
    # F_27, dim U = 3: d = 1 over the 13 class representatives, then d = 2
    # with the prefixes inside the extension span of the first vector skipped
    F27 = create_field(3, 1, 3)
    U = pseudoregulus_subspace(F27, 2) if system == "pseudoregulus" else line_control_subspace(F27, 3)
    sweep = _sweep(U, "witness_span", 2)
    for d in (1, 2):
        weights, oracle = _kernel_and_oracle(sweep, (d - 1) * sweep.R, d * sweep.R)
        assert weights == oracle, d
        assert all(k[0] == d for k, _ in weights)
    # a chunk boundary inside a run of representatives changes nothing
    weights, oracle = _kernel_and_oracle(sweep, 5, 19)
    assert weights == oracle
    assert _skipped(sweep, sweep.R, 2 * sweep.R) == {"pseudoregulus": 13, "line-control": 208}[system]


def test_fp_span_walks_prefixes_at_depth_three():
    F9 = create_field(3, 1, 2)
    U = explicit_system(F9, 3, [(1, 0, 0), (3, 1, 0), (1, 1, 1)])
    sweep = _sweep(U, "witness_span", 3)
    weights, oracle = _kernel_and_oracle(sweep, 0, sweep.total_units)
    assert weights == oracle
    assert {k[0] for k, _ in weights} == {1, 2, 3}


@pytest.mark.parametrize("q, n, backend", [(2, 3, "gf2"), (3, 3, "fp")])
def test_span_skips_extension_multiples_of_u1_past_its_f_q_multiples(q, n, backend):
    # <(1, 0, 0)> meets U in the plane spanned by (1, 0, 0) and (theta, 0,
    # 0): wt = 2 < n, so elements other than its F_q-multiples lie in its
    # extension span, and the depth-1 shortcut must not apply
    F = create_field(q, 1, n)
    U = explicit_system(F, 3, [(1, 0, 0), (q, 0, 0), (1, 1, 1)])
    sweep = _sweep(U, "witness_span", 3)
    weights, oracle = _kernel_and_oracle(sweep, 0, sweep.total_units, backend)
    assert weights == oracle
    # U spans only a plane over the extension: no 3-tuple is independent
    assert {k[0] for k, _ in weights} == {1, 2}
    assert _skipped(sweep, sweep.R, 2 * sweep.R) > q - 2


def test_fp_sampled_weights_equal_scalar_weights_with_forced_redraws(monkeypatch):
    from rankscatter import linalg

    monkeypatch.setattr(linalg, "_word_limit", lambda Q: ((1 << 64) - (1 << 61)) // Q * Q)
    F27 = create_field(3, 1, 3)
    U = explicit_system(F27, 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1), (5, 7, 1)])
    _, accepted = linalg.sample_values(27, 3, 2, 11, 0, 300, 0)
    assert 0.3 < 1 - accepted.mean() < 0.7
    weights, oracle_weights = _kernel_and_oracle(_sweep(U, "sampled", 2, budget=300, seed=11), 0, 300)
    assert weights == oracle_weights
    oracle = [subspace_weight(U, linalg.sample_subspace(F27, 3, 2, 11, i)) for i in range(300)]
    assert [w for _, w in weights] == oracle and len(set(oracle)) > 1


def test_fp_backend_runs_q2_above_the_packed_width():
    # q = 2, n = 8, m = 3, h = 2: k * n = 72 bits, past one packed word
    from rankscatter.construction import ConstructionParams, family_subspace

    F256 = create_field(2, 1, 8)
    fam = family_subspace(ConstructionParams(F256, 3, 2, (1, 1, 2)))
    for dim, units in ((1, 600), (2, 300)):
        weights, oracle = _kernel_and_oracle(_sweep(fam, "exhaustive", dim, budget=units), 0, units)
        assert weights == oracle
    weights, oracle = _kernel_and_oracle(_sweep(fam, "sampled", 2, budget=100, seed=4), 0, 100)
    assert weights == oracle
    for mode in ("exhaustive", "sampled"):
        v = verify_h_scattered(fam, 2, mode=mode, budget=200, seed=4, chunk_size=50)
        p = plan(fam, 2, 2, mode, 200, 4, 50)
        assert (v.status, v.checked, v.backend) == ("inconclusive", 200, "fp")
        assert rederive(fam, p, p.units).checked == 200 and p.units == 200


def test_weight_backend_choice():
    from rankscatter.verify import weight_backend

    cases = [
        ((2, 1, 4), 16, "gf2"),
        ((2, 1, 8), 8, "gf2"),
        ((2, 1, 8), 9, "fp"),
        ((3, 1, 2), 3, "gf3"),
        ((3, 1, 4), 16, "gf3"),
        ((3, 1, 4), 17, "fp"),
        ((3, 1, 41), 2, "fp"),
        ((5, 1, 2), 3, "fp"),
        ((251, 1, 2), 3, "fp"),
        ((257, 1, 2), 3, "scalar"),
        ((2, 2, 3), 2, "scalar"),
    ]
    for (p, s, n), k, backend in cases:
        tower = type("Tower", (), {"p": p, "s": s, "n": n, "q": p**s})
        assert weight_backend(tower, k, 1) == backend, (p, s, n, k)


def test_fp_rows_stay_exact_past_a_uint16_accumulator():
    # F_{251^2} in F^3: a value row sums D = 6 digit products of up to 250^2,
    # which a uint16 accumulator would wrap
    F = create_field(251, 1, 2)
    U = explicit_system(F, 3, [(1, 2, 3), (5, 7, 11)])
    sweep = _sweep(U, "exhaustive", 2, budget=400)
    kern = sweep.kernel
    assert 3 * F.n * 250**2 > 0xFFFF
    # the largest values have the largest digits, so the sums reach their bound
    vals = np.random.default_rng(7).integers(0, F.order, (40, 2, 3))
    vals[0] = F.order - 1
    raw, red = (kern.value_rows(vals, reduced=r) for r in (False, True))
    keep = [c for c in range(3 * F.n) if c not in U.subspace.pivots]
    for j, i, l in np.ndindex(40, 2, F.n):
        row = expand_vector(F, tuple(F.mul(F.q_basis[l], int(x)) for x in vals[j, i]))
        assert raw[j, i * F.n + l].tolist() == list(row)
        assert red[j, i * F.n + l].tolist() == [U.subspace.reduce_row(row)[c] for c in keep]
    weights, oracle = _kernel_and_oracle(sweep, 0, 400)
    assert weights == oracle


def test_gf2_tables_have_at_most_256_entries_per_digit_group():
    # F_{2^16}: a value table per field element would have 65,536 entries
    F = create_field(2, 1, 16)
    ps = pseudoregulus_subspace(F, 2)
    sweep = _sweep(ps, "exhaustive", 2, budget=65542)
    kern = sweep.kernel
    # (raw, reduced) tables of shape (k, digit groups, n, digit values)
    assert sweep.backend == "gf2" and [t.shape for t in (kern.raw, kern.reduced)] == [(3, 2, 16, 256)] * 2
    # the rows of b_l * v for random planes, from both digit bytes of v
    vals = np.random.default_rng(5).integers(0, F.order, (40, 2, 3))
    rows = kern.value_rows(vals, reduced=False)
    # reduced words keep the columns outside U's pivots, column keep[e] at bit e
    reduced = kern.value_rows(vals, reduced=True)
    keep = [c for c in range(3 * F.n) if c not in ps.subspace.pivots]
    for j, i, l in np.ndindex(40, 2, F.n):
        row = expand_vector(F, tuple(F.mul(F.q_basis[l], int(x)) for x in vals[j, i]))
        assert int(rows[l * 2 + i][j]) == row
        word, red = int(reduced[l * 2 + i][j]), ps.subspace.reduce_row(row)
        assert [word >> e & 1 for e in range(len(keep))] == [red >> c & 1 for c in keep]
        assert word >> len(keep) == 0
    # units around the byte boundary of the last cell and the block boundary
    for lo, hi in ((250, 262), (65530, 65542)):
        weights, oracle = _kernel_and_oracle(sweep, lo, hi, "gf2")
        assert weights == oracle
    span = _sweep(ps, "witness_span", 1)
    # the generator words are subset-XOR tables over the bytes of an index
    assert span.kernel._generators.shape[-1] == 256
    # every gf2 table, unpacked, is the fp table of its row kind
    from rankscatter import verify

    for case, (q, n, k, dim, gens) in ANNIHILATOR_CASES.items():
        if q != 2 or n * k > 64:
            continue
        F = _field(q, n)
        rng = np.random.default_rng(sum(map(ord, case)))
        system = explicit_system(F, k, [tuple(int(x) for x in rng.integers(0, F.order, k)) for _ in range(gens)])
        sweep = _sweep(system, "exhaustive", dim, budget=1)
        gf2, fp = verify._GF2Rows(sweep), verify._FpRows(sweep)
        bits = min(n, 8)
        for packed, table in zip((gf2.raw, gf2.reduced, gf2.annihilator), (fp.raw, fp.reduced, fp.annihilator)):
            # the word of digit j of coordinate c is the subset of that one digit
            words = [[packed[c, j // bits, l, 1 << j % bits] for l in range(n)] for c in range(k) for j in range(n)]
            assert _unpacked(words, table.shape[-1]) == table.tolist(), case
        # the word of index digit e is the subset of that one bit of its byte
        words = [[gf2._generators[e // 8, l, 1 << e % 8] for l in range(n)] for e in range(system.t)]
        assert _unpacked(words, k * n) == fp._generators.tolist(), case


def _unpacked(words, width):
    """The bits 0 .. width - 1 of each word of a nested sequence."""
    return [[[int(w) >> e & 1 for e in range(width)] for w in per] for per in words]


# the kernel tables a sweep may build, by attribute
_TABLES = {"raw", "reduced", "annihilator", "_generators", "_class_echelon"}


def test_sweeps_build_only_the_tables_they_read_before_the_pool(monkeypatch, F16, ps2):
    # `_answer` builds the tables every run of a sweep reads before any
    # worker starts: the generator table and the class echelon of a
    # witness-span sweep, the annihilator or reduced value table of an
    # exhaustive one, and the reduced value table of a sampled one
    from rankscatter import verify

    built, echelons = [], []
    run_sweep = verify.run_sweep

    def record(sweep, *args, **kwargs):
        tables = vars(sweep.kernel)
        built.append((sweep.backend, sweep.shape, sorted(tables.keys() & _TABLES)))
        if "_class_echelon" in tables:
            echelons.append(tables["_class_echelon"][0].shape)
        return run_sweep(sweep, *args, **kwargs)

    monkeypatch.setattr(verify, "run_sweep", record)
    F27 = create_field(3, 1, 3)
    f27 = family_subspace(ConstructionParams(F27, 3, 1, (1, 1, 3)))
    verify_h_scattered(ps2, 2, mode="witness_span")
    verify_h_scattered(f27, 1, mode="witness_span")
    verify_h_scattered(ps2, 2, mode="exhaustive")
    verify_h_scattered(pseudoregulus_subspace(F27, 2), 2, mode="exhaustive")
    max_weight_search(line_control_subspace(F16, 2), 1)
    max_weight_search(line_control_subspace(F27, 2), 1)
    verify_h_scattered(ps2, 2, mode="sampled", budget=100)
    verify_h_scattered(f27, 1, mode="sampled", budget=100)
    verify_h_scattered(pseudoregulus_subspace(create_field(5, 1, 3), 2), 2, mode="witness_span")
    assert built == [
        ("gf2", "value", ["_class_echelon", "_generators"]),
        ("gf3", "value", ["_class_echelon", "_generators"]),
        ("gf2", "annihilator", ["annihilator"]),
        ("gf3", "annihilator", ["annihilator"]),
        ("gf2", "value", ["reduced"]),
        ("gf3", "value", ["reduced"]),
        ("gf2", "value", ["reduced"]),
        ("gf3", "value", ["reduced"]),
        ("fp", "value", ["_class_echelon", "_generators"]),
    ]
    # the class pivots as `_residue_tags` reads them: the gf2 residue table
    # of one byte of reduced part (w = 8), 256 entries and 7 classes, the
    # gf3 one of two bytes (w = 9), two planes and 4 classes, and the fp
    # pivot rows (classes, rows, entries) as they are, 6 classes over F_125
    assert echelons[0] == (1, 256, 7) and echelons[1] == (2, 2, 256, 4)
    assert len(echelons[2]) == 3 and echelons[2][0] == 6


def test_gf2_runs_call_no_fp_routine(monkeypatch, F16, ps2):
    # an F_p routine called once maps numpy code that shows in the peak
    # resident memory of a gf2 process; these runs give their verdicts
    # without one
    from rankscatter import bitkernel

    line = line_control_subspace(F16, 2)
    assert (_sweep(ps2, "exhaustive", 2).shape, _sweep(line, "exhaustive", 1).shape) == ("annihilator", "value")
    c2 = family_subspace(ConstructionParams(F16, 4, 2, (2, 1, 1, 1)))
    runs = [
        lambda: verify_h_scattered(c2, 2, mode="sampled", budget=3000, seed=5),
        # its samples that meet U have their raw rows ranked too
        lambda: verify_h_scattered(line, 1, mode="sampled", budget=500, seed=3),
        lambda: verify_h_scattered(ps2, 2, mode="witness_span"),
        lambda: verify_h_scattered(ps2, 2, mode="exhaustive"),
        lambda: max_weight_search(line, 1),
    ]
    verdicts = [run() for run in runs]
    assert [v.backend for v in verdicts[:4]] == ["gf2"] * 4 and verdicts[1].status == "violated"

    def refuse(*args):
        raise AssertionError("an F_p routine ran in a gf2 process")

    for name in ("fp_rank", "fp_dot"):
        monkeypatch.setattr(bitkernel, name, refuse)
    assert [run() for run in runs] == verdicts


# --- kernel agreement: every batched driver against the scalar oracle ---


def _forced_shape(system, p, shape, kernel):
    """The sweep of plan `p`, ranking `shape` rows on `kernel`."""
    sweep = _build_sweep(system, p)[0]
    sweep.shape = shape
    sweep.kernel = kernel(sweep)
    return sweep


ANNIHILATOR_CASES = {
    # (q, n, k, dim, generators): gf2 and fp hyperplanes, 1 < dim < k - 1,
    # q = 2 past 64 bits (fp at p = 2), and the zero subspace at q = 2 and 3
    "F16-hyperplanes": (2, 4, 3, 2, 4),
    "F4-k5-d3": (2, 2, 5, 3, 5),
    "F9-hyperplanes": (3, 2, 4, 3, 3),
    "F27-k4-d2": (3, 3, 4, 2, 5),
    "F2^17-k4-d3": (2, 17, 4, 3, 3),
    "F4-zero": (2, 2, 4, 2, 0),
    "F9-zero": (3, 2, 3, 2, 0),
}


@pytest.mark.parametrize("case", sorted(ANNIHILATOR_CASES))
def test_annihilator_and_value_rows_agree_on_every_pivot_block(case):
    # wt_U(H) = t - rank(MU) for the annihilator rows M of H: both shapes
    # weigh the first and last units of every pivot block alike on every
    # kernel the field has, and as the scalar oracle does
    from rankscatter import verify

    q, n, k, dim, gens = ANNIHILATOR_CASES[case]
    F = _field(q, n)
    rng = np.random.default_rng(sum(map(ord, case)))
    system = explicit_system(F, k, [tuple(int(x) for x in rng.integers(0, F.order, k)) for _ in range(gens)])
    assert system.t == gens
    p = plan(system, dim, None, "exhaustive", budget=1)
    kernels = [verify._FpRows] + ([verify._KERNELS[f"gf{q}"]] if n * k <= 64 else [])
    assert _build_sweep(system, p)[0].backend == (f"gf{q}" if len(kernels) == 2 else "fp")
    sweeps = {(s, kern): _forced_shape(system, p, s, kern) for s in ("value", "annihilator") for kern in kernels}
    blocks = _build_sweep(system, p)[0].blocks
    assert len(blocks) == comb(k, dim)
    for start, _, _, count in blocks:
        for lo, hi in {(start, start + min(count, 30)), (start + max(count - 30, 0), start + count)}:
            oracle = _keyed_weights(_build_sweep(system, p)[0]._oracle(lo, hi))
            for key, sweep in sweeps.items():
                assert _keyed_weights(sweep._weights(lo, hi)) == oracle, (key, lo)


def test_benchmark_instances_keep_their_rank_shapes(monkeypatch, F16):
    # the F_81 planes of the odd_q benchmark and the F_64 dual hyperplanes
    # rank annihilator rows; the C2 sampled probe and the k = 2, d = 1
    # sweeps of random codes over F_8 (equal costs) keep value rows
    from rankscatter import verify
    from rankscatter.codes import generalized_weights, nondegenerate_dual, random_code

    built = []
    build = verify._build_sweep

    def record(system, p):
        sweep, desc = build(system, p)
        built.append((p.mode, system.ambient, p.dim, sweep.backend, sweep.shape))
        return sweep, desc

    monkeypatch.setattr(verify, "_build_sweep", record)
    v = verify_h_scattered(pseudoregulus_subspace(create_field(3, 1, 4), 2), 2, mode="exhaustive")
    assert (v.status, v.checked, built) == ("holds", 6643, [("exhaustive", 3, 2, "gf3", "annihilator")])
    built.clear()
    c2 = family_subspace(ConstructionParams(F16, 4, 2, (2, 1, 1, 1)))
    verify_h_scattered(c2, 2, mode="sampled", budget=50, seed=1)
    assert built == [("sampled", 12, 2, "gf2", "value")]
    built.clear()
    code = random_code(create_field(2, 1, 3), 2, 4, seed=100)
    generalized_weights(code.system(), workers=1)
    assert built and set(built) == {("exhaustive", 2, 1, "gf2", "value")}
    dual = nondegenerate_dual(family_subspace(ConstructionParams(create_field(2, 1, 6), 3, 3, (1, 1, 2))))
    sweep = build(dual, plan(dual, 5, None, "exhaustive", budget=1))[0]
    assert (dual.ambient, sweep.backend, sweep.shape) == (6, "gf2", "annihilator")


@st.composite
def _small_sweeps(draw):
    """(tower, system, mode, dim, seed) with |U| small enough for the
    scalar tuple walk."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.sampled_from({2: [2, 3], 3: [2], 5: [2], 7: [2]}[q]))
    k = draw(st.integers(2, 3))
    F = _field(q, n)
    vec = st.tuples(*[st.integers(0, F.order - 1)] * k)
    gens = draw(st.lists(vec, min_size=1, max_size={2: 5, 3: 3, 5: 2, 7: 1}[q]))
    mode = draw(st.sampled_from(["exhaustive", "witness_span", "sampled"]))
    # witness-span tuples of two vectors walk one prefix level even at k = 2
    dim = draw(st.integers(1, 2 if mode == "witness_span" else k - 1))
    return F, explicit_system(F, k, gens), mode, dim, draw(st.integers(0, 1000))


@lru_cache(maxsize=None)
def _field(q, n):
    return create_field(q, 1, n)


@settings(max_examples=100, deadline=None)
@given(_small_sweeps())
# the zero subspace, whose annihilator rows have no entries
@example((_field(3, 2), explicit_system(_field(3, 2), 3, [(0, 0, 0)]), "exhaustive", 2, 0))
@example((_field(2, 3), explicit_system(_field(2, 3), 3, [(0, 0, 0)]), "exhaustive", 2, 0))
def test_batched_weight_streams_equal_the_scalar_oracle(case):
    from rankscatter import verify

    F, system, mode, dim, seed = case
    p = plan(system, dim, None, mode, 150 if mode == "sampled" else None, seed)
    sweep = _build_sweep(system, p)[0]
    blocks = list(sweep._oracle(0, p.total))
    oracle = _keyed_weights(blocks)
    # the planned backend's run of the sweep folds to what the oracle's does
    assert sweep.run_units(0, p.total) == verify._scan(sweep, blocks, 0, p.total)
    kernels = [verify._FpRows] + ([verify._KERNELS[f"gf{F.q}"]] if F.q in (2, 3) else [])
    routes = {"witness_span": (True, False), "exhaustive": ("value", "annihilator")}.get(mode, (None,))
    for kernel in kernels:
        for route in routes:
            fast = _build_sweep(system, p)[0]
            if mode == "exhaustive":
                fast.shape = route
            elif route is not None:
                _force_route(fast, route)
            fast.kernel = kernel(fast)
            assert _keyed_weights(fast._weights(0, p.total)) == oracle, (kernel.__name__, route)


def _force_route(sweep, kernel_route: bool):
    """Send every witness-span level of the sweep down one route."""
    sweep._kernel_route = (lambda size, units: units >= 0) if kernel_route else (lambda size, units: units < 0)
    return sweep


@pytest.mark.parametrize("q, n", [(2, 6), (3, 3)])
def test_span_levels_of_an_extension_line_take_the_rank_route(q, n):
    # U = F_{q^n} e_1: every class kernel is all of U.  The d = 1 level's
    # kernels are larger than its empty dependent span and add up to more
    # elements than it has units, so each u_j ranks; a d = 2 prefix spans
    # all of U, so every kernel is D(P) and its level lists every unit as
    # skipped, with no span ranked
    F = create_field(q, 1, n)
    U = line_control_subspace(F, 2)
    sweep = _sweep(U, "witness_span", 2)
    kern = sweep.kernel
    # `_prepare` passes `basis` its batch of prefixes; every other batch
    # holds one span [P, u_j] per ranked unit
    batches, prefixes, basis, prepare = [], [], kern.basis, sweep._prepare
    kern.basis = lambda batch: batches.append(batch) or basis(batch)
    sweep._prepare = lambda batch, units: prefixes.append(batch) or prepare(batch, units)
    blocks = list(sweep._weights(0, sweep.total_units))
    spans = [b for b in batches if not any(b is p for p in prefixes)]
    assert {b.shape[1] for b in spans} == {1}
    weights = _keyed_weights(blocks)
    firsts = {key[1] for key, _ in weights if key[0] == 1}
    assert len(firsts) == sweep.R and firsts <= set(np.concatenate(spans)[:, 0].tolist())
    pairs = [b for b in blocks if isinstance(b, Levels)]
    assert pairs and all(isinstance(b, Levels) or b[0] == (1,) for b in blocks)
    assert all((b.heads[:, 0] == 2).all() and (b.wts == -1).all() and len(b.wts) == b.sizes.sum() for b in pairs)
    assert weights == _keyed_weights(sweep._oracle(0, sweep.total_units))
    assert {w for _, w in weights} == {n} and len(weights) == sweep.R
    forced = _force_route(_sweep(U, "witness_span", 2), True)
    assert _keyed_weights(forced._weights(0, forced.total_units)) == weights
    v = verify_h_scattered(U, 1, mode="witness_span")
    assert (v.status, *_seen(v)) == ("violated", 1, [1, 1]) and _rederived(U, v) == (1, [1, 1])


@pytest.mark.parametrize("q, n, kernel, ranked, units", [
    (2, 4, "_GF2Rows", 120, 465), (2, 4, "_FpRows", 120, 465), (3, 3, "_FpRows", 1080, 1990),
    (3, 3, "_GF3Rows", 1080, 1990),
])
def test_d2_levels_off_an_extension_line_take_the_rank_route(q, n, kernel, ranked, units):
    # U = F_{q^n} e_1 + F_q e_2, with no route forced.  A prefix u_i off the
    # line spans e_1 and e_2 with U, so each class kernel is all of U, larger
    # than wt(P) = 1 and than the level: that level ranks each span.  A
    # prefix on the line has wt(P) = n, and every class kernel is the line,
    # D(P): that level lists its units and ranks none
    from rankscatter import verify

    F = create_field(q, 1, n)
    U = explicit_system(F, 3, [(F.q_basis[j], 0, 0) for j in range(n)] + [(0, 1, 0)])
    sweep = _sweep(U, "witness_span", 2)
    kern = sweep.kernel = getattr(verify, kernel)(sweep)
    # `basis` sees a d = 2 span batch with two columns, a prefix batch with one
    spans, basis = [], kern.basis
    kern.basis = lambda batch: (batch.shape[1] == 2 and spans.append(batch)) or basis(batch)
    R, line = sweep.R, q**n
    blocks = list(sweep._weights(R, 2 * R))
    assert sum(len(w) for *_, w in _expand(blocks)) == units
    ranks = np.concatenate(spans)
    # the level of the last index, u_{NU-1}, has no unit to rank
    assert len(ranks) == ranked and set(ranks[:, 0].tolist()) == set(range(line, 2 * line)) - {sweep.NU - 1}
    listed = np.concatenate([b.heads[:, 1] for b in blocks if isinstance(b, Levels)])
    assert listed.tolist() == [i for e in range(n) for i in range(q**e, 2 * q**e)]
    assert _keyed_weights(blocks) == _keyed_weights(sweep._oracle(R, 2 * R))


def test_span_routes_agree_past_a_subfield_line():
    # F_8 e_1 inside U over F_64: lambda u lies in U for lambda in F_8, so
    # those u have e = 3 of n = 6, a count of 3 of the 31 classes; other
    # points have e = 1 or 2
    F = create_field(2, 1, 6)
    sub = [x for x in range(1, 64) if F.pow(x, 8) == x]
    U = explicit_system(F, 2, [(x, 0) for x in sub] + [(1, 1), (F.q_basis[1], 9)])
    assert U.t == 5
    oracle = _keyed_weights(_sweep(U, "witness_span", 2)._oracle(0, 2 * 31))
    assert {w for k, w in oracle if k[0] == 1} == {1, 2, 3}
    for route in (True, False):
        sweep = _force_route(_sweep(U, "witness_span", 2), route)
        assert _keyed_weights(sweep._weights(0, sweep.total_units)) == oracle, route


def _level_weights(sweep, firsts):
    """Weights of the d = 2 levels of the first indices, one array each."""
    out = {}
    for head, start, wts in _expand(sweep._tuples(2, firsts)):
        first, parts = out.setdefault(head, (start, []))
        assert start == first + sum(map(len, parts))
        parts.append(wts)
    return {head: (start, np.concatenate(parts)) for head, (start, parts) in out.items()}


def test_c2_span_levels_agree_on_both_routes(F16):
    # the tuple (1,1,1,1) over F_16, m = 4, h = 2 is not 2-scattered: level
    # 4369 holds the first weight-3 span, at j = 8738
    U = family_subspace(ConstructionParams(F16, 4, 2, (1, 1, 1, 1)))
    firsts = [*range(1, 51), 4369]
    sweeps = (_force_route(_sweep(U, "witness_span", 2), route) for route in (True, False))
    kernel, rank = (_level_weights(sweep, firsts) for sweep in sweeps)
    assert list(kernel) == list(rank) == [(2, i) for i in firsts]
    for head, (start, wts) in kernel.items():
        assert start == head[1] + 1 and np.array_equal(wts, rank[head][1]), head
    start, wts = kernel[(2, 4369)]
    assert start + int(np.argmax(wts == 3)) == 8738
    assert set(np.concatenate([w for _, w in kernel.values()]).tolist()) == {2, 3}


MIXED_ROUTE_CASES = {
    # (q, n, generators in F_{q^n}^3): the first weight-3 span, past the
    # bound 2, extends the prefix (3,) over F_16 and (5,) over F_27, whose
    # levels have 12 and 75 units
    "F16": (2, 4, [(13, 6, 8), (12, 9, 7), (10, 4, 3), (8, 2, 11)]),
    "F27": (3, 3, [(5, 13, 25), (22, 19, 17), (1, 20, 12), (2, 6, 14)]),
}


@pytest.mark.parametrize(
    "case, kernel", [("F16", "_GF2Rows"), ("F16", "_FpRows"), ("F27", "_FpRows"), ("F27", "_GF3Rows")]
)
def test_mixed_routes_in_one_batch_equal_the_scalar_oracle(case, kernel):
    # a level takes the kernel route unless its unit count is a multiple of
    # 3, so a batch holds runs of kernel-route levels with rank-route levels
    # between them
    from rankscatter import verify

    q, n, gens = MIXED_ROUTE_CASES[case]
    U = explicit_system(create_field(q, 1, n), 3, gens)
    p = plan(U, 2, 2, "witness_span", chunk_size=37)
    sweep = _build_sweep(U, p)[0]
    sweep._kernel_route = lambda size, units: units % 3 != 0
    sweep.kernel = getattr(verify, kernel)(sweep)
    assert _keyed_weights(sweep._weights(0, p.total)) == _keyed_weights(sweep._oracle(0, p.total))
    results = [sweep.run_units(lo, min(lo + 37, p.total)) for lo in range(0, p.total, 37)]
    assert results == [verify._scan(sweep, sweep._oracle(r.lo, r.hi), r.lo, r.hi) for r in results]
    # the first violation lies in a rank-route level that follows
    # kernel-route levels of its batch
    first = next(r for r in results if r.viol is not None)
    head = tuple(first.viol["key"][:2])
    assert head == {"F16": (2, 3), "F27": (2, 5)}[case] and first.viol["weight"] == 3
    blocks = list(sweep._weights(first.lo, first.hi))
    at = next(i for i, b in enumerate(blocks) if not isinstance(b, Levels) and b[0] == head)
    assert any(isinstance(b, Levels) and b.heads[0, 0] == 2 for b in blocks[:at])


def _span_weight(sweep, key):
    """The scalar oracle's weight of the span that a key [d, j_1..j_d]
    names, or -1, as a level weighs a skipped unit, when u_{j_d} lies in
    the extension span of the others."""
    H = sweep.subspace(key)
    return subspace_weight(sweep.U, H) if H.dim == key[0] else -1


@pytest.mark.parametrize("case", ["F64-(1,1,2)", "C2-(1,1,1,1)"])
def test_prepare_lists_only_class_kernels_larger_than_the_dependent_span(case):
    # every class kernel holds D(P), the u_j in the prefix's extension span,
    # of dimension wt(P); a kernel of that dimension is D(P) and is not
    # listed.  The F_64 member is 2-scattered, so on its first 64 d = 2
    # levels, all on the kernel route, every kernel is D(P) and none is
    # listed (two elements for each of 31 classes were).  C2 level 4369
    # holds the first weight-3 span, at j = 8738
    if case == "F64-(1,1,2)":
        U, firsts = family_subspace(ConstructionParams(create_field(2, 1, 6), 3, 2, (1, 1, 2))), range(1, 65)
    else:
        U, firsts = family_subspace(ConstructionParams(create_field(2, 1, 4), 4, 2, (1, 1, 1, 1))), [1, 2, 4369]
    sweep = _sweep(U, "witness_span", 2)
    prefixes = np.array(firsts)[:, None]
    units = sweep.NU - prefixes[:, 0] - 1
    weights, deps, route, (bounds, elements) = sweep._prepare(prefixes, units)
    assert route.all() and (weights == 1).all()
    if case == "F64-(1,1,2)":
        assert not bounds.any() and not len(elements)
        # the last 40 first indices: levels of 39 down to 0 units, against 31
        # classes, whose kernels are all D(P), so they list nothing and take
        # the kernel route
        R, tail = sweep.R, np.arange(sweep.NU - 40, sweep.NU)[:, None]
        tail_weights, _, tail_route, (tail_bounds, listed) = sweep._prepare(tail, sweep.NU - tail[:, 0] - 1)
        assert tail_route.tolist() == [True] * 40 and (tail_weights == 1).all()
        assert not tail_bounds.any() and not len(listed)
        blocks = list(sweep._weights(2 * R - 40, 2 * R))
        assert all(isinstance(b, Levels) for b in blocks)
        assert _keyed_weights(blocks) == _keyed_weights(sweep._oracle(2 * R - 40, 2 * R))
    else:
        assert 8738 in elements[bounds[-2] :].tolist()
    # every listed element, every skipped unit and a few others of each
    # level weigh as on the scalar oracle
    levels, rng = _level_weights(sweep, firsts), np.random.default_rng(0)
    for i, first in enumerate(firsts):
        start, wts = levels[(2, first)]
        picks = [elements[bounds[i] : bounds[i + 1]], deps[1][deps[0][i] : deps[0][i + 1]], rng.integers(start, sweep.NU, 4)]
        for j in sorted(set(np.concatenate(picks).tolist())):
            if j >= start:
                assert wts[j - start] == _span_weight(sweep, [2, first, j]), (first, j)
    assert levels[(2, firsts[-1])][1].max() == (2 if case == "F64-(1,1,2)" else 3)


BATCH_CASES = {
    # (q, n, generators in F_{q^n}^3): 31 and 40 first indices, whose d = 2
    # spans weigh 2, 3 and 4, and 2 and 3
    "F16": (2, 4, [(3, 8, 12), (5, 3, 7), (1, 3, 13), (10, 13, 13), (14, 4, 7)]),
    "F27": MIXED_ROUTE_CASES["F27"],
}


@pytest.mark.parametrize(
    "case, kernel", [("F16", "_GF2Rows"), ("F16", "_FpRows"), ("F27", "_FpRows"), ("F27", "_GF3Rows")]
)
@pytest.mark.parametrize("kernel_route", [True, False])
def test_d2_batches_of_three_prefixes_equal_the_scalar_oracle(case, kernel, kernel_route):
    # a kernel whose block holds 3 prefixes cuts the first indices of d = 2
    # into batches of 3 and a last one of 1; every unit weighs as on the
    # scalar oracle, on either route
    from rankscatter import verify

    q, n, gens = BATCH_CASES[case]
    U = explicit_system(create_field(q, 1, n), 3, gens)
    sweep = _force_route(_sweep(U, "witness_span", 2), kernel_route)
    kern = sweep.kernel = getattr(verify, kernel)(sweep)
    kern.block = lambda rows, width: 3 * len(kern.lambdas)
    batches, prepare = [], sweep._prepare
    sweep._prepare = lambda prefixes, units: batches.append(len(prefixes)) or prepare(prefixes, units)
    R = sweep.R
    firsts = [i for _, runs in sweep._firsts(R, 2 * R) for a, b in runs for i in range(a, b)]
    assert len(firsts) == R >= 20
    weights = _keyed_weights(sweep._tuples(2, firsts))
    assert batches == [3] * (R // 3) + [1]
    assert weights == _keyed_weights(sweep._oracle(R, 2 * R))
    assert {w for _, w in weights} == ({2, 3, 4} if case == "F16" else {2, 3})


def _stacked_kernels(sweep, basis):
    """The kernels of j -> lambda u_j mod U + prefix by one elimination of
    the stacked rows [prefix rows; map rows [lambda g_e mod U | tag e]] per
    (prefix, class), as F_p rows: the tag index of each map row left with a
    zero image, 0 for the others.  `basis` is a kernel's prefix rows
    [reduced | tag], of which the reduced part is read."""
    from rankscatter import bitkernel, verify

    fp = verify._FpRows(sweep)
    p, w, dim = fp.p, fp.w, sweep.U.dim

    def entries(words):
        return (words[..., None] >> np.arange(w, dtype=np.uint64) & np.uint64(1)).astype(np.uint8)

    if basis.dtype == np.uint64 and basis.ndim == 3:
        # gf3 (2, rows, prefixes) word pairs, entry e at bit e of a plane
        basis = entries(basis[0].T) + 2 * entries(basis[1].T)
    elif basis.dtype == np.uint64:
        # gf2 words, entry e at bit e
        basis = entries(basis)
    gens = fp._generators[..., :w].transpose(1, 0, 2).reshape(fp.n, -1)
    maps = bitkernel.fp_dot(fp.lambdas, gens, p).reshape(-1, dim, w)
    (L, P, _), C = basis.shape, len(maps)
    rows = np.zeros((L, C, P + dim, w + dim), dtype=np.uint8)
    rows[:, :, :P, :w] = basis[:, None, :, :w]
    rows[:, :, P:, :w] = maps
    rows[:, :, P:, w:] = np.eye(dim, dtype=np.uint8)
    bitkernel.fp_rank(rows.reshape(L * C, P + dim, w + dim), p)
    index = rows[:, :, P:, w:] @ p ** np.arange(dim, dtype=np.int64)
    return np.where(rows[:, :, P:, :w].any(axis=-1), 0, index)


def _span(q, dim, tags):
    """The F_q-span of the index digits of the nonzero tag indices, as a set
    of digit tuples."""
    span = {(0,) * dim}
    for t in (int(t) for t in tags if t):
        v = [t // q**i % q for i in range(dim)]
        span = {tuple((a + c * b) % q for a, b in zip(s, v)) for s in span for c in range(q)}
    return span


def _subfield_line():
    # F_8 e_1 inside U over F_64: the classes of lambda in F_8 map U's F_8
    # e_1 part into U, so their maps have a kernel
    F = create_field(2, 1, 6)
    sub = [x for x in range(1, 64) if F.pow(x, 8) == x]
    return explicit_system(F, 2, [(x, 0) for x in sub] + [(1, 1), (F.q_basis[1], 9)])


SPAN_KERNEL_CASES = {
    # (system, tuple length, prefixes drawn of each length or None for
    # all): q = 2, 3 and 5; F_9 at depth 3 has prefixes whose rows are
    # F_q-dependent, so their echelon rows hold zero rows; C2 (1,1,1,1) has
    # 32-bit reduced parts, four bytes of gf2 residue tables
    "F16-pseudoregulus": (lambda: pseudoregulus_subspace(create_field(2, 1, 4), 2), 2, None),
    "F64-subfield-line": (_subfield_line, 2, None),
    "F27-pseudoregulus": (lambda: pseudoregulus_subspace(create_field(3, 1, 3), 2), 2, None),
    "F9-depth-3": (lambda: explicit_system(create_field(3, 1, 2), 3, [(1, 0, 0), (3, 1, 0), (1, 1, 1)]), 3, None),
    "F25-random": (
        lambda: explicit_system(create_field(5, 1, 2), 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1), (7, 3, 1)]), 2, None
    ),
    "C2-(1,1,1,1)": (lambda: family_subspace(ConstructionParams(create_field(2, 1, 4), 4, 2, (1, 1, 1, 1))), 3, 200),
    "F27-(1,1,3)": (lambda: family_subspace(ConstructionParams(create_field(3, 1, 3), 3, 1, (1, 1, 3))), 3, 100),
    "F27-line": (lambda: line_control_subspace(create_field(3, 1, 3), 3), 3, None),
}


@pytest.mark.parametrize("case", sorted(SPAN_KERNEL_CASES))
def test_span_kernels_equal_the_stacked_elimination(case):
    # each class's map is eliminated once, and a prefix's rows are reduced
    # against its pivots: the kernels of j -> lambda u_j mod U + prefix span
    # what one elimination of the stacked rows gives, with independent tags,
    # for the empty prefix (P = 0) and for prefixes of one and two vectors;
    # gf2 and gf3 give the very tag index arrays that fp gives
    from rankscatter import verify

    build, d, drawn = SPAN_KERNEL_CASES[case]
    U = build()
    sweep = _sweep(U, "witness_span", d)
    q, dim, NU = U.tower.q, U.t, sweep.NU
    if drawn is None:
        singles = np.arange(1, NU)[:, None]
        pairs = np.array([(i, j) for i in range(1, NU) for j in range(i + 1, NU)][:600])
    else:
        rng = np.random.default_rng(sum(map(ord, case)))
        singles = rng.integers(1, NU, (drawn, 1))
        pairs = np.sort([rng.choice(NU - 1, 2, replace=False) + 1 for _ in range(drawn)], axis=1)
    prefixes = [np.zeros((1, 0), dtype=np.int64), singles] + ([pairs] if d == 3 else [])
    kernels = [verify._FpRows] + ([verify._KERNELS[f"gf{q}"]] if q in (2, 3) else [])
    zero_rows = class_kernels = 0
    fp_index = []
    for kernel in kernels:
        kern = kernel(sweep)
        class_kernels += int(np.count_nonzero(kern._class_echelon[1]))
        for at, pre in enumerate(prefixes):
            basis, dependent = kern.basis(pre)
            if basis.ndim == 3 and basis.dtype == np.uint64:
                low = ((basis[0] | basis[1]) != 0).T
            else:
                low = basis != 0 if basis.dtype == np.uint64 else basis.any(axis=-1)
            zero_rows += int(np.count_nonzero(~low & (dependent == 0)))
            new, old = kern.kernels(basis), _stacked_kernels(sweep, basis)
            if kernel is verify._FpRows:
                fp_index.append((dependent, new))
            else:
                assert np.array_equal(dependent, fp_index[at][0]) and np.array_equal(new, fp_index[at][1])
            assert new.shape[:2] == old.shape[:2] == (len(pre), len(kern.lambdas))
            for i, c in np.ndindex(*new.shape[:2]):
                span = _span(q, dim, new[i, c])
                assert len(span) == q ** np.count_nonzero(new[i, c]), (case, kernel, pre.shape, i, c)
                assert span == _span(q, dim, old[i, c]), (case, kernel, pre.shape, i, c)
    if case == "F64-subfield-line":
        assert class_kernels > 0
    if case == "F9-depth-3":
        assert zero_rows > 0


FIRST_LEVEL_CASES = {
    # (q, n, generators in F_{q^n}^3): (1, 0, 0) and (z, 0, 0) both lie in
    # U, so the point of (1, 0, 0) weighs 2, past the bound 1
    "gf2": (2, 4, [(1, 0, 0), (2, 0, 0), (1, 1, 0), (0, 1, 1), (3, 5, 7), (9, 1, 4)]),
    "fp": (3, 3, [(1, 0, 0), (3, 0, 0), (1, 1, 0), (0, 1, 1), (2, 5, 7)]),
}
FIRST_LEVEL_CASES["gf3"] = FIRST_LEVEL_CASES["fp"]


@pytest.mark.parametrize("backend", sorted(FIRST_LEVEL_CASES))
def test_first_level_slices_equal_the_scalar_oracle(backend):
    # the d = 1 units are slices of the one level of the empty prefix;
    # chunks of 1, 5 and 97 units cut the runs [q^e, 2q^e) inside, and each
    # chunk weighs and folds as on the scalar oracle: its count, first
    # maximum and first violation
    from rankscatter.verify import _scan

    q, n, gens = FIRST_LEVEL_CASES[backend]
    F = create_field(q, 1, n)
    for U, dim, bound in ((pseudoregulus_subspace(F, 2), 2, None), (explicit_system(F, 3, gens), 1, 1)):
        sweep = _sweep(U, "witness_span", dim, bound)
        if sweep.backend != backend:
            _force(sweep, backend)
        lv = sweep._first_level[1]
        assert lv is not None and lv.sizes.tolist() == [sweep.NU - 1]
        starts, inside, viols = {q**e for e in range(U.t)}, 0, 0
        for chunk in (1, 5, 97):
            for lo in range(0, sweep.R, chunk):
                hi = min(lo + chunk, sweep.R)
                inside += any(a not in starts for a, _ in next(sweep._firsts(lo, hi))[1])
                weights, oracle = _kernel_and_oracle(sweep, lo, hi, backend)
                assert weights == oracle, (chunk, lo)
                result = sweep.run_units(lo, hi)
                assert result == _scan(sweep, sweep._oracle(lo, hi), lo, hi), (chunk, lo)
                viols += result.viol is not None
        assert inside > 0 and (viols > 0 if bound else viols == 0)


@pytest.mark.parametrize("q, n, backend", [(2, 6, "gf2"), (3, 3, "fp"), (3, 3, "gf3")])
def test_the_first_level_is_prepared_once_and_ranks_each_unit_once(q, n, backend):
    # U = F_{q^n} e_1: the d = 1 level takes the rank route.  One `_prepare`
    # of the empty prefix decides that for every chunk, and each d = 1 unit
    # is ranked in exactly one span batch, none of them dropped
    U = line_control_subspace(create_field(q, 1, n), 2)
    sweep = _force(_sweep(U, "witness_span", 1), backend)
    kern = sweep.kernel
    spans, empty, basis, prepare = [], [], kern.basis, sweep._prepare
    kern.basis = lambda batch: (batch.shape[1] == 1 and spans.append(batch)) or basis(batch)
    sweep._prepare = lambda batch, units: (batch.shape[1] == 0 and empty.append(units)) or prepare(batch, units)
    weights = []
    for lo in range(0, sweep.R, 7):
        weights += _keyed_weights(sweep._weights(lo, min(lo + 7, sweep.R)))
    assert len(empty) == 1 and not sweep._first_level[0][2].item(0) and sweep._first_level[1] is None
    ranked = np.concatenate(spans)[:, 0].tolist()
    assert sorted(ranked) == [key[1] for key, _ in weights] and len(set(ranked)) == len(ranked) == sweep.R
    assert weights == _keyed_weights(sweep._oracle(0, sweep.R))


# --- the GF(3) backend against fp and the scalar oracle, unit by unit ---


def _f27_family(h):
    return family_subspace(ConstructionParams(create_field(3, 1, 3), 3, h, (1, 1, 3)))


GF3_CASES = {
    # (system, mode, dim, unit ranges or None for all, budget, seed)
    "exhaustive-F27-pseudoregulus-d1": (lambda: pseudoregulus_subspace(create_field(3, 1, 3), 2), "exhaustive", 1,
                                        None, None, None),
    "exhaustive-F27-pseudoregulus-d2": (lambda: pseudoregulus_subspace(create_field(3, 1, 3), 2), "exhaustive", 2,
                                        None, None, None),
    "exhaustive-F9-line": (lambda: line_control_subspace(create_field(3, 1, 2), 3), "exhaustive", 2, None, None, None),
    "sampled-F729-family": (lambda: family_subspace(ConstructionParams(create_field(3, 1, 6), 3, 2, (1, 1, 3))),
                            "sampled", 2, None, 200, 2),
    "sampled-F27-redraws": (lambda: explicit_system(create_field(3, 1, 3), 3, [(1, 2, 0), (0, 1, 3), (2, 0, 1),
                                                                                 (5, 7, 1)]),
                            "sampled", 2, None, 300, 11),
    "span-F27-pseudoregulus": (lambda: pseudoregulus_subspace(create_field(3, 1, 3), 2), "witness_span", 2,
                               None, None, None),
    "span-F27-line": (lambda: line_control_subspace(create_field(3, 1, 3), 3), "witness_span", 2, None, None, None),
    # d = 1 of the F_27 (1,1,3) member, and the last 4 levels of its d = 2,
    # each of 6,561 to 6,564 spans, which the oracle samples
    "span-F27-family": (lambda: _f27_family(1), "witness_span", 2, [(0, 300), (9541, 9841), (19678, 19682)],
                        None, None),
}
GF3_VARIANTS = {"exhaustive": ("value", "annihilator"), "witness_span": (True, False), "sampled": (None,)}


@pytest.mark.parametrize(
    "case, variant", [(c, v) for c, spec in GF3_CASES.items() for v in GF3_VARIANTS[spec[1]]]
)
def test_gf3_weights_equal_fp_and_the_scalar_oracle_unit_by_unit(monkeypatch, case, variant):
    # every q = 3 mode on gf3, as planned, and forced onto fp: exhaustive on
    # both row shapes, sampled with rejected words redrawn, witness-span at
    # d = 1 and 2 on both routes.  A unit range past 1,000 spans is checked
    # on the oracle at 160 seeded spans
    from rankscatter import linalg

    build, mode, dim, ranges, budget, seed = GF3_CASES[case]
    if case == "sampled-F27-redraws":
        monkeypatch.setattr(linalg, "_word_limit", lambda Q: ((1 << 64) - (1 << 61)) // Q * Q)
    system = build()
    streams = []
    for backend in ("gf3", "fp"):
        sweep = _sweep(system, mode, dim, budget=budget, seed=seed)
        assert sweep.backend == "gf3"
        if mode == "exhaustive":
            sweep.shape = variant
        elif mode == "witness_span":
            _force_route(sweep, variant)
        _force(sweep, backend)
        streams.append([_keyed_weights(sweep._weights(lo, hi)) for lo, hi in ranges or [(0, sweep.total_units)]])
    assert streams[0] == streams[1] and all(streams[0])
    rng = np.random.default_rng(0)
    for (lo, hi), weights in zip(ranges or [(0, sweep.total_units)], streams[0]):
        if len(weights) <= 1000:
            assert weights == _keyed_weights(sweep._oracle(lo, hi)), (lo, hi)
            continue
        for i in rng.choice(len(weights), 160, replace=False).tolist():
            key, w = weights[i]
            assert _span_weight(sweep, list(key)) == w, key


class _TableSweep:
    """A sweep whose oracle reads the weight of a unit key off a table."""

    def __init__(self, bound, table):
        self.bound, self.table = bound, table
        self.U = None

    def subspace(self, key):
        return self.table[tuple(key)]


_sparse_level = st.integers(1, 9).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.integers(0, 6),
        st.dictionaries(st.integers(0, size - 1), st.integers(-1, 6), max_size=size),
    )
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_sparse_level, min_size=1, max_size=5), st.none() | st.integers(0, 5))
# exceptions at the first and at the last unit
@example([(5, 2, {0: 3, 4: -1}), (4, 1, {3: 4})], None)
# every unit an exception, and a level with every unit skipped
@example([(3, 2, {0: -1, 1: 4, 2: 1}), (2, 0, {0: -1, 1: -1})], None)
# skipped units before and after a violation
@example([(7, 1, {0: -1, 2: 3, 4: -1, 6: 5})], 2)
# a base above the bound: the first plain unit violates, past skips
@example([(2, 0, {1: -1}), (4, 2, {0: -1, 1: 0})], 1)
# an empty level between two others
@example([(3, 1, {1: 4}), (0, 5, {}), (2, 3, {0: -1})], 2)
# a level with no plain unit, whose base alone is above the bound
@example([(2, 4, {0: 1, 1: -1}), (3, 1, {2: 2})], 3)
# a first plain unit after a run of skipped exceptions
@example([(6, 3, {0: -1, 1: -1, 2: -1, 4: 1})], 2)
def test_scan_of_sparse_levels_equals_scan_of_their_dense_expansions(levels, bound):
    from unittest import mock

    from rankscatter import verify

    sizes, bases, excs = zip(*levels)
    rows = [(i, p, w) for i, e in enumerate(excs) for p, w in sorted(e.items())]
    owner, pos, wts = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    heads = np.array([(2, i) for i in range(len(levels))]).reshape(-1, 2)
    batch = verify._listed(heads, np.arange(len(levels)) + 1, np.array(sizes), np.array(bases), owner, pos, wts)
    # the exceptions are listed, and so is each level's first plain unit
    plain = [(i, min(set(range(size)) - set(exc)), base) for i, (size, base, exc) in enumerate(levels) if len(exc) < size]
    assert list(zip(batch.level.tolist(), batch.pos.tolist(), batch.wts.tolist())) == sorted(rows + plain)
    dense = [wts for _, _, wts in _expand([batch])]
    for d, (size, base, exc) in zip(dense, levels):
        assert d.tolist() == [exc.get(u, base) for u in range(size)]
    # level i is keyed (2, i, i + 1 + position); the oracle re-check reads
    # the weight of a key off a table, through `subspace`
    table = {(2, i, i + 1 + u): w for i, d in enumerate(dense) for u, w in enumerate(d.tolist())}
    with mock.patch.object(verify, "subspace_weight", lambda U, H: H):
        results = [
            verify._scan(_TableSweep(bound, table), blocks, 0, 1)
            for blocks in ([batch], [((2, i), i + 1, d) for i, d in enumerate(dense)])
        ]
    assert results[0] == results[1]


# --- how run_sweep runs a sweep ---


def test_in_process_runs_never_rebuild_from_descriptors(monkeypatch, ps2, F8):
    from rankscatter.codes import generalized_weights
    from rankscatter.construction import direct_sum
    from rankscatter.field import FieldTower

    def rebuild(*args, **kwargs):
        raise AssertionError("an in-process sweep was rebuilt from its descriptor")

    monkeypatch.setattr(FieldTower, "from_descriptor", rebuild)
    v = verify_h_scattered(ps2, 2, mode="exhaustive", workers=1)
    assert (v.status, v.checked) == ("holds", 273)
    ds = direct_sum([pseudoregulus_subspace(F8, 1)] * 2)
    assert max_weight_search(ds, 1)[:3] == (1, [64], 585)
    assert generalized_weights(ds).exact_tuple() == (2, 3, 5, 6)


@pytest.mark.usefixtures("pool_at_once")
def test_one_chunk_sweep_runs_in_process(monkeypatch, ps2):
    def no_start(self):
        raise AssertionError("a worker process was started for a single chunk")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
    v = verify_h_scattered(ps2, 2, mode="exhaustive", workers=2)
    assert (v.status, v.checked) == ("holds", 273)


@pytest.mark.usefixtures("pool_at_once")
def test_pool_size_is_clamped(monkeypatch, tmp_path, ps2_job, killed_after, started):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(8)))
    straight = run_sweep(*ps2_job, 20)
    # min(workers, pending chunks, CPUs); one process runs in process
    for workers, chunk, size in ((64, 20, 8), (64, 100, 3), (3, 20, 3), (64, 273, 0), (1, 20, 0)):
        started.clear()
        out = run_sweep(*ps2_job, chunk, workers=workers)
        assert (out.checked, out.viol, out.completed) == (273, None, True)
        assert len(started) == size, (workers, chunk)
    # chunks already in the checkpoint are not pending
    ck = tmp_path / "ck.jsonl"
    with killed_after(ExhaustiveSweep, 240):
        run_sweep(*ps2_job, 20, checkpoint=str(ck))
    assert len(ck.read_text().splitlines()) == 1 + 12  # of 14 chunks
    started.clear()
    assert run_sweep(*ps2_job, 20, workers=64, checkpoint=str(ck)) == straight
    assert len(started) == 2


class _BlockingSweep:
    """Eight one-unit chunks with a violation at unit 2; every chunk past
    it blocks for a minute."""

    total_units = 8

    def run_units(self, lo, hi):
        if lo > 2:
            time.sleep(60)
        viol = {"key": [lo], "weight": 5} if lo == 2 else None
        return runner.ChunkResult(lo, hi, hi - lo, viol, viol or {"key": [lo], "weight": 1})


@pytest.mark.usefixtures("pool_at_once")
def test_pool_stops_once_the_outcome_is_settled(tmp_path):
    serial = run_sweep(_BlockingSweep(), {"kind": "blocking"}, 1)
    assert (serial.checked, serial.viol, serial.completed) == (3, {"key": [2], "weight": 5}, True)
    ck = tmp_path / "ck.jsonl"
    others = set(multiprocessing.active_children())
    t0 = time.monotonic()
    assert run_sweep(_BlockingSweep(), {"kind": "blocking"}, 1, workers=2, checkpoint=str(ck)) == serial
    assert time.monotonic() - t0 < 30
    # no worker is left running a blocked chunk: each one's sentinel shows
    # its exit (is_alive() can race the pool's own reaping of the process)
    for proc in set(multiprocessing.active_children()) - others:
        assert multiprocessing.connection.wait([proc.sentinel], timeout=10), proc
    # only finished chunks are recorded, each on a whole line
    lines = ck.read_text().split("\n")
    assert lines[-1] == "" and {json.loads(x).get("lo") for x in lines[1:-1]} <= {0, 1, 2}


class _LateFirstSweep:
    """Eight one-unit chunks: chunk 0 takes half a second, and chunk 1
    holds a violation."""

    total_units = 8

    def run_units(self, lo, hi):
        if lo == 0:
            time.sleep(0.5)
        viol = {"key": [lo], "weight": 5} if lo == 1 else None
        return runner.ChunkResult(lo, hi, hi - lo, viol, viol or {"key": [lo], "weight": 1})


@pytest.mark.usefixtures("pool_at_once")
def test_no_chunk_past_a_known_violation_is_sent(monkeypatch, tmp_path):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1})
    ck = tmp_path / "ck.jsonl"
    out = run_sweep(_LateFirstSweep(), {"kind": "late"}, 1, workers=2, checkpoint=str(ck))
    assert (out.checked, out.viol) == (2, {"key": [1], "weight": 5})
    # the first four chunks are sent at once; while chunk 0 runs, the
    # worker that found chunk 1's violation gets no chunk past it
    assert {json.loads(x)["lo"] for x in ck.read_text().splitlines()[1:]} <= {0, 1, 2, 3}


class _SlowStartSweep:
    """Eight one-unit chunks of weight 1, of which the first two take
    `nap` seconds each; each chunk appends its unit and the pid that ran it
    to `log`."""

    total_units = 8

    def __init__(self, nap, log):
        self.nap, self.log = nap, log

    def run_units(self, lo, hi):
        if lo < 2:
            time.sleep(self.nap)
        with open(self.log, "a") as f:
            f.write(f"{lo} {os.getpid()}\n")
        return runner.ChunkResult(lo, hi, hi - lo, None, {"key": [lo], "weight": 1})


def test_chunks_past_the_pool_gate_run_in_a_pool(monkeypatch, tmp_path, started):
    # the gate passes during chunk 1: chunks 0 and 1 run in this process,
    # the six others in a pool of min(4 workers, 6 chunks, 2 CPUs), and the
    # outcome and the checkpoint records are those of a serial run
    monkeypatch.setattr(runner, "POOL_AFTER_S", 0.4)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1})
    serial_ck, ck, log = tmp_path / "serial.jsonl", tmp_path / "ck.jsonl", tmp_path / "ran"
    serial = run_sweep(_SlowStartSweep(0, os.devnull), {"kind": "slow"}, 1, checkpoint=str(serial_ck))
    assert (serial.checked, serial.viol, serial.completed) == (8, None, True)
    assert run_sweep(_SlowStartSweep(0.25, log), {"kind": "slow"}, 1, workers=4, checkpoint=str(ck)) == serial
    assert sorted(ck.read_text().splitlines()) == sorted(serial_ck.read_text().splitlines())
    ran = {int(lo): int(pid) for lo, pid in (line.split() for line in log.read_text().splitlines())}
    assert sorted(ran) == list(range(8)) and ran[0] == ran[1] == os.getpid()
    workers = {ran[lo] for lo in range(2, 8)}
    assert len(started) == 2 and workers <= {proc.pid for proc in started}


def test_a_killed_run_keeps_every_chunk_it_recorded(tmp_path):
    import subprocess
    import sys

    # the process running the sweep kills itself as chunk 5 of 14 starts:
    # the five records before it are already in the file
    ck = tmp_path / "ck.jsonl"
    code = (
        "import os, signal; from rankscatter import verify; from rankscatter.cli import main\n"
        "run_units = verify._Sweep.run_units\n"
        "def dies(self, lo, hi):\n"
        "    if lo == 100: os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return run_units(self, lo, hi)\n"
        "verify._Sweep.run_units = dies\n"
        "main(['verify-scattered', '--field', '2,1,4', '--system', 'pseudoregulus', '--h', '2', "
        f"'--mode', 'exhaustive', '--chunk-size', '20', '--checkpoint', {str(ck)!r}])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == -signal.SIGKILL, run.stderr
    lines = ck.read_text().split("\n")
    assert lines[-1] == "" and [json.loads(x)["lo"] for x in lines[1:-1]] == [0, 20, 40, 60, 80]


class _Broke(Exception):
    pass


class _FailingSweep:
    """Eight one-unit chunks, each of weight 1 but chunk 3: a pool worker
    that reaches it dies there, as by SIGKILL, or raises _Broke.  In the
    process that made the sweep, chunk 3 runs like the others."""

    total_units = 8

    def __init__(self, how):
        self.how = how
        self.parent = os.getpid()

    def run_units(self, lo, hi):
        if lo == 3 and os.getpid() != self.parent:
            if self.how == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise _Broke(f"chunk {lo} broke")
        return runner.ChunkResult(lo, hi, hi - lo, None, {"key": [lo], "weight": 1})


@pytest.mark.usefixtures("pool_at_once")
@pytest.mark.parametrize("how, error, message", [
    ("dies", runner.WorkerError, r"worker process \d+ ended \(exit code -9\) without the result of chunk \[3, 4\)"),
    ("raises", _Broke, "chunk 3 broke"),
])
def test_a_failing_worker_ends_the_sweep_and_keeps_the_checkpoint(
    monkeypatch, tmp_path, started, how, error, message
):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1})
    ck = tmp_path / "ck.jsonl"
    t0 = time.monotonic()
    with pytest.raises(error, match=message) as raised:
        run_sweep(_FailingSweep(how), {"kind": "failing"}, 1, workers=2, checkpoint=str(ck))
    assert time.monotonic() - t0 < 30
    assert len(started) == 2 and not any(proc.is_alive() for proc in started)
    if how == "raises":
        # the worker's traceback comes along as the cause
        assert "in run_units" in str(raised.value.__cause__)
    # finished chunks are kept, chunk 1 among them (the failing worker
    # answered it before chunk 3), and a rerun runs only the others
    lines = ck.read_text().split("\n")
    assert lines[-1] == ""
    kept = {json.loads(x)["lo"] for x in lines[1:-1]}
    assert 1 in kept and 3 not in kept
    ran = []
    sweep = _FailingSweep(how)
    run_units = sweep.run_units
    monkeypatch.setattr(sweep, "run_units", lambda lo, hi: ran.append(lo) or run_units(lo, hi))
    assert run_sweep(sweep, {"kind": "failing"}, 1, checkpoint=str(ck)) == run_sweep(
        _FailingSweep(how), {"kind": "failing"}, 1
    )
    assert sorted(ran) == sorted(set(range(8)) - kept)


def test_a_worker_whose_pipe_closes_exits_quietly():
    parent_end, worker_end = multiprocessing.Pipe()
    parent_end.send((0, 1))
    parent_end.close()
    # it answers the chunk it was sent into a pipe no one reads, then stops
    assert runner._serve(worker_end, _FailingSweep("raises")) is None
    worker_end.close()


def test_import_and_a_one_worker_run_load_no_pool_module():
    import subprocess
    import sys

    # and nor does a two-worker witness-span proof too short for a pool
    code = (
        "import sys; from rankscatter.cli import main; "
        "main(['verify-scattered', '--field', '2,1,4', '--system', 'pseudoregulus', '--h', '2', "
        "'--mode', 'exhaustive', '--chunk-size', '20', '--out', __import__('os').devnull]); "
        "main(['verify-scattered', '--field', '2,1,4', '--system', 'family', '--m', '4', '--h', '2', "
        "'--alphas', '1,1,1,1', '--mode', 'witness_span', '--workers', '2', '--out', __import__('os').devnull]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.stdout == "[]\n", run.stderr


PLAN_SYSTEMS = {"gf2": ((2, 1, 4), 2), "gf3": ((3, 1, 3), 2), "fp": ((5, 1, 2), 1), "scalar": ((2, 2, 2), 1)}


@pytest.mark.parametrize(
    "mode, budget",
    [("exhaustive", None), ("exhaustive", 5), ("witness_span", None), ("witness_span", 5),
     ("sampled", 5), ("sampled", 40)],
)
@pytest.mark.parametrize("backend", sorted(PLAN_SYSTEMS))
def test_a_plan_sizes_the_sweep_it_builds(backend, mode, budget):
    from math import comb

    field, h = PLAN_SYSTEMS[backend]
    system = pseudoregulus_subspace(create_field(*field), h)
    p = plan(system, h, None, mode, budget, chunk_size=4)
    sweep, desc = _build_sweep(system, p)
    assert sweep.backend == backend and p.known is None
    assert p.total == sweep.total_units
    outcome = run_sweep(sweep, desc, p.chunk, budget_units=budget if mode != "sampled" else None)
    if mode != "witness_span":
        # an index sweep checks exactly the units its budget allows
        assert outcome.checked == p.units == p.subspaces
        assert (p.units == p.total) == (budget is None or mode == "sampled")
        return
    # a witness-span budget counts subspaces, so it may stop the walk early,
    # and skipped tuples are not weighed: subspaces bound the count from above
    NU, q = system.tower.q**system.t, system.tower.q
    firsts = [i for i in range(1, NU) if i // q ** (len(np.base_repr(i, q)) - 1) == 1]
    assert p.units == p.total
    assert p.subspaces == sum(comb(NU - 1 - i, d - 1) for d in range(1, h + 1) for i in firsts)
    assert outcome.checked <= p.subspaces
    if budget is None and q == 2:
        # no u_j of the pseudoregulus is an extension multiple of another
        assert outcome.checked == p.subspaces


@pytest.mark.parametrize("backend", sorted(PLAN_SYSTEMS))
def test_sweepless_plans_build_no_sweep(backend, monkeypatch):
    from rankscatter import verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was built")

    monkeypatch.setattr(verify, "_build_sweep", no_sweep)
    field, h = PLAN_SYSTEMS[backend]
    system = pseudoregulus_subspace(create_field(*field), h)
    for mode in ("exhaustive", "witness_span", "sampled"):
        # a bound r >= t holds for want of room, in every mode
        p = verify.plan(system, h, system.t, mode, 7)
        v = verify_evasive(system, h, system.t, mode=mode, budget=7)
        assert p.known == SweepOutcome(0, None, None, True) and p.units == p.subspaces == 0
        assert (v.status, v.checked, v.backend) == ("holds", 0, None)
    for mode in ("exhaustive", "sampled"):
        # the zero space weighs 0
        p = verify.plan(system, 0, None, mode, 7)
        assert p.known.best == {"weight": 0, "key": [0]} and p.units == p.subspaces == 1
        assert max_weight_search(system, 0, mode=mode, budget=7) == (0, [0], 1, True)


def test_plans_refuse_a_span_table_or_a_sample_field_past_its_limit(monkeypatch):
    # the witness-span table past SPAN_TABLE_CAP and a sampled field past
    # 2^63 are refusals of the plan: no sweep object is built for either
    from rankscatter import verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was built")

    cases = [
        (create_field(2, 1, 21), "witness_span", None,
         f"witness-span sweep over {1 << 21} subspace elements exceeds the cap; use sampled mode"),
        (create_field(2, 1, 66), "sampled", 1, f"sampled mode needs a field of at most 2^63 elements, not {1 << 66}"),
    ]
    for cls in ("ExhaustiveSweep", "SpanSweep", "SampledSweep"):
        monkeypatch.setattr(verify, cls, no_sweep)
    for F, mode, budget, refusal in cases:
        lc = line_control_subspace(F, 2)
        with monkeypatch.context() as m:
            m.setattr(verify, "_build_sweep", no_sweep)
            assert verify.plan(lc, 1, 1, mode, budget).refusal == refusal
            # a plan that knows its outcome refuses nothing
            assert verify.plan(lc, 1, lc.t, mode, budget).refusal is None
        with pytest.raises(ValueError) as raised:
            verify_h_scattered(lc, 1, mode=mode, budget=budget)
        assert str(raised.value) == refusal


def test_plans_refuse_a_class_residue_table_past_its_cap(monkeypatch):
    # pseudoregulus h = 1 over F_{2^20} would build a 3 GiB gf2 residue
    # table (3 byte groups of 20-bit reduced parts, 2^19 - 1 classes): the
    # plan refuses it, and no sweep object is built.  The line control in
    # F_{2^16}^3, 8 KiB under 256 MiB, is planned
    from rankscatter import verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was built")

    for cls in ("ExhaustiveSweep", "SpanSweep", "SampledSweep"):
        monkeypatch.setattr(verify, cls, no_sweep)
    big = pseudoregulus_subspace(create_field(2, 1, 20), 1)
    size = 3 * 256 * ((1 << 19) - 1) * 8
    p = verify.plan(big, 1, 1, "witness_span", defect=verify.span_defect)
    assert p.refusal == (f"witness-span class residue table of {size} bytes exceeds the cap of {1 << 28}; "
                         "use sampled mode")
    with pytest.raises(ValueError) as raised:
        verify_h_scattered(big, 1)
    assert str(raised.value) == p.refusal
    line = line_control_subspace(create_field(2, 1, 16), 3)
    assert verify._residue_bytes(line, 1) == 4 * 256 * ((1 << 15) - 1) * 8 <= verify.RESIDUE_TABLE_CAP
    assert verify.plan(line, 1, 1, "witness_span").refusal is None


def test_the_residue_table_size_is_what_the_kernel_builds(F16):
    # gf2 (C2, 32-bit reduced parts, 7 classes), gf3 (F_27 (1,1,3), 9 trits,
    # 4 classes) and fp, which builds no table
    from rankscatter import verify

    systems = [family_subspace(ConstructionParams(F16, 4, 2, (1, 1, 1, 1))), _f27_family(1),
               pseudoregulus_subspace(create_field(5, 1, 2), 1)]
    for system, size in zip(systems, (4 * 256 * 7 * 8, 2 * 256 * 4 * 16, 0)):
        table = _sweep(system, "witness_span", 1).kernel._class_echelon[0]
        assert verify._residue_bytes(system, 1) == size == (table.nbytes if size else 0)


def test_every_entry_point_refuses_the_same_questions(F16, monkeypatch, capsys):
    # `plan` is the one gate of a question: every entry point raises its
    # ValueError, naming the values it got, before a sweep is built, and
    # the CLI exits 3 with it
    from rankscatter import verify
    from rankscatter.cli import main

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was built")

    def refusal(dim, bound):
        if not 0 <= dim <= 3:
            return f"need 0 <= dim <= 3, got {dim}"
        return f"need 0 < dim < 3 and bound >= dim, got dim {dim} and bound {bound}"

    monkeypatch.setattr(verify, "_build_sweep", no_sweep)
    ps = pseudoregulus_subspace(F16, 2)  # k = 3
    table = [
        *[(lambda h=h: verify_h_scattered(ps, h), h, h) for h in (0, 3)],
        *[(lambda d=d, r=r: verify_evasive(ps, d, r), d, r) for d, r in [(0, 2), (3, 4), (2, 1)]],
        *[(lambda d=d, mode=mode: max_weight_search(ps, d, mode=mode, budget=3), d, None)
          for mode in ("exhaustive", "sampled") for d in (-1, 4)],
    ]
    for call, dim, bound in table:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == refusal(dim, bound)
    argv = ["verify-evasive", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2", "--hdim", "1", "--r", "0"]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"configuration error: {refusal(1, 0)}\n"


def test_a_sampled_search_past_the_ambient_dimension_raises_at_once():
    # a sampled sweep of 4-dimensional subspaces of F_16^3 would redraw a
    # full-rank 4 x 3 matrix forever; in a subprocess, so that a hang fails
    # the test at its timeout instead of stalling the suite
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "from rankscatter.construction import pseudoregulus_subspace\n"
        "from rankscatter.field import FieldTower\n"
        "from rankscatter.verify import max_weight_search\n"
        "try:\n"
        "    max_weight_search(pseudoregulus_subspace(FieldTower(2, 1, 4), 2), 4, mode='sampled', budget=3)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "need 0 <= dim <= 3, got 4\n"
