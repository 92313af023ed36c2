"""Report schema, recheck, determinism, and the CLI surface."""

import json

import pytest

from rankscatter import reports
from rankscatter.cli import main


def run_cli(tmp_path, *argv):
    return main(list(argv))


def load(path):
    with open(path) as f:
        return json.load(f)


def test_construct_report_fields(tmp_path):
    out = str(tmp_path / "c.json")
    rc = main([
        "construct", "--field", "2,1,4", "--system", "family",
        "--m", "4", "--h", "2", "--alphas", "2,1,1,1", "--out", out,
    ])
    assert rc == 0
    rep = load(out)
    assert rep["schema"] == "rankscatter-report/1"
    assert rep["field"] == {"p": 2, "s": 1, "n": 4, "modulus": [1, 1, 0, 0, 1]}
    assert rep["result"]["fq_dim"] == 16
    assert rep["result"]["ambient"] == 12
    assert rep["result"]["spans_ambient"] is True
    assert rep["result"]["admissible"] is True
    ok, problems = reports.recheck_report(rep)
    assert ok, problems


def test_construct_over_a_large_subfield_tower(tmp_path):
    # F_4 inside F_{4^12}: a scan for it would visit all 2^24 elements
    out = str(tmp_path / "c.json")
    assert main(["construct", "--field", "2,2,12", "--system", "line-control", "--out", out]) == 0
    rep = load(out)
    assert rep["result"]["fq_dim"] == 12
    ok, problems = reports.recheck_report(rep)
    assert ok, problems


def test_verify_exit_codes_and_witness_roundtrip(tmp_path):
    good = str(tmp_path / "good.json")
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus",
        "--h", "2", "--mode", "exhaustive", "--out", good,
    ])
    assert rc == 0
    assert load(good)["result"]["status"] == "holds"
    assert main(["recheck", good]) == 0

    bad = str(tmp_path / "bad.json")
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "line-control",
        "--mode", "exhaustive", "--out", bad,
    ])
    assert rc == 1
    rep = load(bad)
    assert rep["result"]["status"] == "violated"
    assert rep["result"]["witness"]["weight"] == 4
    assert main(["recheck", bad]) == 0


def test_recheck_flags_tampered_witness(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    main([
        "verify-scattered", "--field", "2,1,4", "--system", "line-control",
        "--mode", "exhaustive", "--out", bad,
    ])
    rep = load(bad)
    rep["result"]["witness"]["weight"] = 2
    with open(bad, "w") as f:
        json.dump(rep, f)
    assert main(["recheck", bad]) == 1
    assert "corrupt" in capsys.readouterr().err


def test_recheck_flags_tampered_census(tmp_path, capsys):
    out = str(tmp_path / "census.json")
    main(["search", "--field", "2,1,4", "--m", "4", "--out", out])
    rep = load(out)
    rep["result"]["admissible"] = 1
    with open(out, "w") as f:
        json.dump(rep, f)
    assert main(["recheck", out]) == 1


def test_sampled_verify_exits_inconclusive(tmp_path):
    out = str(tmp_path / "s.json")
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus",
        "--h", "2", "--mode", "sampled", "--budget", "64", "--seed", "3",
        "--out", out,
    ])
    assert rc == 2
    rep = load(out)
    assert rep["result"]["status"] == "inconclusive"
    assert rep["result"]["subspaces_checked"] == 64
    assert rep["result"]["seed"] == 3
    assert main(["recheck", out]) == 0


C2 = ["--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2", "--alphas", "2,1,1,1"]


@pytest.mark.parametrize(
    "extra", [["--budget", "1"], ["--budget", "2049"], ["--budget", "20000", "--chunk-size", "2049"]],
    ids=["one-sample", "2049-samples", "2049-sample-chunks"],
)
def test_sampled_blocks_of_one_sample_exit_inconclusive(tmp_path, extra):
    out = str(tmp_path / "s.json")
    assert main(["verify-scattered", *C2, "--mode", "sampled", *extra, "--out", out]) == 2
    res = load(out)["result"]
    assert (res["status"], res["subspaces_checked"]) == ("inconclusive", int(extra[1]))


def test_sampled_mode_refuses_a_field_past_2_to_the_63_before_any_sweep(monkeypatch, capsys):
    from rankscatter import verify

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(verify, "run_sweep", no_sweep)
    argv = ["verify-scattered", "--field", "2,1,66", "--system", "line-control", "--mode", "sampled", "--budget", "1"]
    assert main(argv) == 3
    assert "at most 2^63 elements" in capsys.readouterr().err


def test_recheck_replays_the_sample_stream_through_the_scalar_oracle(tmp_path, monkeypatch, capsys):
    from rankscatter import bitkernel
    from rankscatter.construction import pseudoregulus_subspace
    from rankscatter.field import create_field
    from rankscatter.linalg import sample_subspace
    from rankscatter.verify import subspace_weight

    out = str(tmp_path / "s.json")
    assert main(PS2 + ["--mode", "sampled", "--budget", "64", "--seed", "3", "--out", out]) == 2
    rep = load(out)
    rep["result"]["bound"] = 0  # now every sample of positive weight is a missed witness
    with open(out, "w") as f:
        json.dump(rep, f)

    def batch_rank(rows):
        raise AssertionError("recheck ran the batch kernel")

    monkeypatch.setattr(bitkernel, "batch_rank", batch_rank)
    assert main(["recheck", out]) == 1
    assert "sample 1 violates the bound" in capsys.readouterr().err
    # samples 0 and 1 of seed 3 on PS2 have weights 0 and 1
    F16 = create_field(2, 1, 4)
    ps = pseudoregulus_subspace(F16, 2)
    assert [subspace_weight(ps, sample_subspace(F16, 3, 2, 3, i)) for i in (0, 1)] == [0, 1]


ODD_Q_PROOFS = {
    "F81-exhaustive": (
        ["--field", "3,1,4", "--system", "pseudoregulus", "--h", "2", "--mode", "exhaustive"], 6643
    ),
    "F27-witness-span": (
        ["--field", "3,1,3", "--system", "family", "--m", "3", "--h", "1", "--alphas", "1,1,3",
         "--mode", "witness_span"],
        9841,
    ),
}


@pytest.mark.parametrize("job", sorted(ODD_Q_PROOFS))
def test_recheck_resweeps_odd_q_proofs_through_the_scalar_oracle(tmp_path, monkeypatch, capsys, job):
    from rankscatter import bitkernel

    argv, checked = ODD_Q_PROOFS[job]
    out = str(tmp_path / "p.json")
    assert main(["verify-scattered", *argv, "--out", out]) == 0
    res = load(out)["result"]
    assert (res["status"], res["subspaces_checked"], res["backend"]) == ("holds", checked, "fp")

    def fp_rank(rows, p):
        raise AssertionError("recheck ran the F_p kernel")

    monkeypatch.setattr(bitkernel, "fp_rank", fp_rank)
    assert main(["recheck", out]) == 0
    # the re-sweep does run: a tampered count is caught
    rep = load(out)
    rep["result"]["subspaces_checked"] -= 1
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert "proof does not reproduce" in capsys.readouterr().err


@pytest.mark.parametrize("field, h, kernel", [("3,1,2", "1", "fp_rank"), ("2,1,3", "2", "batch_rank")])
def test_recheck_resweeps_primal_weights_through_the_scalar_oracle(tmp_path, monkeypatch, capsys, field, h, kernel):
    from rankscatter import bitkernel

    out = str(tmp_path / "w.json")
    assert main(["weights", "--field", field, "--system", "pseudoregulus", "--h", h, "--out", out]) == 0
    rep = load(out)
    assert rep["result"]["route"] == "primal"

    def refuse(*args):
        raise AssertionError("recheck ran a batched kernel")

    monkeypatch.setattr(bitkernel, kernel, refuse)
    assert main(["recheck", out]) == 0
    rep["result"]["profile"][0]["value"] += 1
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert "d_1 mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, backend",
    [
        (["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2",
          "--mode", "exhaustive"], "gf2"),
        (["verify-scattered", "--field", "3,1,2", "--system", "line-control",
          "--mode", "witness_span"], "fp"),
        (["verify-scattered", "--field", "2,2,3", "--system", "line-control",
          "--mode", "exhaustive"], "scalar"),
        (["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "2",
          "--alphas", "2,1,1", "--force", "--mode", "sampled", "--budget", "50"], "gf2"),
        (["verify-evasive", "--field", "3,1,3", "--system", "pseudoregulus", "--h", "2",
          "--hdim", "1", "--r", "3", "--mode", "exhaustive"], None),
    ],
    ids=["gf2", "fp", "scalar", "gf2-sampled", "vacuous"],
)
def test_verify_reports_name_the_backend_that_ran(tmp_path, capsys, argv, backend):
    out = str(tmp_path / "b.json")
    main(argv + ["--out", out])
    rep = load(out)
    assert rep["result"]["backend"] == backend
    assert main(["recheck", out]) == 0
    rep["result"]["backend"] = "scalar" if backend != "scalar" else "fp"
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert "is not the one these inputs run" in capsys.readouterr().err
    # a report from before verdicts named their backend
    del rep["result"]["backend"]
    with open(out, "w") as f:
        json.dump(rep, f)
    assert main(["recheck", out]) == 0


def test_vacuous_admissibility_guard(tmp_path, capsys):
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "family",
        "--m", "3", "--h", "2", "--alphas", "2,1,1", "--mode", "sampled",
        "--budget", "8",
    ])
    assert rc == 3
    assert "vacuous" in capsys.readouterr().err
    out = str(tmp_path / "forced.json")
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "family",
        "--m", "3", "--h", "2", "--alphas", "2,1,1", "--mode", "sampled",
        "--budget", "8", "--force", "--out", out,
    ])
    assert rc == 2


def test_config_and_usage_errors(capsys):
    assert main(["construct", "--field", "9,1,2", "--system", "pseudoregulus", "--h", "1"]) == 3
    assert main(["construct", "--field", "2,1", "--system", "pseudoregulus", "--h", "1"]) == 3
    assert main(["verify-scattered", "--field", "2,1,4", "--system", "family",
                 "--m", "4", "--h", "9", "--alphas", "2,1,1,1"]) == 3
    capsys.readouterr()
    assert main(["not-a-command"]) == 4
    assert main(["verify-evasive", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "1"]) == 4


def test_report_bodies_are_deterministic(tmp_path):
    args = [
        "verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus",
        "--h", "2", "--mode", "sampled", "--budget", "128", "--seed", "9",
    ]
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(args + ["--out", a]) == 2
    assert main(args + ["--out", b, "--workers", "2"]) == 2
    ra, rb = load(a), load(b)
    assert reports.body_bytes(ra) == reports.body_bytes(rb)
    assert ra["timing"]["workers"] != rb["timing"]["workers"]


# sha256 of reports.body_bytes for each command, taken before the batched
# backends shared one row kernel: each mode and verdict on the gf2, fp and
# scalar backends, fp at q = 2 past one packed word and over a field past
# 2^64 elements, and weights on one and two workers
PINNED_BODIES = {
    "gf2-exhaustive-holds": (
        ["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2", "--mode", "exhaustive"],
        0, "b038bfc073111e1d68b820359ef57b4e73f0523844ba81b327dfe4f5d8750229",
    ),
    "gf2-exhaustive-violated": (
        ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "1",
         "--alphas", "1,1,1", "--force", "--mode", "exhaustive"],
        1, "565762efeaf8140c06082ebfad4dff767e50c339091faf25df4b9c0decff0447",
    ),
    "gf2-F65536-budget": (
        ["verify-scattered", "--field", "2,1,16", "--system", "pseudoregulus", "--h", "2",
         "--mode", "exhaustive", "--budget", "1"],
        2, "cc3e074a937f68478befad968669de4a0e7c5c276c5964179285f74f0b57db7b",
    ),
    "gf2-span-violated": (
        ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "2",
         "--alphas", "1,1,1", "--force", "--mode", "witness_span"],
        1, "252988702eb5302e208c016f1a2236c236190ed5cc3b0772c388fc751404663d",
    ),
    "gf2-sampled-inconclusive": (
        ["verify-scattered", *C2, "--mode", "sampled", "--budget", "3000", "--seed", "5"],
        2, "f954fa4a31b6dd951ff8a9cbc8b18cfee67f425061d827ca49793d06432d9b5e",
    ),
    "gf2-sampled-violated": (
        ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--mode", "sampled",
         "--budget", "500", "--seed", "3"],
        1, "bcb310f52279a9e5439b97aaa0f3b0055ddcf4bb3e68601e5f5f9760cc8b9b56",
    ),
    "fp-exhaustive-F81": (
        ["verify-scattered", "--field", "3,1,4", "--system", "pseudoregulus", "--h", "2", "--mode", "exhaustive"],
        0, "5d248cd42938e918279a14e0ca7dfadc42ee4e1891c1277f88edfd512bd898ab",
    ),
    "fp-span-F27": (
        ["verify-scattered", "--field", "3,1,3", "--system", "family", "--m", "3", "--h", "1",
         "--alphas", "1,1,3", "--mode", "witness_span"],
        0, "09c5422d5ffdb5bf1a9f1c73379133845a5d9088120d5dea492805fe72fa712b",
    ),
    "fp-span-F27-pairs": (
        ["verify-scattered", "--field", "3,1,3", "--system", "pseudoregulus", "--h", "2", "--mode", "witness_span"],
        0, "ea43ca327c3d6a8ebd1f49a51476c733dc41ed5efa346a79905737575ca52bc3",
    ),
    "fp-span-F27-violated": (
        ["verify-evasive", "--field", "3,1,3", "--system", "family", "--m", "3", "--h", "1",
         "--alphas", "1,1,1", "--force", "--hdim", "2", "--r", "3", "--mode", "witness_span"],
        1, "2e46bde220d6701ac64457a2dcbc7de81ac0085c74df95c4a32c9c630308f32d",
    ),
    "fp-sampled-F729": (
        ["verify-scattered", "--field", "3,1,6", "--system", "family", "--m", "3", "--h", "2",
         "--alphas", "1,1,3", "--mode", "sampled", "--budget", "300", "--seed", "2"],
        2, "a715f176fe6e94f5cf0142d0a537bc9bc66816961a90d2c730d0c43ddd620819",
    ),
    "fp-exhaustive-F9-violated": (
        ["verify-scattered", "--field", "3,1,2", "--system", "line-control", "--ambient", "3", "--h", "2",
         "--mode", "exhaustive"],
        1, "81f3db722494af0b7e8accf07a15d614c3e3e1716beb4346fae033d2bf689c7f",
    ),
    "fp-sampled-F9-violated": (
        ["verify-scattered", "--field", "3,1,2", "--system", "line-control", "--mode", "sampled",
         "--budget", "100", "--seed", "1"],
        1, "417e7d50d9012013d3e0c6f732d34aa56806bf8261df4d048bac111e9e4aa3d2",
    ),
    "fp-q2-width72-exhaustive": (
        ["verify-scattered", "--field", "2,1,8", "--system", "family", "--m", "3", "--h", "2",
         "--alphas", "1,1,2", "--force", "--mode", "exhaustive", "--budget", "300", "--chunk-size", "100"],
        2, "a5619513f6e0032c2811dc1c1f626aa7713d4c10b74a23e036dd4d43f10c5516",
    ),
    "fp-q2-width72-sampled": (
        ["verify-scattered", "--field", "2,1,8", "--system", "family", "--m", "3", "--h", "2",
         "--alphas", "1,1,2", "--force", "--mode", "sampled", "--budget", "200", "--seed", "4"],
        2, "d747972a88592f959ee974eccb1c66ab3b8af6a3c309f37c97c3a90a687d2b08",
    ),
    "fp-F3^41-exhaustive": (
        ["verify-scattered", "--field", "3,1,41", "--system", "line-control", "--mode", "exhaustive", "--budget", "1"],
        1, "dabbac45b3d77eb4cc21cf74db5ec730e8930fe08b81b5bbd8ff2d0688ba11dc",
    ),
    "scalar-F64-over-F4": (
        ["verify-scattered", "--field", "2,2,3", "--system", "line-control", "--mode", "exhaustive"],
        1, "d7f0f3a3409ec9c5204e8119ffa02a9be7d3acba4af2eb5908e449fe79f49796",
    ),
    "weights-workers1": (
        ["weights", "--field", "2,1,3", "--system", "direct-sum", "--m", "2", "--h", "1", "--workers", "1"],
        0, "f3603aa29557eace007bcb18c7c47f5275192af0f63a7699d6c32f27b3b8216b",
    ),
    "weights-workers2": (
        ["weights", "--field", "2,1,3", "--system", "direct-sum", "--m", "2", "--h", "1", "--workers", "2"],
        0, "f3603aa29557eace007bcb18c7c47f5275192af0f63a7699d6c32f27b3b8216b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_report_bodies_match_their_pinned_digests(tmp_path, name):
    import hashlib

    argv, rc, digest = PINNED_BODIES[name]
    out = str(tmp_path / "r.json")
    assert main(argv + ["--out", out]) == rc
    assert hashlib.sha256(reports.body_bytes(load(out))).hexdigest() == digest


def test_weights_command_with_csv(tmp_path):
    out = str(tmp_path / "w.json")
    csv = str(tmp_path / "w.csv")
    rc = main([
        "weights", "--field", "2,1,3", "--system", "direct-sum",
        "--m", "2", "--h", "1", "--mode", "exhaustive",
        "--out", out, "--csv", csv,
    ])
    assert rc == 0
    rep = load(out)
    values = {e["rho"]: e["value"] for e in rep["result"]["profile"]}
    assert values == {1: 2, 2: 3, 3: 5, 4: 6}
    assert all(e["provenance"] == "exact" for e in rep["result"]["profile"])
    with open(csv) as f:
        assert f.readline().strip() == "rho,value,provenance,subspaces_checked"
    assert main(["recheck", out]) == 0
    # the [6,2] dual sweeps 10 subspaces, the code itself would sweep 5916
    assert rep["result"]["route"] == "dual"
    assert rep["counts"] == {"entries": 4, "subspaces_swept": 10}
    # sampled weights exit inconclusive
    rc = main([
        "weights", "--field", "2,1,3", "--system", "direct-sum",
        "--m", "2", "--h", "1", "--mode", "sampled", "--budget", "16",
        "--out", out,
    ])
    assert rc == 2
    rep = load(out)
    assert rep["result"]["route"] == "primal"
    assert rep["counts"]["subspaces_swept"] == 3 * 16 + 1
    assert main(["recheck", out]) == 0


WEIGHTS_M2 = ["weights", "--field", "2,1,3", "--system", "direct-sum", "--m", "2", "--h", "1"]


def test_weights_rejects_duplicate_rho(capsys):
    assert main(WEIGHTS_M2 + ["--rho", "2,2"]) == 3
    assert "duplicate rho" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, problem",
    [
        (("result", "route"), "primal", "route 'primal'"),
        (("result", "route"), "sideways", "route 'sideways'"),
        (("result", "k"), 5, "code dimension mismatch"),
        (("result", "profile", 3, "value"), 7, "d_4 = 7 out of range 1..6"),
    ],
)
def test_recheck_flags_tampered_weights(tmp_path, capsys, field, value, problem):
    out = str(tmp_path / "w.json")
    assert main(WEIGHTS_M2 + ["--out", out]) == 0
    rep = load(out)
    node = rep
    for part in field[:-1]:
        node = node[part]
    node[field[-1]] = value
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("exhaustive", ["--chunk-size", "-5"]),
        ("exhaustive", ["--chunk-size", "0"]),
        ("witness_span", ["--chunk-size", "-1"]),
        ("exhaustive", ["--budget", "0"]),
        ("exhaustive", ["--budget", "-1"]),
        ("sampled", ["--budget", "0"]),
        ("sampled", ["--budget", "-1"]),
    ],
)
def test_non_positive_chunk_size_or_budget_is_a_config_error(capsys, mode, extra):
    rc = main([
        "verify-scattered", "--field", "2,1,3", "--system", "pseudoregulus",
        "--h", "1", "--mode", mode, *extra,
    ])
    assert rc == 3
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode, checked", [("exhaustive", 273), ("witness_span", 120)])
def test_recheck_resweeps_a_small_proof(tmp_path, capsys, mode, checked):
    out = str(tmp_path / "p.json")
    rc = main([
        "verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus",
        "--h", "2", "--mode", mode, "--out", out,
    ])
    assert rc == 0
    rep = load(out)
    assert rep["result"]["subspaces_checked"] == checked
    assert main(["recheck", out]) == 0
    rep["result"]["subspaces_checked"] = 0
    rep["counts"]["subspaces_checked"] = 0
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert "proof does not reproduce" in capsys.readouterr().err


def test_compare_command(tmp_path):
    out = str(tmp_path / "cmp.json")
    rc = main([
        "compare", "--field", "2,1,6", "--system", "family",
        "--m", "3", "--h", "2", "--alphas", "2,1,1", "--out", out,
    ])
    assert rc == 0
    rep = load(out)
    rows = {r["rho"]: r for r in rep["result"]["indices"]}
    assert rows[6]["separated"] is True
    assert rows[3]["separated"] is False
    assert main(["recheck", out]) == 0


def test_search_command_counts(tmp_path):
    out = str(tmp_path / "census.json")
    rc = main(["search", "--field", "2,1,4", "--m", "4", "--out", out])
    assert rc == 0
    rep = load(out)
    assert rep["result"]["tuples_checked"] == 50625
    assert rep["result"]["admissible"] == 47250
    assert rep["result"]["exhaustive"] is True
    assert main(["recheck", out]) == 0


def test_search_strong_count_random(tmp_path):
    out = str(tmp_path / "b.json")
    rc = main([
        "search", "--field", "2,1,6", "--m", "3", "--budget", "400",
        "--seed", "5", "--check-b", "--out", out,
    ])
    assert rc == 0
    rep = load(out)
    assert rep["result"]["strongly_admissible"] >= 1
    assert rep["result"]["tuples_checked"] == 400


def test_verify_evasive_cli(tmp_path):
    out = str(tmp_path / "e.json")
    rc = main([
        "verify-evasive", "--field", "2,1,4", "--system", "pseudoregulus",
        "--h", "2", "--hdim", "2", "--r", "2", "--mode", "exhaustive",
        "--out", out,
    ])
    assert rc == 0
    assert load(out)["result"]["status"] == "holds"
    assert main(["recheck", out]) == 0


def test_checkpoint_resume_via_cli_is_byte_identical(tmp_path):
    """An interrupted-then-resumed sweep reports exactly like a straight run."""
    from rankscatter.construction import pseudoregulus_subspace
    from rankscatter.field import create_field
    from rankscatter.runner import run_sweep
    from rankscatter.verify import SampledSweep

    F16 = create_field(2, 1, 4)
    sweep = SampledSweep(F16, pseudoregulus_subspace(F16, 2), 2, 2, 21, "auto", 300)
    desc = {
        "kind": "sampled",
        "field": F16.descriptor(),
        "system": {"kind": "pseudoregulus", "h": 2},
        "dim": 2,
        "bound": 2,
        "seed": 21,
        "budget": 300,
        "engine": "auto",
    }
    straight = run_sweep(sweep, desc, 32)
    ck = str(tmp_path / "ck.jsonl")
    interrupted = run_sweep(sweep, desc, 32, checkpoint=ck, stop_after_units=150)
    assert not interrupted.completed
    resumed = run_sweep(sweep, desc, 32, checkpoint=ck)
    assert resumed.completed
    assert (straight.checked, straight.viol, straight.best) == (
        resumed.checked,
        resumed.viol,
        resumed.best,
    )


def test_cli_resumes_from_a_torn_checkpoint(tmp_path, capsys):
    """A kill in mid-append tears the last checkpoint line; resume reruns that chunk."""
    argv = [
        "verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus",
        "--h", "2", "--mode", "exhaustive", "--chunk-size", "20",
    ]
    straight = str(tmp_path / "straight.json")
    assert main(argv + ["--out", straight]) == 0
    ck = tmp_path / "ck.jsonl"
    assert main(argv + ["--checkpoint", str(ck), "--out", str(tmp_path / "first.json")]) == 0
    data = ck.read_bytes()
    ck.write_bytes(data[: len(data) - 9])
    resumed = str(tmp_path / "resumed.json")
    assert main(argv + ["--checkpoint", str(ck), "--out", resumed]) == 0
    assert reports.body_bytes(load(resumed)) == reports.body_bytes(load(straight))
    # corruption before the last line is a configuration error naming the line
    lines = ck.read_text().splitlines(keepends=True)
    lines[5] = lines[5][:-9] + "\n"
    ck.write_text("".join(lines))
    capsys.readouterr()
    assert main(argv + ["--checkpoint", str(ck)]) == 3
    assert f"checkpoint {ck} line 6 is malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, mode, key, weight",
    [
        ("3,1,2", "exhaustive", [0], 2),
        ("3,1,2", "witness_span", [1, 1], 2),
        ("2,2,3", "witness_span", [1, 1], 3),
    ],
)
def test_q_above_two_witness_reports_recheck(tmp_path, field, mode, key, weight):
    out = str(tmp_path / "lc.json")
    rc = main([
        "verify-scattered", "--field", field, "--system", "line-control",
        "--ambient", "2", "--h", "1", "--mode", mode, "--out", out,
    ])
    assert rc == 1
    res = load(out)["result"]
    assert (res["status"], res["subspaces_checked"]) == ("violated", 1)
    assert (res["witness"]["tuple_index"], res["witness"]["weight"]) == (key, weight)
    assert main(["recheck", out]) == 0


PS2 = ["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2"]


@pytest.mark.parametrize(
    "extra, rc, status, checked",
    [
        (["--budget", "273"], 0, "holds", 273),
        (["--budget", "100", "--chunk-size", "50"], 2, "inconclusive", 100),
    ],
)
def test_a_budget_cuts_only_while_chunks_remain(tmp_path, extra, rc, status, checked):
    out = str(tmp_path / "b.json")
    assert main(PS2 + ["--mode", "exhaustive", *extra, "--out", out]) == rc
    res = load(out)["result"]
    assert (res["status"], res["subspaces_checked"]) == (status, checked)
    assert main(["recheck", out]) == 0


@pytest.mark.parametrize("argv", [PS2 + ["--mode", "exhaustive"], WEIGHTS_M2])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_config_error(capsys, argv, workers):
    assert main(argv + ["--workers", workers]) == 3
    assert "workers must be at least 1" in capsys.readouterr().err


def test_recheck_checks_exact_weights_against_the_dual_profile(tmp_path, capsys):
    # [6, 3]_8 = 1.56e8 subspaces stop the primal resweep of d_3; the dual's
    # full profile is 147 subspaces
    out = str(tmp_path / "w3.json")
    argv = ["weights", "--field", "2,1,3", "--system", "direct-sum", "--m", "3", "--h", "1"]
    assert main(argv + ["--out", out]) == 0
    assert main(["recheck", out]) == 0
    rep = load(out)
    (entry,) = [e for e in rep["result"]["profile"] if e["rho"] == 3]
    assert entry["value"] == 5
    entry["value"] = 4  # (2, 3, 4, 6, 8, 9) is still strictly increasing
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert "d_3 = 4 contradicts the dual profile, which gives 5" in capsys.readouterr().err


# Checkpoints as the previous release wrote them for PS2: the header pins the
# descriptor hash, and the one chunk line must be reused on resume.
EARLIER_CHECKPOINTS = {
    "exhaustive": (
        [],
        0,
        '{"chunk_size": 273, "desc_hash": "17bfeebe52fdb2bf", "schema": "rankscatter-checkpoint/1", "total_units": 273}\n'
        '{"best": {"key": [16], "weight": 2}, "checked": 273, "hi": 273, "lo": 0, "viol": null}\n',
    ),
    "witness_span": (
        [],
        0,
        '{"chunk_size": 30, "desc_hash": "04c8b098b8622d0b", "schema": "rankscatter-checkpoint/1", "total_units": 30}\n'
        '{"best": {"key": [2, 1, 2], "weight": 2}, "checked": 120, "hi": 30, "lo": 0, "viol": null}\n',
    ),
    "sampled": (
        ["--budget", "500", "--seed", "3"],
        2,
        '{"chunk_size": 500, "desc_hash": "b91a3604965105f6", "schema": "rankscatter-checkpoint/1", "total_units": 500}\n'
        '{"best": {"key": [12], "weight": 2}, "checked": 500, "hi": 500, "lo": 0, "viol": null}\n',
    ),
}

# The same sampled job as written before the counter-based sample stream: its
# chunks hold weights of other samples, so it must not be merged.
FIRST_STREAM_CHECKPOINT = (
    '{"chunk_size": 500, "desc_hash": "76cfe4e93daae696", "schema": "rankscatter-checkpoint/1", "total_units": 500}\n'
    '{"best": {"key": [12], "weight": 2}, "checked": 500, "hi": 500, "lo": 0, "viol": null}\n'
)


@pytest.mark.parametrize("mode", sorted(EARLIER_CHECKPOINTS))
def test_earlier_checkpoints_keep_their_identity_and_resume(tmp_path, monkeypatch, mode):
    from rankscatter import verify

    extra, rc, text = EARLIER_CHECKPOINTS[mode]
    argv = PS2 + ["--mode", mode, *extra]
    fresh, fresh_ck = str(tmp_path / "fresh.json"), tmp_path / "fresh.jsonl"
    assert main(argv + ["--checkpoint", str(fresh_ck), "--out", fresh]) == rc
    assert fresh_ck.read_text() == text

    def rerun(self, lo, hi):
        raise AssertionError(f"chunk [{lo}, {hi}) ran again")

    for cls in (verify.ExhaustiveSweep, verify.SpanSweep, verify.SampledSweep):
        monkeypatch.setattr(cls, "run_units", rerun)
    resumed, ck = str(tmp_path / "resumed.json"), tmp_path / "earlier.jsonl"
    ck.write_text(text)
    assert main(argv + ["--checkpoint", str(ck), "--out", resumed]) == rc
    assert reports.body_bytes(load(resumed)) == reports.body_bytes(load(fresh))
    assert ck.read_text() == text


def test_a_checkpoint_of_the_first_sample_stream_is_refused(tmp_path, capsys):
    extra, _, _ = EARLIER_CHECKPOINTS["sampled"]
    ck = tmp_path / "first-stream.jsonl"
    ck.write_text(FIRST_STREAM_CHECKPOINT)
    argv = PS2 + ["--mode", "sampled", *extra, "--checkpoint", str(ck)]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
    assert "does not match this job (desc_hash differs)" in capsys.readouterr().err
    assert ck.read_text() == FIRST_STREAM_CHECKPOINT


CONSTRUCT = ["construct", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2"]
COMPARE = ["compare", "--field", "2,1,6", "--system", "family", "--m", "3", "--h", "2", "--alphas", "2,1,1"]
SEARCH = ["search", "--field", "2,1,4", "--m", "2"]
OPTION_VALUES = {"--seed": "1", "--budget": "5", "--workers": "2", "--checkpoint": "x.ck", "--chunk-size": "2"}
UNREAD_OPTIONS = (
    [(CONSTRUCT, opt) for opt in OPTION_VALUES]
    + [(COMPARE, opt) for opt in OPTION_VALUES]
    + [(SEARCH, opt) for opt in ("--workers", "--checkpoint", "--chunk-size")]
    + [(WEIGHTS_M2, opt) for opt in ("--checkpoint", "--chunk-size")]
)


@pytest.mark.parametrize(
    "argv, option", UNREAD_OPTIONS, ids=[f"{argv[0]}{opt}" for argv, opt in UNREAD_OPTIONS]
)
def test_an_option_the_subcommand_never_reads_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, option):
    monkeypatch.chdir(tmp_path)
    assert main(argv + [option, OPTION_VALUES[option]]) == 4
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.ck").exists()


@pytest.mark.parametrize(
    "argv, workers",
    [(CONSTRUCT, False), (COMPARE, False), (SEARCH + ["--budget", "5", "--seed", "1"], False), (WEIGHTS_M2, True)],
    ids=["construct", "compare", "search", "weights"],
)
def test_timing_names_workers_only_where_the_option_exists(tmp_path, argv, workers):
    out = str(tmp_path / "r.json")
    assert main(argv + ["--out", out]) == 0
    assert ("workers" in load(out)["timing"]) is workers
    assert main(["recheck", out]) == 0


@pytest.mark.parametrize(
    "argv, option",
    [
        (CONSTRUCT, "--out"),
        (WEIGHTS_M2, "--csv"),
        (PS2 + ["--mode", "exhaustive"], "--checkpoint"),
    ],
    ids=["out", "csv", "checkpoint"],
)
def test_a_path_in_a_missing_directory_is_a_config_error(tmp_path, capsys, argv, option):
    path = str(tmp_path / "no-such-dir" / "file")
    assert main(argv + [option, path]) == 3
    assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (PS2 + ["--mode", "sampled", "--budget", "10"], "--out"),
        (WEIGHTS_M2, "--out"),
        (WEIGHTS_M2, "--csv"),
    ],
    ids=["verify-out", "weights-out", "weights-csv"],
)
def test_an_unwritable_output_path_is_refused_before_the_sweep(tmp_path, monkeypatch, capsys, argv, option):
    from rankscatter import verify

    def sweep(self, lo, hi):
        raise AssertionError("the sweep ran before the output path was checked")

    for cls in (verify.ExhaustiveSweep, verify.SampledSweep):
        monkeypatch.setattr(cls, "run_units", sweep)
    path = str(tmp_path / "no-such-dir" / "r.json")
    assert main(argv + [option, path]) == 3
    assert path in capsys.readouterr().err
    # a directory is not a file to write
    assert main(argv + [option, str(tmp_path)]) == 3
    assert str(tmp_path) in capsys.readouterr().err


def test_recheck_of_a_missing_file_is_a_config_error(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert main(["recheck", path]) == 3
    assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        ("{bad", "Expecting property name"),
        ('{"schema": "x"}', "unsupported report schema 'x'"),
        ("[1]", "a report is a JSON object, not list"),
    ],
    ids=["unparseable", "wrong-schema", "not-an-object"],
)
def test_recheck_of_a_corrupt_report_exits_one(tmp_path, capsys, text, problem):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["recheck", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt report: ") and problem in err


def test_compare_baseline_has_one_upper_bound_per_rho(tmp_path):
    out = str(tmp_path / "cmp4.json")
    assert main(["compare", "--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2",
                 "--alphas", "2,1,1,1", "--out", out]) == 0
    upper = [(e["rho"], e["value"]) for e in load(out)["result"]["baseline_profile"]
             if e["provenance"] == "upper_bound"]
    assert upper == [(4, 7), (5, 8), (6, 8), (7, 10), (8, 11)]
    assert main(["recheck", out]) == 0


def test_a_budgeted_sweep_of_a_huge_grassmannian_lists_no_chunks(tmp_path):
    # [12, 2]_16 = 1.29e24 planes: a list of its chunks cannot fit in 2 GB
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    out = str(tmp_path / "huge.json")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from rankscatter.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2",
            "--alphas", "2,1,1,1", "--mode", "exhaustive", "--budget", "1000", "--out", out]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    res = load(out)["result"]
    assert (res["status"], res["subspaces_checked"]) == ("inconclusive", 16_384)
    assert main(["recheck", out]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--rho", "10", "--force", "--alphas", "1,1,1,1"],
        ["verify-scattered", "--mode", "exhaustive", "--alphas", "2,1,1,1"],
    ],
    ids=["weights", "verify-exhaustive"],
)
def test_an_unbudgeted_exhaustive_sweep_above_the_cap_is_a_config_error(monkeypatch, capsys, argv):
    # [12, 2]_16 = 1.29e24 planes: refused before any sweep starts
    from rankscatter import verify
    from rankscatter.linalg import gaussian_binomial

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(verify, "run_sweep", no_sweep)
    family = ["--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2"]
    assert main(argv[:1] + family + argv[1:]) == 3
    err = capsys.readouterr().err
    size = gaussian_binomial(12, 2, 16)
    assert size > verify.EXHAUSTIVE_CAP
    assert f"all {size} 2-dimensional subspaces" in err and "--budget" in err and "sampled mode" in err
