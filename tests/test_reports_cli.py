"""Report schema, recheck, determinism, and the CLI surface."""

import copy
import json

import pytest

from rankscatter import reports
from rankscatter.cli import main


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
    problems, unchecked = reports.recheck_report(rep)
    assert (problems, unchecked) == ([], [])


def test_construct_over_a_large_subfield_tower(tmp_path):
    # F_4 inside F_{4^12}: a scan for it would visit all 2^24 elements
    out = str(tmp_path / "c.json")
    assert main(["construct", "--field", "2,2,12", "--system", "line-control", "--out", out]) == 0
    rep = load(out)
    assert rep["result"]["fq_dim"] == 12
    problems, unchecked = reports.recheck_report(rep)
    assert (problems, unchecked) == ([], [])


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

    # sample 9 of seed 3 is the line e_1, which meets U = F_16 e_1 in 4 > 1
    out = str(tmp_path / "s.json")
    argv = ["verify-evasive", "--field", "2,1,4", "--system", "line-control", "--hdim", "1", "--r", "1",
            "--mode", "sampled", "--budget", "500", "--seed", "3"]
    assert main(argv + ["--out", out]) == 1
    rep = load(out)
    assert rep["result"]["witness"]["tuple_index"] == [9]
    # a missed witness: the report claims its whole budget found none
    rep["result"].update(status="inconclusive", witness=None, subspaces_checked=500)
    rep["counts"]["subspaces_checked"] = 500
    with open(out, "w") as f:
        json.dump(rep, f)

    def batch_rank(rows):
        raise AssertionError("recheck ran the batch kernel")

    monkeypatch.setattr(bitkernel, "batch_rank", batch_rank)
    capsys.readouterr()
    assert main(["recheck", out]) == 1
    assert capsys.readouterr().err == "corrupt report: sample 9 violates the bound but the report found no witness\n"


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
    assert (res["status"], res["subspaces_checked"], res["backend"]) == ("holds", checked, "gf3")

    def refuse(*args):
        raise AssertionError("recheck ran a batched kernel")

    for name in ("gf3_rank", "fp_rank"):
        monkeypatch.setattr(bitkernel, name, refuse)
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

    # q = 3 within 64 trits runs gf3 since it was added
    for name in (kernel, "gf3_rank"):
        monkeypatch.setattr(bitkernel, name, refuse)
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
        (["verify-scattered", "--field", "5,1,2", "--system", "line-control",
          "--mode", "witness_span"], "fp"),
        (["verify-scattered", "--field", "3,1,2", "--system", "line-control",
          "--mode", "witness_span"], "gf3"),
        (["verify-scattered", "--field", "2,2,3", "--system", "line-control",
          "--mode", "exhaustive"], "scalar"),
        (["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "2",
          "--alphas", "2,1,1", "--force", "--mode", "sampled", "--budget", "50"], "gf2"),
        (["verify-evasive", "--field", "3,1,3", "--system", "pseudoregulus", "--h", "2",
          "--hdim", "1", "--r", "3", "--mode", "exhaustive"], None),
    ],
    ids=["gf2", "fp", "gf3", "scalar", "gf2-sampled", "vacuous"],
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
    assert "result.backend does not reproduce" in capsys.readouterr().err
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


# parameters the library rejects: h, m and ambient out of range, multipliers
# outside 1..Q-1 (negative ones included) and census sizes below 1
REJECTED = [
    ["construct", "--system", "pseudoregulus", "--h", "4"],
    ["verify-scattered", "--system", "pseudoregulus", "--h", "7"],
    ["weights", "--system", "pseudoregulus", "--h", "9"],
    ["construct", "--system", "direct-sum", "--m", "2", "--h", "5"],
    ["construct", "--system", "line-control", "--ambient", "1"],
    ["construct", "--system", "family", "--m", "4", "--h", "2", "--alphas", "17,1,1,1"],
    ["construct", "--system", "family", "--m", "4", "--h", "2", "--alphas", "16,1,1,1"],
    ["construct", "--system", "family", "--m", "4", "--h", "2", "--alphas=-3,1,1,1"],
    ["search", "--m", "0"],
    ["search", "--m", "-1"],
    ["search", "--m", "2", "--budget", "-5"],
    ["search", "--m", "2", "--budget", "0"],
    # sampled mode without a budget, where no sweep would run: r >= t, and d_k
    ["verify-evasive", "--system", "pseudoregulus", "--h", "2", "--hdim", "1", "--r", "4", "--mode", "sampled"],
    ["weights", "--system", "pseudoregulus", "--h", "2", "--mode", "sampled", "--rho", "3"],
    ["weights", "--system", "pseudoregulus", "--h", "2", "--mode", "sampled", "--rho", ","],
]


def test_config_and_usage_errors(tmp_path, capsys):
    assert main(["construct", "--field", "9,1,2", "--system", "pseudoregulus", "--h", "1"]) == 3
    assert main(["construct", "--field", "2,1", "--system", "pseudoregulus", "--h", "1"]) == 3
    assert main(["verify-scattered", "--field", "2,1,4", "--system", "family",
                 "--m", "4", "--h", "9", "--alphas", "2,1,1,1"]) == 3
    capsys.readouterr()
    out = tmp_path / "r.json"
    for argv in REJECTED:
        assert main(argv[:1] + ["--field", "2,1,4", "--out", str(out)] + argv[1:]) == 3, argv
        err = capsys.readouterr().err
        assert "configuration error: " in err and "Traceback" not in err, argv
        assert not out.exists(), argv
    # a witness-span table past SPAN_TABLE_CAP, a full census past CENSUS_FULL_CAP
    assert main(["verify-scattered", "--field", "2,1,21", "--system", "line-control",
                 "--mode", "witness_span"]) == 3
    assert "exceeds the cap; use sampled mode" in capsys.readouterr().err
    assert main(["search", "--field", "2,1,8", "--m", "3"]) == 3
    assert "full scan of 16581375 tuples exceeds cap" in capsys.readouterr().err
    assert main(["not-a-command"]) == 4
    assert main(["verify-evasive", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "1"]) == 4


# configuration errors of the command line itself: a system missing the
# options it is built from, compare on another system, a list that is not
# of integers, and a packed modulus outside [p^sn, p^(sn+1))
CLI_CONFIG_ERRORS = [
    (["construct", "--system", "family", "--h", "2", "--alphas", "1,1,1,1"], "family system needs --m, --h and --alphas"),
    (["construct", "--system", "family", "--m", "4", "--alphas", "1,1,1,1"], "family system needs --m, --h and --alphas"),
    (["construct", "--system", "family", "--m", "4", "--h", "2"], "family system needs --m, --h and --alphas"),
    (["construct", "--system", "pseudoregulus"], "pseudoregulus needs --h"),
    (["construct", "--system", "direct-sum", "--h", "1"], "direct-sum baseline needs --m and --h"),
    (["construct", "--system", "direct-sum", "--m", "2"], "direct-sum baseline needs --m and --h"),
    (["compare", "--system", "pseudoregulus", "--h", "1"], "compare applies to the family system"),
    (["construct", "--system", "family", "--m", "4", "--h", "2", "--alphas", "1,x,1,1"],
     "expected comma-separated integers, got '1,x,1,1'"),
    *((["construct", f"--field=2,1,4,{v}", "--system", "pseudoregulus", "--h", "1"], "modulus degree must be 4")
      for v in (51, 83, -1, -13)),
]


@pytest.mark.parametrize("argv, message", CLI_CONFIG_ERRORS)
def test_cli_configuration_errors_exit_3_with_their_message(tmp_path, capsys, argv, message):
    field = [] if any(a.startswith("--field") for a in argv) else ["--field", "2,1,4"]
    out = tmp_path / "r.json"
    assert main(argv[:1] + field + ["--out", str(out)] + argv[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and "Traceback" not in err
    assert not out.exists()


def test_a_packed_modulus_in_range_builds_its_field(tmp_path):
    out = tmp_path / "r.json"
    assert main(["construct", "--field", "2,1,4,19", "--system", "pseudoregulus", "--h", "1", "--out", str(out)]) == 0
    assert load(out)["field"]["modulus"] == [1, 1, 0, 0, 1]


@pytest.mark.usefixtures("pool_at_once")
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
# 2^64 elements, and weights on one and two workers.  The "fp-" cases of
# q = 3 within 64 trits run gf3 since it was added, and were re-pinned for
# that backend name alone (FP_ERA_BODIES)
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
        0, "b837ab2578ee5966e507caa21910a0db7b0bfae02a71831b89656378ad3b01ee",
    ),
    "fp-span-F27": (
        ["verify-scattered", "--field", "3,1,3", "--system", "family", "--m", "3", "--h", "1",
         "--alphas", "1,1,3", "--mode", "witness_span"],
        0, "a7af01e7f35456f37120f52c5bc54c0c61a29460a3da046d5007e52c46db3f23",
    ),
    "fp-span-F27-pairs": (
        ["verify-scattered", "--field", "3,1,3", "--system", "pseudoregulus", "--h", "2", "--mode", "witness_span"],
        0, "7e75ff972956c61f893117df42ba191bbe42e7ef7e34f8fd3085e216ae853a5e",
    ),
    "fp-span-F27-violated": (
        ["verify-evasive", "--field", "3,1,3", "--system", "family", "--m", "3", "--h", "1",
         "--alphas", "1,1,1", "--force", "--hdim", "2", "--r", "3", "--mode", "witness_span"],
        1, "81a4b0d0cbf6860ce312fa062ad24162107b036aa58dcf4f6ad095c6f37f0a6c",
    ),
    "fp-sampled-F729": (
        ["verify-scattered", "--field", "3,1,6", "--system", "family", "--m", "3", "--h", "2",
         "--alphas", "1,1,3", "--mode", "sampled", "--budget", "300", "--seed", "2"],
        2, "4d5bf404c92dbebbb506b63568179872eb53e20d28669dd08a280938c1b893d9",
    ),
    "fp-exhaustive-F9-violated": (
        ["verify-scattered", "--field", "3,1,2", "--system", "line-control", "--ambient", "3", "--h", "2",
         "--mode", "exhaustive"],
        1, "e654a7510dc0b4ada3f7d5c09dc9e07c1c9f39fba53588e2b34fe4e4e1eb8cb6",
    ),
    "fp-sampled-F9-violated": (
        ["verify-scattered", "--field", "3,1,2", "--system", "line-control", "--mode", "sampled",
         "--budget", "100", "--seed", "1"],
        1, "09468cee294ecf1035b7fac0b06f8a5411258748d1ec01e7789635e67239513c",
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
    # censuses over the log tables, pinned when each tuple was tested on its
    # own: sampled across many blocks, sampled with --check-b over the largest
    # table field, and exhaustive
    "census-F81-sampled": (
        ["search", "--field", "3,1,4", "--m", "4", "--budget", "50000", "--seed", "1001"],
        0, "cf38c816acc8fc40d365e87a3cf3a4e4a6dac354f01683aa38327505efaccbd1",
    ),
    "census-F2^20-strong": (
        ["search", "--field", "2,1,20", "--m", "2", "--budget", "70000", "--seed", "4", "--check-b"],
        0, "503a639b97e62465755114b3698f97f0aa05c66aa823c01341ef9ec015c48464",
    ),
    "census-F64-exhaustive": (
        ["search", "--field", "2,1,6", "--m", "3"],
        0, "e5e7e5a55effdab767824f8970d3af4a1109d06a461d857aa28fccbf774ce9d6",
    ),
}

# the digests of those q = 3 cases as the fp backend wrote them
FP_ERA_BODIES = {
    "fp-exhaustive-F81": "5d248cd42938e918279a14e0ca7dfadc42ee4e1891c1277f88edfd512bd898ab",
    "fp-span-F27": "09c5422d5ffdb5bf1a9f1c73379133845a5d9088120d5dea492805fe72fa712b",
    "fp-span-F27-pairs": "ea43ca327c3d6a8ebd1f49a51476c733dc41ed5efa346a79905737575ca52bc3",
    "fp-span-F27-violated": "2e46bde220d6701ac64457a2dcbc7de81ac0085c74df95c4a32c9c630308f32d",
    "fp-sampled-F729": "a715f176fe6e94f5cf0142d0a537bc9bc66816961a90d2c730d0c43ddd620819",
    "fp-exhaustive-F9-violated": "81f3db722494af0b7e8accf07a15d614c3e3e1716beb4346fae033d2bf689c7f",
    "fp-sampled-F9-violated": "417e7d50d9012013d3e0c6f732d34aa56806bf8261df4d048bac111e9e4aa3d2",
}


@pytest.mark.usefixtures("pool_at_once")
@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_report_bodies_match_their_pinned_digests(tmp_path, name):
    import hashlib

    argv, rc, digest = PINNED_BODIES[name]
    out = str(tmp_path / "r.json")
    assert main(argv + ["--out", out]) == rc
    assert hashlib.sha256(reports.body_bytes(load(out))).hexdigest() == digest
    assert main(["recheck", out]) == 0
    if name in FP_ERA_BODIES:
        # the body differs from the one fp wrote only in its backend name,
        # and that body, as a report written before gf3, still rechecks
        rep = load(out)
        assert rep["result"]["backend"] == "gf3"
        rep["result"]["backend"] = "fp"
        assert hashlib.sha256(reports.body_bytes(rep)).hexdigest() == FP_ERA_BODIES[name]
        with open(out, "w") as f:
            json.dump(rep, f)
        assert main(["recheck", out]) == 0


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
        (("result", "route"), "primal", "result.route does not reproduce"),
        (("result", "route"), "sideways", "result.route does not reproduce"),
        (("result", "k"), 5, "result.k does not reproduce"),
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


# One report per kind that the tamper test edits, written once per module.
TAMPER_SOURCES = {
    "construct": ["construct", *C2],
    "compare": ["compare", "--field", "2,1,6", "--system", "family", "--m", "3", "--h", "2", "--alphas", "2,1,1"],
    "census": ["search", "--field", "2,1,4", "--m", "2", "--check-b"],
    "census-sampled": ["search", "--field", "2,1,6", "--m", "3", "--budget", "50", "--seed", "5", "--check-b"],
    "span-violated": ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--mode", "witness_span"],
    "exhaustive-violated": ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--mode", "exhaustive"],
    "sampled-violated": ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--mode", "sampled",
                         "--budget", "500", "--seed", "3"],
    "family-violated": ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "2",
                        "--alphas", "1,1,1", "--force", "--mode", "witness_span"],
    "exhaustive-holds": ["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2",
                         "--mode", "exhaustive"],
    "exhaustive-budget": ["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2",
                          "--mode", "exhaustive", "--budget", "1", "--chunk-size", "10"],
    # cut after 75 of its 120 subspaces
    "span-budget": ["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2",
                    "--mode", "witness_span", "--budget", "50", "--chunk-size", "10"],
    # violated at plane 1 of [5, 2]_16 = 17,965,585, too many to sweep again
    "exhaustive-large": ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--ambient", "5",
                         "--h", "2", "--mode", "exhaustive"],
    "evasive-violated": ["verify-evasive", "--field", "2,1,4", "--system", "line-control", "--ambient", "3",
                         "--hdim", "1", "--r", "3", "--mode", "exhaustive"],
    "vacuous-sampled": ["verify-evasive", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2",
                        "--hdim", "1", "--r", "4", "--mode", "sampled", "--budget", "10"],
    "sampled-inconclusive": ["verify-scattered", "--field", "2,1,4", "--system", "pseudoregulus", "--h", "2",
                             "--mode", "sampled", "--budget", "64", "--seed", "3"],
    "weights": WEIGHTS_M2,
    "weights-sampled": WEIGHTS_M2 + ["--mode", "sampled", "--budget", "16"],
    "weights-sampled-long": WEIGHTS_M2 + ["--mode", "sampled", "--budget", "200"],
    "weights-primal": ["weights", "--field", "2,1,3", "--system", "pseudoregulus", "--h", "2"],
    # a Grassmannian past one chunk of 16,384 subspaces, so the budget of 1 is
    # rounded up to a chunk and leaves upper bounds
    "weights-budget": ["weights", "--field", "2,1,16", "--system", "pseudoregulus", "--h", "2",
                       "--budget", "1", "--rho", "1,3"],
}

F16_ZERO, F16_ONE = [0, 0, 0, 0], [1, 0, 0, 0]
# the profiles of the "weights" report (dual route) and the "weights-sampled" one
WEIGHTS_M2_PROFILE = [{"rho": rho, "value": value, "provenance": "exact", "subspaces_checked": 0}
                      for rho, value in [(1, 2), (2, 3), (3, 5), (4, 6)]]
SAMPLED_M2_PROFILE = [{"rho": rho, "value": value, "provenance": "upper_bound", "subspaces_checked": 16}
                      for rho, value in [(1, 2), (2, 3), (3, 5)]]
SAMPLED_M2_PROFILE.append({"rho": 4, "value": 6, "provenance": "exact", "subspaces_checked": 1})
# a vector of the F_16, m = 3, h = 2 family outside the witness subspace of its report
FAMILY_U_VECTOR = [F16_ONE, F16_ZERO, F16_ZERO, F16_ONE, F16_ZERO, F16_ZERO, F16_ONE, F16_ZERO, F16_ONE]

# (source, {dotted path: new value}, what the refusal names)
TAMPERS = (
    [("construct", {f"result.{key}": value}, f"result.{key} does not reproduce") for key, value in [
        ("tag", "pseudoregulus"), ("ambient", 13), ("fq_dim", 17), ("spans_ambient", False),
        ("canonical_generators", None), ("admissible", False), ("strongly_admissible", False),
        ("feasible", False), ("note", "added"),
    ]]
    + [("construct", {"counts.fq_dim": 17}, "counts.fq_dim does not reproduce")]
    + [("compare", {f"result.{key}": value}, f"result.{key} does not reproduce") for key, value in [
        ("indices", []), ("admissible", False), ("strongly_admissible", False), ("baseline_profile", []),
    ]]
    + [("compare", {"counts.indices": 3}, "counts.indices does not reproduce")]
    + [("census", {f"result.{key}": value}, f"result.{key} does not reproduce") for key, value in [
        ("tuples_checked", 224), ("admissible", 7), ("exhaustive", False), ("feasible", False),
        ("examples", []), ("strongly_admissible", 149),
    ]]
    + [
        ("census", {"result.admissible": 151}, "not the closed form (Q-1)^m (g-1)/g = 150"),
        ("census", {"counts.tuples_checked": 224}, "counts.tuples_checked does not reproduce"),
        ("census-sampled", {"result.seed": 6}, "result.seed does not reproduce"),
        ("census-sampled", {"result.admissible": 7}, "result.admissible does not reproduce"),
    ]
    + [(source, {f"result.{key}": value}, f"result.{key} does not reproduce") for source, mode in [
        ("span-violated", "exhaustive"), ("exhaustive-holds", "witness_span"), ("sampled-inconclusive", "exhaustive"),
    ] for key, value in [("bound", 5), ("dim", 5), ("mode", mode), ("seed", 7)]]
    + [(source, edits, problem) for source in ("span-violated", "exhaustive-holds", "sampled-inconclusive")
       for edits, problem in [
           ({"result.status": "x"}, "result.status does not reproduce"),
           ({"counts.subspaces_checked": 9}, "counts.subspaces_checked does not reproduce"),
    ]]
    + [
        ("exhaustive-holds", {"result.witness": {"weight": 3}}, "result.witness does not reproduce"),
        ("sampled-inconclusive", {"result.subspaces_checked": 63, "counts.subspaces_checked": 63},
         "result.subspaces_checked is 63, but the sampled sweep of this config checks 64"),
        ("weights", {"counts.entries": 3}, "counts.entries does not reproduce"),
        # the refusals of recheck itself
        ("construct", {"field.p": 4}, "field descriptor invalid: p must be prime"),
        ("construct", {"command": "frobnicate"}, "unknown command 'frobnicate'"),
        ("construct", {"config.system.kind": "bogus"}, "recheck raised: unknown system kind 'bogus'"),
        ("exhaustive-holds", {"result.status": "violated"}, "result.status does not reproduce"),
        ("exhaustive-holds", {"result.status": "violated", "result.span_defect": {"reason": "x", "span_dim": 2}},
         "result.span_defect does not reproduce"),
        ("evasive-violated", {"result.witness": None, "result.span_defect": {"reason": "x", "span_dim": 1}},
         "result.span_defect does not reproduce"),
        # a defect beside a witness: the defect is read only without one
        ("span-violated", {"result.span_defect": {"reason": "x", "span_dim": 1}},
         "result.span_defect does not reproduce"),
        ("exhaustive-large", {"result.status": "holds", "result.witness": None, "result.subspaces_checked": 5,
                              "counts.subspaces_checked": 5},
         "result.subspaces_checked is 5, but the exhaustive sweep of this config checks 17965585"),
        # a budget of 1 runs one chunk of 10 planes
        ("exhaustive-budget", {"result.subspaces_checked": 7, "counts.subspaces_checked": 7},
         "result.subspaces_checked is 7, but the exhaustive sweep of this config checks 10"),
        # an index sweep stops at its witness, plane 0
        ("exhaustive-violated", {"result.subspaces_checked": 9, "counts.subspaces_checked": 9},
         "result.subspaces_checked is 9, but the exhaustive sweep of this config checks 1"),
        # a mode no sweep has, also where the verdict needs no sweep
        ("sampled-inconclusive", {"config.mode": "bogus", "result.mode": "bogus", "result.seed": None},
         "unknown mode 'bogus'"),
        ("vacuous-sampled", {"config.mode": "bogus", "result.mode": "bogus", "result.seed": None},
         "unknown mode 'bogus'"),
        ("span-violated", {"result.witness.H_basis": [[F16_ZERO, F16_ONE]], "result.witness.weight": 0,
                           "result.witness.intersection_basis": []},
         "result.witness does not reproduce"),
        ("span-violated", {"result.witness.H_basis": [[F16_ONE, F16_ZERO], [F16_ZERO, F16_ONE]]},
         "result.witness does not reproduce"),
        ("sampled-inconclusive", {"result.status": "holds"}, "result.status does not reproduce"),
        ("vacuous-sampled", {"result.subspaces_checked": 5, "counts.subspaces_checked": 5},
         "result.subspaces_checked does not reproduce"),
        ("vacuous-sampled", {"result.status": "inconclusive"}, "result.status does not reproduce"),
        ("span-violated", {"result.witness.intersection_basis.0": [F16_ZERO, F16_ONE]},
         "intersection vector lies outside the subspace"),
        ("family-violated", {"result.witness.intersection_basis.0": FAMILY_U_VECTOR},
         "intersection vector lies outside the witness subspace"),
        ("span-violated", {"result.witness.intersection_basis.1": [F16_ONE, F16_ZERO]},
         "intersection basis rows are dependent"),
        ("weights", {"result.t": 7}, "result.t does not reproduce"),
        ("weights", {"counts.subspaces_swept": 11}, "counts.subspaces_swept does not reproduce"),
        ("weights", {"result.profile.0.subspaces_checked": 5}, "result.profile does not reproduce"),
        ("weights", {"result.profile.0.provenance": "upper_bound"}, "result.profile does not reproduce"),
        ("weights-sampled", {"counts.subspaces_swept": 48}, "counts.subspaces_swept does not reproduce"),
        ("weights-sampled", {"result.profile.1.subspaces_checked": 15}, "result.profile does not reproduce"),
        ("weights-sampled", {"result.profile.3.subspaces_checked": 2}, "result.profile does not reproduce"),
        ("weights-sampled", {"result.profile.0.provenance": "exact"}, "result.profile does not reproduce"),
        ("weights-budget", {"result.profile.0.subspaces_checked": 1}, "result.profile does not reproduce"),
        ("weights-budget", {"counts.subspaces_swept": 16384}, "counts.subspaces_swept does not reproduce"),
        # profiles the producer never writes for the config: another rho list,
        # an entry dropped or repeated with the counts to match, another mode
        ("weights", {"config.rho": [1]}, "result.profile does not reproduce"),
        ("weights", {"result.profile": WEIGHTS_M2_PROFILE[1:], "counts.entries": 3},
         "result.profile does not reproduce"),
        ("weights", {"result.profile": WEIGHTS_M2_PROFILE[:1] + WEIGHTS_M2_PROFILE, "counts.entries": 5},
         "result.profile does not reproduce"),
        ("weights-sampled", {"result.profile": SAMPLED_M2_PROFILE[1:], "counts.entries": 3,
                             "counts.subspaces_swept": 33}, "result.profile does not reproduce"),
        ("weights-sampled", {"result.profile": SAMPLED_M2_PROFILE[:1] + SAMPLED_M2_PROFILE, "counts.entries": 5,
                             "counts.subspaces_swept": 65}, "result.profile does not reproduce"),
        ("weights-primal", {"config.mode": "bogus"}, "exhaustive or sampled mode, not 'bogus'"),
        # sampled entries against their whole budget, replayed on the oracle
        ("weights-sampled", {"result.profile.1.value": 2}, "d_2 = 2, but its samples on the oracle give 3"),
        ("weights-sampled", {"result.profile.0.value": 4}, "d_1 = 4, but its samples on the oracle give 2"),
        ("weights-sampled-long", {"result.profile.0.value": 4}, "d_1 = 4, but its samples on the oracle give 2"),
        ("weights-sampled-long",
         {"result.profile.0": {**SAMPLED_M2_PROFILE[0], "value": 1, "subspaces_checked": 200}},
         "d_1 = 1, but its samples on the oracle give 2"),
        # the witness must be the unit its tuple_index names, found in the
        # report's own mode and against its own bound
        ("span-violated", {"result.witness.bound": 0}, "result.witness does not reproduce"),
        ("span-violated", {"result.witness.mode": "sampled"}, "result.witness does not reproduce"),
        ("span-violated", {"result.witness.tuple_index": [9, 9]}, "names no unit of the witness_span sweep"),
        ("family-violated", {"result.witness.tuple_index": [2, 273, 547]}, "result.witness does not reproduce"),
        # line 1 misses U: the rebuilt witness is weighed by the oracle
        ("exhaustive-violated", {"result.witness.tuple_index": [1]}, "witness weight 0 does not exceed the bound 1"),
        ("exhaustive-violated", {"result.witness.tuple_index": [17]}, "names no unit of the exhaustive sweep"),
        # a question the verifiers refuse, (1, 0)-evasiveness: r < hdim
        ("evasive-violated", {"config.r": 0, "result.bound": 0, "result.witness.bound": 0},
         "recheck raised: need 0 < dim < 3 and bound >= dim, got dim 1 and bound 0"),
        ("sampled-violated", {"result.witness.tuple_index": [8]}, "result.witness does not reproduce"),
        ("sampled-violated", {"result.witness.tuple_index": [500]}, "names no unit of the sampled sweep"),
        ("weights", {"result.profile.0.rho": 9}, "result.profile does not reproduce"),
        # a proof whose budget cuts the run before its last chunk
        ("exhaustive-budget", {"result.status": "holds", "result.subspaces_checked": 273,
                               "counts.subspaces_checked": 273}, "the oracle stops at the budget"),
        ("span-budget", {"result.status": "holds", "result.subspaces_checked": 120, "counts.subspaces_checked": 120},
         "the oracle stops at the budget"),
    ]
)


@pytest.fixture(scope="module")
def tamper_sources(tmp_path_factory):
    folder = tmp_path_factory.mktemp("tamper")
    sources = {}
    for name, argv in TAMPER_SOURCES.items():
        path = str(folder / f"{name}.json")
        main(argv + ["--out", path])
        assert main(["recheck", path]) == 0, name
        sources[name] = load(path)
    return sources


@pytest.mark.parametrize(
    "source, edits, problem", TAMPERS, ids=[f"{src}:{','.join(edits)}" for src, edits, _ in TAMPERS]
)
def test_recheck_refuses_every_tampered_field(tmp_path, capsys, tamper_sources, source, edits, problem):
    rep = copy.deepcopy(tamper_sources[source])
    for path, value in edits.items():
        *parents, leaf = [int(part) if part.isdigit() else part for part in path.split(".")]
        node = rep
        for part in parents:
            node = node[part]
        node[leaf] = value
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(rep))
    capsys.readouterr()
    assert main(["recheck", str(out)]) == 1
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("source", ["weights", "weights-sampled"])
def test_a_weights_report_missing_an_entry_fails_reproduction(tmp_path, capsys, tamper_sources, source):
    rep = copy.deepcopy(tamper_sources[source])
    del rep["result"]["profile"][-1]
    rep["counts"]["entries"] = 3
    out = tmp_path / "missing.json"
    out.write_text(json.dumps(rep))
    capsys.readouterr()
    assert main(["recheck", str(out)]) == 1
    err = capsys.readouterr().err
    assert "corrupt report: result.profile does not reproduce\n" in err and "recheck raised" not in err


def test_a_sampled_budget_past_the_cap_bounds_its_entries_from_above(tmp_path, capsys, monkeypatch, tamper_sources):
    # 3 entries of 200 samples pass a cap of 500: only the first 50 of each
    # are replayed, which bound d_1 = 2 from above but not from below
    monkeypatch.setattr(reports, "RECHECK_SWEEP_CAP", 500)
    out = tmp_path / "long.json"
    rep = copy.deepcopy(tamper_sources["weights-sampled-long"])
    for value, rc in [(2, 0), (1, 0), (4, 1)]:
        rep["result"]["profile"][0]["value"] = value
        out.write_text(json.dumps(rep))
        capsys.readouterr()
        assert main(["recheck", str(out)]) == rc, value
    assert "d_1 = 4, but its first samples on the oracle give at most 2" in capsys.readouterr().err


def test_weights_exit_inconclusive_unless_every_entry_is_exact(tmp_path):
    # a budget of 10 runs one chunk of the 1,118,481 hyperplanes: an upper bound
    out = str(tmp_path / "w.json")
    argv = ["weights", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "1", "--alphas", "1,1,2",
            "--rho", "1", "--force", "--budget", "10"]
    assert main(argv + ["--out", out]) == 2
    (entry,) = load(out)["result"]["profile"]
    assert (entry["provenance"], entry["subspaces_checked"]) == ("upper_bound", 16_384)
    assert main(["recheck", out]) == 0
    # sampled mode with only the zero space of rho = k is exact
    assert main(WEIGHTS_M2 + ["--mode", "sampled", "--budget", "5", "--rho", "4", "--out", out]) == 0
    assert main(["recheck", out]) == 0


@pytest.mark.parametrize("argv", [
    ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--ambient", "3", "--h", "2",
     "--mode", "witness_span"],
    ["verify-evasive", "--field", "2,1,4", "--system", "line-control", "--ambient", "3", "--hdim", "2",
     "--r", "3", "--mode", "witness_span"],
])
def test_recheck_accepts_a_witness_of_smaller_dimension(tmp_path, argv):
    # every vector of U spans a line meeting U in dimension 4, so the sweep
    # stops at a 1-dimensional witness; any plane through it exceeds the bound too
    out = str(tmp_path / "report.json")
    assert main(argv + ["--out", out]) == 1
    res = load(out)["result"]
    assert res["status"] == "violated" and res["dim"] == 2
    assert len(res["witness"]["H_basis"]) == 1
    assert main(["recheck", out]) == 0


def test_census_without_log_tables_tests_each_tuple(tmp_path, monkeypatch):
    # F_{2^21} has no log tables, so the census calls tuple_admissible per tuple
    from rankscatter import construction

    seen = []

    def record(tower, m, tup):
        seen.append(admissible(tower, m, tup))
        return seen[-1]

    admissible = construction.tuple_admissible
    monkeypatch.setattr(construction, "tuple_admissible", record)
    out = str(tmp_path / "census.json")
    assert main(["search", "--field", "2,1,21", "--m", "3", "--budget", "50", "--out", out]) == 0
    res = load(out)["result"]
    assert (res["tuples_checked"], res["admissible"]) == (50, sum(seen)) and len(seen) == 50
    assert 0 < sum(seen) < 50


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


def test_a_vacuous_sampled_evasive_report_rechecks(tmp_path):
    # r >= t = 4: no line meets U in more than 4, so the question holds in
    # every mode without a sweep
    out = str(tmp_path / "v.json")
    assert main(TAMPER_SOURCES["vacuous-sampled"] + ["--out", out]) == 0
    res = load(out)["result"]
    assert (res["status"], res["subspaces_checked"], res["witness"], res["backend"], res["seed"]) == (
        "holds", 0, None, None, 0)
    assert main(["recheck", out]) == 0


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


def test_checkpoint_resume_via_cli_is_byte_identical(tmp_path, killed_after):
    """An interrupted-then-resumed sweep reports exactly like a straight run."""
    from rankscatter.construction import pseudoregulus_subspace
    from rankscatter.field import create_field
    from rankscatter.runner import run_sweep
    from rankscatter.verify import SampledSweep, plan

    F16 = create_field(2, 1, 4)
    ps = pseudoregulus_subspace(F16, 2)
    sweep = SampledSweep(ps, plan(ps, 2, 2, "sampled", 300, 21))
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
    ck = tmp_path / "ck.jsonl"
    with killed_after(SampledSweep, 150):
        run_sweep(sweep, desc, 32, checkpoint=str(ck))
    assert len(ck.read_text().splitlines()) == 1 + 5  # of 10 chunks
    resumed = run_sweep(sweep, desc, 32, checkpoint=str(ck))
    assert resumed.completed
    assert (straight.checked, straight.viol, straight.best) == (
        resumed.checked,
        resumed.viol,
        resumed.best,
    )


@pytest.mark.usefixtures("pool_at_once")
@pytest.mark.parametrize(
    "name, chunk, kill", [("gf2-exhaustive-holds", 30, 120), ("fp-exhaustive-F9-violated", 10, 30)]
)
def test_annihilator_sweeps_report_alike_across_workers_and_resumes(
    tmp_path, monkeypatch, killed_after, name, chunk, kill
):
    # both sweeps rank annihilator rows: one worker, two, a resume from a
    # checkpoint written partway and a run forced onto value rows write the
    # same body
    from rankscatter import verify

    shapes = []
    build = verify._build_sweep

    def record(system, p):
        sweep, desc = build(system, p)
        shapes.append(sweep.shape)
        return sweep, desc

    monkeypatch.setattr(verify, "_build_sweep", record)
    argv = PINNED_BODIES[name][0] + ["--chunk-size", str(chunk)]

    def body(*extra):
        out = str(tmp_path / "r.json")
        assert main(argv + list(extra) + ["--out", out]) == PINNED_BODIES[name][1]
        return reports.body_bytes(load(out))

    bodies = [body(), body("--workers", "2")]
    ck = tmp_path / "ck.jsonl"
    with killed_after(verify.ExhaustiveSweep, kill):
        main(argv + ["--checkpoint", str(ck), "--out", str(tmp_path / "killed.json")])
    assert len(ck.read_text().splitlines()) == 1 + kill // chunk
    bodies.append(body("--checkpoint", str(ck)))
    assert set(shapes) == {"annihilator"}
    shapes.clear()
    for kern in verify._KERNELS.values():
        monkeypatch.setattr(kern, "cost", staticmethod(lambda rows, width: 0))
    bodies.append(body())
    assert set(shapes) == {"value"}
    assert bodies[1:] == bodies[:-1]

C2_SPAN = ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2",
           "--alphas", "1,1,1,1", "--mode", "witness_span"]


@pytest.mark.usefixtures("pool_at_once")
def test_witness_span_reports_alike_across_workers_and_resumes(tmp_path, monkeypatch, killed_after):
    # C2 with tuple (1,1,1,1), violated in chunk 137 of 512 units: one,
    # two and three workers, and two workers resuming a checkpoint written
    # partway, reach the same outcome and write the same body
    from rankscatter import runner, verify

    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    outcomes = []
    run_sweep = verify.run_sweep

    def record(*args, **kwargs):
        outcomes.append(run_sweep(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(verify, "run_sweep", record)

    def body(*extra):
        out = str(tmp_path / "r.json")
        assert main(C2_SPAN + list(extra) + ["--out", out]) == 1
        return reports.body_bytes(load(out))

    bodies = [body("--workers", w) for w in ("1", "2", "3")]
    ck = tmp_path / "ck.jsonl"
    with killed_after(verify.SpanSweep, 80 * 512):
        main(C2_SPAN + ["--checkpoint", str(ck), "--out", str(tmp_path / "killed.json")])
    assert len(ck.read_text().splitlines()) == 1 + 80
    bodies.append(body("--workers", "2", "--checkpoint", str(ck)))
    assert outcomes[0].checked == 276_784_888 and outcomes[0].viol["key"] == [2, 4369, 8738]
    assert outcomes[1:] == outcomes[:-1] and len(outcomes) == 4
    assert bodies[1:] == bodies[:-1]


def test_a_short_two_worker_proof_runs_in_process(tmp_path, started):
    # the C2 proof ends long before a pool would pay off: two workers
    # start no process and write the body of one
    bodies = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"w{workers}.json")
        assert main(C2_SPAN + ["--workers", workers, "--out", out]) == 1
        bodies.append(reports.body_bytes(load(out)))
    assert started == [] and bodies[0] == bodies[1]


@pytest.mark.usefixtures("pool_at_once")
def test_a_dead_worker_is_exit_5_and_a_rerun_resumes(tmp_path, monkeypatch, capsys):
    import os
    import signal

    from rankscatter import runner, verify

    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1})
    straight = str(tmp_path / "straight.json")
    assert main(C2_SPAN + ["--out", straight]) == 1
    parent, run_units = os.getpid(), verify._Sweep.run_units

    def dies(self, lo, hi):
        # chunk 40 kills the worker that runs it
        if lo == 40 * 512 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_units(self, lo, hi)

    monkeypatch.setattr(verify._Sweep, "run_units", dies)
    ck = tmp_path / "ck.jsonl"
    out = str(tmp_path / "r.json")
    capsys.readouterr()
    assert main(C2_SPAN + ["--workers", "2", "--checkpoint", str(ck), "--out", out]) == 5
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("worker error: worker process ") and err.endswith("chunk [20480, 20992)")
    assert not os.path.exists(out)
    kept = {json.loads(line)["lo"] for line in ck.read_text().splitlines()[1:]}
    # the chunks answered before the death are kept, one of the dead worker's among them
    assert kept and 20480 not in kept
    monkeypatch.setattr(verify._Sweep, "run_units", run_units)
    assert main(C2_SPAN + ["--workers", "2", "--checkpoint", str(ck), "--out", out]) == 1
    assert reports.body_bytes(load(out)) == reports.body_bytes(load(straight))


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


FAMILY_M4 = ["--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2"]


@pytest.mark.parametrize(
    "argv, k, dim",
    [
        (["weights", *FAMILY_M4, "--rho", "10", "--force", "--alphas", "1,1,1,1"], 12, 2),
        (["verify-scattered", *FAMILY_M4, "--mode", "exhaustive", "--alphas", "2,1,1,1"], 12, 2),
        # rho = 5 alone sweeps 1,118,481 lines; rho = 3 is refused before it
        (["weights", "--field", "2,1,4", "--system", "direct-sum", "--m", "3", "--h", "1", "--rho", "5,3"], 6, 3),
    ],
    ids=["weights", "verify-exhaustive", "weights-second-rho"],
)
def test_an_unbudgeted_exhaustive_sweep_above_the_cap_is_a_config_error(monkeypatch, capsys, argv, k, dim):
    # [12, 2]_16 = 1.29e24 planes, [6, 3]_16 = 1.2e14 solids: refused before any sweep starts
    from rankscatter import verify
    from rankscatter.linalg import gaussian_binomial

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(verify, "run_sweep", no_sweep)
    assert main(argv) == 3
    err = capsys.readouterr().err
    size = gaussian_binomial(k, dim, 16)
    assert size > verify.EXHAUSTIVE_CAP
    assert f"all {size} {dim}-dimensional subspaces" in err and "--budget" in err and "sampled mode" in err


@pytest.mark.parametrize("value", [5, 14])
def test_a_weights_report_the_cap_refuses_fails_recheck(tmp_path, capsys, value):
    # `weights --rho 10` on C2 with tuple (1,1,1,1) exits 3: its dual is
    # degenerate, so the primal route would sweep [12, 2]_16 planes.  A
    # report forged for it must not recheck, whatever d_10 it claims.
    from rankscatter.codes import EXACT, WeightProfile
    from rankscatter.construction import ConstructionParams, family_subspace, system_to_desc
    from rankscatter.field import FieldTower
    from rankscatter.linalg import gaussian_binomial

    tower = FieldTower(2, 1, 4)
    system = family_subspace(ConstructionParams(tower, 4, 2, (1, 1, 1, 1)))
    size = gaussian_binomial(12, 2, 16)
    profile = WeightProfile(12, 16, swept=size)
    profile.add(10, value, EXACT, size)
    config = {"system": system_to_desc(system), "mode": "exhaustive", "budget": None, "seed": 0, "rho": [10],
              "force": True}
    report = reports.build_report("weights", config, tower.descriptor(), *reports.weights_result(profile), {})
    out = str(tmp_path / "forged.json")
    reports.write_report(report, out)
    assert main(["recheck", out]) == 1
    assert f"all {size} 2-dimensional subspaces" in capsys.readouterr().err


# --- what recheck re-derives, and what it names ---


def _set_count(rep, checked):
    rep["result"]["subspaces_checked"] = rep["counts"]["subspaces_checked"] = checked
    return rep


def _second_plane(rep):
    """The line-control exhaustive report with the second violating plane
    [1] as its witness and a count of 2; a true run names [0] after 1."""
    from rankscatter.construction import system_from_desc
    from rankscatter.field import FieldTower
    from rankscatter.verify import ExhaustiveSweep, _build_witness, plan

    tower = FieldTower.from_descriptor(rep["field"])
    system = system_from_desc(tower, rep["config"]["system"])
    witness = _build_witness(system, ExhaustiveSweep(system, plan(system, 2, 2, "exhaustive")), [1])
    rep["result"]["witness"] = witness.serialize(tower, "exhaustive", 2)
    return _set_count(rep, 2)


LINE_CONTROL_3 = ["verify-scattered", "--field", "2,1,4", "--system", "line-control", "--ambient", "3", "--h", "2"]
RUN_TO_WITNESS_FORGERIES = {
    "span-count": (LINE_CONTROL_3 + ["--mode", "witness_span"], lambda rep: _set_count(rep, 6),
                   "recorded [1, 1] after 6 subspaces, the oracle finds [1, 1] after 1"),
    "family-count": (["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "1",
                      "--alphas", "1,1,1", "--force", "--mode", "witness_span"], lambda rep: _set_count(rep, 1643),
                     "recorded [1, 1638] after 1643 subspaces, the oracle finds [1, 1638] after 1638"),
    "second-plane": (LINE_CONTROL_3 + ["--mode", "exhaustive"], _second_plane,
                     "recorded [1] after 2 subspaces, the oracle finds [0] after 1"),
}


@pytest.mark.parametrize("name", sorted(RUN_TO_WITNESS_FORGERIES))
def test_recheck_rederives_a_violated_run_up_to_its_witness(tmp_path, capsys, name):
    argv, forge, problem = RUN_TO_WITNESS_FORGERIES[name]
    out = str(tmp_path / "v.json")
    assert main(argv + ["--out", out]) == 1
    assert main(["recheck", out]) == 0
    assert capsys.readouterr().out == f"report verified: {out}\n"
    rep = forge(load(out))
    with open(out, "w") as f:
        json.dump(rep, f)
    assert main(["recheck", out]) == 1
    assert capsys.readouterr().err == f"corrupt report: run to the witness does not reproduce: {problem}\n"


def test_recheck_rederives_an_index_sweep_up_to_its_witness_inside_a_plan_past_the_cap(tmp_path, capsys):
    # violated at hyperplane [71270] of [6, 1]_16 = 1,118,481: the plan is
    # past the recheck cap, the run to its witness is not
    out = str(tmp_path / "v.json")
    argv = ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", "3", "--h", "1",
            "--alphas", "1,1,1", "--force", "--mode", "exhaustive", "--out", out]
    assert main(argv) == 1
    rep = load(out)
    assert (rep["result"]["witness"]["tuple_index"], rep["result"]["subspaces_checked"]) == ([71270], 71271)
    capsys.readouterr()
    assert main(["recheck", out]) == 0
    assert capsys.readouterr().out == f"report verified: {out}\n"
    for edit, problem in [
        (lambda rep: _set_count(rep, 71272),
         "recorded [71270] after 71272 subspaces, the oracle finds [71270] after 71271"),
        (lambda rep: _set_count(rep, 1001)["result"]["witness"].update(tuple_index=[1000]),
         "recorded [1000] after 1001 subspaces, the oracle finds None after 1001"),
    ]:
        forged = copy.deepcopy(rep)
        edit(forged)
        with open(out, "w") as f:
            json.dump(forged, f)
        assert main(["recheck", out]) == 1
        assert f"corrupt report: run to the witness does not reproduce: {problem}\n" in capsys.readouterr().err


def _forged_d1(tmp_path, sources):
    """`weights --field 2,1,4 --system family --m 3 --h 1 --alphas 1,1,2
    --rho 1 --force` with d_1 edited from 2 to 3.  Its 1,118,481 hyperplanes
    are not swept here: the report is built from the profile the config plans."""
    from rankscatter.codes import weight_profile
    from rankscatter.construction import ConstructionParams, family_subspace, system_to_desc
    from rankscatter.field import FieldTower

    tower = FieldTower(2, 1, 4)
    system = family_subspace(ConstructionParams(tower, 3, 1, (1, 1, 2)))
    profile = weight_profile(system, [1], "exhaustive", None)[0]
    profile.entries[0].value = 3
    config = {"system": system_to_desc(system), "mode": "exhaustive", "budget": None, "seed": 0, "rho": [1],
              "force": True}
    return reports.build_report("weights", config, tower.descriptor(), *reports.weights_result(profile), {})


def _proof_without_witness(tmp_path, sources):
    """C2 with tuple (1,1,1,1), violated after 276,784,888 tuples, set to
    holds with its witness dropped."""
    out = str(tmp_path / "c2.json")
    argv = ["verify-scattered", *FAMILY_M4, "--alphas", "1,1,1,1", "--mode", "witness_span"]
    assert main(argv + ["--out", out]) == 1
    rep = load(out)
    assert rep["result"]["subspaces_checked"] == 276_784_888
    rep["result"].update(status="holds", witness=None)
    return rep


def _count_of_five(tmp_path, sources):
    """The F_16, m = 3, h = 2 witness-span report, violated after 1,081,080
    tuples, with its count set to 5."""
    return _set_count(copy.deepcopy(sources["family-violated"]), 5)


@pytest.mark.parametrize("forgery, claim", [
    (_proof_without_witness, "the proof over 276784888 subspaces: a plan of up to 2147450880, past the recheck cap"),
    (_count_of_five, "the run of 5 subspaces to the witness: a plan of up to 8386560, past the recheck cap"),
    (_forged_d1, "d_1 = 3: 1118481 subspaces and the dual profile past the recheck cap"),
], ids=["C2-holds", "F16-m3-count", "weights-d1"])
def test_recheck_names_each_claim_past_the_cap(tmp_path, capsys, tamper_sources, forgery, claim):
    rep = forgery(tmp_path, tamper_sources)
    out = str(tmp_path / "forged.json")
    with open(out, "w") as f:
        json.dump(rep, f)
    capsys.readouterr()
    assert main(["recheck", out]) == 0
    assert capsys.readouterr() == (f"report consistent: {out}\nnot re-derived: {claim}\n", "")


@pytest.mark.parametrize("source, claims", [
    ("sampled-inconclusive", ["a sampled run of 64 samples, replayed in its first 50"]),
    ("sampled-violated", []),
    ("exhaustive-holds", []),
    ("weights-sampled", []),
])
def test_recheck_names_only_what_it_did_not_rederive(tamper_sources, source, claims):
    assert reports.recheck_report(copy.deepcopy(tamper_sources[source])) == ([], claims)


@pytest.mark.parametrize("source", [
    "span-violated", "exhaustive-violated", "sampled-violated", "evasive-violated", "exhaustive-holds",
    "sampled-inconclusive", "weights-primal", "weights-sampled", "weights-sampled-long", "weights",
])
def test_every_rederivation_runs_on_the_scalar_oracle(monkeypatch, tamper_sources, source):
    from rankscatter import bitkernel, verify

    runs = {"rederive": 0, "run_units": 0}
    rederive, run_units = reports.rederive, verify._Sweep.run_units

    def spy(system, p, units):
        runs["rederive"] += 1
        return rederive(system, p, units)

    def planned(sweep, lo, hi):
        runs["run_units"] += 1
        return run_units(sweep, lo, hi)

    def kernel(*args):
        raise AssertionError("recheck ran a kernel")

    monkeypatch.setattr(reports, "rederive", spy)
    monkeypatch.setattr(verify._Sweep, "run_units", planned)
    # the one exception: the primal re-sweep of a dual-route profile, which
    # the Wei check has re-derived on the oracle, runs the planned sweep
    dual = tamper_sources[source]["result"].get("route") == "dual"
    if not dual:
        for name in ("batch_rank", "gf3_rank", "fp_rank"):
            monkeypatch.setattr(bitkernel, name, kernel)
    assert reports.recheck_report(copy.deepcopy(tamper_sources[source]))[0] == []
    assert runs["rederive"] > 0 and (runs["run_units"] > 0) == dual


# a valid command line and a usage error of each subcommand
PARSER_CASES = {
    "construct": (["--field", "2,1,4", "--system", "pseudoregulus", "--h", "2"], ["--field", "2,1,4", "--mode", "x"]),
    "verify-scattered": (["--field", "3,1,4", "--h", "2", "--mode", "exhaustive", "--workers", "2"],
                         ["--field", "3,1,4", "--mode", "nope"]),
    "verify-evasive": (["--field", "2,1,4", "--hdim", "1", "--r", "2", "--checkpoint", "c"],
                       ["--field", "2,1,4", "--hdim", "1"]),
    "weights": (["--field", "2,1,3", "--rho", "1,2", "--csv", "w.csv"], ["--field", "2,1,3", "--checkpoint", "c"]),
    "compare": (["--field", "2,1,4", "--m", "3", "--s-list", "1"], ["--m", "3"]),
    "search": (["--field", "2,1,4", "--m", "3", "--check-b", "--budget", "5"], ["--field", "2,1,4", "--m", "x"]),
    "recheck": (["r.json"], []),
}


@pytest.mark.parametrize("command", sorted(PARSER_CASES))
def test_a_subcommand_parses_alike_on_its_own_parser_and_the_full_one(capsys, command):
    from rankscatter import cli

    own, full = cli.build_parser(command), cli.build_parser()
    good, bad = PARSER_CASES[command]
    assert vars(own.parse_args([command, *good])) == vars(full.parse_args([command, *good]))
    errors, helps = [], []
    for parser in (own, full):
        with pytest.raises(cli.UsageError) as raised:
            parser.parse_args([command, *bad])
        errors.append(str(raised.value))
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert errors[0] == errors[1] and helps[0] == helps[1] and helps[0].startswith(f"usage: rankscatter {command} ")
    # the subcommand's parser holds no other subcommand
    other = "recheck" if command != "recheck" else "search"
    with pytest.raises(cli.UsageError):
        own.parse_args([other, "r.json"])


def test_main_builds_every_subcommand_only_when_argv_names_none(monkeypatch, capsys):
    from rankscatter import cli

    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    assert main(["recheck", "no-such-report.json"]) == 3
    assert main([]) == 4 and "required: command" in capsys.readouterr().err
    assert main(["bogus"]) == 4
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["-h"])
    usage = capsys.readouterr().out
    assert all(f"    {name} " in usage for name in PARSER_CASES)
    assert built == ["recheck", None, "bogus", "-h"]
