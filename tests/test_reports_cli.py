"""Report schema, recheck, determinism, and the CLI surface."""

import json

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
    # sampled weights exit inconclusive
    rc = main([
        "weights", "--field", "2,1,3", "--system", "direct-sum",
        "--m", "2", "--h", "1", "--mode", "sampled", "--budget", "16",
        "--out", out,
    ])
    assert rc == 2


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
    from rankscatter.field import create_field
    from rankscatter.runner import run_sweep

    F16 = create_field(2, 1, 4)
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
    straight = run_sweep(desc, 300, 32)
    ck = str(tmp_path / "ck.jsonl")
    interrupted = run_sweep(desc, 300, 32, checkpoint=ck, stop_after_units=150)
    assert not interrupted.completed
    resumed = run_sweep(desc, 300, 32, checkpoint=ck)
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
