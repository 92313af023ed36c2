"""The four benchmark workloads: their jobs, sizes and expected results.

A workload round is a list of jobs.  Each job has a timed `run` step (a CLI
call through `rankscatter.cli.main`, or a library call) and an untimed
`check` step that compares the output with the expected value and returns a
list of problems.  Every CLI report is also passed through
`rankscatter recheck`, which must exit 0.

Nothing here imports rankscatter at module level: the child process imports
it inside its timed set-up.
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("sampled_probe", "span_witness", "weight_profiles", "odd_q")

# Worker processes of the untraced rounds.  Traced rounds always use one.
WORKERS = {"sampled_probe": 1, "span_witness": 2, "weight_profiles": 2, "odd_q": 1}

# Work per round.  "full" is what the benchmark measures; "tiny" runs the
# same code paths in well under a second each, for the smoke test.
SIZES = {
    "full": {
        "probe_budget": 20_000,
        "span_alphas": "1,1,1,1",
        "span_m": "4",
        "span_force": [],
        "span_expect": (276_784_888, [2, 4369, 8738]),
        "profile_m": 3,
        "profile_expect": (2, 3, 5, 6, 8, 9),
        "random_codes": 20,
        "odd_pseudoregulus": (3, 4, 2, 6643),
        "odd_budget": 1_000,
        "census_budget": 50_000,
    },
    "tiny": {
        "probe_budget": 500,
        "span_alphas": "1,1,1",
        "span_m": "3",
        "span_force": ["--force"],  # no admissible tuple exists for m=3 over F_16
        "span_expect": (1_081_080, [2, 273, 546]),
        "profile_m": 2,
        "profile_expect": (2, 3, 5, 6),
        "random_codes": 2,
        "odd_pseudoregulus": (3, 2, 1, 10),
        "odd_budget": 20,
        "census_budget": 500,
    },
}

C2_FAMILY = ["--field", "2,1,4", "--system", "family", "--m", "4", "--h", "2"]


class Context:
    """A round's scratch directory, its seed and the outputs of its jobs."""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.outputs: dict[str, object] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


class CliJob:
    """One `rankscatter` command; its report is written with --out."""

    def __init__(self, name, argv, rc, check):
        self.name = name
        self.argv = argv
        self.rc = rc
        self.check_report = check

    def prepare(self, ctx):
        for path in (ctx.path(self.name + ".json"), ctx.path(self.name + ".ckpt")):
            if os.path.exists(path):
                os.remove(path)

    def run(self, ctx):
        from rankscatter.cli import main

        argv = [a.format(ckpt=ctx.path(self.name + ".ckpt")) for a in self.argv]
        rc = main(argv + ["--out", ctx.path(self.name + ".json")])
        ctx.outputs[self.name] = rc
        return rc

    def check(self, ctx) -> list[str]:
        rc = ctx.outputs.get(self.name)
        if rc != self.rc:
            return [f"exit code {rc}, expected {self.rc}"]
        with open(ctx.path(self.name + ".json")) as f:
            report = json.load(f)
        return self.check_report(report)

    def reports(self, ctx) -> list[str]:
        return [ctx.path(self.name + ".json")]


class LibJob:
    """A library call; `run` returns its output, `check` judges it."""

    def __init__(self, name, run, check):
        self.name = name
        self._run = run
        self._check = check

    def prepare(self, ctx):
        pass

    def run(self, ctx):
        ctx.outputs[self.name] = self._run(ctx)

    def check(self, ctx) -> list[str]:
        return self._check(ctx, ctx.outputs[self.name])

    def reports(self, ctx) -> list[str]:
        return []


def verdict_check(status: str, checked: int, key=None):
    def check(report):
        res = report["result"]
        problems = []
        if res.get("status") != status:
            problems.append(f"status {res.get('status')!r}, expected {status!r}")
        got = report["counts"].get("subspaces_checked")
        if got != checked:
            problems.append(f"subspaces_checked {got}, expected {checked}")
        wit = res.get("witness")
        if key is None and wit is not None:
            problems.append("unexpected witness")
        if key is not None and (wit is None or wit.get("tuple_index") != key):
            problems.append(f"witness key {wit and wit.get('tuple_index')}, expected {key}")
        return problems

    return check


def profile_check(expected):
    def check(report):
        entries = sorted(report["result"]["profile"], key=lambda e: e["rho"])
        got = tuple(e["value"] for e in entries)
        provenance = {e["provenance"] for e in entries}
        if got != tuple(expected) or provenance != {"exact"}:
            return [f"profile {got} ({sorted(provenance)}), expected exact {tuple(expected)}"]
        return []

    return check


def census_check(field: str, m: int, budget: int):
    """tuples_checked is exact; the admissible count must sit within six
    standard deviations of the closed form (Q-1)^m (g-1)/g, g =
    gcd(1+q+...+q^(m-1), Q-1), which holds for uniform tuples whatever the
    sample stream."""
    import math

    p, s, n = (int(x) for x in field.split(","))
    q = p**s
    order = q**n
    g = math.gcd(sum(q**j for j in range(m)), order - 1)
    share = (g - 1) / g

    def check(report):
        res = report["result"]
        problems = []
        if res.get("tuples_checked") != budget or res.get("exhaustive"):
            problems.append(f"census checked {res.get('tuples_checked')}, expected {budget} sampled")
        if res.get("feasible") != (g > 1):
            problems.append("feasibility flag differs from the closed form")
        mean = budget * share
        slack = 6 * math.sqrt(budget * share * (1 - share)) + 1
        if abs(res.get("admissible", -1) - mean) > slack:
            problems.append(f"admissible {res.get('admissible')} is far from {mean:.0f}")
        return problems

    return check


def _profile_from_report(report):
    from rankscatter.codes import WeightProfile

    prof = WeightProfile(report["result"]["k"], report["result"]["t"])
    for e in report["result"]["profile"]:
        prof.add(e["rho"], e["value"], e["provenance"], e["subspaces_checked"])
    return prof


def _dual_profile(m):
    def run(ctx):
        from rankscatter.codes import code_from_system, dual_code, generalized_weights
        from rankscatter.construction import direct_sum, pseudoregulus_subspace
        from rankscatter.field import create_field

        ps = pseudoregulus_subspace(create_field(2, 1, 3), 1)
        code = code_from_system(direct_sum([ps] * m))
        return generalized_weights(dual_code(code).system(), workers=1)

    def check(ctx, dual):
        from rankscatter.codes import check_weight_axioms

        with open(ctx.path("profile.json")) as f:
            primal = _profile_from_report(json.load(f))
        try:
            ok = check_weight_axioms(primal, dual, primal.t)
        except ValueError as exc:
            return [f"Wei duality check raised: {exc}"]
        return [] if ok else ["Wei duality fails for the direct sum and its dual"]

    return run, check


RANDOM_SHAPES = ((2, 4), (2, 5), (3, 5), (3, 6), (2, 6))


def _random_code(j):
    """Seeded random code j, cycling F_8 / F_16 and the shapes of criterion C6."""

    def run(ctx):
        from rankscatter.codes import dual_code, generalized_weights, random_code
        from rankscatter.field import create_field

        tower = create_field(2, 1, 3 + j % 2)
        k, t = RANDOM_SHAPES[j % len(RANDOM_SHAPES)]
        code = random_code(tower, k, t, seed=ctx.seed * 100 + j)
        return (
            t,
            generalized_weights(code.system(), workers=1),
            generalized_weights(dual_code(code).system(), workers=1),
        )

    def check(ctx, out):
        from rankscatter.codes import check_weight_axioms

        t, prof, dual = out
        return [] if check_weight_axioms(prof, dual, t) else [f"Wei duality fails for random code {j}"]

    return run, check


def build_jobs(workload: str, size: str, seed: int, workers: int) -> list:
    """The jobs of one round.  `seed` is the round seed; fixed proof
    instances ignore it."""
    z = SIZES[size]
    w = ["--workers", str(workers)]
    if workload == "sampled_probe":
        budget = z["probe_budget"]
        return [
            CliJob(
                "probe",
                ["verify-scattered", *C2_FAMILY, "--alphas", "2,1,1,1", "--mode", "sampled",
                 "--budget", str(budget), "--seed", str(seed), *w],
                2,
                verdict_check("inconclusive", budget),
            )
        ]
    if workload == "span_witness":
        checked, key = z["span_expect"]
        return [
            CliJob(
                "span",
                ["verify-scattered", "--field", "2,1,4", "--system", "family", "--m", z["span_m"],
                 "--h", "2", "--alphas", z["span_alphas"], "--mode", "witness_span",
                 "--checkpoint", "{ckpt}", *z["span_force"], *w],
                1,
                verdict_check("violated", checked, key),
            )
        ]
    if workload == "weight_profiles":
        m = z["profile_m"]
        jobs = [
            CliJob(
                "profile",
                ["weights", "--field", "2,1,3", "--system", "direct-sum", "--m", str(m), "--h", "1", *w],
                0,
                profile_check(z["profile_expect"]),
            ),
            LibJob("dual", *_dual_profile(m)),
        ]
        jobs += [LibJob(f"random_code_{j}", *_random_code(j)) for j in range(z["random_codes"])]
        return jobs
    if workload == "odd_q":
        budget, census = z["odd_budget"], z["census_budget"]
        p, n, h, planes = z["odd_pseudoregulus"]
        jobs = [
            CliJob(
                "pseudoregulus",
                ["verify-scattered", "--field", f"{p},1,{n}", "--system", "pseudoregulus",
                 "--h", str(h), "--mode", "exhaustive", *w],
                0,
                verdict_check("holds", planes),
            ),
            CliJob(
                "family27",
                ["verify-scattered", "--field", "3,1,3", "--system", "family", "--m", "3", "--h", "1",
                 "--alphas", "1,1,3", "--mode", "witness_span", *w],
                0,
                verdict_check("holds", 9841),
            ),
        ]
        jobs += [
            CliJob(
                "family729",
                ["verify-scattered", "--field", "3,1,6", "--system", "family", "--m", "3", "--h", "2",
                 "--alphas", "1,1,3", "--mode", "sampled", "--budget", str(budget),
                 "--seed", str(seed), *w],
                2,
                verdict_check("inconclusive", budget),
            ),
            CliJob(
                "census",
                ["search", "--field", "3,1,4", "--m", "4", "--budget", str(census), "--seed", str(seed)],
                0,
                census_check("3,1,4", 4, census),
            ),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def setup_systems(workload: str, size: str):
    """Field and system construction that precedes the first job: the set-up
    cost a user pays before any verify or codes call."""
    from rankscatter.construction import (
        ConstructionParams,
        direct_sum,
        family_subspace,
        pseudoregulus_subspace,
    )
    from rankscatter.field import FieldTower

    z = SIZES[size]
    if workload == "sampled_probe":
        t = FieldTower(2, 1, 4)
        return [family_subspace(ConstructionParams(t, 4, 2, (2, 1, 1, 1)))]
    if workload == "span_witness":
        t = FieldTower(2, 1, 4)
        m = int(z["span_m"])
        return [family_subspace(ConstructionParams(t, m, 2, (1,) * m))]
    if workload == "weight_profiles":
        ps = pseudoregulus_subspace(FieldTower(2, 1, 3), 1)
        return [direct_sum([ps] * z["profile_m"])]
    if workload == "odd_q":
        p, n, h, _ = z["odd_pseudoregulus"]
        out = [pseudoregulus_subspace(FieldTower(p, 1, n), h)]
        for n, h in ((3, 1), (6, 2)):
            out.append(family_subspace(ConstructionParams(FieldTower(3, 1, n), 3, h, (1, 1, 3))))
        return out
    raise ValueError(f"unknown workload {workload!r}")
