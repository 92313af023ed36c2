"""JSON report surface and independent re-verification of emitted reports.

Reports are self-contained: they embed the field descriptor, the system
descriptor and every knob that influenced the run, so `recheck` can rebuild
the objects and re-derive the claims from the report file alone.  The
`timing` block is the only part allowed to differ between identical runs;
body_bytes() strips it for byte comparisons.
"""

from __future__ import annotations

import json

from .codes import _cheaper_dual, code_from_system, compare_with_direct_sum, dual_code
from .construction import (
    ConstructionParams,
    admissibility_feasible,
    scan_admissible,
    system_from_desc,
    tuple_admissible,
)
from .field import FieldTower
from .linalg import (
    SubspaceQn,
    expand_vector,
    gaussian_binomial,
    make_rows,
    sample_subspace,
    subspace_fq_rows,
)
from .verify import max_weight_search, subspace_weight, verify_evasive, verify_h_scattered, weight_backend

SCHEMA = "rankscatter-report/1"
ARTIFACT_VERSION = "0.1.0"

RECHECK_SAMPLES = 50
RECHECK_SWEEP_CAP = 100_000


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def build_report(command: str, config: dict, field_desc: dict, result: dict, counts: dict, timing: dict) -> dict:
    return {
        "schema": SCHEMA,
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": config,
        "field": field_desc,
        "result": result,
        "counts": counts,
        "timing": timing,
    }


def body_bytes(report: dict) -> bytes:
    body = {k: v for k, v in report.items() if k != "timing"}
    return canonical_json(body).encode()


def write_report(report: dict, path: str | None):
    text = canonical_json(report)
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text


def load_report(path: str) -> dict:
    """The report in a file.  ValueError when it is not a JSON object of
    this schema; OSError when it cannot be read."""
    with open(path) as f:
        report = json.load(f)
    if not isinstance(report, dict):
        raise ValueError(f"a report is a JSON object, not {type(report).__name__}")
    if report.get("schema") != SCHEMA:
        raise ValueError(f"unsupported report schema {report.get('schema')!r}")
    return report


# --- recheck ---


def recheck_report(report: dict) -> tuple[bool, list[str]]:
    """Re-verify a report from its own contents.

    Returns (ok, problems).  Violated verdicts re-derive the witness weight;
    sampled verdicts re-run a deterministic prefix of the sample stream;
    small proofs and small exact weights are re-swept outright.
    """
    problems: list[str] = []
    try:
        tower = FieldTower.from_descriptor(report["field"])
    except Exception as exc:
        return False, [f"field descriptor invalid: {exc}"]
    command = report.get("command")
    handler = {
        "construct": _recheck_construct,
        "verify-scattered": _recheck_verdict,
        "verify-evasive": _recheck_verdict,
        "weights": _recheck_weights,
        "compare": _recheck_compare,
        "search": _recheck_search,
    }.get(command)
    if handler is None:
        return False, [f"unknown command {command!r}"]
    try:
        handler(tower, report, problems)
    except Exception as exc:
        problems.append(f"recheck raised: {exc}")
    return not problems, problems


def _system(tower, report):
    return system_from_desc(tower, report["config"]["system"])


def _recheck_construct(tower, report, problems):
    system = _system(tower, report)
    res = report["result"]
    if res.get("fq_dim") != system.t:
        problems.append(f"fq_dim mismatch: report {res.get('fq_dim')}, recomputed {system.t}")
    if res.get("ambient") != system.ambient:
        problems.append("ambient dimension mismatch")
    if res.get("spans_ambient") != system.spans_ambient:
        problems.append("spanning flag mismatch")


def _recheck_verdict(tower, report, problems):
    system = _system(tower, report)
    cfg = report["config"]
    res = report["result"]
    status = res.get("status")
    bound = res.get("bound")
    mode = res.get("mode")
    _check_backend(system, report, problems)
    if status == "violated":
        wit = res.get("witness")
        if wit is None:
            defect = res.get("span_defect")
            if defect is None:
                problems.append("violated verdict carries neither witness nor span defect")
                return
            if system.spans_ambient:
                problems.append("span defect recorded but the system spans the ambient space")
            return
        H = SubspaceQn.deserialize(tower, system.ambient, wit["H_basis"])
        w = subspace_weight(system.subspace, H)
        if w != wit["weight"]:
            problems.append(f"witness weight mismatch: recorded {wit['weight']}, recomputed {w}")
        if w <= wit["bound"]:
            problems.append(f"witness weight {w} does not exceed the bound {wit['bound']}")
        _check_intersection(tower, system, H, wit, problems)
        return
    if status == "holds":
        if mode == "sampled":
            problems.append("sampled runs cannot prove 'holds'")
        else:
            _resweep_proof(system, report, problems)
        return
    if status == "inconclusive":
        if mode != "sampled":
            return
        seed = res.get("seed") or 0
        dim = res.get("dim")
        budget = cfg.get("budget") or 0
        for i in range(min(RECHECK_SAMPLES, budget)):
            H = sample_subspace(tower, system.ambient, dim, seed, i)
            if subspace_weight(system.subspace, H) > bound:
                problems.append(f"sample {i} violates the bound but the report found no witness")
                return


def _check_backend(system, report, problems):
    """The backend must be the one `auto` picks for the report's inputs, and
    none when the evasive bound makes the sweep vacuous.  Reports written
    before verdicts named their backend carry no such key."""
    res = report["result"]
    if "backend" not in res:
        return
    cfg = report["config"]
    evasive = report["command"] == "verify-evasive"
    if evasive and cfg["r"] >= system.t:
        expected = None
    else:
        expected = weight_backend(system.tower, system.ambient, "auto", cfg["hdim"] if evasive else cfg["h"])
    if res["backend"] != expected:
        problems.append(f"backend {res['backend']!r} is not the one these inputs run, {expected!r}")


def _resweep_proof(system, report, problems):
    """Re-run a proof whose sweep, sized from the system and not from the
    claimed count, is at most RECHECK_SWEEP_CAP units, through the scalar
    oracle and not the backend that produced it; the status and the number
    of subspaces checked must reproduce."""
    cfg = report["config"]
    res = report["result"]
    evasive = report["command"] == "verify-evasive"
    dim = cfg["hdim"] if evasive else cfg["h"]
    mode = cfg["mode"]
    tower = system.tower
    if mode == "exhaustive":
        size = gaussian_binomial(system.ambient, dim, tower.order)
    elif mode == "witness_span":
        size = (tower.q**system.t) ** dim
    else:
        problems.append(f"unknown proof mode {mode!r}")
        return
    if size > RECHECK_SWEEP_CAP:
        return
    common = dict(
        mode=mode, budget=cfg.get("budget"), seed=cfg.get("seed"), chunk_size=cfg.get("chunk_size"),
        engine="scalar",
    )
    if evasive:
        fresh = verify_evasive(system, dim, cfg["r"], **common)
    else:
        fresh = verify_h_scattered(system, dim, **common)
    claimed = (res.get("status"), res.get("subspaces_checked"))
    if (fresh.status, fresh.checked) != claimed:
        problems.append(
            f"proof does not reproduce: recorded {claimed[0]} after {claimed[1]} subspaces, "
            f"re-run gives {fresh.status} after {fresh.checked}"
        )


def _check_intersection(tower, system, H, wit, problems):
    vectors = [tuple(tower.val(c) for c in v) for v in wit.get("intersection_basis", [])]
    if len(vectors) != wit["weight"]:
        problems.append("intersection basis size differs from the recorded weight")
    U = system.subspace
    h_rows = subspace_fq_rows(tower, H)
    h_acc = make_rows(tower)
    for r in h_rows:
        h_acc.add(r)
    indep = make_rows(tower)
    for v in vectors:
        if not U.contains_vector(v):
            problems.append("intersection vector lies outside the subspace")
            return
        row = expand_vector(tower, v)
        if not h_acc.contains(row):
            problems.append("intersection vector lies outside the witness subspace")
            return
        if not indep.add(row):
            problems.append("intersection basis rows are dependent")
            return


def _recheck_weights(tower, report, problems):
    system = _system(tower, report)
    cfg = report["config"]
    res = report["result"]
    k, t = system.ambient, system.t
    if res.get("t") != t:
        problems.append("code length mismatch")
    if res.get("k") != k:
        problems.append("code dimension mismatch")
    rhos = cfg["rho"] if cfg.get("rho") is not None else range(1, k + 1)
    dual = cfg.get("mode") == "exhaustive" and _cheaper_dual(system, rhos) is not None
    if res.get("route") != ("dual" if dual else "primal"):
        problems.append(f"route {res.get('route')!r} is not the one these weights take")
    entries = res.get("profile", [])
    Q = tower.order
    exact = {e["rho"]: e["value"] for e in entries if e["provenance"] == "exact"}
    for rho, value in sorted(exact.items()):
        if not 1 <= rho <= k:
            problems.append(f"rho = {rho} out of range 1..{k}")
        if not 1 <= value <= t:
            problems.append(f"d_{rho} = {value} out of range 1..{t}")
    prev = 0
    for rho in sorted(exact):
        if prev and exact[rho] <= prev:
            problems.append("exact profile entries are not strictly increasing")
            break
        prev = exact[rho]
    # Every exact entry against Wei duality, when the dual is nondegenerate
    # and its profile is small: the dual's d_s = t - w_s, swept by the scalar
    # oracle, leaves {d_rho} = [t] minus {t + 1 - d_s}.
    kd = t - k
    dual_system = None
    if kd >= 1 and sum(gaussian_binomial(kd, kd - s, Q) for s in range(1, kd + 1)) <= RECHECK_SWEEP_CAP:
        dual_system = dual_code(code_from_system(system)).system()
        if dual_system.t != t:
            dual_system = None
    # The primal re-sweep runs on the scalar oracle, except for a dual-route
    # profile that the Wei check re-derives on the oracle: there the primal
    # sweep is already a route that did not produce the entries.
    engine = "auto" if dual and dual_system is not None else "scalar"
    for rho, value in sorted(exact.items()):
        dim = k - rho
        if gaussian_binomial(k, dim, Q) > RECHECK_SWEEP_CAP:
            continue
        w, _, _, exact_flag = max_weight_search(system, dim, mode="exhaustive", engine=engine)
        if exact_flag and system.t - w != value:
            problems.append(f"d_{rho} mismatch: recorded {value}, recomputed {system.t - w}")
    if dual_system is None:
        return
    taken = {max_weight_search(dual_system, kd - s, engine="scalar")[0] + 1 for s in range(1, kd + 1)}
    primal = sorted(set(range(1, t + 1)) - taken)
    for rho, value in sorted(exact.items()):
        if 1 <= rho <= k and primal[rho - 1] != value:
            problems.append(f"d_{rho} = {value} contradicts the dual profile, which gives {primal[rho - 1]}")


def _recheck_compare(tower, report, problems):
    cfg = report["config"]
    params = ConstructionParams(
        tower, cfg["system"]["m"], cfg["system"]["h"],
        tuple(tower.val(c) for c in cfg["system"]["alphas"]),
    )
    fresh = compare_with_direct_sum(params, cfg.get("s_list"))
    if fresh != report["result"].get("indices"):
        problems.append("comparison table does not reproduce")


def _recheck_search(tower, report, problems):
    cfg = report["config"]
    res = report["result"]
    m = cfg["m"]
    if res.get("feasible") != admissibility_feasible(tower, m):
        problems.append("feasibility flag mismatch")
    for ex in res.get("examples", []):
        tup = tuple(tower.val(c) for c in ex)
        if not tuple_admissible(tower, m, tup):
            problems.append("recorded example tuple is not admissible")
            return
    if res.get("exhaustive") and res.get("tuples_checked", 0) <= RECHECK_SWEEP_CAP:
        fresh = scan_admissible(tower, m)
        if fresh["admissible"] != res.get("admissible"):
            problems.append(
                f"admissible count mismatch: recorded {res.get('admissible')}, "
                f"recomputed {fresh['admissible']}"
            )
