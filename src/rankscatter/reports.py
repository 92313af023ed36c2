"""JSON report surface and independent re-verification of emitted reports.

Reports are self-contained: they embed the field descriptor, the system
descriptor and every knob that influenced the run, so `recheck` can rebuild
the objects and re-derive the claims from the report file alone.  The
`timing` block is the only part allowed to differ between identical runs;
body_bytes() strips it for byte comparisons.
"""

from __future__ import annotations

import json
import math
from functools import partial

from .codes import (
    WeightProfile,
    _cheaper_dual,
    compare_with_direct_sum,
    nondegenerate_dual,
    predicted_direct_sum_profile,
)
from .construction import (
    QSystem,
    admissibility_feasible,
    power_sum_exponent,
    scan_admissible,
    system_from_desc,
    tuple_admissible,
    tuple_strongly_admissible,
)
from .field import FieldTower
from .linalg import (
    SubspaceQn,
    expand_vector,
    gaussian_binomial,
    make_rows,
    subspace_fq_rows,
)
from .verify import (
    DEFAULT_CHUNKS,
    _build_sweep,
    _check_options,
    max_weight_search,
    recorded_seed,
    subspace_weight,
    vacuous,
    verify_evasive,
    verify_h_scattered,
    weight_backend,
)

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


# --- report commands ---
#
# Each command's result is one function of the objects its config names.  The
# CLI builds those objects from argv and `recheck` rebuilds them from the
# report, so the two cannot drift apart.


def construct_result(system: QSystem) -> tuple[dict, dict]:
    """`construct`: the system's dimensions, and for a family member whether
    its tuple is admissible."""
    result = system.describe()
    result["canonical_generators"] = system.subspace.serialize() if system.t <= 64 else None
    params = system.meta.get("params")
    if params is not None:
        result["admissible"] = tuple_admissible(params.tower, params.m, params.alphas)
        result["strongly_admissible"] = tuple_strongly_admissible(params.tower, params.m, params.alphas)
        result["feasible"] = admissibility_feasible(params.tower, params.m)
    return result, {"fq_dim": system.t}


def compare_result(system: QSystem, s_list) -> tuple[dict, dict]:
    """`compare`: the family member's weight bounds against the direct sum."""
    params = system.meta["params"]
    table = compare_with_direct_sum(params, s_list)
    result = {
        "indices": table,
        "admissible": tuple_admissible(params.tower, params.m, params.alphas),
        "strongly_admissible": tuple_strongly_admissible(params.tower, params.m, params.alphas),
        "baseline_profile": predicted_direct_sum_profile(params.m, params.tower.n, params.h).serialize(),
    }
    return result, {"indices": len(table)}


def search_result(tower: FieldTower, config: dict) -> tuple[dict, dict]:
    """`search`: the census of multiplier tuples a census config asks for."""
    result = scan_admissible(
        tower, config["m"], budget=config["budget"], seed=config["seed"], check_strong=config["check_b"]
    )
    return result, {"tuples_checked": result["tuples_checked"]}


def _question(config: dict):
    """(dim, bound, verifier) of a verify config: (hdim, r) and
    `verify_evasive` when the config names r, else (h, h) and
    `verify_h_scattered`.  verifier(system, **options) is the verdict."""
    if "r" in config:
        return config["hdim"], config["r"], partial(verify_evasive, hdim=config["hdim"], r=config["r"])
    return config["h"], config["h"], partial(verify_h_scattered, h=config["h"])


def run_verify(system: QSystem, config: dict, **run):
    """The verdict of a verify config.  `run` holds what the report does not
    record (workers, checkpoint, engine)."""
    verifier = _question(config)[2]
    return verifier(system, mode=config["mode"], budget=config["budget"], seed=config["seed"],
                    chunk_size=config["chunk_size"], **run)


# --- recheck ---


def recheck_report(report: dict) -> tuple[bool, list[str]]:
    """Re-verify a report from its own contents.

    Returns (ok, problems).  construct, compare and search reports are
    derived again in full.  Violated verdicts re-derive the witness weight;
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


def _reproduce(report, fresh, problems):
    """Every key of the report's result and counts must be the one derived again."""
    for block, values in zip(("result", "counts"), fresh):
        recorded = report[block]
        for key in sorted(set(recorded) | set(values)):
            if (key in recorded, recorded.get(key)) != (key in values, values.get(key)):
                problems.append(f"{block}.{key} does not reproduce")


def _recheck_construct(tower, report, problems):
    _reproduce(report, construct_result(_system(tower, report)), problems)


def _recheck_compare(tower, report, problems):
    _reproduce(report, compare_result(_system(tower, report), report["config"]["s_list"]), problems)


def _recheck_search(tower, report, problems):
    cfg = report["config"]
    res = report["result"]
    _reproduce(report, search_result(tower, cfg), problems)
    # The tuple invariant maps the tuples onto F_Q^*, hitting each value
    # equally often; a tuple is admissible iff its value lies outside the
    # subgroup of index g.
    if res.get("exhaustive"):
        Q, m = tower.order, cfg["m"]
        g = math.gcd(power_sum_exponent(tower.q, m), Q - 1)
        closed = (Q - 1) ** m * (g - 1) // g
        if res.get("admissible") != closed:
            problems.append(f"result.admissible is not the closed form (Q-1)^m (g-1)/g = {closed}")


def _recheck_verdict(tower, report, problems):
    system = _system(tower, report)
    cfg = report["config"]
    res = report["result"]
    status = res.get("status")
    mode = cfg["mode"]
    dim, bound, _ = _question(cfg)
    _check_options("scalar", mode, cfg["budget"], cfg["chunk_size"])
    sweepless = "r" in cfg and vacuous(system, bound)
    # the config's sweep on the scalar oracle: its units and their subspaces
    seed = recorded_seed(mode, cfg["seed"])
    sweep = None if sweepless else _build_sweep(system, dim, bound, mode, cfg["budget"], seed, "scalar")[0]
    given = {"mode": mode, "bound": bound, "dim": dim, "seed": seed}
    for key, value in given.items():
        if res.get(key) != value:
            problems.append(f"result.{key} is {res.get(key)!r}, but the config gives {value!r}")
    if report["counts"].get("subspaces_checked") != res.get("subspaces_checked"):
        problems.append("counts.subspaces_checked differs from result.subspaces_checked")
    if sweepless and status != "holds":
        problems.append(f"r >= t = {system.t} holds without a sweep, but the status is {status!r}")
    # The backend is the one `auto` picks for these inputs, and none when the
    # question is vacuous and nothing is swept.  Reports written before
    # verdicts named their backend carry no such key.
    backend = None if sweepless else weight_backend(tower, system.ambient, "auto", dim)
    if "backend" in res and res["backend"] != backend:
        problems.append(f"backend {res['backend']!r} is not the one these inputs run, {backend!r}")
    if "r" in cfg and res.get("span_defect") is not None:
        problems.append("a span defect is recorded, but evasiveness has no spanning condition")
    if status == "violated":
        wit = res.get("witness")
        if wit is None:
            if res.get("span_defect") is None:
                problems.append("violated verdict carries neither witness nor span defect")
            elif system.spans_ambient:
                problems.append("span defect recorded but the system spans the ambient space")
            return
        for key, value in (("mode", mode), ("bound", bound)):
            if wit.get(key) != value:
                problems.append(f"result.witness.{key} is {wit.get(key)!r}, but the config gives {value!r}")
        H = SubspaceQn.deserialize(tower, system.ambient, wit["H_basis"])
        # A smaller witness is valid: any subspace containing it has at
        # least its weight.  The witness-span sweep reports one of dimension
        # d < dim when a span of d U-vectors already exceeds the bound.
        if H.dim > dim:
            problems.append(f"witness subspace has dimension {H.dim}, more than {dim}")
        index = wit.get("tuple_index")
        is_key = isinstance(index, list) and all(type(i) is int for i in index)
        named = sweep.subspace(index) if is_key and sweep is not None else None
        if named is None:
            problems.append(f"witness tuple_index {index!r} names no unit of the {mode} sweep")
        elif named != H:
            problems.append(f"witness tuple_index {index!r} names another subspace than H_basis")
        w = subspace_weight(system.subspace, H)
        if w != wit["weight"]:
            problems.append(f"witness weight mismatch: recorded {wit['weight']}, recomputed {w}")
        if w <= bound:
            problems.append(f"witness weight {w} does not exceed the bound {bound}")
        _check_intersection(tower, system, H, wit, problems)
    elif status == "holds":
        if res.get("witness") is not None:
            problems.append("result.witness is recorded on a 'holds' verdict")
        if sweepless:
            if res.get("subspaces_checked") != 0:
                problems.append(f"a vacuous 'holds' checks no subspace, not {res.get('subspaces_checked')}")
        elif mode == "sampled":
            problems.append("sampled runs cannot prove 'holds'")
        else:
            if mode == "exhaustive" and res.get("subspaces_checked") != sweep.total_units:
                problems.append(f"an exhaustive 'holds' checks all {sweep.total_units} subspaces, "
                                f"not {res.get('subspaces_checked')}")
            _resweep_proof(system, cfg, sweep, res, problems)
    elif status == "inconclusive":
        if mode != "sampled" or sweepless:
            return
        budget = cfg["budget"]
        if res.get("subspaces_checked") != budget:
            problems.append(f"result.subspaces_checked of a sampled run is not its budget {budget}")
        for i in range(min(RECHECK_SAMPLES, budget)):
            if subspace_weight(system.subspace, sweep.subspace([i])) > res.get("bound"):
                problems.append(f"sample {i} violates the bound but the report found no witness")
                return
    else:
        problems.append(f"result.status {status!r} is none of holds, violated, inconclusive")


def _resweep_proof(system, cfg, sweep, res, problems):
    """Re-run a proof of the exhaustive or witness-span `sweep` whose size,
    taken from the system and not from the claimed count, is at most
    RECHECK_SWEEP_CAP units, through the scalar oracle and not the backend
    that produced it; the status and the number of subspaces checked must
    reproduce.  A witness-span sweep is sized by its |U|^h tuples."""
    size = sweep.total_units if cfg["mode"] == "exhaustive" else (system.tower.q**system.t) ** sweep.dim
    if size > RECHECK_SWEEP_CAP:
        return
    fresh = run_verify(system, cfg, engine="scalar")
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
    cheaper = _cheaper_dual(system, rhos) if cfg.get("mode") == "exhaustive" else None
    if res.get("route") != ("primal" if cheaper is None else "dual"):
        problems.append(f"route {res.get('route')!r} is not the one these weights take")
    entries = res.get("profile", [])
    if report["counts"].get("entries") != len(entries):
        problems.append(f"counts.entries is not the number of profile entries, {len(entries)}")
    profile = WeightProfile(k, t)
    try:
        for e in entries:
            profile.add(e["rho"], e["value"], e["provenance"], e.get("subspaces_checked"))
        profile.validate()
    except ValueError as exc:  # the entries added so far are still swept again
        problems.append(str(exc))
    Q = tower.order
    kd = t - k
    dual_size = sum(gaussian_binomial(kd, kd - s, Q) for s in range(1, kd + 1))
    _check_swept(cfg, report["counts"], profile, Q, dual_size if cheaper is not None else None, problems)
    exact = {e.rho: e.value for e in profile.entries if e.provenance == "exact"}
    # Every exact entry against Wei duality, when the dual is nondegenerate
    # and its profile is small: the dual's d_s = t - w_s, swept by the scalar
    # oracle, leaves {d_rho} = [t] minus {t + 1 - d_s}.
    dual_system = None
    if kd >= 1 and dual_size <= RECHECK_SWEEP_CAP:
        dual_system = cheaper or nondegenerate_dual(system)
    # The primal re-sweep runs on the scalar oracle, except for a dual-route
    # profile that the Wei check re-derives on the oracle: there the primal
    # sweep is already a route that did not produce the entries.
    engine = "auto" if cheaper is not None and dual_system is not None else "scalar"
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
        if primal[rho - 1] != value:
            problems.append(f"d_{rho} = {value} contradicts the dual profile, which gives {primal[rho - 1]}")


def _check_swept(cfg, counts, profile, Q, dual_size, problems):
    """Each entry's subspaces_checked, and counts.subspaces_swept, are what
    the route sweeps.  On the dual route (dual_size not None) the entries
    sweep nothing of their own and the dual's whole profile of dual_size
    subspaces is swept, since a budget that stops it is refused."""
    if dual_size is not None:
        swept = dual_size
        if any(e.checked != 0 for e in profile.entries):
            problems.append("a profile entry of the dual route records subspaces of its own")
    else:
        swept = 0
        for e in profile.entries:
            checked, exact = _primal_sweep(cfg, profile.k, e.rho, Q)
            swept += checked
            if e.checked != checked:
                problems.append(f"d_{e.rho} records {e.checked} subspaces checked, but its sweep checks {checked}")
            if (e.provenance == "exact") != exact:
                problems.append(f"d_{e.rho} is {e.provenance!r}, but its sweep is {'' if exact else 'not '}exact")
    if counts.get("subspaces_swept") != swept:
        problems.append(f"counts.subspaces_swept is not the {swept} subspaces this route sweeps")


def _primal_sweep(cfg, k, rho, Q):
    """(subspaces checked, exact) of the primal sweep for d_rho: the budget
    of a sampled sweep, and of an exhaustive one its whole Grassmannian of
    (k - rho)-spaces, or a budget rounded up to a chunk boundary
    (`runner.run_sweep`) when that falls short.  The zero space of rho = k
    is one subspace and exact in either mode."""
    size = gaussian_binomial(k, k - rho, Q)
    budget = cfg.get("budget")
    if rho == k or (cfg["mode"] == "exhaustive" and budget is None):
        return size, True
    if cfg["mode"] == "sampled":
        return budget, False
    chunk = min(DEFAULT_CHUNKS["exhaustive"], size)
    checked = min(size, -(-budget // chunk) * chunk)
    return checked, checked == size
