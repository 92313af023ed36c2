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

from .codes import (
    EXACT,
    UPPER,
    compare_with_direct_sum,
    dual_weights,
    nondegenerate_dual,
    predicted_direct_sum_profile,
    weight_plans,
    weight_profile,
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
from .linalg import expand_vector, make_rows, subspace_fq_rows
from .runner import SweepOutcome
from .verify import (
    _build_sweep,
    _verdict,
    plan,
    rederive,
    span_defect,
    verify_evasive,
    verify_h_scattered,
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


def run_verify(system: QSystem, config: dict, **run):
    """The verdict of a verify config.  `run` holds what the report does not
    record (workers, checkpoint)."""
    run.update((key, config[key]) for key in ("mode", "budget", "seed", "chunk_size"))
    if "r" in config:
        return verify_evasive(system, config["hdim"], config["r"], **run)
    return verify_h_scattered(system, config["h"], **run)


def verify_result(tower: FieldTower, verdict) -> tuple[dict, dict]:
    """`verify-scattered` and `verify-evasive`: the verdict and its count."""
    return verdict.serialize(tower), {"subspaces_checked": verdict.checked}


def weights_result(profile) -> tuple[dict, dict]:
    """`weights`: the code's length and dimension, the route and the profile."""
    result = {"t": profile.t, "k": profile.k, "route": profile.route, "profile": profile.serialize()}
    return result, {"entries": len(profile.entries), "subspaces_swept": profile.swept}


# --- recheck ---


def recheck_report(report: dict) -> tuple[list[str], list[str]]:
    """Re-verify a report from its own contents.

    Returns (problems, unchecked claims).  construct, compare and search
    reports are derived again in full; a verdict is rebuilt from the outcome
    it records by verify's status rule.  Every re-sweep is one `rederive` of
    a plan rebuilt from the config, on the scalar oracle, but for the one
    `_recheck_weights` names; a claim whose plan is past the cap is named,
    as is a sampled run replayed in part.
    """
    problems, unchecked = [], []
    try:
        tower = FieldTower.from_descriptor(report["field"])
    except Exception as exc:
        return [f"field descriptor invalid: {exc}"], []
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
        return [f"unknown command {command!r}"], []
    try:
        handler(tower, report, problems, unchecked)
    except Exception as exc:
        problems.append(f"recheck raised: {exc}")
    return problems, unchecked


def _system(tower, report):
    return system_from_desc(tower, report["config"]["system"])


def _reproduce(report, fresh, problems):
    """Every key of the report's result and counts must be the one derived again."""
    for block, values in zip(("result", "counts"), fresh):
        recorded = report[block]
        for key in sorted(set(recorded) | set(values)):
            if (key in recorded, recorded.get(key)) != (key in values, values.get(key)):
                problems.append(f"{block}.{key} does not reproduce")


def _recheck_construct(tower, report, problems, unchecked):
    _reproduce(report, construct_result(_system(tower, report)), problems)


def _recheck_compare(tower, report, problems, unchecked):
    _reproduce(report, compare_result(_system(tower, report), report["config"]["s_list"]), problems)


def _recheck_search(tower, report, problems, unchecked):
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


def _recheck_verdict(tower, report, problems, unchecked):
    """Rebuild the verdict that verify's one status rule gives for the
    outcome the report records, which must reproduce key by key, then
    re-derive what the rule takes from that outcome: the witness's weight
    and its meet with U, the count of an index sweep, and the run itself."""
    system = _system(tower, report)
    cfg = report["config"]
    res = report["result"]
    # the question of the config: (hdim, r), or (h, h) with the span defect
    dim, bound, defect = (cfg["hdim"], cfg["r"], None) if "r" in cfg else (cfg["h"], cfg["h"], span_defect)
    p = plan(system, dim, bound, cfg["mode"], cfg["budget"], cfg["seed"], cfg["chunk_size"], defect)
    checked = res.get("subspaces_checked")
    sweep, outcome = None, p.known
    if outcome is None:
        # the config's sweep: its units and their subspaces
        sweep = _build_sweep(system, p)[0]
        wit, viol = res.get("witness"), None
        index = None if wit is None else wit.get("tuple_index")
        if isinstance(index, list) and all(type(i) is int for i in index) and sweep.subspace(index) is not None:
            viol = {"key": index, "weight": wit.get("weight")}
        elif wit is not None:
            problems.append(f"witness tuple_index {index!r} names no unit of the {p.mode} sweep")
        outcome = SweepOutcome(checked, viol, None, res.get("status") != "inconclusive")
    verdict = _verdict(system, p, sweep, outcome)
    result, counts = verify_result(tower, verdict)
    if "backend" not in res:  # written before verdicts named their backend
        del result["backend"]
    elif (res["backend"], result["backend"]) == ("fp", "gf3"):  # written before q = 3 had its own kernel
        result["backend"] = "fp"
    _reproduce(report, (result, counts), problems)
    if sweep is None:
        return
    # re-sweeps run on the scalar oracle, sized from the config, never from the count
    if verdict.witness is not None:
        # the rebuilt witness is weighed by the oracle; the rule takes its
        # weight above the bound, and its run, on trust
        key = verdict.witness.tuple_index
        if verdict.witness.weight <= p.bound:
            problems.append(f"witness weight {verdict.witness.weight} does not exceed the bound {p.bound}")
        _check_intersection(tower, system, verdict.witness.H, res["witness"], problems)
        # an index sweep weighs one subspace a unit, up to its witness's
        # unit inside the plan; a witness-span sweep runs in full
        units = p.total if p.mode == "witness_span" else min(key[0] + 1, p.units)
        weighed = p.subspaces if p.mode == "witness_span" else units
        if weighed > RECHECK_SWEEP_CAP:
            unchecked.append(f"the run of {checked} subspaces to the witness: a plan of up to {weighed}, "
                             "past the recheck cap")
        else:
            # the oracle's scan stops at its first violation, at or before the witness's unit
            fresh = rederive(system, p, units)
            first = None if fresh.viol is None else fresh.viol["key"]
            if (first, fresh.checked) != (key, checked):
                problems.append(f"run to the witness does not reproduce: recorded {key} after {checked} "
                                f"subspaces, the oracle finds {first} after {fresh.checked}")
    elif p.mode == "sampled":
        # a missed witness among the first samples, found on the oracle
        units = min(RECHECK_SAMPLES, p.units)
        viol = rederive(system, p, units).viol
        if viol is not None:
            problems.append(f"sample {viol['key'][0]} violates the bound but the report found no witness")
        if units < p.units:
            unchecked.append(f"a sampled run of {p.units} samples, replayed in its first {units}")
    elif verdict.holds and p.subspaces > RECHECK_SWEEP_CAP:
        unchecked.append(f"the proof over {checked} subspaces: a plan of up to {p.subspaces}, past the recheck cap")
    elif verdict.holds:
        # the whole sweep, which a budget met before its last chunk would cut
        fresh = rederive(system, p, p.total)
        cut = p.budget is not None and rederive(system, p, (p.total - 1) // p.chunk * p.chunk).checked >= p.budget
        why = "finds a violation" if fresh.viol else "stops at the budget" if cut else f"checks {fresh.checked}"
        if fresh.viol is not None or fresh.checked != checked or cut:
            problems.append(f"proof does not reproduce: recorded holds after {checked} subspaces, the oracle {why}")
    # An index sweep checks every unit up to its witness, else its whole
    # range or what its budget lets it check.  Budgeted witness-span counts
    # skip units, so they are not derived here.
    units = verdict.witness.tuple_index[0] + 1 if verdict.witness else p.total if verdict.holds else p.units
    if p.mode != "witness_span" and checked != units:
        problems.append(f"result.subspaces_checked is {checked}, but the {p.mode} sweep of this config "
                        f"checks {units}")


def _check_intersection(tower, system, H, wit, problems):
    vectors = [tuple(tower.val(c) for c in v) for v in wit.get("intersection_basis", [])]
    if len(vectors) != wit["weight"]:
        problems.append("intersection basis size differs from the recorded weight")
    h_acc, indep = make_rows(tower), make_rows(tower)
    for r in subspace_fq_rows(tower, H):
        h_acc.add(r)
    for v in vectors:
        if not system.subspace.contains_vector(v):
            problems.append("intersection vector lies outside the subspace")
            return
        row = expand_vector(tower, v)
        if not h_acc.contains(row):
            problems.append("intersection vector lies outside the witness subspace")
            return
        if not indep.add(row):
            problems.append("intersection basis rows are dependent")
            return


def _recheck_weights(tower, report, problems, unchecked):
    """Rebuild the profile that `weight_profile` gives for the config, with
    the values the report records, which must reproduce key by key; then
    check those values on paths that did not produce them, sized by plans."""
    system = _system(tower, report)
    cfg = report["config"]
    profile, dual, plans = weight_profile(system, cfg["rho"], cfg["mode"], cfg["budget"], cfg["seed"])
    recorded = {e["rho"]: e["value"] for e in report["result"]["profile"]}
    for e in profile.entries:
        e.value = recorded.get(e.rho)
    _reproduce(report, weights_result(profile), problems)
    if problems:  # values are checked only in a profile its producer writes
        return
    try:
        profile.validate()
    except ValueError as exc:
        problems.append(str(exc))
    if cfg["mode"] == "sampled":
        _replay_weights(system, profile, plans, problems, unchecked)
    # Every exact entry against Wei duality, when the dual is nondegenerate
    # and its profile is small: the dual's full profile, swept by the scalar
    # oracle, leaves the primal one as its Wei complement.
    t = profile.t
    wei, dual = None, dual or nondegenerate_dual(system)
    dual_plans = [] if dual is None else weight_plans(dual, None, "exhaustive")
    if dual_plans and sum(p.total for p in dual_plans) <= RECHECK_SWEEP_CAP:
        wei = dual_weights([t - rederive(dual, p, p.total).best["weight"] for p in dual_plans], t)
    # The primal re-sweep runs on the scalar oracle, except for a dual-route
    # profile that the Wei check re-derives on the oracle: there the primal
    # sweep on its planned backend is already a route that did not produce
    # the entries.
    planned = profile.route == "dual" and wei is not None
    exact = sorted((e for e in profile.entries if e.provenance == EXACT), key=lambda e: e.rho)
    for e, p in zip(exact, weight_plans(system, [e.rho for e in exact], "exhaustive")):
        if p.total <= RECHECK_SWEEP_CAP:
            fresh = _build_sweep(system, p)[0].run_units(0, p.total) if planned else rederive(system, p, p.total)
            w = fresh.best["weight"]
            if t - w != e.value:
                problems.append(f"d_{e.rho} mismatch: recorded {e.value}, recomputed {t - w}")
        elif wei is None:
            unchecked.append(f"d_{e.rho} = {e.value}: {p.total} subspaces and the dual profile past the recheck cap")
        if wei is not None and wei[e.rho - 1] != e.value:
            problems.append(f"d_{e.rho} = {e.value} contradicts the dual profile, which gives {wei[e.rho - 1]}")


def _replay_weights(system, profile, plans, problems, unchecked):
    """Each sampled entry d_rho = t - max against its plan's samples,
    replayed on the scalar oracle: its whole budget, where the two must be
    equal, when the sampled entries' plans weigh at most RECHECK_SWEEP_CAP
    subspaces in all, else its first RECHECK_SAMPLES, which bound it from above."""
    sampled = [(e, p) for e, p in zip(profile.entries, plans) if e.provenance == UPPER]
    whole = sum(p.subspaces for _, p in sampled) <= RECHECK_SWEEP_CAP
    for e, p in sampled:
        units = p.units if whole else min(RECHECK_SAMPLES, p.units)
        top = profile.t - rederive(system, p, units).best["weight"]
        if e.value != top if whole else e.value > top:
            problems.append(f"d_{e.rho} = {e.value}, but its {'' if whole else 'first '}samples on the oracle "
                            f"give {'' if whole else 'at most '}{top}")
        if units < p.units:
            unchecked.append(f"d_{e.rho} = {e.value} from {p.units} samples, replayed in the first {units}")
