"""Command-line front end.

Subcommands: construct, verify-scattered, verify-evasive, weights, compare,
search, recheck.  Exit codes: 0 holds/complete, 1 violation or corrupt
report (the report carries the witness), 2 inconclusive (sampled budget
exhausted), 3 configuration error or unusable path, 4 usage error.

Reports are deterministic: two runs with the same configuration (seed
included; worker count and checkpointing excluded) produce byte-identical
bodies, everything outside the `timing` block.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import reports
from .codes import (
    compare_with_direct_sum,
    generalized_weights,
    predicted_direct_sum_profile,
)
from .construction import (
    ConstructionParams,
    QSystem,
    admissibility_feasible,
    direct_sum,
    family_subspace,
    line_control_subspace,
    pseudoregulus_subspace,
    scan_admissible,
    system_to_desc,
    tuple_admissible,
    tuple_strongly_admissible,
)
from .field import FieldTower
from .verify import verify_evasive, verify_h_scattered

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_field(text: str) -> FieldTower:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ConfigError("--field expects p,s,n[,modulus] (modulus packed base p)")
    try:
        nums = [int(x) for x in parts]
    except ValueError:
        raise ConfigError("--field components must be integers") from None
    modulus = nums[3] if len(nums) == 4 else None
    try:
        return FieldTower(nums[0], nums[1], nums[2], modulus)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


# Options in the order subcommands take them: each subcommand gets a prefix
# of this list, so it accepts exactly the options its handler reads.
_COMMON = [
    ("--field", dict(required=True, help="p,s,n[,modulus] with the modulus packed base p")),
    ("--out", dict(help="write the JSON report here (default: stdout)")),
    ("--force", dict(action="store_true", help="proceed even when no admissible tuple can exist")),
    ("--seed", dict(type=int, default=0)),
    ("--budget", dict(type=int, default=None, help="units to check in sampled mode")),
    ("--workers", dict(type=int, default=1, help="worker processes, at most one per CPU and per chunk")),
    ("--checkpoint", dict(help="append-only checkpoint file for resumable sweeps")),
    ("--chunk-size", dict(type=int, default=None)),
]
REPORT_ONLY, SAMPLING, POOLED, RESUMABLE = 3, 5, 6, 8


def _add_common(p: argparse.ArgumentParser, count: int):
    for flag, kwargs in _COMMON[:count]:
        p.add_argument(flag, **kwargs)


def _add_system(p: argparse.ArgumentParser):
    p.add_argument(
        "--system",
        choices=["family", "pseudoregulus", "direct-sum", "line-control"],
        default="family",
    )
    p.add_argument("--m", type=int, help="number of blocks / tuple length")
    p.add_argument("--h", type=int, help="scatteredness parameter")
    p.add_argument("--alphas", help="comma-separated multiplier values, packed base p")
    p.add_argument("--ambient", type=int, default=2, help="ambient dimension of the line control")


def build_parser() -> _Parser:
    parser = _Parser(prog="rankscatter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a system and report its dimensions")
    _add_common(p, REPORT_ONLY)
    _add_system(p)

    p = sub.add_parser("verify-scattered", help="decide h-scatteredness")
    _add_common(p, RESUMABLE)
    _add_system(p)
    p.add_argument("--mode", choices=["exhaustive", "witness_span", "sampled"], default="witness_span")

    p = sub.add_parser("verify-evasive", help="decide (hdim, r)-evasiveness")
    _add_common(p, RESUMABLE)
    _add_system(p)
    p.add_argument("--mode", choices=["exhaustive", "witness_span", "sampled"], default="sampled")
    p.add_argument("--hdim", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("weights", help="generalized rank weights of a system")
    _add_common(p, POOLED)
    _add_system(p)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--rho", help="comma-separated indices (default: all)")
    p.add_argument("--csv", help="also write the profile as CSV here")

    p = sub.add_parser("compare", help="family weight bounds vs the direct-sum baseline")
    _add_common(p, REPORT_ONLY)
    _add_system(p)
    p.add_argument("--s-list", dest="s_list", help="comma-separated s values for rho = s(h+1)")

    p = sub.add_parser("search", help="census of multiplier tuples by admissibility")
    _add_common(p, SAMPLING)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check-b", dest="check_strong", action="store_true",
                   help="also count strongly admissible tuples")

    p = sub.add_parser("recheck", help="re-verify an emitted report file")
    p.add_argument("report", help="path to a report JSON file")
    return parser


def _build_system(tower: FieldTower, args) -> tuple[QSystem, ConstructionParams | None]:
    kind = args.system
    if kind == "family":
        if args.m is None or args.h is None or args.alphas is None:
            raise ConfigError("family system needs --m, --h and --alphas")
        alphas = tuple(_parse_ints(args.alphas))
        try:
            params = ConstructionParams(tower, args.m, args.h, alphas)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not admissibility_feasible(tower, args.m) and not args.force:
            raise ConfigError(
                "no admissible tuple exists for these (q, n, m); every theorem "
                "instance is vacuous (pass --force to proceed anyway)"
            )
        if not tuple_admissible(params.tower, params.m, params.alphas):
            print("warning: tuple is not admissible; no scatteredness guarantee", file=sys.stderr)
        return family_subspace(params), params
    if kind == "pseudoregulus":
        if args.h is None:
            raise ConfigError("pseudoregulus needs --h")
        return pseudoregulus_subspace(tower, args.h), None
    if kind == "direct-sum":
        if args.m is None or args.h is None:
            raise ConfigError("direct-sum baseline needs --m and --h")
        if args.m < 1:
            raise ConfigError("--m must be positive")
        return direct_sum([pseudoregulus_subspace(tower, args.h)] * args.m), None
    if kind == "line-control":
        return line_control_subspace(tower, args.ambient), None
    raise ConfigError(f"unknown system {kind!r}")


def _check_writable(*paths) -> None:
    """Refuse an output path that cannot be a file in a writable directory
    before any work starts, not after the sweep whose report it would hold."""
    for path in paths:
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise ConfigError(f"cannot write {path}: not a file in a writable directory")


def _emit(report: dict, args) -> None:
    text = reports.write_report(report, getattr(args, "out", None))
    if not getattr(args, "out", None):
        sys.stdout.write(text)


def _verdict_exit(status: str) -> int:
    return {"holds": EXIT_HOLDS, "violated": EXIT_VIOLATED, "inconclusive": EXIT_INCONCLUSIVE}[status]


def _cmd_construct(args) -> int:
    tower = _parse_field(args.field)
    t0 = time.time()
    system, p = _build_system(tower, args)
    result = system.describe()
    result["canonical_generators"] = system.subspace.serialize() if system.t <= 64 else None
    if p is not None:
        result["admissible"] = tuple_admissible(p.tower, p.m, p.alphas)
        result["strongly_admissible"] = tuple_strongly_admissible(p.tower, p.m, p.alphas)
        result["feasible"] = admissibility_feasible(tower, args.m)
    config = {"system": system_to_desc(system), "force": bool(args.force)}
    report = reports.build_report(
        "construct", config, tower.descriptor(), result,
        {"fq_dim": system.t}, _timing(t0, args),
    )
    _emit(report, args)
    return EXIT_HOLDS


def _timing(t0: float, args) -> dict:
    timing = {"seconds": round(time.time() - t0, 6)}
    if "workers" in args:
        timing["workers"] = args.workers
    return timing


def _cmd_verify(args, evasive: bool) -> int:
    tower = _parse_field(args.field)
    t0 = time.time()
    system, _ = _build_system(tower, args)
    common = dict(
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        checkpoint=args.checkpoint,
        chunk_size=args.chunk_size,
    )
    try:
        if evasive:
            verdict = verify_evasive(system, args.hdim, args.r, **common)
        else:
            h = args.h if args.h is not None else (1 if args.system == "line-control" else None)
            if h is None:
                raise ConfigError("verify-scattered needs --h")
            verdict = verify_h_scattered(system, h, **common)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    config = {
        "system": system_to_desc(system),
        "mode": args.mode,
        "budget": args.budget,
        "seed": args.seed,
        "chunk_size": args.chunk_size,
        "force": bool(args.force),
    }
    if evasive:
        config["hdim"] = args.hdim
        config["r"] = args.r
    else:
        config["h"] = verdict.dim
    report = reports.build_report(
        "verify-evasive" if evasive else "verify-scattered",
        config, tower.descriptor(), verdict.serialize(tower),
        {"subspaces_checked": verdict.checked}, _timing(t0, args),
    )
    _emit(report, args)
    return _verdict_exit(verdict.status)


def _cmd_weights(args) -> int:
    tower = _parse_field(args.field)
    t0 = time.time()
    system, _ = _build_system(tower, args)
    rho_list = _parse_ints(args.rho) if args.rho else None
    try:
        profile = generalized_weights(
            system, rho_list, mode=args.mode, budget=args.budget,
            seed=args.seed, workers=args.workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(profile.to_csv())
    result = {
        "t": system.t,
        "k": system.ambient,
        "route": profile.route,
        "profile": profile.serialize(),
    }
    config = {
        "system": system_to_desc(system),
        "mode": args.mode,
        "budget": args.budget,
        "seed": args.seed,
        "rho": rho_list,
        "force": bool(args.force),
    }
    report = reports.build_report(
        "weights", config, tower.descriptor(), result,
        {"entries": len(profile.entries), "subspaces_swept": profile.swept}, _timing(t0, args),
    )
    _emit(report, args)
    return EXIT_HOLDS if args.mode == "exhaustive" else EXIT_INCONCLUSIVE


def _cmd_compare(args) -> int:
    tower = _parse_field(args.field)
    t0 = time.time()
    if args.system != "family":
        raise ConfigError("compare applies to the family system")
    system, params = _build_system(tower, args)
    s_list = _parse_ints(args.s_list) if args.s_list else None
    try:
        table = compare_with_direct_sum(params, s_list)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    baseline = predicted_direct_sum_profile(args.m, tower.n, args.h)
    result = {
        "indices": table,
        "admissible": tuple_admissible(params.tower, params.m, params.alphas),
        "strongly_admissible": tuple_strongly_admissible(params.tower, params.m, params.alphas),
        "baseline_profile": baseline.serialize(),
    }
    config = {
        "system": system_to_desc(system),
        "s_list": s_list,
        "force": bool(args.force),
    }
    report = reports.build_report(
        "compare", config, tower.descriptor(), result,
        {"indices": len(table)}, _timing(t0, args),
    )
    _emit(report, args)
    return EXIT_HOLDS


def _cmd_search(args) -> int:
    tower = _parse_field(args.field)
    t0 = time.time()
    try:
        result = scan_admissible(
            tower, args.m, budget=args.budget, seed=args.seed,
            check_strong=args.check_strong,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not result["feasible"] and not args.force:
        print("warning: no admissible tuple can exist for these parameters", file=sys.stderr)
    config = {
        "m": args.m,
        "budget": args.budget,
        "seed": args.seed if args.budget is not None else None,
        "check_b": bool(args.check_strong),
        "force": bool(args.force),
    }
    report = reports.build_report(
        "search", config, tower.descriptor(), result,
        {"tuples_checked": result["tuples_checked"]}, _timing(t0, args),
    )
    _emit(report, args)
    return EXIT_HOLDS


def _cmd_recheck(args) -> int:
    try:
        report = reports.load_report(args.report)
    except ValueError as exc:
        print(f"corrupt report: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    ok, problems = reports.recheck_report(report)
    if ok:
        print(f"report verified: {args.report}")
        return EXIT_HOLDS
    for p in problems:
        print(f"corrupt report: {p}", file=sys.stderr)
    return EXIT_VIOLATED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_writable(getattr(args, "out", None), getattr(args, "csv", None))
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify-scattered":
            return _cmd_verify(args, evasive=False)
        if args.command == "verify-evasive":
            return _cmd_verify(args, evasive=True)
        if args.command == "weights":
            return _cmd_weights(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "recheck":
            return _cmd_recheck(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # names the path: a report, CSV or checkpoint file
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
