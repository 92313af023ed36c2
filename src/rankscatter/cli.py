"""Command-line front end.

Subcommands: construct, verify-scattered, verify-evasive, weights, compare,
search, recheck.  Exit codes: 0 holds/complete, 1 violation or corrupt
report (the report carries the witness), 2 inconclusive (a sampled sweep,
or a budget that stopped one: a verdict short of a proof, or weights not
all exact), 3 configuration error or unusable path, 4 usage error, 5 a
worker process that ended without its chunk's result (a resume from the
checkpoint, if one was given, reruns only the unfinished chunks).

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
from .codes import EXACT, generalized_weights
from .construction import (
    ConstructionParams,
    QSystem,
    admissibility_feasible,
    direct_sum,
    family_subspace,
    line_control_subspace,
    pseudoregulus_subspace,
    system_to_desc,
    tuple_admissible,
)
from .field import FieldTower
from .runner import WorkerError

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3
EXIT_USAGE = 4
EXIT_WORKER = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_field(text: str) -> FieldTower:
    parts = text.split(",")
    if len(parts) not in (3, 4) or "" in parts:
        raise ValueError("--field expects p,s,n[,modulus] (modulus packed base p)")
    return FieldTower(*_parse_ints(text))


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


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


def build_parser(command: str | None = None) -> _Parser:
    """The parser of `command`'s subcommand alone when it names one, else of
    every subcommand: a subcommand parses alike either way."""
    parser = _Parser(prog="rankscatter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in (*_HANDLERS, "recheck")

    def add(name, text):
        return sub.add_parser(name, help=text) if every or name == command else None

    if p := add("construct", "build a system and report its dimensions"):
        _add_common(p, REPORT_ONLY)
        _add_system(p)

    if p := add("verify-scattered", "decide h-scatteredness"):
        _add_common(p, RESUMABLE)
        _add_system(p)
        p.add_argument("--mode", choices=["exhaustive", "witness_span", "sampled"], default="witness_span")

    if p := add("verify-evasive", "decide (hdim, r)-evasiveness"):
        _add_common(p, RESUMABLE)
        _add_system(p)
        p.add_argument("--mode", choices=["exhaustive", "witness_span", "sampled"], default="sampled")
        p.add_argument("--hdim", type=int, required=True)
        p.add_argument("--r", type=int, required=True)

    if p := add("weights", "generalized rank weights of a system"):
        _add_common(p, POOLED)
        _add_system(p)
        p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
        p.add_argument("--rho", help="comma-separated indices (default: all)")
        p.add_argument("--csv", help="also write the profile as CSV here")

    if p := add("compare", "family weight bounds vs the direct-sum baseline"):
        _add_common(p, REPORT_ONLY)
        _add_system(p)
        p.add_argument("--s-list", dest="s_list", help="comma-separated s values for rho = s(h+1)")

    if p := add("search", "census of multiplier tuples by admissibility"):
        _add_common(p, SAMPLING)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--check-b", dest="check_strong", action="store_true",
                       help="also count strongly admissible tuples")

    if p := add("recheck", "re-verify an emitted report file"):
        p.add_argument("report", help="path to a report JSON file")
    return parser


def _build_system(tower: FieldTower, args) -> QSystem:
    kind = args.system
    if kind == "family":
        if args.m is None or args.h is None or args.alphas is None:
            raise ValueError("family system needs --m, --h and --alphas")
        params = ConstructionParams(tower, args.m, args.h, tuple(_parse_ints(args.alphas)))
        if not admissibility_feasible(tower, args.m) and not args.force:
            raise ValueError(
                "no admissible tuple exists for these (q, n, m); every theorem "
                "instance is vacuous (pass --force to proceed anyway)"
            )
        if not tuple_admissible(params.tower, params.m, params.alphas):
            print("warning: tuple is not admissible; no scatteredness guarantee", file=sys.stderr)
        return family_subspace(params)
    if kind == "pseudoregulus":
        if args.h is None:
            raise ValueError("pseudoregulus needs --h")
        return pseudoregulus_subspace(tower, args.h)
    if kind == "direct-sum":
        if args.m is None or args.h is None:
            raise ValueError("direct-sum baseline needs --m and --h")
        return direct_sum([pseudoregulus_subspace(tower, args.h)] * args.m)
    return line_control_subspace(tower, args.ambient)


def _check_writable(*paths) -> None:
    """Refuse an output path that cannot be a file in a writable directory
    before any work starts, not after the sweep whose report it would hold."""
    for path in paths:
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise ValueError(f"cannot write {path}: not a file in a writable directory")


# Each report subcommand's handler takes (tower, args) and returns the
# report's (config, result, counts) and the exit code; `_run` does the rest.


def _cmd_construct(tower: FieldTower, args):
    system = _build_system(tower, args)
    return {"system": system_to_desc(system)}, *reports.construct_result(system), EXIT_HOLDS


def _cmd_verify(tower: FieldTower, args):
    system = _build_system(tower, args)
    config = {
        "system": system_to_desc(system),
        "mode": args.mode,
        "budget": args.budget,
        "seed": args.seed,
        "chunk_size": args.chunk_size,
    }
    if args.command == "verify-evasive":
        config.update(hdim=args.hdim, r=args.r)
    else:
        # every system but the line control needs --h to be built
        config["h"] = 1 if args.h is None else args.h
    verdict = reports.run_verify(system, config, workers=args.workers, checkpoint=args.checkpoint)
    code = {"holds": EXIT_HOLDS, "violated": EXIT_VIOLATED, "inconclusive": EXIT_INCONCLUSIVE}[verdict.status]
    return config, *reports.verify_result(tower, verdict), code


def _cmd_weights(tower: FieldTower, args):
    system = _build_system(tower, args)
    rho_list = _parse_ints(args.rho) if args.rho else None
    profile = generalized_weights(
        system, rho_list, mode=args.mode, budget=args.budget,
        seed=args.seed, workers=args.workers,
    )
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(profile.to_csv())
    config = {
        "system": system_to_desc(system),
        "mode": args.mode,
        "budget": args.budget,
        "seed": args.seed,
        "rho": rho_list,
    }
    code = EXIT_HOLDS if all(e.provenance == EXACT for e in profile.entries) else EXIT_INCONCLUSIVE
    return config, *reports.weights_result(profile), code


def _cmd_compare(tower: FieldTower, args):
    if args.system != "family":
        raise ValueError("compare applies to the family system")
    system = _build_system(tower, args)
    s_list = _parse_ints(args.s_list) if args.s_list else None
    config = {"system": system_to_desc(system), "s_list": s_list}
    return config, *reports.compare_result(system, s_list), EXIT_HOLDS


def _cmd_search(tower: FieldTower, args):
    config = {
        "m": args.m,
        "budget": args.budget,
        "seed": args.seed if args.budget is not None else None,
        "check_b": bool(args.check_strong),
    }
    result, counts = reports.search_result(tower, config)
    if not result["feasible"] and not args.force:
        print("warning: no admissible tuple can exist for these parameters", file=sys.stderr)
    return config, result, counts, EXIT_HOLDS


_HANDLERS = {
    "construct": _cmd_construct,
    "verify-scattered": _cmd_verify,
    "verify-evasive": _cmd_verify,
    "weights": _cmd_weights,
    "compare": _cmd_compare,
    "search": _cmd_search,
}


def _run(args) -> int:
    """Run one report subcommand and write its report."""
    _check_writable(args.out, getattr(args, "csv", None))
    tower = _parse_field(args.field)
    t0 = time.time()
    config, result, counts, code = _HANDLERS[args.command](tower, args)
    config["force"] = bool(args.force)
    timing = {"seconds": round(time.time() - t0, 6)}
    if "workers" in args:
        timing["workers"] = args.workers
    report = reports.build_report(args.command, config, tower.descriptor(), result, counts, timing)
    text = reports.write_report(report, args.out)
    if not args.out:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    """Exit code of one command line.  Besides the usage errors of the
    parser, a ValueError (a parameter the library rejects) and an OSError
    (a path it cannot use) are the configuration errors, and a
    WorkerError is exit 5; any other exception is a broken invariant and
    propagates."""
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if args.command != "recheck":
            return _run(args)
        try:
            problems, unchecked = reports.recheck_report(reports.load_report(args.report))
        except ValueError as exc:  # not a JSON report object of this schema
            problems, unchecked = [str(exc)], []
        if not problems:
            print(f"report {'consistent' if unchecked else 'verified'}: {args.report}",
                  *(f"not re-derived: {claim}" for claim in unchecked), sep="\n")
            return EXIT_HOLDS
        for p in problems:
            print(f"corrupt report: {p}", file=sys.stderr)
        return EXIT_VIOLATED
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
