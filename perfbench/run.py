"""rankscatter benchmark: time checked verdicts and weight profiles.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--size full|tiny] [--check-trace]

Run from the root of a source checkout; rankscatter is imported from its
src/ directory.  Workloads: sampled_probe, span_witness, weight_profiles,
odd_q (see perfbench/README.md).

--trace 0 runs set-up probes and then rounds of the workload, each in a
fresh interpreter, until --seconds have passed, and reports the end-to-end
metrics wall_s (median round), setup_s (median set-up), both in reference
seconds (see job.HostSpeed), and peak_rss_mb (largest round).  --trace 1
runs one traced round with one worker and reports its per-layer metrics; on
the single-worker workloads it adds an untraced round of the same inputs
and prints the tracing overhead.  --check-trace adds a second traced round
and fails the run unless every call, unit, chunk and matrix count repeats
exactly.

Every job's output is checked; a mismatch counts as failed and does not stop
the run.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 5
# job.tick() on the reference machine (2-core Intel Xeon, Python 3.11) when
# idle.  Timings are reported in seconds of that reference speed: measured
# seconds x TICK_REF_S / mean tick sampled during the measurement.
TICK_REF_S = 0.0015
RUN_BUDGET_S = 170  # the whole run, set-up and checks included
COUNT_SUFFIXES = ("_calls", ".units", "runner.chunks", "bitkernel.matrices")


class ChildFailed(Exception):
    pass


def run_child(workload, phase, seed, workers, trace, size, work, deadline):
    """Run perfbench/job.py once and return its result dict."""
    result = os.path.join(work, f"{phase}-result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [
        sys.executable, os.path.join(HERE, "job.py"), "--workload", workload, "--phase", phase,
        "--seed", str(seed), "--workers", str(workers), "--trace", str(trace), "--size", size,
        "--work", work, "--result", result,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # Timeout, Ctrl-C or SIGTERM: stop the child and its workers first.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildFailed(f"{phase} child exceeded the run budget") from None
        raise
    if proc.returncode != 0 or not os.path.exists(result):
        raise ChildFailed(f"{phase} child exited {proc.returncode}: {err.decode()[-2000:]}")
    with open(result) as f:
        return json.load(f)


def provenance(args, workers, child):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "workers": workers,
        "workers_per_workload": workloads.WORKERS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "commit": commit,
        "default_chunks": child.get("default_chunks"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--check-trace", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(ROOT, "src", "rankscatter", "__init__.py")):
        print(f"error: no rankscatter source tree under {ROOT}/src", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    work = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def round_seed(i):
        return args.seed * 1000 + i

    single = workloads.WORKERS[args.workload] == 1
    workers = 1 if args.trace else workloads.WORKERS[args.workload]
    n_jobs = len(workloads.build_jobs(args.workload, args.size, 0, workers))
    rounds, setups, errors = [], [], []
    attempted = failed = 0

    def do_round(seed, trace):
        nonlocal attempted, failed
        attempted += n_jobs
        try:
            res = run_child(args.workload, "round", seed, workers, trace, args.size, work, deadline)
        except ChildFailed as exc:
            failed += n_jobs
            errors.append(str(exc))
            return None
        failed += len(res["problems"])
        for job, found in res["problems"].items():
            errors.extend(f"{job}: {p}" for p in found)
        return res

    if args.trace == 0:
        try:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(args.workload, "setup", 0, 1, 0, args.size, work, deadline))
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        t0 = time.monotonic()
        i = 0
        while True:
            res = do_round(round_seed(i), 0)
            i += 1
            if res is not None:
                rounds.append(res)
            if time.monotonic() - t0 >= args.seconds or time.monotonic() > deadline - 5:
                break
        if not rounds:
            print("error: no round completed:\n" + "\n".join(errors), file=sys.stderr)
            return 1
        metrics = {
            "wall_s": {"value": statistics.median(ref_seconds(r, "wall_s") for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(ref_seconds(r, "setup_s") for r in setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    else:
        # The tracing overhead is measured against an untraced round only on
        # the single-worker workloads: the others run untraced with more
        # workers, so a one-worker baseline would only lengthen the run.
        traced = [do_round(round_seed(0), 1) for _ in range(2 if args.check_trace else 1)]
        base = do_round(round_seed(0), 0) if single else None
        if None in traced or (single and base is None):
            print("error: a traced or baseline round failed:\n" + "\n".join(errors), file=sys.stderr)
            return 1
        rounds = traced + ([base] if single else [])
        layers = dict(traced[0]["layers"])
        layers["trace.wall_s"] = traced[0]["wall_s"]
        if single:
            overhead = ref_seconds(traced[0], "wall_s") - ref_seconds(base, "wall_s")
        if args.check_trace:
            attempted += 1
            other = traced[1]["layers"]
            diff = [k for k in layers if k.endswith(COUNT_SUFFIXES) and layers[k] != other.get(k)]
            if diff:
                failed += 1
                errors.append("counts differ between two traced rounds: " + ", ".join(diff))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}

    prov = provenance(args, workers, rounds[0])
    record = {"provenance": prov, "rounds": rounds, "errors": errors, "metrics": metrics}
    if args.trace and single:
        record["tracing_overhead_s"] = overhead
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(record, f, indent=1)

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"perfbench {args.workload}: {len(rounds)} rounds, {attempted} jobs, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} (failed / attempted)")
    print(f"  {'unscaled median round wall':34s} {statistics.median(r['wall_s'] for r in rounds):.6g} s")
    if args.trace and single:
        print(f"  {'tracing overhead':34s} {overhead:.6g} s (traced minus untraced round, reference seconds)")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def ref_seconds(child: dict, key: str) -> float:
    """A child's timing in reference seconds: scaled by the mean of the host
    ticks sampled while (for a round) or right after (for a set-up) it ran."""
    return child[key] * TICK_REF_S / statistics.mean(child["ticks"])


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
