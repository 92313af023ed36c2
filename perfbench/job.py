"""One child process of the benchmark: set up, run one round, check it.

    python3 perfbench/job.py --workload W --phase setup|round --seed N
        --workers K --trace 0|1 --size full|tiny --work DIR --result FILE

Set-up is `import rankscatter` plus the field and system construction the
workload needs, timed from just before the import.  A round runs the
workload's jobs back to back (timed as its wall time), then checks every
output and rechecks every report (untimed).  The host's speed is sampled
while a round runs and right after a set-up (see HostSpeed).  The result is written as JSON
to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import workloads  # noqa: E402  (the benchmark's own module, beside this file)

TICK_EVERY_S = 0.1
SETUP_TICKS = 30  # ticks right after a set-up, which is too short to sample during


def tick() -> float:
    """CPU seconds of a fixed piece of interpreter work that does not touch
    rankscatter (about 1.5 ms on an idle core): the speed of the core it ran
    on.  CPU time, not wall time, so being preempted does not count."""
    t0 = time.thread_time()
    tab = list(range(256))
    x = 1
    for i in range(15_000):
        x = tab[(x * 7 + i) & 255] ^ (i & 15)
    return time.thread_time() - t0


def _sampler(conn):
    conn.send(None)
    while conn.recv():
        ticks = [tick()]
        while not conn.poll(TICK_EVERY_S):
            ticks.append(tick())
        conn.recv()
        conn.send(ticks)


class HostSpeed:
    """Samples the host's speed while a round runs.

    Other tenants change this host's speed by up to 1.7x within seconds, and
    its two cores can differ by 1.5x at the same moment.  A sampler process
    runs tick() every TICK_EVERY_S while the round is timed.  A one-worker
    round and its sampler are pinned to one core, so the sampler measures
    the core the round runs on; with more workers every core is busy and the
    sampler lands on each of them.  The sampler takes about 1.5 % of a core.
    It stays alive until close(), so it is not counted in the peak RSS of
    reaped children."""

    def __init__(self, workers: int):
        if workers == 1:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the sampler inherits it
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_sampler, args=(child,), daemon=True)
        self.proc.start()
        self.conn.recv()

    def start(self):
        self.conn.send(True)

    def stop(self) -> list[float]:
        self.conn.send(None)
        return self.conn.recv()

    def close(self):
        self.conn.send(False)
        self.proc.join()


def _peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process plus `workers` times the largest
    peak among its worker processes (none when the sweep ran in-process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _run_jobs(ctx, jobs, tracer, speed):
    """Run the round's jobs back to back while `speed` samples the host.
    Returns (wall seconds, host ticks, problems)."""
    problems = {}
    for job in jobs:
        job.prepare(ctx)
    if tracer is not None:
        tracer.enabled = True
    speed.start()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.run_id = i
        try:
            job.run(ctx)
        except Exception:
            problems[job.name] = ["raised: " + traceback.format_exc(limit=3)]
    wall = time.perf_counter() - t0
    ticks = speed.stop()
    if tracer is not None:
        tracer.enabled = False
    return wall, ticks, problems


def _check_jobs(ctx, jobs, problems) -> float:
    """Check every job's output and recheck its reports, adding what fails
    to `problems`; returns the seconds spent in recheck."""
    from rankscatter.cli import main

    recheck_s = 0.0
    for job in jobs:
        if job.name in problems:
            continue
        try:
            found = job.check(ctx)
            for path in job.reports(ctx):
                if not os.path.exists(path):
                    found.append(f"no report {os.path.basename(path)}")
                    continue
                r0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(["recheck", path])
                recheck_s += time.perf_counter() - r0
                if rc != 0:
                    found.append(f"recheck of {os.path.basename(path)} exited {rc}")
        except Exception:
            found = ["check raised: " + traceback.format_exc(limit=3)]
        if found:
            problems[job.name] = found
    return recheck_s


def _measure(args, speed):
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import rankscatter

    if not os.path.abspath(rankscatter.__file__).startswith(SRC + os.sep):
        print(f"rankscatter imported from {rankscatter.__file__}, not from {SRC}", file=sys.stderr)
        return None
    workloads.setup_systems(args.workload, args.size)
    setup_s = time.perf_counter() - t0

    import numpy

    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.phase == "setup":
        out["ticks"] = [tick() for _ in range(SETUP_TICKS)]
        return out
    from rankscatter import verify

    out["default_chunks"] = dict(getattr(verify, "DEFAULT_CHUNKS", {}))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = workloads.Context(args.work, args.seed)
    jobs = workloads.build_jobs(args.workload, args.size, args.seed, args.workers)
    wall, out["ticks"], problems = _run_jobs(ctx, jobs, tracer, speed)
    out["wall_s"] = wall
    out["peak_rss_mb"] = _peak_rss_mb(args.workers if args.workers > 1 else 0)
    recheck_s = _check_jobs(ctx, jobs, problems)
    out.update(recheck_s=recheck_s, jobs=[job.name for job in jobs], problems=problems)
    ckpts = [ctx.path(job.name + ".ckpt") for job in jobs]
    out["checkpoint_bytes"] = sum(os.path.getsize(p) for p in ckpts if os.path.exists(p))
    if tracer is not None:
        metrics = tracer.metrics(wall)
        metrics["reports.recheck_s"] = recheck_s
        metrics["runner.checkpoint_bytes"] = out["checkpoint_bytes"]
        out["layers"] = metrics
        tracer.write_spans(os.path.join(args.work, "spans.csv.gz"))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--phase", required=True, choices=("setup", "round"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full", choices=tuple(workloads.SIZES))
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    speed = HostSpeed(args.workers) if args.phase == "round" else None
    try:
        out = _measure(args, speed)
    finally:
        if speed is not None:
            speed.close()
    if out is None:
        return 2
    with open(args.result, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
