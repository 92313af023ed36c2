"""Deterministic chunked execution of sweeps, with checkpoint and resume.

A sweep is an object with a unit index space [0, sweep.total_units) and a
`run_units(lo, hi)` method.  Units are processed in fixed-size chunks; each
chunk reports how many tuples/subspaces it actually checked, the first
violation inside it (if any) and its max-weight record.  One incremental
prefix merges finished chunks in unit order, so the outcome is independent
of worker count and of how a run was interrupted and resumed.

Chunks run in process, in unit order, until POOL_AFTER_S seconds have
passed since the sweep started: a shorter sweep would lose more to starting
a pool than it could gain.  From then on, if more than one can run at once,
a pool of min(workers, pending chunks, usable CPUs) worker processes takes
the pending chunks, each worker holding the sweep as it then is (inherited
under fork, with what the parent built, pickled under spawn) and serving
chunks over its own pipe, two in flight at a time.  Once the outcome is
settled no chunk is sent, and every worker is stopped, also one still
running a chunk.  A worker that ends without answering raises
`WorkerError`; an exception raised by `run_units` in a worker is raised
again in the caller.

Checkpoint files are append-only, newline-delimited JSON: a header line
binding the sweep's JSON-safe descriptor (by hash), then one line per
completed chunk.  A torn last line is dropped on resume and its chunk runs
again.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain, takewhile

# Seconds of in-process chunks before a pool may start.  On a 2-core host,
# importing `multiprocessing` and forking take about 16 ms before the first
# chunk, and the workers' warm-up about 35 ms in all: a sweep longer than
# this gives up at most about 0.05 s of its parallel gain.
POOL_AFTER_S = 0.1


@dataclass
class ChunkResult:
    lo: int
    hi: int
    checked: int
    viol: dict | None  # {"key": [...], "weight": int} first violation in chunk
    best: dict | None  # {"key": [...], "weight": int} max weight in chunk

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "checked": self.checked, "viol": self.viol, "best": self.best}

    @classmethod
    def from_json(cls, d: dict) -> "ChunkResult":
        return cls(d["lo"], d["hi"], d["checked"], d.get("viol"), d.get("best"))


@dataclass
class SweepOutcome:
    checked: int
    viol: dict | None
    best: dict | None
    completed: bool  # a violation settled the sweep, or every unit ran


def desc_hash(desc: dict) -> str:
    return hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()[:16]


class WorkerError(Exception):
    """A pool worker ended without the result of a chunk it was sent."""


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a pool worker, raised with
    that exception as its cause."""


def _merge_best(a: dict | None, b: dict | None) -> dict | None:
    """The one best-record rule: max weight, ties kept on the earlier record.

    Both arguments must come in unit order (a before b), so the merge keeps
    the first maximum and is stable across chunkings and worker counts.
    """
    if a is None:
        return b
    if b is None:
        return a
    return b if b["weight"] > a["weight"] else a


class _Checkpoint:
    def __init__(self, path, desc, chunk_size, total_units):
        self.path = path
        self.header = {
            "schema": "rankscatter-checkpoint/1",
            "desc_hash": desc_hash(desc),
            "chunk_size": chunk_size,
            "total_units": total_units,
        }
        self.done: dict[int, ChunkResult] = {}
        if path and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "rb") as f:
            data = f.read()
        # Records are appended whole lines at a time, so bytes after the last
        # newline are a line torn by a kill mid-append: drop them and let that
        # chunk run again.
        whole, newline, torn = data.rpartition(b"\n")
        lines = [(no, line) for no, line in enumerate(whole.split(b"\n"), 1) if line.strip()]
        if lines:
            head = self._parse(*lines[0], dict)
            for key in ("desc_hash", "chunk_size", "total_units"):
                if head.get(key) != self.header[key]:
                    raise ValueError(
                        f"checkpoint {self.path} does not match this job ({key} differs)"
                    )
            for no, line in lines[1:]:
                rec = self._parse(no, line, ChunkResult.from_json)
                self.done[rec.lo] = rec
        if torn:
            os.truncate(self.path, len(whole) + len(newline))

    def _parse(self, no: int, line: bytes, build):
        try:
            return build(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint {self.path} line {no} is malformed: {exc}") from None

    def __enter__(self):
        """Open the one append handle of this sweep, writing the header to a
        new or empty file."""
        self.file = open(self.path, "a") if self.path else None
        if self.file is not None and self.file.tell() == 0:
            self._append(self.header)
        return self

    def __exit__(self, *exc):
        if self.file is not None:
            self.file.close()

    def _append(self, obj: dict):
        # one whole line per write, flushed, so a kill can tear only the last
        self.file.write(json.dumps(obj, sort_keys=True) + "\n")
        self.file.flush()

    def record(self, rec: ChunkResult):
        self.done[rec.lo] = rec
        if self.file is not None:
            self._append(rec.to_json())


class _Prefix:
    """Unit-order merge of the finished chunks, advanced incrementally.

    It moves forward over the contiguous run of finished chunks from unit 0
    and never rescans them.  It settles at the first violation, at the
    budget cut, or when every chunk is merged.  `cap` is the lowest chunk
    known to hold a violation, finished in order or not: later chunks
    cannot move the first witness.
    """

    def __init__(self, nchunks: int, chunk_size: int, done: dict, budget_units: int | None):
        self.nchunks = nchunks
        self.chunk_size = chunk_size
        self.done = done
        self.budget_units = budget_units
        self.merged = 0
        self.checked = 0
        self.best = None
        self.viol = None
        self.cut = False
        self.cap = min((r.lo for r in done.values() if r.viol is not None), default=None)

    @property
    def settled(self) -> bool:
        return self.viol is not None or self.cut or self.merged == self.nchunks

    def add(self, rec: ChunkResult) -> bool:
        """Take one newly finished chunk; True once the outcome is settled."""
        if rec.viol is not None and (self.cap is None or rec.lo < self.cap):
            self.cap = rec.lo
        return self.advance()

    def advance(self) -> bool:
        while not self.settled:
            rec = self.done.get(self.merged * self.chunk_size)
            if rec is None:
                break
            self.merged += 1
            self.checked += rec.checked
            self.best = _merge_best(self.best, rec.best)
            if rec.viol is not None:
                self.viol = rec.viol
            elif self.budget_units is not None and self.checked >= self.budget_units:
                # a budget that lets the last chunk run cuts nothing
                self.cut = self.merged < self.nchunks
        return self.settled


def run_sweep(
    sweep,
    desc: dict,
    chunk_size: int,
    workers: int = 1,
    checkpoint: str | None = None,
    budget_units: int | None = None,
) -> SweepOutcome:
    """Run a sweep to completion (or budget), honoring a checkpoint file.

    desc identifies the sweep in the checkpoint header.  budget_units caps
    the number of checked units, rounded up to a chunk boundary; the cut is
    applied in unit order during the merge, so reports do not depend on
    scheduling.
    """
    total_units = sweep.total_units
    nchunks = -(-total_units // chunk_size)
    with _Checkpoint(checkpoint, desc, chunk_size, total_units) as ckpt:
        prefix = _Prefix(nchunks, chunk_size, ckpt.done, budget_units)
        _execute(sweep, total_units, ckpt, prefix, workers)
    completed = prefix.viol is not None or prefix.merged == nchunks
    return SweepOutcome(prefix.checked, prefix.viol, prefix.best, completed)


def _execute(sweep, total_units, ckpt, prefix, workers):
    begun = time.monotonic()
    if prefix.advance():
        return
    # Chunk i is [i*c, min((i+1)*c, total)), computed on demand: a sweep can
    # have far more chunks than could ever be listed.
    c = prefix.chunk_size
    pending = (
        (i * c, min((i + 1) * c, total_units))
        for i in range(prefix.merged, prefix.nchunks)
        if i * c not in ckpt.done
    )

    def finish(rec: ChunkResult) -> bool:
        ckpt.record(rec)
        return prefix.add(rec)

    for lo, hi in pending:
        if workers > 1 and time.monotonic() - begun >= POOL_AFTER_S:
            # the CPUs this process may run on, where the platform tells them
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            procs = min(workers, prefix.nchunks - len(ckpt.done), cpus)
            if procs > 1:
                # chunks come in unit order and cap only falls: none past it is sent
                below_cap = takewhile(lambda ch: prefix.cap is None or ch[0] <= prefix.cap, chain([(lo, hi)], pending))
                _run_pool(sweep, procs, below_cap, finish)
                return
            workers = 1  # no pool can start later: fewer chunks are left
        if finish(sweep.run_units(lo, hi)):
            return


def _run_pool(sweep, procs, chunks, finish):
    """Run `chunks` on `procs` worker processes, passing each result to
    `finish` until it returns True or no chunk is left; every worker is
    stopped and reaped on return and on every error."""
    import multiprocessing
    from multiprocessing.connection import wait

    sent = {}  # a worker's end of its pipe -> (its process, chunks it has not answered, oldest first)

    def send(conn):
        lo_hi = next(chunks, None)
        if lo_hi is not None:
            sent[conn][1].append(lo_hi)
            try:
                conn.send(lo_hi)
            except ConnectionError:
                pass  # the worker is gone: reading its pipe names its chunk

    try:
        for _ in range(procs):
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(child, sweep))
            sent[conn] = (proc, deque())
            proc.start()
            child.close()
        for _ in range(2):
            for conn in sent:
                send(conn)
        while busy := [conn for conn, (_, queue) in sent.items() if queue]:
            for conn in wait(busy):
                proc, queue = sent[conn]
                try:
                    out = conn.recv()
                except (EOFError, ConnectionError):
                    proc.join(1)  # its pipe is closed: it has ended or is ending
                    lo, hi = queue[0]
                    raise WorkerError(
                        f"worker process {proc.pid} ended (exit code {proc.exitcode}) "
                        f"without the result of chunk [{lo}, {hi})"
                    ) from None
                queue.popleft()
                if isinstance(out, tuple):  # what run_units raised, and its traceback
                    raise out[0] from _RemoteTraceback(out[1])
                if finish(out):
                    return
                send(conn)
    finally:
        for conn, (proc, _) in sent.items():
            if proc.pid is not None:
                proc.terminate()
        for conn, (proc, _) in sent.items():
            if proc.pid is not None:
                proc.join()
            conn.close()


def _serve(conn, sweep) -> None:
    """A pool worker: answer each (lo, hi) read from `conn` with the chunk's
    result, or with what its run raised and the traceback, until the pipe
    closes."""
    try:
        while True:
            lo, hi = conn.recv()
            try:
                out = sweep.run_units(lo, hi)
            except Exception as exc:
                import traceback

                out = (exc, "".join(traceback.format_exception(exc)))
            conn.send(out)
    except (EOFError, ConnectionError):
        pass  # the parent closed its end or ended
