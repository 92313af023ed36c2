"""Deterministic chunked execution of sweeps, with checkpoint and resume.

A sweep is an object with a unit index space [0, sweep.total_units) and a
`run_units(lo, hi)` method.  Units are processed in fixed-size chunks; each
chunk reports how many tuples/subspaces it actually checked, the first
violation inside it (if any) and its max-weight record.  One incremental
prefix merges finished chunks in unit order, so the outcome is independent
of worker count and of how a run was interrupted and resumed.

Chunks run in process unless more than one can run at once: a pool of
min(workers, pending chunks, usable CPUs) processes receives the sweep once
per worker, when the worker starts.  Once the outcome is settled, chunks
that have not started are cancelled and the workers still running one are
stopped.

Checkpoint files are append-only, newline-delimited JSON: a header line
binding the sweep's JSON-safe descriptor (by hash), then one line per
completed chunk.  A torn last line is dropped on resume and its chunk runs
again.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass


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


_worker_sweep = None  # the sweep of a pool worker, set once when it starts


def _init_worker(sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _run_chunk(lo: int, hi: int) -> ChunkResult:
    return _worker_sweep.run_units(lo, hi)


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

    def open(self):
        if not self.path:
            return
        if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            with open(self.path, "w") as f:
                f.write(json.dumps(self.header, sort_keys=True) + "\n")

    def record(self, rec: ChunkResult):
        self.done[rec.lo] = rec
        if self.path:
            with open(self.path, "a") as f:
                f.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


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
    ckpt = _Checkpoint(checkpoint, desc, chunk_size, total_units)
    ckpt.open()
    prefix = _Prefix(nchunks, chunk_size, ckpt.done, budget_units)
    _execute(sweep, total_units, ckpt, prefix, workers)
    completed = prefix.viol is not None or prefix.merged == nchunks
    return SweepOutcome(prefix.checked, prefix.viol, prefix.best, completed)


def _execute(sweep, total_units, ckpt, prefix, workers):
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

    # the CPUs this process may run on, where the platform tells them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    procs = min(workers, prefix.nchunks - len(ckpt.done), cpus)
    if procs <= 1:
        for lo, hi in pending:
            if finish(sweep.run_units(lo, hi)):
                return
        return

    others = set(multiprocessing.active_children())
    with ProcessPoolExecutor(max_workers=procs, initializer=_init_worker, initargs=(sweep,)) as pool:
        inflight = set()
        stop = False
        while True:
            while not stop and len(inflight) < procs * 2:
                nxt = next(pending, None)
                if nxt is None:
                    break
                if prefix.cap is not None and nxt[0] > prefix.cap:
                    # chunks come in unit order and cap only falls
                    stop = True
                    break
                inflight.add(pool.submit(_run_chunk, *nxt))
            if not inflight:
                return
            done, inflight = wait(inflight, return_when=FIRST_COMPLETED)
            for fut in done:
                if finish(fut.result()):
                    if inflight:
                        # the chunks still in flight cannot change the
                        # outcome: end the workers that run them, and let
                        # the pool drop the queued ones; no result is read
                        for proc in set(multiprocessing.active_children()) - others:
                            proc.terminate()
                        pool.shutdown(cancel_futures=True)
                    return
