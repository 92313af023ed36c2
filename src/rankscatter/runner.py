"""Deterministic chunked execution of sweeps, with checkpoint and resume.

A sweep is described by a JSON-safe dict and owns a unit index space
[0, total_units).  Units are processed in fixed-size chunks; each chunk
reports how many tuples/subspaces it actually checked, the first violation
inside it (if any) and its max-weight record.  One incremental prefix
merges finished chunks in unit order, so the outcome is independent of
worker count and of how a run was interrupted and resumed.

Checkpoint files are append-only, newline-delimited JSON: a header line
binding the sweep descriptor, then one line per completed chunk.  A torn
last line is dropped on resume and its chunk runs again.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache


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
    completed: bool           # every unit (or every unit up to the budget cut) ran
    truncated_by_budget: bool
    units_done: int


class Interrupted(Exception):
    """Raised by the test hook to simulate a killed run."""


def desc_hash(desc: dict) -> str:
    return hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()[:16]


@lru_cache(maxsize=8)
def _sweep_from_json(desc_json: str):
    from . import verify

    return verify.build_sweep(json.loads(desc_json))


def _run_chunk(desc_json: str, lo: int, hi: int) -> dict:
    sweep = _sweep_from_json(desc_json)
    return sweep.run_units(lo, hi).to_json()


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

    def __init__(self, chunks, done: dict, budget_units: int | None):
        self.chunks = chunks
        self.done = done
        self.budget_units = budget_units
        self.merged = 0
        self.checked = 0
        self.units_done = 0
        self.best = None
        self.viol = None
        self.cut = False
        self.cap = min((r.lo for r in done.values() if r.viol is not None), default=None)

    @property
    def settled(self) -> bool:
        return self.viol is not None or self.cut or self.merged == len(self.chunks)

    def add(self, rec: ChunkResult) -> bool:
        """Take one newly finished chunk; True once the outcome is settled."""
        if rec.viol is not None and (self.cap is None or rec.lo < self.cap):
            self.cap = rec.lo
        return self.advance()

    def advance(self) -> bool:
        while not self.settled:
            lo, hi = self.chunks[self.merged]
            rec = self.done.get(lo)
            if rec is None:
                break
            self.merged += 1
            self.checked += rec.checked
            self.units_done = hi
            self.best = _merge_best(self.best, rec.best)
            if rec.viol is not None:
                self.viol = rec.viol
            elif self.budget_units is not None and self.checked >= self.budget_units:
                self.cut = True
        return self.settled


def run_sweep(
    desc: dict,
    total_units: int,
    chunk_size: int,
    workers: int = 1,
    checkpoint: str | None = None,
    budget_units: int | None = None,
    stop_after_units: int | None = None,
) -> SweepOutcome:
    """Run a sweep to completion (or budget), honoring a checkpoint file.

    budget_units caps the number of checked units, rounded up to a chunk
    boundary; the cut is applied in unit order during the merge, so reports
    do not depend on scheduling.  stop_after_units is a test hook that
    abandons the run (checkpoint intact) once that many units completed.
    """
    desc_json = json.dumps(desc, sort_keys=True)
    chunks = [(lo, min(lo + chunk_size, total_units)) for lo in range(0, total_units, chunk_size)]
    ckpt = _Checkpoint(checkpoint, desc, chunk_size, total_units)
    ckpt.open()
    prefix = _Prefix(chunks, ckpt.done, budget_units)
    try:
        _execute(desc_json, chunks, ckpt, prefix, workers, stop_after_units)
    except Interrupted:
        pass
    return SweepOutcome(
        prefix.checked, prefix.viol, prefix.best, prefix.settled, prefix.cut, prefix.units_done
    )


def _execute(desc_json, chunks, ckpt, prefix, workers, stop_after_units):
    if prefix.advance():
        return
    pending = iter([(lo, hi) for lo, hi in chunks if lo not in ckpt.done])

    def finish(rec: dict) -> bool:
        rec = ChunkResult.from_json(rec)
        ckpt.record(rec)
        settled = prefix.add(rec)
        if stop_after_units is not None:
            if sum(r.hi - r.lo for r in ckpt.done.values()) >= stop_after_units:
                raise Interrupted
        return settled

    if workers <= 1:
        for lo, hi in pending:
            if finish(_run_chunk(desc_json, lo, hi)):
                return
        return

    with ProcessPoolExecutor(max_workers=workers) as pool:
        inflight = set()
        stop = False
        while True:
            while not stop and len(inflight) < workers * 2:
                nxt = next(pending, None)
                if nxt is None:
                    break
                if prefix.cap is not None and nxt[0] > prefix.cap:
                    continue
                inflight.add(pool.submit(_run_chunk, desc_json, *nxt))
            if not inflight:
                return
            done, inflight = wait(inflight, return_when=FIRST_COMPLETED)
            for fut in done:
                stop = finish(fut.result()) or stop
