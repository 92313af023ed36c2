"""Verifiers for h-scatteredness and (h, r)-evasiveness of F_q-subspaces.

Every question asked of U is one scan over a stream of weights
wt_U(H) = dim_Fq(U n H), taken in unit order.  h-scatteredness and
(h, r)-evasiveness stop at the first weight above a bound; generalized
weights keep the maximum, since d_r = t - max{wt_U(H) : dim H = k - r}.
Three modes feed that scan:

* exhaustive - every dim-h subspace of the ambient space, in the frozen
  Grassmannian order; a completed sweep is a proof.
* witness_span - for d = 1..h, spans of d-tuples of vectors of U itself
  (first vector a scalar-class representative, extension-dependent prefixes
  skipped).  Complete for weight violations: if some dim-h subspace H meets
  U in dimension > bound, then H' = <U n H> over the extension is spanned
  by at most h extension-independent vectors of U and meets U at least as
  much, so the tuple sweep finds a violation iff one exists.  This replaces
  a Grassmannian-sized sweep by a |U|^d-sized one.
* sampled - seeded random subspaces; can only produce a witness or report
  "inconclusive", never "holds".

Each mode's `_weights` yields blocks of weights, either numpy arrays from
the batched GF(2) kernel (q = 2, expanded width <= 64 bits) or one scalar
weight at a time from `subspace_weight`, the oracle.  `_scan` alone applies
the rules: weight -1 marks a skipped unit that is not counted, the first
maximum is the chunk's best, and the first weight above the bound ends the
chunk once the scalar oracle reproduces it on `subspace(key)`.  The
engine is chosen once per sweep, in `_Context`.

Violations always carry a machine-checkable witness (subspace basis plus an
F_q-basis of the offending intersection) that re-verifies independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitkernel
from .field import FieldTower
from .linalg import (
    FqSubspace,
    SubspaceQn,
    derive_seed,
    expand_vector,
    intersection_rows,
    make_rows,
    matrix_rank,
    sample_subspace,
    subspace_at,
    subspace_fq_rows,
    unexpand_row,
    _pivot_blocks,
    _subspace_from_assignment,
)
from .construction import QSystem, system_from_desc, system_to_desc
from .runner import ChunkResult, _merge_best, run_sweep

TABLE_BITS = 14          # target log2 size of per-block xor tables
SPAN_TABLE_CAP = 1 << 20  # max |U| for the batched tuple sweep
DEFAULT_CHUNKS = {"exhaustive": 1 << 14, "witness_span": 512, "sampled": 1 << 14}
ENGINES = ("auto", "scalar")


def scattered_dim_bound(r: int, n: int, h: int) -> int:
    """Largest possible F_q-dimension of an h-scattered subspace of F_{q^n}^r."""
    if h < 1:
        raise ValueError("h must be at least 1")
    return (r * n) // (h + 1)


def subspace_weight(U, H: SubspaceQn) -> int:
    """dim_Fq(U n H), treating H as an F_q-space of dimension n*dim(H)."""
    sub = U.subspace if isinstance(U, QSystem) else U
    if H.k != sub.k or H.tower != sub.tower:
        raise ValueError("subspace and ambient space mismatch")
    rows = subspace_fq_rows(sub.tower, H)
    added = _added_rank(sub, rows)
    return sub.tower.n * H.dim - added


def _added_rank(sub: FqSubspace, rows) -> int:
    acc = make_rows(sub.tower)
    added = 0
    for r in rows:
        r = sub.reduce_row(r)
        if acc.add(r):
            added += 1
    return added


# --- the one scan, and the context shared by the sweeps ---


def _scan(sweep, lo: int, hi: int) -> ChunkResult:
    """Fold the sweep's weight stream over units [lo, hi) into a chunk result.

    `sweep._weights(lo, hi)` yields (head, start, wts) in unit order, where
    wts[i] is the weight of the unit keyed [*head, start + i], or -1 for a
    skipped unit that is not counted.
    """
    bound = sweep.bound
    checked = 0
    best = None
    for head, start, wts in sweep._weights(lo, hi):
        # ndarray methods, and a count only for blocks with skipped units:
        # scalar engines send one weight per block, where call overhead is
        # the whole cost
        wts = np.asarray(wts, dtype=np.int64)
        off = int(wts.argmax())
        viol = bound is not None and wts.item(off) > bound
        if viol:
            wts = wts[: int((wts > bound).argmax()) + 1]
            off = len(wts) - 1
        skips = wts.item(wts.argmin()) < 0
        checked += int(np.count_nonzero(wts >= 0)) if skips else len(wts)
        top = {"key": [*head, start + off], "weight": wts.item(off)}
        if top["weight"] >= 0:
            best = _merge_best(best, top)
        if viol:
            if subspace_weight(sweep.ctx.U, sweep.subspace(top["key"])) != top["weight"]:
                raise AssertionError(f"batch/scalar weight mismatch at unit key {top['key']}")
            return ChunkResult(lo, hi, checked, top, best)
    return ChunkResult(lo, hi, checked, None, best)


class _Context:
    def __init__(self, tower: FieldTower, system: QSystem, engine: str, dim: int):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}")
        self.tower = tower
        self.U = system.subspace
        self.k = system.ambient
        self.n = tower.n
        # the batched GF(2) kernel where it applies, else the scalar oracle
        fits = tower.q == 2 and self.k * self.n <= bitkernel.MAX_WIDTH
        self.batch = engine == "auto" and dim > 0 and fits

    # reduced expansion tables, q = 2 only:
    # M[l][c][v] = (expansion of b_l * v, placed at coordinate c) reduced mod U

    def m_red(self):
        if not hasattr(self, "_m_red"):
            t = self.tower
            n, k = self.n, self.k
            U = self.U
            tabs = []
            for l in range(n):
                per_c = []
                b = t.q_basis[l]
                base_tab = [0] * t.order
                for v in range(t.order):
                    e = t.expand_scalar(t.mul(b, v))
                    bits = 0
                    for j, x in enumerate(e):
                        bits |= x << j
                    base_tab[v] = bits
                for c in range(k):
                    per_c.append([U.reduce_row(x << (c * n)) for x in base_tab])
                tabs.append(per_c)
            self._m_red = tabs
        return self._m_red

    def m_red_np(self):
        if not hasattr(self, "_m_red_np"):
            self._m_red_np = [
                [np.array(col, dtype=np.uint64) for col in per_l] for per_l in self.m_red()
            ]
        return self._m_red_np

# --- exhaustive sweep over the Grassmannian ---


class ExhaustiveSweep:
    """Units are subspace indices in the frozen enumeration order."""

    def __init__(self, tower, system, dim: int, bound: int | None, engine: str):
        self.ctx = _Context(tower, system, engine, dim)
        self.dim = dim
        self.bound = bound
        Q = tower.order
        self.blocks = []
        start = 0
        for pivots, cells, count in _pivot_blocks(self.ctx.k, dim, Q):
            self.blocks.append((start, pivots, cells, count))
            start += count
        self.total_units = start

    def run_units(self, lo: int, hi: int) -> ChunkResult:
        return _scan(self, lo, hi)

    def subspace(self, key) -> SubspaceQn:
        return subspace_at(self.ctx.tower, self.ctx.k, self.dim, key[0])

    def _weights(self, lo, hi):
        ctx = self.ctx
        for gstart, pivots, cells, count in self.blocks:
            blo = max(lo - gstart, 0)
            bhi = min(hi - gstart, count)
            if blo >= bhi:
                continue
            if ctx.batch:
                yield from self._batch_weights(gstart, pivots, cells, blo, bhi)
            else:
                for a in range(blo, bhi):
                    H = _subspace_from_assignment(ctx.tower, ctx.k, pivots, cells, a)
                    yield (), gstart + a, [subspace_weight(ctx.U, H)]

    def _batch_weights(self, gstart, pivots, cells, blo, bhi):
        ctx = self.ctx
        n = ctx.n
        nfree = len(cells)
        low_cells = min(nfree, max(1, TABLE_BITS // n))
        L = n * low_cells
        size = 1 << L
        m = ctx.m_red()
        R = self.dim * n
        # xor tables over the low free cells, one per expansion row
        tables = []
        for i in range(self.dim):
            for l in range(n):
                deltas = []
                for t in range(L):
                    cell_i, cell_c = cells[nfree - 1 - t // n]
                    b = t % n
                    deltas.append(m[l][cell_c][1 << b] if cell_i == i else 0)
                tables.append(bitkernel.subset_xor_table(deltas))
        high_cells = cells[: nfree - low_cells]
        for high in range(blo >> L, ((bhi - 1) >> L) + 1):
            sl_lo = max(blo - (high << L), 0)
            sl_hi = min(bhi - (high << L), size)
            bases = self._bases_for_high(pivots, high_cells, high, m)
            rows = [bases[r] ^ tables[r][sl_lo:sl_hi] for r in range(R)]
            yield (), gstart + (high << L) + sl_lo, R - bitkernel.batch_rank(rows).astype(np.int64)

    def _bases_for_high(self, pivots, high_cells, high, m):
        ctx = self.ctx
        n = ctx.n
        Q = ctx.tower.order
        entries = {}
        for i, p in enumerate(pivots):
            entries[(i, p)] = 1
        a = high
        for (i, c) in reversed(high_cells):
            a, v = divmod(a, Q)
            if v:
                entries[(i, c)] = v
        bases = []
        for i in range(self.dim):
            for l in range(n):
                row = 0
                ml = m[l]
                for (ei, c), v in entries.items():
                    if ei == i:
                        row ^= ml[c][v]
                bases.append(np.uint64(row))
        return bases


# --- witness-span sweep over tuples of U-vectors ---


class SpanSweep:
    """Units are (d, first-index) pairs: unit = (d-1)*R + position.

    For each first vector (a scalar-class representative) the remaining
    tuple indices increase strictly; prefixes that are dependent over the
    extension field are skipped and not counted.
    """

    def __init__(self, tower, system, dmax: int, bound: int | None, engine: str):
        self.ctx = _Context(tower, system, engine, dmax)
        self.dmax = dmax
        self.bound = bound
        t = tower
        self.NU = t.q**self.ctx.U.dim
        if self.NU > SPAN_TABLE_CAP and engine != "scalar":
            raise ValueError(
                f"witness-span sweep over {self.NU} subspace elements exceeds the cap; "
                "use sampled mode"
            )
        if t.q == 2:
            self.reps = None  # identity: position p -> element index p+1
            self.R = self.NU - 1
        else:
            reps = []
            for idx in range(1, self.NU):
                if self._is_rep(idx):
                    reps.append(idx)
            self.reps = reps
            self.R = len(reps)
        self.total_units = self.dmax * self.R

    def _is_rep(self, idx: int) -> bool:
        # scalar-class representative: highest nonzero base-q digit equals 1
        q = self.ctx.tower.q
        digits = []
        while idx:
            idx, d = divmod(idx, q)
            digits.append(d)
        return digits[-1] == 1

    def _first_index(self, pos: int) -> int:
        return pos + 1 if self.reps is None else self.reps[pos]

    # batch tables

    def _element_tables(self):
        if not hasattr(self, "_etabs"):
            ctx = self.ctx
            gens = ctx.U.canonical_generators
            red = []
            raw = []
            for l in range(ctx.n):
                b = ctx.tower.q_basis[l]
                dr = []
                dw = []
                for g in gens:
                    vec = tuple(ctx.tower.mul(b, x) for x in g)
                    row = expand_vector(ctx.tower, vec)
                    dw.append(row)
                    dr.append(ctx.U.reduce_row(row))
                red.append(bitkernel.subset_xor_table(dr))
                raw.append(bitkernel.subset_xor_table(dw))
            self._etabs = (red, raw)
            self._elt_index = dict(zip(raw[0].tolist(), range(self.NU)))
        return self._etabs

    def run_units(self, lo: int, hi: int) -> ChunkResult:
        return _scan(self, lo, hi)

    def subspace(self, key) -> SubspaceQn:
        vecs = [self.ctx.U.element(i) for i in key[1:]]
        return SubspaceQn.from_vectors(self.ctx.tower, self.ctx.k, vecs)

    def _weights(self, lo, hi):
        R = self.R
        for d in range(lo // R + 1, (hi - 1) // R + 2):
            p_lo = max(lo - (d - 1) * R, 0)
            p_hi = min(hi - (d - 1) * R, R)
            if d == 1 and self.ctx.batch:
                # q = 2: positions p_lo..p_hi-1 are the element indices p+1
                red, _ = self._element_tables()
                rows = [red[l][p_lo + 1 : p_hi + 1].copy() for l in range(self.ctx.n)]
                yield (1,), p_lo + 1, self.ctx.n - bitkernel.batch_rank(rows).astype(np.int64)
            else:
                tuples = self._batch_tuples if self.ctx.batch else self._scalar_tuples
                for pos in range(p_lo, p_hi):
                    yield from tuples(d, self._first_index(pos))

    # scalar tuple walk, any q

    def _scalar_tuples(self, d: int, i1: int):
        ctx = self.ctx
        U = ctx.U

        def walk(prefix, span):
            if len(prefix) == d:
                yield (d, *prefix[:-1]), prefix[-1], [subspace_weight(U, span)]
                return
            for j in range(prefix[-1] + 1, self.NU):
                v = U.element(j)
                if not span.contains(v):
                    grown = SubspaceQn.from_vectors(ctx.tower, ctx.k, list(span.basis) + [v])
                    yield from walk(prefix + [j], grown)

        yield from walk([i1], SubspaceQn.from_vectors(ctx.tower, ctx.k, [U.element(i1)]))

    # batched tuple walk, q = 2, d >= 2: one batch per (d-1)-prefix

    def _batch_tuples(self, d: int, i1: int):
        red, raw = self._element_tables()
        n = self.ctx.n

        def last_level(prefix):
            start = prefix[-1] + 1
            pre_red = []
            pre_raw = []
            for i in prefix:
                pre_red.extend(int(red[l][i]) for l in range(n))
                pre_raw.extend(int(raw[l][i]) for l in range(n))
            prows, pbits = bitkernel.eliminate_rows(pre_red)
            rows = [red[l][start:].copy() for l in range(n)]
            bitkernel.reduce_static(rows, prows, pbits)
            wts = (d * n - len(prows)) - bitkernel.batch_rank(rows).astype(np.int64)
            dep = self._dependent_mask(prefix, pre_raw, start)
            return np.where(dep, np.int64(-1), wts)

        def walk(prefix, prefix_raw_rows):
            if len(prefix) == d - 1:
                if prefix[-1] + 1 < self.NU:
                    yield (d, *prefix), prefix[-1] + 1, last_level(prefix)
                return
            prows, pbits = bitkernel.eliminate_rows(prefix_raw_rows)
            for j in range(prefix[-1] + 1, self.NU):
                jrows = [int(raw[l][j]) for l in range(n)]
                if all(_reduce_scalar(r, prows, pbits) == 0 for r in jrows):
                    continue  # dependent prefix
                yield from walk(prefix + [j], prefix_raw_rows + jrows)

        yield from walk([i1], [int(raw[l][i1]) for l in range(n)])

    def _dependent_mask(self, prefix, pre_raw, start):
        """Mask of elements u_j (j >= start) inside the extension span of the prefix."""
        n = self.ctx.n
        if len(prefix) == 1:
            # u_j in <u1> iff u_j = c*u1 for some scalar c.  The weight of <u1>
            # tells whether any non-scalar multiple of u1 stays inside U at all;
            # only then is the multiple scan worth running.
            dep = np.zeros(self.NU - start, dtype=bool)
            w1 = n - len(
                bitkernel.eliminate_rows(
                    [self.ctx.U.reduce_row(int(r)) for r in pre_raw]
                )[0]
            )
            if w1 <= 1:
                return dep
            t = self.ctx.tower
            u1 = self.ctx.U.element(prefix[0])
            idx_of = self._elt_index
            for c in range(2, t.order):
                vec = tuple(t.mul(c, x) for x in u1)
                j = idx_of.get(expand_vector(t, vec))
                if j is not None and j >= start:
                    dep[j - start] = True
            return dep
        # general prefix: u_j dependent iff its raw rows add no rank
        prows, pbits = bitkernel.eliminate_rows([int(r) for r in pre_raw])
        _, raw = self._element_tables()
        rows = [raw[l][start:].copy() for l in range(n)]
        bitkernel.reduce_static(rows, prows, pbits)
        added = bitkernel.batch_rank(rows)
        return added == 0


def _reduce_scalar(row: int, prows, pbits) -> int:
    for pr, pb in zip(prows, pbits):
        if (row >> pb) & 1:
            row ^= pr
    return row


# --- sampled sweep ---


class SampledSweep:
    """Units are sample indices; sample i is derived from (seed, i) alone,
    so chunks can run in any order and resumes are exact."""

    def __init__(self, tower, system, dim: int, bound: int | None, seed: int, engine: str, budget: int):
        self.ctx = _Context(tower, system, engine, dim)
        self.dim = dim
        self.bound = bound
        self.seed = seed
        self.total_units = budget

    def run_units(self, lo: int, hi: int) -> ChunkResult:
        return _scan(self, lo, hi)

    def subspace(self, key) -> SubspaceQn:
        return sample_subspace(
            self.ctx.tower, self.ctx.k, self.dim, derive_seed(self.seed, "sample", key[0])
        )

    def _weights(self, lo, hi):
        ctx = self.ctx
        if not ctx.batch:
            for i in range(lo, hi):
                yield (), i, [subspace_weight(ctx.U, self.subspace([i]))]
            return
        n = ctx.n
        m_np = ctx.m_red_np()
        d = self.dim
        B = hi - lo
        vals = np.empty((B, d, ctx.k), dtype=np.int64)
        for off in range(B):
            H = self.subspace([lo + off])
            for j, row in enumerate(H.basis):
                vals[off, j, :] = row
        rows = []
        for j in range(d):
            for l in range(n):
                acc = np.zeros(B, dtype=np.uint64)
                for c in range(ctx.k):
                    acc ^= m_np[l][c][vals[:, j, c]]
                rows.append(acc)
        yield (), lo, d * n - bitkernel.batch_rank(rows).astype(np.int64)


# --- sweep registry for worker processes ---


def build_sweep(desc: dict):
    tower = FieldTower.from_descriptor(desc["field"])
    system = system_from_desc(tower, desc["system"])
    kind = desc["kind"]
    engine = desc.get("engine", "auto")
    bound = desc.get("bound")
    if kind == "exhaustive":
        return ExhaustiveSweep(tower, system, desc["dim"], bound, engine)
    if kind == "span":
        return SpanSweep(tower, system, desc["dmax"], bound, engine)
    if kind == "sampled":
        return SampledSweep(tower, system, desc["dim"], bound, desc["seed"], engine, desc["budget"])
    raise ValueError(f"unknown sweep kind {kind!r}")


# --- verdicts ---


@dataclass
class Witness:
    H: SubspaceQn
    weight: int
    intersection: list[tuple[int, ...]]
    tuple_index: list[int]

    def serialize(self, tower: FieldTower, mode: str, bound: int) -> dict:
        return {
            "mode": mode,
            "bound": bound,
            "weight": self.weight,
            "H_basis": self.H.serialize(),
            "intersection_basis": [
                [list(tower.coeffs(x)) for x in v] for v in self.intersection
            ],
            "tuple_index": list(self.tuple_index),
        }


@dataclass
class Verdict:
    status: str  # holds | violated | inconclusive
    mode: str
    bound: int
    dim: int
    checked: int
    witness: Witness | None = None
    seed: int | None = None
    span_defect: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def serialize(self, tower: FieldTower) -> dict:
        return {
            "status": self.status,
            "mode": self.mode,
            "bound": self.bound,
            "dim": self.dim,
            "subspaces_checked": self.checked,
            "seed": self.seed,
            "span_defect": self.span_defect,
            "witness": None
            if self.witness is None
            else self.witness.serialize(tower, self.mode, self.bound),
        }


def _build_witness(system: QSystem, sweep, key, weight: int) -> Witness:
    tower = system.tower
    U = system.subspace
    H = sweep.subspace(key)
    if subspace_weight(U, H) != weight:
        raise AssertionError("witness does not re-verify")
    inter = intersection_rows(tower, U.width, U.fq_rows, subspace_fq_rows(tower, H))
    vectors = [unexpand_row(tower, r, system.ambient) for r in inter]
    return Witness(H, weight, vectors, list(key))


def _run_verification(
    system: QSystem,
    dim: int,
    bound: int,
    mode: str,
    budget,
    seed,
    workers,
    checkpoint,
    engine,
    chunk_size,
    stop_after_units=None,
):
    tower = system.tower
    desc = {
        "field": tower.descriptor(),
        "system": system_to_desc(system),
        "engine": engine,
        "bound": bound,
    }
    if mode == "exhaustive":
        desc.update(kind="exhaustive", dim=dim)
    elif mode == "witness_span":
        desc.update(kind="span", dmax=dim)
    elif mode == "sampled":
        if budget is None:
            raise ValueError("sampled mode requires a budget")
        desc.update(kind="sampled", dim=dim, seed=seed if seed is not None else 0, budget=budget)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sweep = build_sweep(desc)
    total = sweep.total_units
    chunk = chunk_size or min(DEFAULT_CHUNKS[mode], max(total, 1))
    outcome = run_sweep(
        desc,
        total,
        chunk,
        workers=workers,
        checkpoint=checkpoint,
        budget_units=budget if mode != "sampled" else None,
        stop_after_units=stop_after_units,
    )
    witness = None
    if outcome.viol is not None:
        witness = _build_witness(system, sweep, outcome.viol["key"], outcome.viol["weight"])
    return outcome, witness, desc


def verify_h_scattered(
    system: QSystem,
    h: int,
    mode: str = "witness_span",
    budget: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    checkpoint: str | None = None,
    engine: str = "auto",
    chunk_size: int | None = None,
    _stop_after_units: int | None = None,
) -> Verdict:
    """Decide whether the system is h-scattered.

    holds: every dim-h extension subspace meets U in F_q-dimension <= h and
    U spans the ambient space.  A subspace that fails to span cannot be
    h-scattered; the sweep still runs so the verdict carries a concrete
    weight witness whenever one exists.
    """
    if not 1 <= h < system.ambient:
        raise ValueError("need 1 <= h < ambient dimension")
    outcome, witness, _ = _run_verification(
        system, h, h, mode, budget, seed, workers, checkpoint, engine, chunk_size,
        stop_after_units=_stop_after_units,
    )
    spanning = system.spans_ambient
    seed_out = seed if mode == "sampled" else None
    if witness is not None:
        return Verdict("violated", mode, h, h, outcome.checked, witness, seed_out)
    if not spanning:
        defect = {
            "reason": "does not span the ambient space over the extension field",
            "span_dim": _span_dim(system),
        }
        return Verdict("violated", mode, h, h, outcome.checked, None, seed_out, defect)
    if mode == "sampled" or outcome.truncated_by_budget or not outcome.completed:
        return Verdict("inconclusive", mode, h, h, outcome.checked, None, seed_out)
    return Verdict("holds", mode, h, h, outcome.checked, None, seed_out)


def _span_dim(system: QSystem) -> int:
    return matrix_rank(system.tower, system.subspace.canonical_generators, system.ambient)


def verify_evasive(
    system: QSystem,
    hdim: int,
    r: int,
    mode: str = "witness_span",
    budget: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    checkpoint: str | None = None,
    engine: str = "auto",
    chunk_size: int | None = None,
) -> Verdict:
    """Decide whether the system is (hdim, r)-evasive.

    holds: every hdim-dimensional extension subspace meets U in F_q-dimension
    at most r.  No spanning requirement.
    """
    if not 0 < hdim < system.ambient:
        raise ValueError("need 0 < hdim < ambient dimension")
    if r < hdim:
        raise ValueError("need r >= hdim")
    seed_out = seed if mode == "sampled" else None
    if r >= system.t:
        # vacuous: no subspace can meet U in more than dim U
        return Verdict("holds", mode, r, hdim, 0, None, seed_out)
    outcome, witness, _ = _run_verification(
        system, hdim, r, mode, budget, seed, workers, checkpoint, engine, chunk_size
    )
    if witness is not None:
        return Verdict("violated", mode, r, hdim, outcome.checked, witness, seed_out)
    if mode == "sampled" or outcome.truncated_by_budget or not outcome.completed:
        return Verdict("inconclusive", mode, r, hdim, outcome.checked, None, seed_out)
    return Verdict("holds", mode, r, hdim, outcome.checked, None, seed_out)


def max_weight_search(
    system: QSystem,
    dim: int,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    checkpoint: str | None = None,
    engine: str = "auto",
    chunk_size: int | None = None,
):
    """Max of wt_U(H) over dim-dimensional subspaces H.

    Returns (max_weight, key, checked, exact).  Exhaustive sweeps are exact;
    sampled sweeps only bound the maximum from below.
    """
    if dim == 0:
        return 0, [0], 1, True
    if mode == "witness_span":
        raise ValueError("max-weight search supports exhaustive or sampled mode")
    outcome, _, _ = _run_verification(
        system, dim, None, mode, budget, seed, workers, checkpoint, engine, chunk_size
    )
    best = outcome.best or {"weight": 0, "key": [0]}
    exact = mode == "exhaustive" and outcome.completed and not outcome.truncated_by_budget
    return best["weight"], best["key"], outcome.checked, exact
