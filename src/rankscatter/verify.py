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

Each mode's `_weights` yields blocks of weights from one of three
backends, which `_Context` picks once per sweep (`weight_backend`):

* "gf2" - packed uint64 words and `bitkernel.batch_rank`, when q = 2 and
  the expanded width k*n is at most 64 bits;
* "fp" - uint8 row arrays and `bitkernel.fp_rank`, for any other prime
  q < 256 (odd q, and q = 2 with k*n > 64).  Rows are F_p-linear in the
  base-p digits of the entries, so a block's rows are the product of its
  digits with a table of the expansion rows of b_l * z^j at each
  coordinate, reduced mod U;
* "scalar" - one weight at a time from `subspace_weight`, the oracle: for
  q = p^s with s > 1, for p > 255, and whenever engine="scalar".

`_scan` alone applies the rules: weight -1 marks a skipped unit that is not
counted, the first maximum is the chunk's best, and the first weight above
the bound ends the chunk once the scalar oracle reproduces it on
`subspace(key)`.

`_run_verification` builds the mode's sweep object from the system it is
given and hands that object to `runner.run_sweep`; a JSON-safe descriptor
of the same sweep only names it in checkpoint headers.

Violations always carry a machine-checkable witness (subspace basis plus an
F_q-basis of the offending intersection) that re-verifies independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitkernel
from .field import FieldTower, _digits
from .linalg import (
    BitRows,
    FqSubspace,
    SubspaceQn,
    expand_vector,
    intersection_rows,
    make_rows,
    matrix_rank,
    rref,
    sample_subspace,
    sample_values,
    subspace_at,
    subspace_fq_rows,
    unexpand_row,
    _pivot_blocks,
    _redraw,
    _subspace_from_assignment,
)
from .construction import QSystem, system_to_desc
from .runner import ChunkResult, _merge_best, run_sweep

TABLE_BITS = 14          # target log2 size of per-block xor tables
SPAN_TABLE_CAP = 1 << 20  # max |U| for the batched tuple sweep
SAMPLE_BLOCK = 2048       # samples per draw in sampled sweeps
FP_BLOCK = 128            # units per block of the F_p backend
SAMPLE_STREAM = 2         # names the sample stream in checkpoint headers
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


def _check_options(engine: str, budget=None, chunk_size=None, workers=1) -> None:
    """Reject an unknown engine, a chunk size below 1 (no chunk would be
    built, and the empty sweep would read as a proof), a budget below 1
    (it admits no unit) and a worker count below 1."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk size must be at least 1, got {chunk_size}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def weight_backend(tower: FieldTower, k: int, engine: str, dim: int) -> str:
    """The backend a sweep of dim-dimensional subspaces of F_{q^n}^k runs:
    "gf2", "fp" or "scalar" (see the module docstring)."""
    if engine == "scalar" or dim < 1 or tower.s > 1 or tower.p > 255:
        return "scalar"
    if tower.q == 2 and k * tower.n <= bitkernel.MAX_WIDTH:
        return "gf2"
    return "fp"


def _digit_array(values: np.ndarray, p: int, count: int) -> np.ndarray:
    """The `count` lowest base-p digits of each value, least significant
    first, along a new last axis."""
    return (values[..., None] // p ** np.arange(count, dtype=np.int64) % p).astype(np.uint8)


class _Context:
    def __init__(self, tower: FieldTower, system: QSystem, engine: str, dim: int):
        _check_options(engine)
        self.tower = tower
        self.U = system.subspace
        self.k = system.ambient
        self.n = tower.n
        self.backend = weight_backend(tower, self.k, engine, dim)

    def ranks(self, vals: np.ndarray, reduced: bool) -> np.ndarray:
        """Rank of the expansion rows of each (d, k) matrix of element
        values in vals, raw or reduced mod U, on a batched backend."""
        if self.backend == "gf2":
            return bitkernel.batch_rank(_sample_rows(self.m_np()[reduced], vals)).astype(np.int64)
        p = self.tower.p
        table = self.fp_tables()[reduced]
        out = []
        for lo in range(0, len(vals), FP_BLOCK):
            digits = _digit_array(vals[lo : lo + FP_BLOCK], p, self.n)
            out.append(bitkernel.fp_rank(self.fp_rows(digits.reshape(*digits.shape[:2], -1), table), p))
        return np.concatenate(out)

    # expansion tables, backend "gf2":
    # M[l][c][v] = expansion of b_l * v, placed at coordinate c; m_red
    # holds M reduced mod U

    def m_red(self):
        if not hasattr(self, "_m_red"):
            U = self.U
            raw = self._m_raw()
            self._m_red = [[[U.reduce_row(x) for x in col] for col in per_l] for per_l in raw]
        return self._m_red

    def _m_raw(self):
        t = self.tower
        n = self.n
        tabs = []
        for b in t.q_basis:
            base = [expand_vector(t, (t.mul(b, v),)) for v in range(t.order)]
            tabs.append([[x << (c * n) for x in base] for c in range(self.k)])
        return tabs

    def m_np(self):
        """(M, M reduced mod U) as uint64 arrays of shape (n, k * Q), with
        entry [l, c * Q + v] = M[l][c][v]."""
        if not hasattr(self, "_m_np"):
            tables = (self._m_raw(), self.m_red())
            self._m_np = tuple(np.array(m, dtype=np.uint64).reshape(self.n, -1) for m in tables)
        return self._m_np

    # F_p tables, backend "fp": entry [c*n + j, l] of a table is the
    # expansion row of b_l * z^j placed at coordinate c

    def fp_tables(self):
        """(raw, reduced) uint8 tables of shape (k * n, n, width).  The
        reduced rows are taken mod U and drop U's pivot columns, where they
        are zero, so their width is k * n - dim U."""
        if not hasattr(self, "_fp_tables"):
            t, n, k, p = self.tower, self.n, self.k, self.tower.p
            e = np.array(
                [[t.expand_scalar(t.mul(b, p**j)) for b in t.q_basis] for j in range(n)], dtype=np.uint8
            )
            raw = np.zeros((k, n, n, k, n), dtype=np.uint8)
            for c in range(k):
                raw[c, :, :, c, :] = e
            raw = raw.reshape(k * n, n, k * n)
            gens = [[x for v in g for x in t.expand_scalar(v)] for g in self.U.canonical_generators]
            basis = np.array(gens, dtype=np.uint8).reshape(1, -1, k * n)
            bitkernel.fp_rank(basis, p)
            red = raw.reshape(1, -1, k * n).copy()
            bitkernel.fp_reduce_static(red, basis[0], p)
            keep = np.ones(k * n, dtype=bool)
            keep[[int(np.flatnonzero(b)[0]) for b in basis[0] if b.any()]] = False
            self._fp_tables = (raw, red[0][:, keep].reshape(k * n, n, -1))
        return self._fp_tables

    def fp_rows(self, digits: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Rows of a block: digits of shape (B, d, D) times a (D, r, w)
        table, mod p, as a (B, d * r, w) uint8 batch."""
        size, r, w = table.shape
        rows = np.matmul(digits, table.reshape(size, r * w), dtype=np.uint32)
        rows %= self.tower.p
        return rows.astype(np.uint8).reshape(len(digits), digits.shape[1] * r, w)

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
            if ctx.backend == "gf2":
                yield from self._batch_weights(gstart, pivots, cells, blo, bhi)
            elif ctx.backend == "fp":
                yield from self._fp_weights(gstart, pivots, cells, blo, bhi)
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

    def _fp_weights(self, gstart, pivots, cells, blo, bhi):
        """Blocks of at most FP_BLOCK assignments.  Base-p digit e of an
        assignment index is digit e % n of the value in the cell
        cells[-1 - e // n]; the digits below p^low come from a numpy range,
        the rest are constant in a block."""
        ctx = self.ctx
        p, n, kn = ctx.tower.p, ctx.n, ctx.k * ctx.n
        ndig = len(cells) * n
        cols = [i * kn + c * n + e % n for e in range(ndig) for i, c in [cells[-1 - e // n]]]
        low = 0
        while low < ndig and p**low < FP_BLOCK:
            low += 1
        size = p**low
        red = ctx.fp_tables()[1]
        a = blo
        while a < bhi:
            high, start = divmod(a, size)
            count = min(FP_BLOCK, bhi - a, size - start)
            digits = np.zeros((count, self.dim * kn), dtype=np.uint8)
            digits[:, [i * kn + c * n for i, c in enumerate(pivots)]] = 1
            digits[:, cols[:low]] = _digit_array(np.arange(start, start + count), p, low)
            digits[:, cols[low:]] = _digits(high, p, ndig - low)
            rows = ctx.fp_rows(digits.reshape(count, self.dim, kn), red)
            yield (), gstart + a, self.dim * n - bitkernel.fp_rank(rows, p)
            a += count

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
        # scalar-class representatives are the indices whose top base-q digit
        # is 1: the ranges [q^e, 2q^e) for e < dim U
        self.R = (self.NU - 1) // (t.q - 1)
        self.total_units = self.dmax * self.R

    def _first_index(self, pos: int) -> int:
        """Element index of representative `pos`.

        With v = pos*(q-1) + 1 in [q^e, q^(e+1)), it is q^e + (v - q^e)/(q-1);
        for q = 2 that is pos + 1.
        """
        q = self.ctx.tower.q
        v = pos * (q - 1) + 1
        qe = 1
        while qe * q <= v:
            qe *= q
        return qe + (v - qe) // (q - 1)

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
            backend = self.ctx.backend
            if d == 1 and backend == "gf2":
                # q = 2: positions p_lo..p_hi-1 are the element indices p+1
                red, _ = self._element_tables()
                rows = [red[l][p_lo + 1 : p_hi + 1].copy() for l in range(self.ctx.n)]
                yield (1,), p_lo + 1, self.ctx.n - bitkernel.batch_rank(rows).astype(np.int64)
            elif d == 1 and backend == "fp":
                yield from self._fp_firsts(p_lo, p_hi)
            else:
                tuples = {"gf2": self._batch_tuples, "fp": self._fp_tuples}.get(backend, self._scalar_tuples)
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

        def rows_of(tabs, prefix):
            return [int(tabs[l][i]) for i in prefix for l in range(n)]

        def last_level(prefix, pre_raw):
            start = prefix[-1] + 1
            pre_red = _bit_rows(rows_of(red, prefix))
            rows = [red[l][start:].copy() for l in range(n)]
            bitkernel.reduce_static(rows, pre_red.rows, pre_red.pivots)
            wts = (d * n - pre_red.rank) - bitkernel.batch_rank(rows).astype(np.int64)
            dep = self._dependent_mask(prefix, pre_red, pre_raw, start)
            return np.where(dep, np.int64(-1), wts)

        def walk(prefix, pre_raw):
            if len(prefix) == d - 1:
                if prefix[-1] + 1 < self.NU:
                    yield (d, *prefix), prefix[-1] + 1, last_level(prefix, pre_raw)
                return
            for j in range(prefix[-1] + 1, self.NU):
                jrows = rows_of(raw, [j])
                if all(pre_raw.contains(r) for r in jrows):
                    continue  # dependent prefix
                yield from walk(prefix + [j], _bit_rows(pre_raw.rows + jrows))

        yield from walk([i1], _bit_rows(rows_of(raw, [i1])))

    def _dependent_mask(self, prefix, pre_red, pre_raw, start):
        """Mask of elements u_j (j >= start) inside the extension span of the prefix.

        pre_red and pre_raw hold the prefix's expansion rows reduced mod U and raw.
        """
        n = self.ctx.n
        if len(prefix) == 1:
            # u_j in <u1> iff u_j = c*u1 for some scalar c.  The weight of <u1>
            # tells whether any non-scalar multiple of u1 stays inside U at all;
            # only then is the multiple scan worth running.
            dep = np.zeros(self.NU - start, dtype=bool)
            if n - pre_red.rank <= 1:
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
        _, raw = self._element_tables()
        rows = [raw[l][start:].copy() for l in range(n)]
        bitkernel.reduce_static(rows, pre_raw.rows, pre_raw.pivots)
        added = bitkernel.batch_rank(rows)
        return added == 0

    # F_p tuple walk, backend "fp": the rows of element j of U are the
    # base-p digits of j times the rows of the canonical generators

    def _fp_gen_tables(self):
        """(raw, reduced) rows of b_l * g for each canonical generator g, as
        tables of shape (dim U, n, width)."""
        if not hasattr(self, "_fp_gens"):
            ctx = self.ctx
            gens = np.array(ctx.U.canonical_generators, dtype=np.int64)
            digits = _digit_array(gens, ctx.tower.p, ctx.n).reshape(len(gens), 1, -1)
            self._fp_gens = tuple(ctx.fp_rows(digits, tab) for tab in ctx.fp_tables())
        return self._fp_gens

    def _fp_elements(self, indices, table):
        """Rows of the elements of U at the given indices under a generator
        table, as a (len(indices), rows per element, width) batch."""
        digits = _digit_array(indices, self.ctx.tower.p, self.ctx.U.dim)
        return self.ctx.fp_rows(digits[:, None, :], table)

    def _fp_prefix(self, prefix):
        """(raw, reduced) rows of the prefix's elements, each a single matrix
        in the echelon form `bitkernel.fp_rank` leaves."""
        out = []
        for tab in self._fp_gen_tables():
            rows = self._fp_elements(np.array(prefix), tab).reshape(1, -1, tab.shape[2])
            bitkernel.fp_rank(rows, self.ctx.tower.p)
            out.append(rows[0])
        return out

    def _fp_dependent(self, pre_raw, lo, hi):
        """Mask of elements lo..hi-1 inside the extension span of the prefix:
        u_j lies there iff its first expansion row lies in the F_q-span of
        the prefix's expansion rows."""
        rows = self._fp_elements(np.arange(lo, hi), self._fp_gen_tables()[0][:, :1])
        bitkernel.fp_reduce_static(rows, pre_raw, self.ctx.tower.p)
        return ~rows.any(axis=(1, 2))

    def _fp_level(self, head, lo, hi, pre):
        """Weights of the spans of the prefix and u_j for j in lo..hi-1, with
        -1 for a u_j inside the prefix's extension span; pre is _fp_prefix of
        the prefix, or None for d = 1."""
        p, n = self.ctx.tower.p, self.ctx.n
        red = self._fp_gen_tables()[1]
        free = n if pre is None else head[0] * n - int(np.count_nonzero(pre[1].any(axis=1)))
        for s in range(lo, hi, FP_BLOCK):
            e = min(s + FP_BLOCK, hi)
            rows = self._fp_elements(np.arange(s, e), red)
            if pre is None:
                yield head, s, free - bitkernel.fp_rank(rows, p)
                continue
            bitkernel.fp_reduce_static(rows, pre[1], p)
            wts = free - bitkernel.fp_rank(rows, p)
            yield head, s, np.where(self._fp_dependent(pre[0], s, e), -1, wts)

    def _fp_firsts(self, p_lo, p_hi):
        """d = 1: representatives p_lo..p_hi-1 are runs of consecutive
        element indices [q^e, 2q^e)."""
        q = self.ctx.tower.q
        pos = p_lo
        while pos < p_hi:
            i = self._first_index(pos)
            qe = 1
            while qe * q <= i:
                qe *= q
            count = min(2 * qe - i, p_hi - pos)
            yield from self._fp_level((1,), i, i + count, None)
            pos += count

    def _fp_tuples(self, d: int, i1: int):
        def walk(prefix):
            pre = self._fp_prefix(prefix)
            start = prefix[-1] + 1
            if len(prefix) == d - 1:
                yield from self._fp_level((d, *prefix), start, self.NU, pre)
                return
            for s in range(start, self.NU, FP_BLOCK):
                e = min(s + FP_BLOCK, self.NU)
                for j in np.flatnonzero(~self._fp_dependent(pre[0], s, e)).tolist():
                    yield from walk(prefix + [s + j])

        yield from walk([i1])


def _bit_rows(rows) -> BitRows:
    acc = BitRows()
    for r in rows:
        acc.add(r)
    return acc


# --- sampled sweep ---


class SampledSweep:
    """Units are sample indices; sample i is `sample_subspace(..., seed, i)`,
    a pure function of (seed, i), so chunks can run in any order and
    resumes are exact.

    Samples are drawn SAMPLE_BLOCK at a time from the counter stream of
    `linalg.sample_values`.  The batched backends never canonicalise: they
    rank the unreduced expansion rows to find rank-deficient matrices,
    redraw those one at a time, and rank the rows reduced mod U for the
    weights, which do not depend on the basis of H.  The scalar backend
    RREFs and weighs one sample at a time, so it stops at the first
    violation.
    """

    def __init__(self, tower, system, dim: int, bound: int | None, seed: int, engine: str, budget: int):
        self.ctx = _Context(tower, system, engine, dim)
        self.dim = dim
        self.bound = bound
        self.seed = seed
        self.total_units = budget

    def run_units(self, lo: int, hi: int) -> ChunkResult:
        return _scan(self, lo, hi)

    def subspace(self, key) -> SubspaceQn:
        return sample_subspace(self.ctx.tower, self.ctx.k, self.dim, self.seed, key[0])

    def _weights(self, lo, hi):
        ctx = self.ctx
        t, k, d = ctx.tower, ctx.k, self.dim
        for blo in range(lo, hi, SAMPLE_BLOCK):
            bhi = min(blo + SAMPLE_BLOCK, hi)
            vals, accepted = sample_values(t.order, k, d, self.seed, blo, bhi, 0)
            if ctx.backend != "scalar":
                R = d * ctx.n
                full = accepted & (ctx.ranks(vals, reduced=False) == R)
                for j in np.flatnonzero(~full).tolist():
                    vals[j] = _redraw(t, k, d, self.seed, blo + j, 1).basis
                yield (), blo, R - ctx.ranks(vals, reduced=True)
                continue
            for j in range(bhi - blo):
                basis, pivots = rref(t, vals[j].tolist(), k) if accepted[j] else ((), ())
                if len(pivots) == d:
                    H = SubspaceQn(t, k, basis, pivots)
                else:
                    H = _redraw(t, k, d, self.seed, blo + j, 1)
                yield (), blo + j, [subspace_weight(ctx.U, H)]


def _sample_rows(tab, vals):
    """Expansion rows of the sampled (B, d, k) matrices, one array per
    (l, j): XOR over c of tab[l, c * Q + vals[:, j, c]]."""
    k = vals.shape[2]
    # (d, k, B) indices: contiguous gathers, and XORs over c on whole rows
    idx = np.ascontiguousarray(vals.transpose(1, 2, 0))
    idx += (np.arange(k, dtype=np.int64) * (tab.shape[1] // k))[:, None]
    rows = np.bitwise_xor.reduce(np.take(tab, idx, axis=1), axis=2)
    return list(rows.reshape(-1, len(vals)))


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
    backend: str | None = None  # the weight backend that ran; None when no sweep ran

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
            "backend": self.backend,
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
    _check_options(engine, budget, chunk_size, workers)
    tower = system.tower
    # the descriptor only names the sweep in checkpoint headers
    desc = {
        "field": tower.descriptor(),
        "system": system_to_desc(system),
        "engine": engine,
        "bound": bound,
    }
    if mode == "exhaustive":
        desc.update(kind="exhaustive", dim=dim)
        sweep = ExhaustiveSweep(tower, system, dim, bound, engine)
    elif mode == "witness_span":
        desc.update(kind="span", dmax=dim)
        sweep = SpanSweep(tower, system, dim, bound, engine)
    elif mode == "sampled":
        if budget is None:
            raise ValueError("sampled mode requires a budget")
        seed = seed if seed is not None else 0
        desc.update(kind="sampled", dim=dim, seed=seed, budget=budget, stream=SAMPLE_STREAM)
        sweep = SampledSweep(tower, system, dim, bound, seed, engine, budget)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    chunk = chunk_size or min(DEFAULT_CHUNKS[mode], max(sweep.total_units, 1))
    outcome = run_sweep(
        sweep,
        desc,
        chunk,
        workers=workers,
        checkpoint=checkpoint,
        budget_units=budget if mode != "sampled" else None,
        stop_after_units=stop_after_units,
    )
    witness = None
    if outcome.viol is not None:
        witness = _build_witness(system, sweep, outcome.viol["key"], outcome.viol["weight"])
    return outcome, witness, sweep.ctx.backend


def _verdict(outcome, witness, backend, mode, bound, dim, seed, defect=None) -> Verdict:
    """The one status rule: a witness or a defect is a violation, a sampled
    or unfinished sweep is inconclusive, and a finished sweep holds."""
    if witness is not None or defect is not None:
        status = "violated"
    elif mode == "sampled" or not outcome.completed:
        status = "inconclusive"
    else:
        status = "holds"
    seed_out = seed if mode == "sampled" else None
    return Verdict(status, mode, bound, dim, outcome.checked, witness, seed_out, defect, backend)


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
    outcome, witness, backend = _run_verification(
        system, h, h, mode, budget, seed, workers, checkpoint, engine, chunk_size,
        stop_after_units=_stop_after_units,
    )
    defect = None
    if witness is None and not system.spans_ambient:
        defect = {
            "reason": "does not span the ambient space over the extension field",
            "span_dim": _span_dim(system),
        }
    return _verdict(outcome, witness, backend, mode, h, h, seed, defect)


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
    _check_options(engine, budget, chunk_size, workers)
    if r >= system.t:
        # vacuous: no subspace can meet U in more than dim U
        return Verdict("holds", mode, r, hdim, 0, None, seed if mode == "sampled" else None)
    outcome, witness, backend = _run_verification(
        system, hdim, r, mode, budget, seed, workers, checkpoint, engine, chunk_size
    )
    return _verdict(outcome, witness, backend, mode, r, hdim, seed)


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
    _check_options(engine, budget, chunk_size, workers)
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"max-weight search supports exhaustive or sampled mode, not {mode!r}")
    if dim == 0:
        return 0, [0], 1, True
    outcome, _, _ = _run_verification(
        system, dim, None, mode, budget, seed, workers, checkpoint, engine, chunk_size
    )
    best = outcome.best or {"weight": 0, "key": [0]}
    exact = mode == "exhaustive" and outcome.completed
    return best["weight"], best["key"], outcome.checked, exact
