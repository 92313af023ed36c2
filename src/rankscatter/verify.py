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

Each mode has one batched `_weights`, written against a row kernel, and
the scalar oracle.  The kernel's calls build the expansion rows of value
matrices or of elements of U, raw or reduced mod U (element rows also
against the echelon basis of a prefix, which another call takes), and rank
a batch.  `_Context` picks the backend once per sweep (`weight_backend`):

* "gf2" - `_GF2Rows`, packed uint64 words and `bitkernel.batch_rank`,
  when q = 2 and the expanded width k*n is at most 64 bits;
* "fp" - `_FpRows`, uint8 row arrays and `bitkernel.fp_rank`, for any
  other prime q < 256 (odd q, and q = 2 with k*n > 64);
* "scalar" - no kernel: one weight at a time from `subspace_weight`, the
  oracle, for q = p^s with s > 1, for p > 255, and whenever
  engine="scalar".

Rows are linear over F_p in the base-p digits of the entries, so both
kernels build them from tables with one entry per digit or digit group,
never one per field element.

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
from functools import cached_property

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
    _check_sample_order,
    _pivot_blocks,
    _redraw,
    _subspace_from_assignment,
)
from .construction import QSystem, system_to_desc
from .runner import ChunkResult, _merge_best, run_sweep

SPAN_TABLE_CAP = 1 << 20  # max |U| for the batched tuple sweep
SAMPLE_BLOCK = 2048       # samples per draw in sampled sweeps
GF2_BLOCK = 1 << 16       # units per batch of the GF(2) kernel: a whole prefix range of |U| = 2^16
FP_BLOCK = 128            # units per batch of the F_p kernel
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
    first, along a new last axis; an object array of Python ints works too."""
    powers = p ** np.arange(count, dtype=values.dtype)
    return (values[..., None] // powers % p).astype(np.uint8)


# --- the row kernel: two batched implementations of the same calls ---
#
#   value_rows(vals, reduced)    rows of a (B, d, k) block of value matrices
#   element_rows(lo, hi, reduced, basis=None)
#                                rows of the elements lo .. hi-1 of U, also
#                                reduced against a prefix basis when given
#   basis(prefix, reduced)       echelon basis of the rows of some elements
#                                of U, and its rank
#   rank(rows)                   rank of each matrix of a batch, as int64
#   BLOCK                        units per batch
#
# Rows are the F_q-expansions of b_l * v over the F_q-basis b_l, for every
# vector v of a matrix; "reduced" rows are taken mod U.  Element rows are
# linear in the digits of the index, and so is reduction against a fixed
# basis: a prefix basis is cleared from the generator tables, not from the
# rows built from them.


class _GF2Rows:
    """GF(2) rows packed into uint64 words, for `bitkernel.batch_rank`: a
    batch is a list of R arrays of shape (B,), row r of matrix j at entry j
    of array r.

    Rows are F_2-linear in the bits of the entries, so they are XORs of
    subset tables over digit groups of at most 8 bits: one table per
    (coordinate, digit group) of value bits, of the rows of b_l * z^j, and
    one per byte of an element index of U, of the rows of b_l * g_j for the
    canonical generators g_j.  For n <= 8 a value table has one entry per
    field element; past that no table does.
    """

    BLOCK = GF2_BLOCK

    def __init__(self, ctx):
        t, n, U = ctx.tower, ctx.n, ctx.U
        self.n, self.k, self.U = n, ctx.k, U
        e = [[expand_vector(t, (t.mul(b, 1 << j),)) for j in range(n)] for b in t.q_basis]
        raw = [[[x << c * n for x in row] for row in e] for c in range(ctx.k)]
        red = [[[U.reduce_row(x) for x in row] for row in per_c] for per_c in raw]
        # (raw, reduced) tables of shape (k, digit groups, n, digit values)
        tables = bitkernel.subset_xor_table(np.array([raw, red], dtype=np.uint64), min(n, 8))
        self.tables = tuple(np.ascontiguousarray(tab.transpose(0, 2, 1, 3)) for tab in tables)

    @cached_property
    def _element_tables(self):
        """(raw, reduced) tables of shape (index bytes, n, 256)."""
        gens = np.array(self.U.canonical_generators, dtype=np.int64).reshape(-1, 1, self.k)
        tables = (bitkernel.subset_xor_table(np.array(self.value_rows(gens, r)), 8) for r in (False, True))
        return tuple(np.ascontiguousarray(tab.transpose(1, 0, 2)) for tab in tables)

    def value_rows(self, vals, reduced):
        tabs = self.tables[reduced]
        size = tabs.shape[-1]
        idx = vals.transpose(2, 1, 0)  # (k, d, B); a view, never written
        rows = np.zeros((self.n, *idx.shape[1:]), dtype=np.uint64)
        for c, per_c in enumerate(tabs):
            for g, tab in enumerate(per_c):
                rows ^= np.take(tab, (idx[c] >> 8 * g) & (size - 1), axis=1)
        return list(rows.reshape(-1, len(vals)))

    def element_rows(self, lo, hi, reduced, basis=None):
        tabs = self._element_tables[reduced]
        if basis is not None:
            tabs = tabs.copy()
            bitkernel.reduce_static([tabs.reshape(-1)], basis.rows, basis.pivots)
        # index j = 256 h + x: the low byte x runs through the first table
        # whole, so one broadcast XOR builds the rows of the range
        h = np.arange(lo >> 8, ((hi - 1) >> 8) + 1)
        high = np.zeros((self.n, len(h)), dtype=np.uint64)
        for g in range(1, len(tabs)):
            high ^= np.take(tabs[g], (h >> 8 * (g - 1)) & 255, axis=1)
        rows = (high[:, :, None] ^ tabs[0][:, None, :]).reshape(self.n, -1)
        return list(rows[:, (lo & 255) : (lo & 255) + hi - lo])

    def basis(self, prefix, reduced):
        acc = BitRows()
        for i in prefix:
            for r in self.element_rows(i, i + 1, reduced):
                acc.add(int(r[0]))
        return acc, acc.rank

    def rank(self, rows):
        return bitkernel.batch_rank(rows).astype(np.int64)


class _FpRows:
    """F_p rows as uint8 arrays, for `bitkernel.fp_rank`: a batch is one
    array of shape (B, R, W).

    Rows are F_p-linear in the base-p digits of the entries, so a batch's
    rows are its digits times a table: entry [c * n + j, l] of a value table
    is the row of b_l * z^j at coordinate c, and entry [j, l] of an element
    table the row of b_l * g_j for the canonical generators g_j of U.
    Reduced rows drop U's pivot columns, where they are zero, so their width
    is k * n - dim U.  No table has an entry per field element.
    """

    BLOCK = FP_BLOCK

    def __init__(self, ctx):
        t, n, k, p = ctx.tower, ctx.n, ctx.k, ctx.tower.p
        self.n, self.k, self.p, self.U, self.dtype = n, k, p, ctx.U, ctx.dtype
        e = np.array([[t.expand_scalar(t.mul(b, p**j)) for b in t.q_basis] for j in range(n)], dtype=np.uint8)
        raw = np.zeros((k, n, n, k, n), dtype=np.uint8)
        for c in range(k):
            raw[c, :, :, c, :] = e
        raw = raw.reshape(k * n, n, k * n)
        gens = [[x for v in g for x in t.expand_scalar(v)] for g in ctx.U.canonical_generators]
        basis = np.array(gens, dtype=np.uint8).reshape(1, -1, k * n)
        bitkernel.fp_rank(basis, p)
        red = raw.reshape(1, -1, k * n).copy()
        bitkernel.fp_reduce_static(red, basis[0], p)
        keep = np.ones(k * n, dtype=bool)
        keep[[int(np.flatnonzero(b)[0]) for b in basis[0] if b.any()]] = False
        self.tables = (raw, red[0][:, keep].reshape(k * n, n, -1))

    @cached_property
    def _element_tables(self):
        """(raw, reduced) tables of shape (dim U, n, width)."""
        gens = np.array(self.U.canonical_generators, dtype=self.dtype).reshape(-1, 1, self.k)
        return tuple(self.value_rows(gens, r) for r in (False, True))

    def _rows(self, digits, table):
        """Digits of shape (B, d, D) times a (D, r, w) table, mod p, as a
        (B, d * r, w) batch."""
        size, r, w = table.shape
        rows = np.matmul(digits, table.reshape(size, r * w), dtype=np.uint32)
        rows %= self.p
        return rows.astype(np.uint8).reshape(len(digits), digits.shape[1] * r, w)

    def value_rows(self, vals, reduced):
        digits = _digit_array(vals, self.p, self.n)
        return self._rows(digits.reshape(*vals.shape[:2], -1), self.tables[reduced])

    def element_rows(self, lo, hi, reduced, basis=None):
        table = self._element_tables[reduced]
        if basis is not None:
            table = table.copy()
            bitkernel.fp_reduce_static(table, basis, self.p)
        digits = _digit_array(np.arange(lo, hi), self.p, self.U.dim)
        return self._rows(digits[:, None, :], table)

    def basis(self, prefix, reduced):
        rows = np.concatenate([self.element_rows(i, i + 1, reduced) for i in prefix], axis=1)
        rank = bitkernel.fp_rank(rows, self.p)
        return rows[0], int(rank[0])

    def rank(self, rows):
        return bitkernel.fp_rank(rows, self.p)


_KERNELS = {"gf2": _GF2Rows, "fp": _FpRows}


class _Context:
    def __init__(self, tower: FieldTower, system: QSystem, engine: str, dim: int):
        _check_options(engine)
        self.tower = tower
        self.U = system.subspace
        self.k = system.ambient
        self.n = tower.n
        # element values are int64 up to Q = 2^63, Python ints past it
        # (only the F_p kernel meets such fields)
        self.dtype = np.int64 if tower.order <= 1 << 63 else object
        self.backend = weight_backend(tower, self.k, engine, dim)
        self.kernel = _KERNELS[self.backend](self) if self.backend in _KERNELS else None

    def ranks(self, vals: np.ndarray, reduced: bool) -> np.ndarray:
        """Rank of the expansion rows of each (d, k) matrix of element
        values in vals, raw or reduced mod U, on the batched kernel."""
        kern, block = self.kernel, self.kernel.BLOCK
        return np.concatenate(
            [kern.rank(kern.value_rows(vals[s : s + block], reduced)) for s in range(0, len(vals), block)]
        )


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
            if ctx.kernel is not None:
                yield from self._batches(gstart, pivots, cells, blo, bhi)
                continue
            for a in range(blo, bhi):
                H = _subspace_from_assignment(ctx.tower, ctx.k, pivots, cells, a)
                yield (), gstart + a, [subspace_weight(ctx.U, H)]

    def _batches(self, gstart, pivots, cells, blo, bhi):
        """Assignments in blocks of at most the kernel's BLOCK, as (B, dim,
        k) value matrices: pivot 1s, and the free cells set to the base-Q
        digits of the assignment index, the last cell least significant.
        The last `low` cells take the digits of a numpy range; the others
        are constant in a block."""
        ctx = self.ctx
        Q, block = ctx.tower.order, ctx.kernel.BLOCK
        low, size = 0, 1
        while low < len(cells) and size < block:
            low, size = low + 1, size * Q
        a = blo
        while a < bhi:
            high, start = divmod(a, size)
            count = min(block, bhi - a, size - start)
            vals = np.zeros((count, self.dim, ctx.k), dtype=ctx.dtype)
            vals[:, np.arange(self.dim), list(pivots)] = 1
            r = start + np.arange(count).astype(ctx.dtype)
            for e, (i, c) in enumerate(reversed(cells)):
                vals[:, i, c] = r // Q**e % Q if e < low else high // Q ** (e - low) % Q
            yield (), gstart + a, self.dim * ctx.n - ctx.ranks(vals, reduced=True)
            a += count


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
            if self.ctx.kernel is not None and d == 1:
                yield from self._firsts(p_lo, p_hi)
                continue
            tuples = self._scalar_tuples if self.ctx.kernel is None else self._tuples
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

    # batched tuple walk: one level of weights per (d-1)-prefix

    def _firsts(self, p_lo, p_hi):
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
            yield from self._level((1,), i, i + count, None)
            pos += count

    def _tuples(self, d: int, i1: int):
        block = self.ctx.kernel.BLOCK

        def walk(prefix):
            pre = self._prefix(prefix)
            start = prefix[-1] + 1
            if len(prefix) == d - 1:
                yield from self._level((d, *prefix), start, self.NU, pre)
                return
            for s in range(start, self.NU, block):
                e = min(s + block, self.NU)
                skip = set(self._dependent(prefix, pre[0], s, e))
                for j in range(s, e):
                    if j - s not in skip:
                        yield from walk(prefix + [j])

        yield from walk([i1])

    def _prefix(self, prefix):
        """(raw basis, reduced basis, weight) of the extension span of the
        prefix.  The raw basis is None when the prefix is one vector u1 with
        wt(<u1>) <= 1: then <u1> meets U in F_q u1 alone, and only the
        F_q^*-multiples of u1 lie in it."""
        kern = self.ctx.kernel
        red, rank = kern.basis(prefix, reduced=True)
        weight = len(prefix) * self.ctx.n - rank
        raw = None if len(prefix) == 1 and weight <= 1 else kern.basis(prefix, reduced=False)[0]
        return raw, red, weight

    def _dependent(self, prefix, raw, lo, hi) -> list[int]:
        """Offsets from lo of the elements lo..hi-1 inside the extension span
        of the prefix, whose raw basis is `raw` (see _prefix)."""
        if raw is None:
            q = self.ctx.tower.q
            digits = _digits(prefix[0], q, self.ctx.U.dim)
            # c * u1 for c in F_q other than 0 and 1: on a batched kernel F_q
            # is the constants mod q, so its index digits are c times u1's
            multiples = [sum(c * x % q * q**e for e, x in enumerate(digits)) for c in range(2, q)]
            return [j - lo for j in multiples if lo <= j < hi]
        kern = self.ctx.kernel
        return np.flatnonzero(kern.rank(kern.element_rows(lo, hi, False, raw)) == 0).tolist()

    def _level(self, head, lo, hi, pre):
        """Weights of the spans of the prefix head[1:] and u_j for j in
        lo..hi-1, with -1 for a u_j inside the prefix's extension span; pre
        is _prefix of the prefix, or None for d = 1."""
        kern = self.ctx.kernel
        n = self.ctx.n
        for s in range(lo, hi, kern.BLOCK):
            e = min(s + kern.BLOCK, hi)
            if pre is None:
                yield head, s, n - kern.rank(kern.element_rows(s, e, True))
                continue
            raw, red, weight = pre
            wts = weight + n - kern.rank(kern.element_rows(s, e, True, red))
            wts[self._dependent(head[1:], raw, s, e)] = -1
            yield head, s, wts


# --- sampled sweep ---


class SampledSweep:
    """Units are sample indices; sample i is `sample_subspace(..., seed, i)`,
    a pure function of (seed, i), so chunks can run in any order and
    resumes are exact.

    Samples are drawn SAMPLE_BLOCK at a time from the counter stream of
    `linalg.sample_values`.  The batched kernels never canonicalise: they
    rank the unreduced expansion rows to find rank-deficient matrices,
    redraw those one at a time, and rank the rows reduced mod U for the
    weights, which do not depend on the basis of H.  The scalar backend
    RREFs and weighs one sample at a time, so it stops at the first
    violation.
    """

    def __init__(self, tower, system, dim: int, bound: int | None, seed: int, engine: str, budget: int):
        _check_sample_order(tower.order)
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
            if ctx.kernel is not None:
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
