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
* sampled - seeded random subspaces (seed 0 when none is given); can only
  produce a witness or report "inconclusive", never "holds" from a sweep.
  It needs a budget: without one it is a ValueError, even where no sweep
  would run.

Each mode is a `_Sweep` that names its units: `_keys` lists their keys,
`subspace(key)` is the one map from a key to its subspace, and a batched
`_weights` weighs them on a row kernel.  The scalar oracle is the same for
every mode: `_Sweep._oracle` weighs `subspace(key)` with
`subspace_weight` for each key (a sampled sweep draws its subspaces
SAMPLE_BLOCK at a time, equal to them).  The kernel's calls build the
expansion rows of value matrices or of elements of U, raw or reduced mod U
(element rows also against the echelon basis of a prefix, which another
call takes), or the rows of MU for annihilators M, rank a batch, and read
kernels of maps linear in the index digits of U's elements.  An exhaustive
sweep ranks one of two shapes of rows, whichever its kernel's `cost` of a
matrix rates lower, value rows on a tie: the d n value rows of H reduced
mod U, of k n - t entries, or the (k - d) n rows of MU, of t entries, for
the annihilator M of H (wt_U(H) = t - rank(MU)).
Witness-span levels take their weights from those kernels: one map per
F_q^*-class of a scalar lambda, not one rank per element.  A level ranks its
elements' rows instead only when the kernels, whose sizes are known after
elimination, add up to more elements than the level has units, as when U
has a large extension-linear part.  A level read from its kernels is
sparse: every unit weighs wt(P) + 1 but the few in some kernel and the
skipped ones, so it travels as a `SparseLevel`, its summary computed for a
batch of levels at once.  A sweep picks its backend once
(`weight_backend`), which `run_units` runs:

* "gf2" - `_GF2Rows`, packed uint64 words and `bitkernel.batch_rank`,
  when q = 2 and the expanded width k*n is at most 64 bits;
* "fp" - `_FpRows`, uint8 row arrays and `bitkernel.fp_rank`, for any
  other prime q < 256 (odd q, and q = 2 with k*n > 64);
* "scalar" - no kernel: the oracle, one weight per unit key, for q = p^s
  with s > 1 and for p > 255; `rederive` runs it on any sweep.

Rows are linear over F_p in the base-p digits of the entries, so both
kernels build them from tables with one entry per digit or digit group,
never one per field element.

`_scan` alone applies the rules, to dense blocks and sparse levels alike:
weight -1 marks a skipped unit that is not counted, the first maximum is
the chunk's best, and the first weight above the bound ends the chunk once
the scalar oracle reproduces it on `subspace(key)`.

Every question is checked and sized once, from closed forms, by `plan`,
which takes its mode, budget, seed, chunk size and defect rule and is the
one place that refuses a question or its sweep (`Plan.refusal`, which
`_build_sweep` raises).  `_answer` runs a `Plan`: it builds the sweep from
the system and the plan alone, hands it to `runner.run_sweep` (a JSON-safe
descriptor only names it in checkpoint headers) and applies the one status
rule, `_verdict`; `recheck` applies that rule to the outcome a report
records, and re-sweeps a plan on the scalar oracle by `rederive`.

Violations always carry a machine-checkable witness (subspace basis plus an
F_q-basis of the offending intersection) that re-verifies independently.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import comb
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from . import bitkernel
from .field import FieldTower
from .linalg import (
    FqSubspace,
    SubspaceQn,
    expand_vector,
    gaussian_binomial,
    intersection_rows,
    make_rows,
    matrix_rank,
    sample_subspace,
    sample_subspaces,
    sample_values,
    subspace_fq_rows,
    unexpand_row,
    _pivot_blocks,
    _redraw,
    _subspace_from_assignment,
)
from .construction import QSystem, system_to_desc
from .runner import ChunkResult, SweepOutcome, _merge_best, run_sweep

SPAN_TABLE_CAP = 1 << 20  # max |U| of a witness-span sweep
EXHAUSTIVE_CAP = 10**9    # max subspaces of an exhaustive sweep without a budget
SAMPLE_BLOCK = 2048       # samples per draw in sampled sweeps
GF2_BLOCK = 1 << 16       # matrices per batch of the GF(2) kernel
FP_BLOCK = 128 * 12 * 54  # bytes of rows per batch of the F_p kernel
SAMPLE_STREAM = 2         # names the sample stream in checkpoint headers
DEFAULT_CHUNKS = {"exhaustive": 1 << 14, "witness_span": 512, "sampled": 1 << 14}


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


# --- the one scan ---


class SparseLevel(NamedTuple):
    """A witness-span level of `size` units, as `_levels` yields it: every
    unit weighs `base` except those at the sorted positions `pos`, which
    weigh `wts` (-1 for a skipped unit).  Its summary, made for a whole
    batch of levels by `_sparse_levels`: `skips` of the exceptions are -1,
    `plain` is the first position not in `pos` (`size` if there is none),
    and `top` and `over` index the first maximal exception and the first
    exception above the sweep's bound (-1 if there is none)."""

    size: int
    base: int
    pos: np.ndarray
    wts: np.ndarray
    skips: int
    plain: int
    top: int
    over: int


def _first_true(cond: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Offset in each segment bounds[i]:bounds[i + 1] of cond of its first
    true entry, or -1."""
    idx = np.append(np.flatnonzero(cond), len(cond))
    at = idx[np.searchsorted(idx, bounds[:-1])]
    return np.where(at < bounds[1:], at - bounds[:-1], -1)


def _sparse_levels(sizes, bases, level, pos, wts, bound) -> list[SparseLevel]:
    """The SparseLevel of each level i of sizes[i] units weighing bases[i],
    but for the exceptions (level, pos, wts), sorted by level and then by
    position.  The summaries take a fixed number of numpy calls per batch,
    and each level a fixed number of Python steps."""
    L = len(sizes)
    count = np.bincount(level, minlength=L)
    bounds = np.concatenate([[0], np.cumsum(count)])
    # distinct sorted positions from 0 meet their rank up to the first gap
    plain = np.bincount(level[pos == np.arange(len(pos)) - bounds[level]], minlength=L)
    peak = np.zeros(L, dtype=np.int64)
    if len(pos):
        peak[count > 0] = np.maximum.reduceat(wts, bounds[:-1][count > 0])
    top = _first_true(wts == peak[level], bounds)
    over = _first_true(wts > bound, bounds) if bound is not None else np.full(L, -1)
    skips = np.bincount(level[wts < 0], minlength=L)
    cuts = bounds.tolist()
    return [
        SparseLevel(size, base, pos[a:b], wts[a:b], *summary)
        for size, base, a, b, *summary in zip(
            sizes.tolist(), bases.tolist(), cuts, cuts[1:],
            skips.tolist(), plain.tolist(), top.tolist(), over.tolist(),
        )
    ]


def _scan(sweep, blocks, lo: int, hi: int) -> ChunkResult:
    """Fold a weight stream of the sweep's units [lo, hi) into a chunk result.

    `blocks` yields (head, start, wts) in unit order, where wts is a
    SparseLevel or a dense block: wts[i] is the weight of the unit keyed
    [*head, start + i], or -1 for a skipped unit that is not counted.  A
    block's best is its first maximum; its first weight above the bound ends
    the chunk once the scalar oracle reproduces it.
    """
    bound = sweep.bound
    checked = 0
    best = None
    for head, start, wts in blocks:
        if isinstance(wts, SparseLevel):
            # the first unit above the bound is the first exception above
            # it or, when the base is, the first plain unit
            lv = wts
            off = lv.pos.item(lv.over) if lv.over >= 0 else lv.size
            if bound is not None and lv.base > bound and lv.plain < off:
                off, weight, before = lv.plain, lv.base, lv.plain
            elif off < lv.size:
                weight, before = lv.wts.item(lv.over), lv.over
            viol = off < lv.size
            if viol:
                # `before` exceptions lie below off, the other units there
                # are plain and counted
                count = off + 1 - int(np.count_nonzero(lv.wts[:before] < 0))
            else:
                count = lv.size - lv.skips
                off, weight = lv.plain, lv.base
                if lv.top >= 0:
                    t_off, t_wt = lv.pos.item(lv.top), lv.wts.item(lv.top)
                    if off == lv.size or (t_wt, -t_off) > (weight, -off):
                        off, weight = t_off, t_wt
        else:
            # ndarray methods, and a count only for blocks with skipped
            # units: the scalar oracle sends one weight per block, where
            # call overhead is the whole cost
            wts = np.asarray(wts, dtype=np.int64)
            off = int(wts.argmax())
            viol = bound is not None and wts.item(off) > bound
            if viol:
                wts = wts[: int((wts > bound).argmax()) + 1]
                off = len(wts) - 1
            skips = wts.item(wts.argmin()) < 0
            count = int(np.count_nonzero(wts >= 0)) if skips else len(wts)
            weight = wts.item(off)
        checked += count
        top = {"key": [*head, start + off], "weight": weight}
        if weight >= 0:
            best = _merge_best(best, top)
        if viol:
            if subspace_weight(sweep.U, sweep.subspace(top["key"])) != weight:
                raise AssertionError(f"batch/scalar weight mismatch at unit key {top['key']}")
            return ChunkResult(lo, hi, checked, top, best)
    return ChunkResult(lo, hi, checked, None, best)


def weight_backend(tower: FieldTower, k: int, dim: int) -> str:
    """The backend a sweep of dim-dimensional subspaces of F_{q^n}^k runs:
    "gf2", "fp" or "scalar" (see the module docstring)."""
    if dim < 1 or tower.s > 1 or tower.p > 255:
        return "scalar"
    if tower.q == 2 and k * tower.n <= bitkernel.MAX_WIDTH:
        return "gf2"
    return "fp"


def _digit_array(values: np.ndarray, p: int, count: int) -> np.ndarray:
    """The `count` lowest base-p digits of each value, least significant
    first, along a new last axis; an object array of Python ints works too.
    One digit at a time, so no temporary holds all digits as int64."""
    digits = np.empty((*values.shape, count), dtype=np.uint8)
    rest = values.copy()
    for j in range(count):
        digits[..., j] = rest % p
        rest //= p
    return digits


def _annihilator_table(tower: FieldTower, U: FqSubspace, k: int) -> np.ndarray:
    """The F_p table of the annihilator rows, shape (k * n, n, t): entry
    [c * n + j, l, e] is coordinate l of z^j * g_e[c] on the F_q-basis, for
    the canonical generators g_e of U.  The base-p digits of a vector y
    times it are the n rows of the map U -> F_{q^n}, u -> y . u: row l,
    entry e is coordinate l of y . g_e."""
    n, p, gens = tower.n, tower.p, U.canonical_generators
    rows = [[tower.expand_scalar(tower.mul(p**j, g[c])) for g in gens] for c in range(k) for j in range(n)]
    return np.array(rows, dtype=np.uint8).reshape(k * n, len(gens), n).transpose(0, 2, 1)


# --- the row kernel: two batched implementations of the same calls ---
#
#   value_rows(vals, reduced)    rows of a (B, d, k) block of value matrices
#   table_rows(vals, table)      the same through one table; through
#                                `annihilator`, the rows of M U for a (B, k - d,
#                                k) block of annihilators M
#   element_rows(lo, hi, basis)  rows of the elements lo .. hi-1 of U reduced
#                                mod U and against a prefix basis
#   basis(prefixes)              for an (L, P) batch of prefixes: their rows
#                                reduced mod U in echelon form, their ranks,
#                                and (prefix, index) pairs whose index digits
#                                span the j with u_j in the prefix's
#                                extension span
#   kernels(basis, lambdas)      for each prefix of that batch and each
#                                lambda, a row of coordinates on the
#                                F_q-basis: (map, index) pairs whose index
#                                digits span the kernel of
#                                j -> lambda u_j mod U + prefix
#   rank(rows)                   rank of each matrix of a batch, as int64
#   block(rows, width)           matrices of `rows` rows of `width` entries
#                                per batch
#   cost(rows, width)            the elimination cost of one such matrix
#
# Rows are the F_q-expansions of b_l * v over the F_q-basis b_l, for every
# vector v of a matrix; "reduced" rows are taken mod U, and element rows
# (all `fp` rows) drop U's pivot columns, where they are zero.  Element rows
# are linear in the index digits j_e of u_j = sum_e j_e g_e, and so is
# reduction against a fixed basis: a prefix basis is cleared from the
# generator rows, not from the rows built from them.  The generator rows are
# kept in mixed coordinates: the reduced row first, then the entries at U's
# pivot columns, which are the index digits of any element of U.  A change
# of coordinates keeps ranks, and an echelon form of [image | index tag]
# rows has the kernel of the map in the tags of its rows whose image is
# zero; `basis` and `kernels` read kernels so, from `bitkernel.batch_rank`
# or `fp_rank`.  Annihilator rows have t = dim U entries: row l of a vector y
# holds coordinate l of y . g_e at entry e.


def _gather(a: np.ndarray, cols) -> np.ndarray:
    """Bits cols[0], cols[1], ... of each uint64 entry, moved to bits 0, 1, ..."""
    out = np.zeros_like(a)
    for i, c in enumerate(cols):
        out |= ((a >> np.uint64(c)) & np.uint64(1)) << np.uint64(i)
    return out


class _GF2Rows:
    """GF(2) rows packed into uint64 words, for `bitkernel.batch_rank`: a
    batch is a list of R arrays of shape (B,), row r of matrix j at entry j
    of array r.

    Rows are F_2-linear in the bits of the entries, so they are XORs of
    subset tables over digit groups of at most 8 bits: one table per
    (coordinate, digit group) of value bits, of the rows of b_l * z^j (or
    of the annihilator rows of z^j at that coordinate, t bits a word), and
    one per byte of an element index of U, of the rows of b_l * g_j for the
    canonical generators g_j.  For n <= 8 a value table has one entry per
    field element; past that no table does.  Rows of elements of U keep
    the columns outside U's pivots in their low w = k * n - dim U bits, so
    an index tag fits above them in the same word.
    """

    def __init__(self, sweep):
        self.tower, self.n, self.k, self.U = sweep.tower, sweep.n, sweep.k, sweep.U
        self.w = sweep.k * sweep.n - sweep.U.dim
        self.low = np.uint64((1 << self.w) - 1)

    def _subset_tables(self, deltas):
        """Subset-XOR tables of (..., k, n, n) row deltas, the last axis the
        digit, as (..., k, digit groups, n, digit values)."""
        return np.ascontiguousarray(bitkernel.subset_xor_table(deltas, min(self.n, 8)).swapaxes(-3, -2))

    @cached_property
    def tables(self):
        """The (raw, reduced) value tables."""
        t, n, k = self.tower, self.n, self.k
        e = [[expand_vector(t, (t.mul(b, 1 << j),)) for j in range(n)] for b in t.q_basis]
        raw = [[[x << c * n for x in row] for row in e] for c in range(k)]
        red = [[[self.U.reduce_row(x) for x in row] for row in per_c] for per_c in raw]
        return tuple(self._subset_tables(np.array([raw, red], dtype=np.uint64)))

    @cached_property
    def annihilator(self):
        """The annihilator table: `_annihilator_table` with each row's t
        entries packed into one word, entry e at bit e.  It is packed in
        Python: numpy's packing calls, which nothing else here makes, map
        more code than the small table takes."""
        table = _annihilator_table(self.tower, self.U, self.k).tolist()
        words = np.array([[sum(b << e for e, b in enumerate(row)) for row in per] for per in table], dtype=np.uint64)
        return self._subset_tables(words.reshape(self.k, self.n, self.n).swapaxes(1, 2))

    @cached_property
    def _generators(self):
        """Rows of b_l * g_e in mixed coordinates, shape (n, dim U): the
        reduced row's columns outside U's pivots in the low w bits, the
        entries at U's pivots above them."""
        gens = np.array(self.U.canonical_generators, dtype=np.int64).reshape(-1, 1, self.k)
        raw, red = (np.array(self.value_rows(gens, r)) for r in (False, True))
        pivots = self.U.pivots
        outside = sorted(set(range(self.k * self.n)) - set(pivots))
        # reduced rows are zero at U's pivots
        return _gather(red | raw & np.uint64(sum(1 << c for c in pivots)), outside + pivots)

    @cached_property
    def _element_table(self):
        """Reduced rows of the elements of U as subset-XOR tables, shape
        (index bytes, n, 256)."""
        return np.ascontiguousarray(bitkernel.subset_xor_table(self._generators & self.low, 8).transpose(1, 0, 2))

    def value_rows(self, vals, reduced):
        return self.table_rows(vals, self.tables[reduced])

    def table_rows(self, vals, tabs):
        """The rows of a (B, d, k) block of values through one table: n
        rows per vector."""
        size = tabs.shape[-1]
        idx = vals.transpose(2, 1, 0)  # (k, d, B); a view, never written
        rows = np.zeros((self.n, *idx.shape[1:]), dtype=np.uint64)
        for c, per_c in enumerate(tabs):
            for g, tab in enumerate(per_c):
                rows ^= np.take(tab, (idx[c] >> 8 * g) & (size - 1), axis=1)
        return list(rows.reshape(-1, len(vals)))

    def element_rows(self, lo, hi, basis):
        tabs = self._element_table.copy()
        rows = [r for r in basis.tolist() if r]
        bitkernel.reduce_static([tabs.reshape(-1)], rows, [(r & -r).bit_length() - 1 for r in rows])
        # index j = 256 h + x: the low byte x runs through the first table
        # whole, so one broadcast XOR builds the rows of the range
        h = np.arange(lo >> 8, ((hi - 1) >> 8) + 1)
        high = np.zeros((self.n, len(h)), dtype=np.uint64)
        for g in range(1, len(tabs)):
            high ^= np.take(tabs[g], (h >> 8 * (g - 1)) & 255, axis=1)
        rows = (high[:, :, None] ^ tabs[0][:, None, :]).reshape(self.n, -1)
        return list(rows[:, (lo & 255) : (lo & 255) + hi - lo])

    def _eliminate(self, rows):
        """Echelon form of a (B, R) batch of mixed rows by `batch_rank`,
        in place, and the rows' low parts."""
        bitkernel.batch_rank(list(rows.T))
        return rows, rows & self.low

    def _tags(self, ech, low):
        """(matrix, index) of the rows with a zero low part, the index read
        off the row's tag."""
        owners, _ = np.nonzero(low == 0)
        return owners, (ech[low == 0] >> np.uint64(self.w)).astype(np.int64)

    def basis(self, prefixes):
        digits = _digit_array(prefixes, 2, self.U.dim)
        rows = np.bitwise_xor.reduce(
            np.where(digits[:, :, None, :] != 0, self._generators, np.uint64(0)), axis=3
        )
        ech, low = self._eliminate(rows.reshape(len(prefixes), -1))
        return low, np.count_nonzero(low, axis=1), self._tags(ech, low)

    def kernels(self, basis, lambdas):
        gens = self._generators & self.low
        # row e of the map of lambda = sum_l c_l b_l: the image of g_e, and
        # the tag of digit e above it; the prefix rows come first, so
        # elimination reduces the images mod the prefix
        maps = np.bitwise_xor.reduce(np.where(lambdas[:, :, None] != 0, gens, np.uint64(0)), axis=1)
        maps |= np.uint64(1) << np.arange(self.w, self.w + self.U.dim, dtype=np.uint64)
        L, C, P = len(basis), len(lambdas), basis.shape[1]
        rows = np.concatenate(
            [np.broadcast_to(basis[:, None, :], (L, C, P)), np.broadcast_to(maps, (L, C, maps.shape[1]))], axis=2
        )
        ech, low = self._eliminate(rows.reshape(L * C, -1))
        return self._tags(ech[:, P:], low[:, P:])

    def rank(self, rows):
        return bitkernel.batch_rank(rows)

    def block(self, rows, width):
        """GF2_BLOCK, whatever the shape: a packed row is one word."""
        return GF2_BLOCK

    @staticmethod
    def cost(rows, width):
        """Word operations of an elimination: a row is one word."""
        return rows * rows


class _FpRows:
    """F_p rows as uint8 arrays, for `bitkernel.fp_rank`: a batch is one
    array of shape (B, R, W).

    Rows are F_p-linear in the base-p digits of the entries, so a batch's
    rows are its digits times a table: entry [c * n + j, l] of a value table
    is the row of b_l * z^j at coordinate c, entry [j, l] of an element
    table the row of b_l * g_j for the canonical generators g_j of U, and
    the annihilator table is `_annihilator_table`.
    Reduced rows have width w = k * n - dim U.  No table has an entry per
    field element.
    """

    def __init__(self, sweep):
        self.tower, self.n, self.k, self.p, self.U, self.dtype = (
            sweep.tower, sweep.n, sweep.k, sweep.tower.p, sweep.U, sweep.dtype)
        self.w = sweep.k * sweep.n - sweep.U.dim

    @cached_property
    def tables(self):
        """The (raw, reduced) value tables."""
        t, n, k, p = self.tower, self.n, self.k, self.p
        e = np.array([[t.expand_scalar(t.mul(b, p**j)) for b in t.q_basis] for j in range(n)], dtype=np.uint8)
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
        keep[self.U.pivots] = False
        return raw, red[0][:, keep].reshape(k * n, n, -1)

    @cached_property
    def annihilator(self):
        """The annihilator table, `_annihilator_table` as it is."""
        return _annihilator_table(self.tower, self.U, self.k)

    @cached_property
    def _generators(self):
        """Rows of b_l * g_e in mixed coordinates, shape (dim U, n, k * n):
        the reduced row in the first w columns, the entries at U's pivots
        after them."""
        gens = np.array(self.U.canonical_generators, dtype=self.dtype).reshape(-1, 1, self.k)
        raw, red = (self.value_rows(gens, r) for r in (False, True))
        return np.concatenate([red, raw[..., self.U.pivots]], axis=2)

    def _rows(self, digits, table):
        """Digits of shape (B, d, D) times a (D, r, w) table, mod p, as a
        (B, d * r, w) batch."""
        size, r, w = table.shape
        rows = bitkernel.fp_dot(digits, table.reshape(size, r * w), self.p)
        return rows.reshape(len(digits), digits.shape[1] * r, w)

    def value_rows(self, vals, reduced):
        return self.table_rows(vals, self.tables[reduced])

    def table_rows(self, vals, table):
        """The rows of a (B, d, k) block of values through one table: n
        rows per vector."""
        digits = _digit_array(vals, self.p, self.n)
        return self._rows(digits.reshape(*vals.shape[:2], -1), table)

    def element_rows(self, lo, hi, basis):
        table = self._generators[..., : self.w].copy()
        bitkernel.fp_reduce_static(table, basis, self.p)
        digits = _digit_array(np.arange(lo, hi), self.p, self.U.dim)
        return self._rows(digits[:, None, :], table)

    def _tags(self, rows):
        """(matrix, index) of the rows with a zero low part, the index read
        off the row's tag."""
        zero = ~rows[..., : self.w].any(axis=-1)
        owners, _ = np.nonzero(zero)
        return owners, rows[zero][:, self.w :] @ self.p ** np.arange(self.U.dim, dtype=np.int64)

    def basis(self, prefixes):
        digits = _digit_array(prefixes, self.p, self.U.dim)
        rows = self._rows(digits, self._generators)
        bitkernel.fp_rank(rows, self.p)
        low = rows[..., : self.w]
        return low, np.count_nonzero(low.any(axis=-1), axis=1), self._tags(rows)

    def kernels(self, basis, lambdas):
        dim, w, p = self.U.dim, self.w, self.p
        L, C, P = len(basis), len(lambdas), basis.shape[1]
        # row (lambda, e): the image of g_e under lambda = sum_l c_l b_l,
        # then the tag of digit e; the prefix rows come first, so
        # elimination reduces the images mod the prefix
        gens = self._generators[..., :w].transpose(1, 0, 2).reshape(self.n, -1)
        image = bitkernel.fp_dot(lambdas, gens, p)
        rows = np.zeros((L, C, P + dim, w + dim), dtype=np.uint8)
        rows[:, :, :P, :w] = basis[:, None]
        rows[:, :, P:, :w] = image.reshape(C, dim, w)
        rows[:, :, P:, w:] = np.eye(dim, dtype=np.uint8)
        rows = rows.reshape(L * C, P + dim, w + dim)
        bitkernel.fp_rank(rows, p)
        return self._tags(rows[:, P:])

    def rank(self, rows):
        return bitkernel.fp_rank(rows, self.p)

    def block(self, rows, width):
        """As many matrices as fill FP_BLOCK bytes, and at least one."""
        return max(1, FP_BLOCK // max(1, rows * width))

    @staticmethod
    def cost(rows, width):
        """Entry operations of an elimination."""
        return rows * rows * width


_KERNELS = {"gf2": _GF2Rows, "fp": _FpRows}


class _Sweep:
    """What every sweep shares, built from the system and the `Plan` of its
    question alone: the plan's `dim`, `bound`, `seed` and `total` units, and
    the backend `weight_backend` picks, whose row `kernel` is built on first
    use.  A subclass lists the keys of its counted units in unit order
    (`_keys`), maps a key to its subspace, or to None when it names no unit
    (`subspace`), and weighs units on the kernel in batches (`_weights`)."""

    shape = "value"  # the rows an exhaustive sweep ranks: "value" or "annihilator"

    def __init__(self, system: QSystem, p: Plan):
        self.tower = system.tower
        self.U = system.subspace
        self.k = system.ambient
        self.n = self.tower.n
        self.dim = p.dim
        self.bound = p.bound
        self.total_units = p.total
        # element values are int64 up to Q = 2^63, Python ints past it
        # (only the F_p kernel meets such fields)
        self.dtype = np.int64 if self.tower.order <= 1 << 63 else object
        self.seed = p.seed  # None outside sampled mode
        self.backend = weight_backend(self.tower, self.k, p.dim)

    @cached_property
    def kernel(self):
        """The row kernel of the backend with the tables of the sweep's
        shape built, or None on the scalar backend; a run on the scalar
        oracle never builds them."""
        if self.backend not in _KERNELS:
            return None
        kern = _KERNELS[self.backend](self)
        kern.annihilator if self.shape == "annihilator" else kern.tables
        return kern

    def run_units(self, lo: int, hi: int) -> ChunkResult:
        """Units [lo, hi) on the planned backend."""
        return _scan(self, self._oracle(lo, hi) if self.kernel is None else self._weights(lo, hi), lo, hi)

    def _oracle(self, lo, hi):
        """The (head, start, wts) blocks of units [lo, hi) on the scalar
        oracle: one weight per unit key."""
        for key, H in self._subspaces(lo, hi):
            yield tuple(key[:-1]), key[-1], [subspace_weight(self.U, H)]

    def _subspaces(self, lo, hi):
        """(key, subspace(key)) for the keys of units [lo, hi)."""
        return ((key, self.subspace(key)) for key in self._keys(lo, hi))

    def _keys(self, lo, hi):
        """Index keys [i], the units of the exhaustive and sampled sweeps."""
        return ([i] for i in range(lo, hi))

    def _index(self, key) -> int | None:
        """The unit index of an index key [i], or None when it names none."""
        return key[0] if len(key) == 1 and 0 <= key[0] < self.total_units else None

    def ranks(self, vals: np.ndarray, reduced: bool) -> np.ndarray:
        """Rank of the expansion rows of each (dim, k) matrix of element
        values in vals, raw or reduced mod U, on the batched kernel."""
        kern = self.kernel
        block = kern.block(self.dim * self.n, self.k * self.n - reduced * self.U.dim)
        parts = [kern.rank(kern.value_rows(vals[s : s + block], reduced)) for s in range(0, len(vals), block)]
        return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


# --- exhaustive sweep over the Grassmannian ---


class ExhaustiveSweep(_Sweep):
    """Units are subspace indices in the frozen enumeration order.

    H = ker M for the k - d rows y_c of its annihilator, one per column c
    outside the pivots of H's echelon form A: 1 at c and -A[i][c] at pivot
    p_i.  So U n H is the kernel of u -> M u on U, and wt_U(H) = t -
    rank(MU) (Randrianarisoa, DCC 2020).  `shape` names the rows the sweep
    ranks, picked by the rule of the module docstring.
    """

    def __init__(self, system, p: Plan):
        super().__init__(system, p)
        rows, n, t = _KERNELS.get(self.backend), self.n, self.U.dim
        self.sizes = {"value": (self.dim * n, self.k * n - t), "annihilator": ((self.k - self.dim) * n, t)}
        # a gf2 batch of no rows has no matrices, so H = F^k keeps value rows
        if rows and self.dim < self.k and rows.cost(*self.sizes["annihilator"]) < rows.cost(*self.sizes["value"]):
            self.shape = "annihilator"
        self.blocks = []
        start = 0
        for pivots, cells, count in _pivot_blocks(self.k, self.dim, self.tower.order):
            self.blocks.append((start, pivots, cells, count))
            start += count

    def subspace(self, key) -> SubspaceQn | None:
        """Subspace i of the frozen order, as `enumerate_subspaces` lists it."""
        i = self._index(key)
        if i is None:
            return None
        start, pivots, cells, _ = self.blocks[bisect_right(self.blocks, i, key=lambda b: b[0]) - 1]
        return _subspace_from_assignment(self.tower, self.k, pivots, cells, i - start)

    def _weights(self, lo, hi):
        for gstart, pivots, cells, count in self.blocks:
            blo = max(lo - gstart, 0)
            bhi = min(hi - gstart, count)
            if blo < bhi:
                yield from self._batches(gstart, pivots, cells, blo, bhi)

    def _batches(self, gstart, pivots, cells, blo, bhi):
        """Assignments in blocks of at most one kernel batch, as matrices
        of the sweep's shape with the free cells set to the base-Q digits
        of the assignment index, the last cell least significant: (B, dim,
        k) value matrices with pivot 1s, or (B, k - dim, k) matrices of the
        rows -y_c, -1 at c and cell (i, c) at pivot p_i.  The last `low`
        cells take the digits of a numpy range; the others are constant in
        a block."""
        kern, Q = self.kernel, self.tower.order
        block = kern.block(*self.sizes[self.shape])
        if self.shape == "annihilator":
            ones = [c for c in range(self.k) if c not in pivots]
            one, table, base = self.tower.p - 1, kern.annihilator, self.U.dim
            cells = [(ones.index(c), pivots[i]) for i, c in cells]
        else:
            ones, one, table, base = list(pivots), 1, kern.tables[True], self.dim * self.n
        low, size = 0, 1
        while low < len(cells) and size < block:
            low, size = low + 1, size * Q
        a = blo
        while a < bhi:
            high, start = divmod(a, size)
            count = min(block, bhi - a, size - start)
            vals = np.zeros((count, len(ones), self.k), dtype=self.dtype)
            vals[:, np.arange(len(ones)), ones] = one
            r = start + np.arange(count).astype(self.dtype)
            for e, (i, c) in enumerate(reversed(cells)):
                vals[:, i, c] = r // Q**e % Q if e < low else high // Q ** (e - low) % Q
            yield (), gstart + a, base - kern.rank(kern.table_rows(vals, table))
            a += count


# --- witness-span sweep over tuples of U-vectors ---


class SpanSweep(_Sweep):
    """Units are (d, first-index) pairs: unit = (d-1)*R + position, for d
    up to `dim`.

    For each first vector (a scalar-class representative) the remaining
    tuple indices increase strictly; prefixes that are dependent over the
    extension field are skipped and not counted.
    """

    def __init__(self, system, p: Plan):
        super().__init__(system, p)
        self.NU = self.tower.q**self.U.dim
        # scalar-class representatives are the indices whose top base-q digit
        # is 1: the ranges [q^e, 2q^e) for e < dim U
        self.R = (self.NU - 1) // (self.tower.q - 1)

    def _firsts(self, lo, hi):
        """(d, runs) for each tuple length d of units [lo, hi), the first
        indices of those units as runs [a, b) inside the ranges [q^e, 2q^e)."""
        R, q = self.R, self.tower.q
        if lo >= hi:
            return
        for d in range(lo // R + 1, (hi - 1) // R + 2):
            p_lo, p_hi = max(lo - (d - 1) * R, 0), min(hi - (d - 1) * R, R)
            runs = []
            for e in range(self.U.dim):
                # run e holds positions from (q^e - 1)/(q - 1) on
                first = (q**e - 1) // (q - 1)
                a, b = max(p_lo, first), min(p_hi, first + q**e)
                if a < b:
                    runs.append((q**e + a - first, q**e + b - first))
            yield d, runs

    def subspace(self, key) -> SubspaceQn | None:
        """The span of U-vectors j_1..j_d that key [d, j_1, ..., j_d]
        names, for 1 <= d <= dim."""
        if not (1 <= len(key) - 1 == key[0] <= self.dim and all(0 <= j < self.NU for j in key[1:])):
            return None
        return SubspaceQn.from_vectors(self.tower, self.k, [self.U.element(j) for j in key[1:]])

    def _keys(self, lo, hi):
        """The keys in walk order: later indices increase strictly, and a
        u_j in the extension span of the prefix is skipped, with every
        tuple that extends it."""
        tower, k, U = self.tower, self.k, self.U

        def walk(prefix, span):
            for j in range(prefix[-1] + 1, self.NU):
                v = U.element(j)
                if span.contains(v):
                    continue
                if len(prefix) + 1 == d:
                    yield [d, *prefix, j]
                else:
                    yield from walk([*prefix, j], SubspaceQn.from_vectors(tower, k, [*span.basis, v]))

        for d, runs in self._firsts(lo, hi):
            for i1 in (i for a, b in runs for i in range(a, b)):
                if d == 1:
                    yield [1, i1]
                else:
                    yield from walk([i1], SubspaceQn.from_vectors(tower, k, [U.element(i1)]))

    def _weights(self, lo, hi):
        for d, runs in self._firsts(lo, hi):
            if d == 1:
                for a, b in runs:
                    yield from self._levels(1, [()], a, b)
            else:
                yield from self._tuples(d, [i for a, b in runs for i in range(a, b)])

    # batched tuple walk: one level of weights per (d-1)-prefix
    #
    # With V = U + <P> over the extension, the span of a prefix P and u_j
    # has weight wt(P) + e_j, where e_j = dim_Fq {lambda : lambda u_j in V}.
    # That space holds F_q, so e_j - 1 is the dimension of its meet with a
    # complement of F_q: q^(e_j - 1) = 1 + (q - 1) * c_j, where c_j counts
    # the F_q^*-classes of lambda in the complement whose kernel K_lambda =
    # {j : lambda u_j in V} holds j.  Each K_lambda is the kernel of a map
    # linear in the index digits of j, so a level costs one elimination per
    # class and a pass over the elements of the kernels, unless those add
    # up to more elements than the level has units: then, as when U has a
    # large extension-linear part, the level ranks the rows of every unit.
    # The u_j inside <P> are the kernel of j -> u_j mod <P>, which has
    # q^wt(P) elements.  Eliminations run for a batch of levels at once, and
    # so does the sorting of kernel elements into each level's exceptions.

    def _kernel_route(self, size, units):
        """The rule between the routes: enumerate kernels of `size`
        elements in all rather than rank `units` units."""
        return size <= units

    @cached_property
    def _classes(self) -> int:
        """How many F_q^*-classes of lambda a level has maps for."""
        return len(self._lambdas)

    @cached_property
    def _lambdas(self) -> np.ndarray:
        """Coordinates on the F_q-basis of one lambda per F_q^*-class of
        the nonzero elements of a complement of F_q in the extension."""
        t = self.tower
        q, n = t.q, t.n
        one = next(l for l, x in enumerate(t.expand_scalar(1)) if x)
        c = _digit_array(np.arange(1, q ** (n - 1)), q, n - 1)
        c = c[c[np.arange(len(c)), (c != 0).argmax(axis=1)] == 1]
        return np.insert(c, one, 0, axis=1)

    @cached_property
    def _extension(self) -> np.ndarray:
        """e_j by the count c_j of classes whose kernel holds j."""
        q, n = self.tower.q, self.n
        table = np.full(self._classes + 1, -1, dtype=np.int64)
        table[[(q**e - 1) // (q - 1) for e in range(n)]] = np.arange(1, n + 1)
        return table

    def _spans(self, owners, tags, count):
        """Elements of the F_q-span of the index digits of the tags of each
        owner 0..count-1, grouped by owner: (bounds, elements), the elements
        of owner i at bounds[i]:bounds[i + 1].  Tags come sorted by owner."""
        q, dim = self.tower.q, self.U.dim
        kappa = np.bincount(owners, minlength=count)
        first = np.cumsum(kappa) - kappa
        bounds = np.concatenate([[0], np.cumsum(q**kappa)])
        elements = np.empty(bounds[-1], dtype=np.int64)
        powers = q ** np.arange(dim, dtype=np.int64)
        for k in np.flatnonzero(np.bincount(kappa)).tolist():
            sel = np.flatnonzero(kappa == k)
            basis = tags[first[sel, None] + np.arange(k)]
            if q == 2:
                # sums of F_2 digit rows are XORs of the indices
                span = np.zeros((len(sel), 1), dtype=np.int64)
                for b in basis.T:
                    span = np.concatenate([span, span ^ b[:, None]], axis=1)
            else:
                coeffs = _digit_array(np.arange(q**k), q, k).astype(np.int64)
                span = (coeffs @ _digit_array(basis, q, dim).astype(np.int64) % q) @ powers
            elements[bounds[sel, None] + np.arange(q**k)] = span
        return bounds, elements

    def _tuples(self, d: int, firsts):
        """The d-tuples of each first index, as levels of (d-1)-prefixes
        in walk order, a batch of levels at a time."""
        kern = self.kernel

        def walk(prefix):
            if len(prefix) == d - 1:
                yield prefix
                return
            _, _, dependent = kern.basis(np.array([prefix]))
            skip = set(self._spans(*dependent, 1)[1].tolist())
            for j in range(prefix[-1] + 1, self.NU):
                if j not in skip:
                    yield from walk((*prefix, j))

        prefixes = (p for i1 in firsts for p in walk((i1,)))
        # a prefix's levels take one map of P + dim U rows per class
        size = max(1, kern.block((d - 1) * self.n + self.U.dim, kern.w + self.U.dim) // self._classes)
        while batch := list(islice(prefixes, size)):
            yield from self._levels(d, batch, 0, self.NU)

    def _prepare(self, prefixes, units):
        """What the levels of a batch of (d-1)-prefixes with `units` units
        each need: reduced bases, weights, the elements inside each
        prefix's span, the total size of each level's kernels (at least the
        class count when none were computed) and, for levels that take the
        kernel route, their elements, grouped by level as `_spans` does."""
        kern, q, L, C = self.kernel, self.tower.q, len(prefixes), self._classes
        basis, ranks, dependent = kern.basis(prefixes)
        weights = prefixes.shape[1] * self.n - ranks
        sizes, hits = np.full(L, C), (np.zeros(L + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        if self._kernel_route(C, units.max()):
            owners, tags = kern.kernels(basis, self._lambdas)
            sizes = (q ** np.bincount(owners, minlength=L * C)).reshape(L, C).sum(axis=1)
            keep = self._kernel_route(sizes, units)[owners // C]
            bounds, elements = self._spans(owners[keep], tags[keep], L * C)
            hits = bounds[::C], elements
        return basis, weights, self._spans(*dependent, L), sizes, hits

    @cached_property
    def _first_level(self):
        """_prepare of the empty prefix, shared by the d = 1 runs, of at
        most q^(dim U - 1) units each."""
        return self._prepare(np.zeros((1, 0), dtype=np.int64), np.array([self.NU // self.tower.q]))

    def _levels(self, d, prefixes, lo, hi):
        """Weights of the spans of each (d-1)-prefix and u_j, for j in
        lo..hi-1 past the prefix's last index, with -1 for a u_j inside the
        prefix's extension span: a SparseLevel on the kernel route, dense
        blocks on the rank route."""
        kern, n = self.kernel, self.n
        block = kern.block(n, kern.w)
        prefixes = np.array(prefixes, dtype=np.int64).reshape(len(prefixes), d - 1)
        starts = np.maximum(prefixes[:, -1] + 1, lo) if d > 1 else np.full(len(prefixes), lo)
        pre = self._first_level if d == 1 else self._prepare(prefixes, hi - starts)
        basis, weights, deps, sizes, hits = pre
        route = self._kernel_route(sizes, hi - starts) & (starts < hi)

        def keys(grouped):
            """Level * NU + j of the grouped elements j in range on a
            kernel-route level."""
            bounds, elements = grouped
            level = np.repeat(np.arange(len(starts)), np.diff(bounds))
            keep = route[level] & (elements >= starts[level]) & (elements < hi)
            return level[keep] * self.NU + elements[keep]

        # units in no kernel have e_j = 1, and are no exception.  A low bit
        # marks a dependent u_j, which sorts after the kernel hits of its
        # key.  The stable sort maps less numpy code than the default one,
        # which shows in the peak resident memory of small sweeps.
        marks = np.sort(np.concatenate([keys(hits) * 2, keys(deps) * 2 + 1]), kind="stable")
        key = marks >> 1
        last = np.flatnonzero(key != np.append(key[1:], -1))
        found, dependent = key[last], (marks[last] & 1).astype(bool)
        count = last - np.append(-1, last[:-1]) - dependent
        level = found // self.NU
        wts = np.where(dependent, -1, weights[level] + self._extension[count])
        on = np.flatnonzero(route)
        pos = found % self.NU - starts[level]
        levels = _sparse_levels(hi - starts[on], weights[on] + 1, np.searchsorted(on, level), pos, wts, self.bound)
        sparse = iter(levels)
        for i, s in enumerate(starts.tolist()):
            head = (d, *prefixes[i].tolist())
            if route[i]:
                yield head, s, next(sparse)
                continue
            dep = deps[1][deps[0][i] : deps[0][i + 1]]
            for b in range(s, hi, block):
                e = min(b + block, hi)
                wts = weights[i] + n - kern.rank(kern.element_rows(b, e, basis[i]))
                wts[dep[(dep >= b) & (dep < e)] - b] = -1
                yield head, b, wts


# --- sampled sweep ---


class SampledSweep(_Sweep):
    """Units are sample indices; sample i is `sample_subspace(..., seed, i)`,
    a pure function of (seed, i), so chunks can run in any order and
    resumes are exact.

    The batched kernels draw samples SAMPLE_BLOCK at a time from the
    counter stream of `linalg.sample_values` and never canonicalise: they
    rank the rows reduced mod U for the weights, which do not depend on the
    basis of H.  Since rank mod U <= rank <= d n, only a rejected sample or
    one short of d n mod U has its unreduced rows ranked; those that fall
    short there are redrawn one at a time and ranked mod U again.
    """

    def subspace(self, key) -> SubspaceQn | None:
        i = self._index(key)
        return None if i is None else sample_subspace(self.tower, self.k, self.dim, self.seed, i)

    def _subspaces(self, lo, hi):
        """The same samples as `subspace`, drawn SAMPLE_BLOCK at a time like
        the batched `_weights`."""
        t, k, d = self.tower, self.k, self.dim
        draws = (
            sample_subspaces(t, k, d, self.seed, b, min(b + SAMPLE_BLOCK, hi)) for b in range(lo, hi, SAMPLE_BLOCK)
        )
        return zip(self._keys(lo, hi), chain.from_iterable(draws))

    def _weights(self, lo, hi):
        t, k, d = self.tower, self.k, self.dim
        R = d * self.n
        for blo in range(lo, hi, SAMPLE_BLOCK):
            vals, accepted = sample_values(t.order, k, d, self.seed, blo, min(blo + SAMPLE_BLOCK, hi), 0)
            ranks = self.ranks(vals, reduced=True)
            # rank mod U <= rank <= R, so only a rank mod U below R can hide
            # a rank-deficient matrix
            check = np.flatnonzero(~accepted | (ranks < R))
            redo = check[~accepted[check] | (self.ranks(vals[check], reduced=False) < R)]
            for j in redo.tolist():
                vals[j] = _redraw(t, k, d, self.seed, blo + j, 1).basis
            ranks[redo] = self.ranks(vals[redo], reduced=True)
            yield (), blo, R - ranks


# --- plans ---


class Plan(NamedTuple):
    """A question's sweep as `plan` sizes it, with no sweep object built."""

    mode: str
    dim: int
    bound: int | None
    defect: object  # the question's second way to fail, a function of the system, or None
    budget: int | None
    seed: int | None  # the seed a sampled run draws from and records; None in other modes
    known: SweepOutcome | None  # the outcome known without a sweep
    total: int  # units of the whole sweep
    chunk: int  # units per chunk
    units: int  # units a run checks unless a violation (or a witness-span budget) stops it
    subspaces: int  # subspaces those units weigh, at most in witness-span mode
    refusal: str | None  # why the sweep may not start, or None

    @property
    def complete(self) -> bool:
        """Whether the outcome is known, or a run of an exhaustive sweep that
        no violation stops checks every unit."""
        return self.known is not None or (self.mode == "exhaustive" and self.units == self.total)


def plan(system: QSystem, dim: int, bound: int | None, mode: str, budget: int | None = None,
         seed: int | None = None, chunk_size: int | None = None, defect=None) -> Plan:
    """The one check and sizing of a question, does some dim-dimensional
    subspace meet U in more than `bound` (None asks for the largest weight),
    from closed forms alone.  It refuses a dim outside 0..k, a bound unless
    0 < dim < k and bound >= dim (evasiveness asks r >= h), an unknown mode,
    sampled mode without a budget, and a chunk size or budget below 1 (the
    empty sweep would read as a proof).  The zero space weighs 0 without a
    sweep, and a bound r >= t holds without one, since no subspace meets U
    in more than t = dim U (Randrianarisoa, DCC 2020); h-scatteredness,
    whose span `defect` is a second way to fail, sweeps whatever its bound.
    A budget lets a sweep check units up to a chunk boundary.  `refusal` is
    an exhaustive sweep past EXHAUSTIVE_CAP without a budget, a witness-span
    table past SPAN_TABLE_CAP, or samples over a field past 2^63 elements."""
    Q, q, k, t = system.tower.order, system.tower.q, system.ambient, system.t
    if not 0 <= dim <= k:
        raise ValueError(f"need 0 <= dim <= {k}, got {dim}")
    if bound is not None and not (0 < dim < k and bound >= dim):
        raise ValueError(f"need 0 < dim < {k} and bound >= dim, got dim {dim} and bound {bound}")
    if mode not in DEFAULT_CHUNKS:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and budget is None:
        raise ValueError("sampled mode requires a budget")
    for name, value in (("chunk size", chunk_size), ("budget", budget)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    seed = (0 if seed is None else seed) if mode == "sampled" else None
    known = None
    if dim == 0:
        known = SweepOutcome(1, None, {"weight": 0, "key": [0]}, True)
    elif bound is not None and bound >= t and defect is None:
        known = SweepOutcome(0, None, None, True)
    if known is not None:
        total = known.checked
    elif mode == "exhaustive":
        total = gaussian_binomial(k, dim, Q)
    elif mode == "witness_span":
        total = dim * ((q**t - 1) // (q - 1))
    else:
        total = budget
    chunk = chunk_size or min(DEFAULT_CHUNKS[mode], max(total, 1))
    # a witness-span budget counts subspaces, not units
    units = total if budget is None or mode == "witness_span" else min(total, -(-budget // chunk) * chunk)
    subspaces = units
    if mode == "witness_span" and known is None:
        # at most the d-tuples of a first index i in [q^e, 2q^e) and d - 1
        # later ones: the sum over i of C(q^t - 1 - i, d - 1)
        subspaces = sum(comb(q**t - q**e, d) - comb(q**t - 2 * q**e, d) for d in range(1, dim + 1) for e in range(t))
    refusal = None
    if mode == "exhaustive" and budget is None and total > EXHAUSTIVE_CAP:
        refusal = (f"an exhaustive sweep of all {total} {dim}-dimensional subspaces of F_{Q}^{k} exceeds "
                   f"the cap of {EXHAUSTIVE_CAP}; give a budget (--budget) or use sampled mode")
    elif known is None and mode == "witness_span" and q**t > SPAN_TABLE_CAP:
        refusal = f"witness-span sweep over {q**t} subspace elements exceeds the cap; use sampled mode"
    elif known is None and mode == "sampled" and Q > 1 << 63:
        # samples are int64 residues of 64-bit words
        refusal = f"sampled mode needs a field of at most 2^63 elements, not {Q}"
    return Plan(mode, dim, bound, defect, budget, seed, known, total, chunk, units, subspaces, refusal)


def rederive(system: QSystem, p: Plan, units: int) -> SweepOutcome:
    """Units [0, units) of plan `p`'s sweep run in process on the scalar
    oracle, or the outcome `p` knows without a sweep: recheck's re-sweeps."""
    if p.known is not None:
        return p.known
    sweep = _build_sweep(system, p)[0]
    r = _scan(sweep, sweep._oracle(0, units), 0, units)
    return SweepOutcome(r.checked, r.viol, r.best, r.viol is not None or units >= p.total)


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


def _build_witness(system: QSystem, sweep, key) -> Witness:
    """The unit `key` names, its weight by the oracle and its meet with U."""
    tower = system.tower
    U = system.subspace
    H = sweep.subspace(key)
    inter = intersection_rows(tower, U.width, U.fq_rows, subspace_fq_rows(tower, H))
    vectors = [unexpand_row(tower, r, system.ambient) for r in inter]
    return Witness(H, subspace_weight(U, H), vectors, list(key))


def _build_sweep(system: QSystem, p: Plan):
    """The sweep object of plan `p`, and the descriptor that names it in
    checkpoint headers; ValueError when `p` refuses the sweep.  One constant
    entry of the descriptor keeps the hashes of earlier checkpoints."""
    if p.refusal is not None:
        raise ValueError(p.refusal)
    desc = {
        "field": system.tower.descriptor(),
        "system": system_to_desc(system),
        "engine": "auto",
        "bound": p.bound,
    }
    if p.mode == "exhaustive":
        desc.update(kind="exhaustive", dim=p.dim)
        return ExhaustiveSweep(system, p), desc
    if p.mode == "witness_span":
        desc.update(kind="span", dmax=p.dim)
        return SpanSweep(system, p), desc
    desc.update(kind="sampled", dim=p.dim, seed=p.seed, budget=p.budget, stream=SAMPLE_STREAM)
    return SampledSweep(system, p), desc


def _verdict(system: QSystem, p: Plan, sweep, outcome: SweepOutcome) -> Verdict:
    """The one status rule, from plan `p` and its outcome (sweep None when
    `p` knows it): the unit of `outcome.viol` is the witness, else the
    plan's `defect(system)` is the violation; a sampled sweep or an
    unfinished one is inconclusive, and anything else holds."""
    witness = None if outcome.viol is None else _build_witness(system, sweep, outcome.viol["key"])
    # a weight witness is the violation reported, so the defect is read only without one
    defect = p.defect(system) if p.defect is not None and witness is None else None
    if witness is not None or defect is not None:
        status = "violated"
    elif (sweep is not None and p.mode == "sampled") or not outcome.completed:
        status = "inconclusive"
    else:
        status = "holds"
    backend = None if sweep is None else sweep.backend
    return Verdict(status, p.mode, p.bound, p.dim, outcome.checked, witness, p.seed, defect, backend)


def _answer(system: QSystem, p: Plan, workers: int, checkpoint: str | None) -> tuple[Verdict, dict | None]:
    """The one path from the `Plan` of a question to its verdict and first
    maximum.  It checks the worker count, runs the plan's sweep unless the
    plan knows the outcome without one, and applies `_verdict`."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    sweep, outcome = None, p.known
    if outcome is None:
        sweep, desc = _build_sweep(system, p)
        sweep.kernel  # its tables are built here, once, and not in each pool worker
        outcome = run_sweep(sweep, desc, p.chunk, workers=workers, checkpoint=checkpoint,
                            budget_units=p.budget if p.mode != "sampled" else None)
    verdict = _verdict(system, p, sweep, outcome)
    if verdict.witness is not None and verdict.witness.weight != outcome.viol["weight"]:
        raise AssertionError("witness does not re-verify")
    return verdict, outcome.best


def span_defect(system: QSystem) -> dict | None:
    """Why a system that fails to span the ambient space is not
    h-scattered, or None when it spans."""
    if system.spans_ambient:
        return None
    return {
        "reason": "does not span the ambient space over the extension field",
        "span_dim": matrix_rank(system.tower, system.subspace.canonical_generators, system.ambient),
    }


def verify_h_scattered(system: QSystem, h: int, mode: str = "witness_span", budget: int | None = None,
                       seed: int | None = None, workers: int = 1, checkpoint: str | None = None,
                       chunk_size: int | None = None) -> Verdict:
    """Decide whether the system is h-scattered.

    holds: every dim-h extension subspace meets U in F_q-dimension <= h and
    U spans the ambient space.  A subspace that fails to span cannot be
    h-scattered; the sweep still runs so the verdict carries a concrete
    weight witness whenever one exists.
    """
    return _answer(system, plan(system, h, h, mode, budget, seed, chunk_size, span_defect), workers, checkpoint)[0]


def verify_evasive(system: QSystem, hdim: int, r: int, mode: str = "witness_span", budget: int | None = None,
                   seed: int | None = None, workers: int = 1, checkpoint: str | None = None,
                   chunk_size: int | None = None) -> Verdict:
    """Decide whether the system is (hdim, r)-evasive.

    holds: every hdim-dimensional extension subspace meets U in F_q-dimension
    at most r.  No spanning requirement.  When r >= t (`plan`) it holds
    with no sweep.
    """
    return _answer(system, plan(system, hdim, r, mode, budget, seed, chunk_size), workers, checkpoint)[0]


def max_weight_search(system: QSystem, dim: int, mode: str = "exhaustive", budget: int | None = None,
                      seed: int | None = None, workers: int = 1, checkpoint: str | None = None,
                      chunk_size: int | None = None):
    """Max of wt_U(H) over dim-dimensional subspaces H.

    Returns (max_weight, key, checked, exact).  Exhaustive sweeps are exact;
    sampled sweeps only bound the maximum from below.  The zero space is
    the one subspace of dimension 0, and weighs 0 with no sweep.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"max-weight search supports exhaustive or sampled mode, not {mode!r}")
    verdict, best = _answer(system, plan(system, dim, None, mode, budget, seed, chunk_size), workers, checkpoint)
    return best["weight"], best["key"], verdict.checked, verdict.holds
