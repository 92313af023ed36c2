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
expansion rows of value matrices, raw or reduced mod U, or the rows of MU
for annihilators M, and rank a batch; for spans of elements of U they put
the rows in echelon form, which reads their weights, and read kernels of
maps linear in the index digits of U's elements.  An exhaustive
sweep ranks one of two shapes of rows, whichever its kernel's `cost` of a
matrix rates lower, value rows on a tie: the d n value rows of H reduced
mod U, of k n - t entries, or the (k - d) n rows of MU, of t entries, for
the annihilator M of H (wt_U(H) = t - rank(MU)).
Witness-span levels take their weights from those kernels: one map per
F_q^*-class of a scalar lambda, eliminated once per sweep, not one rank per
element.  Every class kernel holds the skipped units, the u_j inside P's
extension span, so a kernel of no larger dimension than wt(P) is that span
and is not listed.  A level weighs each of its spans [P, u_j] as it weighs
its prefix P instead only when the kernels it would list add up to more
elements than it has units, as on the d = 1 level of a U that holds an
extension line.  A level read from its kernels is sparse: every unit
weighs wt(P) + 1 but the few in some kernel and the skipped ones, so a run
of such levels travels as one `Levels`, which lists only those and each
level's first plain unit; d = 1 is one level per process.  A sweep picks
its backend once (`weight_backend`), which `run_units` runs:

* "gf2" - `_GF2Rows`, packed uint64 words and `bitkernel.batch_rank`,
  when q = 2 and the expanded width k*n is at most 64 bits;
* "gf3" - `_GF3Rows`, pairs of uint64 bit planes and
  `bitkernel.gf3_rank`, when q = 3 and k*n is at most 64 trits;
* "fp" - `_FpRows`, uint8 row arrays and `bitkernel.fp_rank`, for any
  other prime q < 256 (p >= 5, and q = 2 or 3 with k*n > 64);
* "scalar" - no kernel: the oracle, one weight per unit key, for q = p^s
  with s > 1 and for p > 255; `rederive` runs it on any sweep.

Rows are linear over F_p in the base-p digits of the entries, so every
kernel reads them from tables with one entry per digit or digit group,
never one per field element: `_row_table` builds the F_p table of each
kind of row, which "fp" uses as it is, "gf2" packs a row to a word and
"gf3" to a word pair.  "gf3" keeps fp's row order and echelon convention,
so its echelon rows, kernel tags and weights are fp's.

`_scan` alone applies the rules, in one fold over the listed units of
`Levels` and of dense blocks, whose every unit is listed: weight -1 marks a
skipped unit that is not counted, the first maximum is the chunk's best,
and the first weight above the bound ends the chunk once the scalar oracle
reproduces it on `subspace(key)`.

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
from functools import cached_property, lru_cache
from math import comb
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from . import bitkernel
from .field import FieldTower
from .linalg import (
    FqSubspace,
    SubspaceQn,
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
RESIDUE_TABLE_CAP = 1 << 28  # max bytes of a witness-span sweep's class residue table
EXHAUSTIVE_CAP = 10**9    # max subspaces of an exhaustive sweep without a budget
SAMPLE_BLOCK = 2048       # samples per draw in sampled sweeps
GF2_BLOCK = 1 << 16       # matrices per batch of the GF(2) kernel
GF3_BLOCK = 1 << 13       # words of rows per batch of the GF(3) kernel
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
    acc = make_rows(sub.tower)
    return sub.tower.n * H.dim - sum(map(acc.add, map(sub.reduce_row, subspace_fq_rows(sub.tower, H))))


# --- the one scan ---


class Levels(NamedTuple):
    """A batch of levels in unit order, as `SpanSweep._levels` yields it:
    level i holds sizes[i] units keyed [*heads[i], starts[i] + position].
    The listed units (level, pos, wts), sorted by level and position, are
    every unit that does not weigh bases[i] (-1 for a skipped unit) and
    each level's first plain unit, the first position not among those.  So
    every unlisted unit is counted and weighs what a listed unit before it
    weighs."""

    heads: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    bases: np.ndarray
    level: np.ndarray
    pos: np.ndarray
    wts: np.ndarray


def _listed(heads, starts, sizes, bases, level, pos, wts) -> Levels:
    """The Levels of a batch whose units of another weight than their
    level's base are (level, pos, wts), sorted by level and position: those
    and each level's first plain unit, listed by one stable sort of packed
    (level, position, weight + 1) keys.  Weights are at most dim U <= 20
    under SPAN_TABLE_CAP, so weight + 1 fits in 6 bits."""
    span = int(sizes.max()) + 1
    # distinct sorted positions from 0 meet their rank up to the first gap
    first = np.searchsorted(level, np.arange(len(sizes)))
    plain = np.bincount(level[pos == np.arange(len(pos)) - first[level]], minlength=len(sizes))
    free = np.flatnonzero(plain < sizes)
    packed = np.concatenate([(level * span + pos) * 64 + wts + 1, (free * span + plain[free]) * 64 + bases[free] + 1])
    packed = np.sort(packed, kind="stable")
    return Levels(heads, starts, sizes, bases, packed // 64 // span, packed // 64 % span, packed % 64 - 1)


def _scan(sweep, blocks, lo: int, hi: int) -> ChunkResult:
    """Fold a weight stream of the sweep's units [lo, hi) into a chunk result.

    `blocks` yields `Levels` and dense blocks (head, start, wts) in unit
    order.  A dense block is one level whose every unit is listed at its
    own position: wts[i] weighs the unit keyed [*head, start + i].  So one
    fold over the listed weights gives the chunk's answers, -1 marking a
    skipped unit that is not counted: the first listed maximum is the best,
    and the first listed weight above the bound ends the chunk once the
    scalar oracle reproduces it.
    """
    bound = sweep.bound
    checked = 0
    best = None
    for block in blocks:
        if isinstance(block, Levels):
            heads, starts, sizes, _, level, pos, wts = block
        else:
            # no position arrays, and ndarray methods: the scalar oracle
            # sends one weight per block, where call overhead is the cost
            (head, start, wts), level = block, None
            wts = np.asarray(wts, dtype=np.int64)
        if not len(wts):
            continue
        m = int(wts.argmax())
        viol = bound is not None and wts.item(m) > bound
        if viol:
            wts = wts[: int((wts > bound).argmax()) + 1]
            m = len(wts) - 1
        if level is None:
            key, units = [*head, start + m], len(wts)
        else:
            i, p = level.item(m), pos.item(m)
            key = [*heads[i].tolist(), starts.item(i) + p]
            units = int(sizes[:i].sum()) + p + 1 if viol else int(sizes.sum())
        # every skipped unit is listed
        if wts.item(wts.argmin()) < 0:
            units -= int(np.count_nonzero(wts < 0))
        checked += units
        weight = wts.item(m)
        top = {"key": key, "weight": weight}
        if weight >= 0:
            best = _merge_best(best, top)
        if viol:
            if subspace_weight(sweep.U, sweep.subspace(key)) != weight:
                raise AssertionError(f"batch/scalar weight mismatch at unit key {key}")
            return ChunkResult(lo, hi, checked, top, best)
    return ChunkResult(lo, hi, checked, None, best)


def weight_backend(tower: FieldTower, k: int, dim: int) -> str:
    """The backend a sweep of dim-dimensional subspaces of F_{q^n}^k runs:
    "gf2", "gf3", "fp" or "scalar" (see the module docstring), from the
    field and the width alone."""
    if dim < 1 or tower.s > 1 or tower.p > 255:
        return "scalar"
    if tower.q in (2, 3) and k * tower.n <= bitkernel.MAX_WIDTH:
        return f"gf{tower.q}"
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


def _row_table(tower: FieldTower, U: FqSubspace, k: int, kind: str) -> np.ndarray:
    """The uint8 F_p table of one kind of row, shape (digits, n, width):
    the base-p digits of a vector (of k values, or the index digits of an
    element of U) times it, mod p, are its n rows, row l from entry [:, l].

    * "raw": entry [c * n + j, l] is the expansion of b_l * z^j at
      coordinate c; "reduced": that row mod U without U's pivot columns;
    * "generators": entry [e, l] is the row of b_l * g_e, its reduced
      entries and then those at U's pivots (mixed coordinates);
    * "annihilator": entry [c * n + j, l, e] is coordinate l of z^j * g_e[c].

    U's canonical generators g_e, the rows of its expansion RREF, have the
    identity at U's pivots: x mod U = x - sum_e x[pivot e] g_e, with no
    elimination.  Rows are bytes (p < 256), joined into one read-only array:
    numpy's reading of nested lists or long lists of ints, like numpy calls
    a process makes nowhere else, raises a small process's peak memory."""
    n, p, t, pivots = tower.n, tower.p, U.dim, U.pivots
    expand = lru_cache(maxsize=None)(tower.expand_scalar)  # small fields repeat values
    if kind in ("raw", "reduced"):
        # b_l * z^j = z^(l + j): rows[c][m] is the row of z^m at coordinate c
        powers = [expand(tower.mul(p ** (m // 2), p ** (m - m // 2))) for m in range(2 * n - 1)]
        rows = [[bytes(c * n) + bytes(z) + bytes((k - 1 - c) * n) for z in powers] for c in range(k)]
    else:
        # prod[e][j][c] is z^j * g_e[c], and rows[e][l] the row of b_l * g_e
        prod = [[[expand(tower.mul(p**j, v)) for v in g] for j in range(n)] for g in U.canonical_generators]
        if kind == "annihilator":
            rows = [[bytes(z[j][c][l] for z in prod) for l in range(n)] for c in range(k) for j in range(n)]
        else:
            rows = [[b"".join(map(bytes, z[l])) for l in range(n)] for z in prod]
    if kind in ("reduced", "generators"):
        keep = sorted(set(range(k * n)) - set(pivots))
        outside = [[g[c] for c in keep] for g in (b"".join(map(bytes, map(expand, g))) for g in U.canonical_generators)]

        def reduce(x):
            out = [x[c] for c in keep]
            for a, g in zip([x[c] for c in pivots], outside):
                if a:
                    out = [o - a * y for o, y in zip(out, g)]
            return bytes([o % p for o in out])

        tags = pivots if kind == "generators" else []
        rows = [[reduce(x) + bytes([x[c] for c in tags]) for x in per] for per in rows]
    if kind in ("raw", "reduced"):
        rows = [[per[j + l] for l in range(n)] for per in rows for j in range(n)]
    width = {"reduced": k * n - t, "annihilator": t}.get(kind, k * n)
    return np.frombuffer(b"".join(row for per in rows for row in per), dtype=np.uint8).reshape(len(rows), n, width)


# --- the row kernel: three batched implementations of the same calls ---
#
#   value_rows(vals, reduced)    rows of a (B, d, k) block of value matrices
#   table_rows(vals, table)      the same through one table; through
#                                `annihilator`, the rows of M U for a (B, k - d,
#                                k) block of annihilators M
#   basis(prefixes)              for an (L, P) batch of prefixes: their rows
#                                [reduced mod U | index tag] in echelon form
#                                and tag indices (0 for none) whose digits
#                                span the j with u_j in the prefix's
#                                extension span; of F_q-independent rows,
#                                wt(P) tags are nonzero
#   _class_echelon               each class's map rows [lambda g_e mod U |
#                                tag e] in echelon form, once per sweep: the
#                                tags of its kernel, and its pivot rows as
#                                `_residue_tags` reads them, fp as they are,
#                                gf2 and gf3 as a residue table (`_reducer`,
#                                whose size `plan` bounds)
#   _residue_tags(basis, ...)    the tags of the prefix rows reduced by each
#                                class's pivots and eliminated: on gf2, one
#                                table lookup per byte of reduced part, on
#                                gf3 one per byte of each bit plane
#   kernels(basis)               for each prefix of that batch and each
#                                class, tag indices (0 for none) whose digits
#                                span the kernel of j -> lambda u_j mod U +
#                                prefix, read with the class's echelon
#   rank(rows)                   rank of each matrix of a batch, as int64
#   block(rows, width)           matrices of `rows` rows of `width` entries
#                                per batch
#   cost(rows, width)            the elimination cost of one such matrix
#
# Rows are the F_q-expansions of b_l * v over the F_q-basis b_l, for every
# vector v of a matrix; "reduced" rows are taken mod U and drop U's pivot
# columns, where they are zero, on every kernel.  The rows of an element
# u_j = sum_e j_e g_e of U are linear in its index digits j_e, so every
# kernel builds them from the generator rows alone.  Those are kept in mixed
# coordinates: the reduced row first, then the entries at U's pivot
# columns, which are the index digits of any element of U.  A change
# of coordinates keeps ranks, and an echelon form of [image | index tag]
# rows has the kernel of the map in the tags of its rows whose image is
# zero; `basis` and `_class_echelon` read kernels so, from
# `bitkernel.batch_rank`, `gf3_rank` or `fp_rank`.  {y : f(y) in <b>} for a
# class map f is ker f plus the tags of the prefix rows b reduced by f's
# pivots that are zero after elimination, as a residue in the image of f is
# zero.


class _Rows:
    """What the row kernels share: the sweep's field and U, the width w =
    k * n - dim U of reduced rows, and one table per row kind, built on
    first use by `_table` from `_row_table`."""

    def __init__(self, sweep):
        self.tower, self.n, self.k, self.p, self.U = sweep.tower, sweep.n, sweep.k, sweep.tower.p, sweep.U
        self.w = sweep.k * sweep.n - sweep.U.dim

    def _table(self, kind):
        return _row_table(self.tower, self.U, self.k, kind)

    @cached_property
    def raw(self):
        return self._table("raw")

    @cached_property
    def reduced(self):
        return self._table("reduced")

    @cached_property
    def annihilator(self):
        return self._table("annihilator")

    @cached_property
    def _generators(self):
        return self._table("generators")

    def value_rows(self, vals, reduced):
        return self.table_rows(vals, self.reduced if reduced else self.raw)

    @cached_property
    def lambdas(self) -> np.ndarray:
        """Coordinates on the F_q-basis of one lambda per F_q^*-class of
        the nonzero elements of a complement of F_q in the extension."""
        q, n = self.tower.q, self.n
        one = next(l for l, x in enumerate(self.tower.expand_scalar(1)) if x)
        c = _digit_array(np.arange(1, q ** (n - 1)), q, n - 1)
        c = c[c[np.arange(len(c)), (c != 0).argmax(axis=1)] == 1]
        return np.insert(c, one, 0, axis=1)

    @cached_property
    def _class_echelon(self):
        """Each class's echelon map rows: those of nonzero image in order
        (zero elsewhere) as `_reducer` reads them, and the tag indices of
        its kernel (0 elsewhere), less the columns that are zero in every
        class."""
        ech = self._class_maps()
        index = self._tag_index(ech)
        ech[index != 0] = 0
        return self._reducer(ech[:, (index == 0).any(axis=0)]), index[:, (index != 0).any(axis=0)]

    def _reducer(self, pivots):
        """What `_residue_tags` reads of each class's pivots: the rows as
        they are."""
        return pivots

    # bytes of one entry of `_reducer`'s residue table; fp builds none
    residue_entry = 0

    def kernels(self, basis):
        pivots, own = self._class_echelon
        tags = self._residue_tags(basis, pivots)
        return np.concatenate([tags, np.broadcast_to(own, (len(tags), *own.shape))], 2)


class _GF2Rows(_Rows):
    """GF(2) rows packed into uint64 words, for `bitkernel.batch_rank`: a
    batch is a list of R arrays of shape (B,), row r of matrix j at entry j
    of array r.

    A row of a `_row_table` is one word, entry e at bit e.  Rows are
    F_2-linear in the bits of the entries, so they are XORs of subset
    tables over digit groups of at most 8 bits: one per (coordinate, digit
    group) of value bits, and one per byte of an element index of U, of the
    generator rows.  For n <= 8 a value table has one entry per
    field element; past that no table does.  Generator rows keep their w
    reduced entries in the low bits, so an index tag fits above them.
    """

    def __init__(self, sweep):
        super().__init__(sweep)
        self.low = np.uint64((1 << self.w) - 1)

    def _table(self, kind):
        """The packed `_row_table` of a kind as subset-XOR tables: generator
        words over the bytes of an element index as (index bytes, n, 256),
        others as (k, digit groups, n, digit values).  Packed in Python:
        numpy's packing calls map more code than it takes."""
        table = super()._table(kind)
        digits, n, width = table.shape
        data, bits = table.tobytes(), [1 << e for e in range(width)]
        words = [sum(compress(bits, data[i * width : (i + 1) * width])) for i in range(digits * n)]
        words = np.array(words, dtype=np.uint64)
        if kind == "generators":
            return np.ascontiguousarray(bitkernel.subset_xor_table(words.reshape(digits, n).T, 8).transpose(1, 0, 2))
        deltas = words.reshape(self.k, n, n).swapaxes(1, 2)
        return np.ascontiguousarray(bitkernel.subset_xor_table(deltas, min(n, 8)).swapaxes(-3, -2))

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

    def _tag_index(self, rows):
        """The tag index of each row with a zero low part, 0 for others."""
        return np.where(rows & self.low == 0, rows >> np.uint64(self.w), np.uint64(0)).astype(np.int64)

    def basis(self, prefixes):
        # built as (P, n, L) words, so the rows batch_rank reads are contiguous
        rows = np.zeros((prefixes.shape[1], self.n, len(prefixes)), dtype=np.uint64)
        for g, tab in enumerate(self._generators):
            rows ^= np.take(tab, (prefixes.T >> 8 * g) & 255, axis=1).swapaxes(0, 1)
        rows = rows.reshape(-1, len(prefixes))
        bitkernel.batch_rank(list(rows))
        return rows.T, self._tag_index(rows.T)

    def _class_maps(self):
        """Row e of the map of lambda = sum_l c_l b_l: the image of g_e, and
        the tag of digit e above it, eliminated for every class at once."""
        e = np.arange(self.U.dim)
        gens = self._generators[e // 8, :, 1 << e % 8].T & self.low
        maps = np.bitwise_xor.reduce(np.where(self.lambdas[:, :, None] != 0, gens, 0), axis=1)
        maps |= np.uint64(1) << np.arange(self.w, self.w + self.U.dim, dtype=np.uint64)
        bitkernel.batch_rank(list(maps.T))
        return maps

    residue_entry = 8

    def _reducer(self, pivots):
        """Each class's residue map as (w/8 byte groups, 256, C) subset-XOR
        tables of words, built in that layout.  Reducing a reduced part by
        a class's pivots' lowest bits in order adds each pivot times one
        bit of the row, so it is F_2-linear, tags included: a row's residue
        is the XOR of the residues of its bits."""
        rows = np.repeat((np.uint64(1) << np.arange(self.w, dtype=np.uint64))[:, None], len(pivots), axis=1)
        for piv in pivots.T:
            hit = rows & (piv & self.low & (np.uint64(0) - piv))
            np.minimum(hit, np.uint64(1), out=hit)
            rows ^= hit * piv
        table = np.zeros((-(-self.w // 8), 256, len(pivots)), dtype=np.uint64)
        for b in range(8 * len(table)):
            # bits past w are tag bits, with a zero residue
            g, half = b // 8, 1 << b % 8
            np.bitwise_xor(table[g, :half], rows[b] if b < self.w else np.uint64(0), out=table[g, half : 2 * half])
        return table

    def _residue_tags(self, basis, table):
        """The (L, C, P) tag indices of the prefix rows' reduced parts, as
        (P, L, C) words, reduced through each class's residue table a byte
        at a time and then eliminated.  The table is zero past bit w, so
        the tags above it add nothing."""
        rows = np.zeros((basis.shape[1], len(basis), table.shape[-1]), dtype=np.uint64)
        for g, tab in enumerate(table):
            rows ^= np.take(tab, (basis.T >> 8 * g) & 255, axis=0)
        bitkernel.batch_rank([r.ravel() for r in rows])
        return self._tag_index(rows).transpose(1, 2, 0)

    def rank(self, rows):
        return bitkernel.batch_rank(rows)

    def block(self, rows, width):
        """GF2_BLOCK, whatever the shape: a packed row is one word."""
        return GF2_BLOCK

    @staticmethod
    def cost(rows, width):
        """Word operations of an elimination: a row is one word."""
        return rows * rows


def _trit_groups(m: int) -> tuple[int, int]:
    """The groups of at most 5 trits that m digits split into evenly: their
    count and size."""
    groups = -(-m // 5)
    return groups, -(-m // max(groups, 1))


class _GF3Rows(_Rows):
    """GF(3) rows as pairs of uint64 bit planes, for `bitkernel.gf3_rank`:
    a batch is a (2, R, B) array, plane c of row r of matrix j at [c, r, j].

    A row of a `_row_table` is one word pair, entry e at bit e.  Rows are
    F_3-linear in the base-3 digits of the entries, so they are sums of
    tables over groups of at most 5 digits (`bitkernel.gf3_table`): one
    per (coordinate, digit group) of values, and one per digit group of an
    element index of U, of the generator rows.  A batch lists its rows in
    `_FpRows`' order, and `gf3_rank` keeps `fp_rank`'s echelon convention,
    so echelon rows and tag indices equal fp's.  Generator rows keep their
    w reduced entries in the low bits, so an index tag fits above them.
    Rows leave the kernel (`_class_maps`) and enter `_tag_index` with their
    planes on the last axis.
    """

    residue_entry = 16

    def __init__(self, sweep):
        super().__init__(sweep)
        self.low = np.uint64((1 << self.w) - 1)

    def _table(self, kind):
        """The packed `_row_table` of a kind as digit-group tables, entry
        last: generator word pairs as (index digit groups, 2, n, 3^b),
        others as (k, digit groups, 2, n, 3^b)."""
        table = super()._table(kind)
        digits, n, width = table.shape
        shifts = np.arange(width, dtype=np.uint64)
        words = np.stack([((table == c) << shifts).sum(axis=-1, dtype=np.uint64) for c in (1, 2)])
        if kind == "generators":
            return self._grouped(words)
        # the digits of every coordinate at once: (2, digits j, k, rows l)
        grouped = self._grouped(words.reshape(2, self.k, n, n).swapaxes(1, 2))
        return np.ascontiguousarray(np.moveaxis(grouped, 2, 0))

    @staticmethod
    def _grouped(deltas):
        """The (groups, 2, ..., 3^b) tables of the (2, m, ...) rows of m
        digits, over `_trit_groups(m)`, every group built at once."""
        (_, m, *rest), (groups, b) = deltas.shape, _trit_groups(deltas.shape[1])
        padded = np.zeros((2, groups * b, *rest), dtype=np.uint64)
        padded[:, :m] = deltas
        out = np.empty((groups, 2, *rest, 3**b), dtype=np.uint64)
        digits = padded.reshape(2, groups, b, *rest).swapaxes(1, 2)
        bitkernel.gf3_table(digits, 3, out=np.moveaxis(out, (1, -1), (0, 1)))
        return out

    @staticmethod
    def _sum(tabs, values):
        """The sum over digit groups g of tabs[g] at digit group g of each
        value, as (2, ..., *values.shape)."""
        size = tabs.shape[-1]
        rows = None
        for g, tab in enumerate(tabs):
            part = np.take(tab, (values // size**g % size).astype(np.intp, copy=False), axis=-1)
            rows = part if rows is None else bitkernel.gf3_add(rows, part)
        return rows

    def table_rows(self, vals, tabs):
        """The rows of a (B, d, k) block of values through one table: n
        rows per vector."""
        idx = vals.transpose(2, 1, 0)  # (k, d, B); a view, never written
        rows = self._sum(tabs[0], idx[0])
        for c in range(1, self.k):
            rows = bitkernel.gf3_add(rows, self._sum(tabs[c], idx[c]))
        return rows.reshape(2, -1, len(vals))

    @cached_property
    def _tag_powers(self):
        """Byte tables of index tags: entry [g, byte] sums 3^(8 g + e) over
        the set bits e of the byte, for tag digits below dim U."""
        t = self.U.dim
        powers = np.array([3**e if e < t else 0 for e in range(8 * -(-t // 8))], dtype=np.int64).reshape(-1, 8)
        return powers @ ((np.arange(256)[:, None] >> np.arange(8)) & 1).T

    def _tag_index(self, rows):
        """The tag index of each row with a zero low part, 0 for others, of
        rows with their planes on the last axis."""
        index = np.zeros(rows.shape[:-1], dtype=np.int64)
        for g, tab in enumerate(self._tag_powers):
            for c in range(2):
                index += (c + 1) * tab[(rows[..., c] >> np.uint64(self.w + 8 * g)) & np.uint64(255)]
        return np.where((rows[..., 0] | rows[..., 1]) & self.low, 0, index)

    def basis(self, prefixes):
        # the rows of each prefix vector in turn, as fp lists them
        rows = self._sum(self._generators, prefixes.T).swapaxes(1, 2)
        rows = rows.reshape(2, -1, len(prefixes))
        bitkernel.gf3_rank(rows)
        return rows, self._tag_index(rows.T)

    def _class_maps(self):
        """Row e of the map of lambda = sum_l c_l b_l: the image of g_e, and
        the tag of digit e above it, eliminated for every class at once."""
        t = self.U.dim
        e, b = np.arange(t), _trit_groups(t)[1]
        gens = (self._generators[e // b, :, :, 3 ** (e % b)] & self.low).transpose(1, 0, 2)  # (2, t, n)
        maps = np.zeros((2, t, len(self.lambdas)), dtype=np.uint64)
        for l, c in enumerate(self.lambdas.T):
            term = gens[:, :, l, None]
            maps = bitkernel.gf3_add(maps, np.where(c == 1, term, np.where(c == 2, term[::-1], np.uint64(0))))
        maps[0] |= (np.uint64(1) << np.arange(self.w, self.w + t, dtype=np.uint64))[:, None]
        bitkernel.gf3_rank(maps)
        return maps.T

    def _reducer(self, pivots):
        """Each class's residue map as (w/8 byte groups, 2, 256, C) tables
        of subset sums of word pairs, built in that layout.  Reducing a
        reduced part by a class's pivots in order is F_3-linear, tags
        included, so a row's residue is the residue of its plane-0 bits
        less that of its plane-1 bits."""
        C, groups = len(pivots), -(-self.w // 8)
        rows = np.zeros((2, groups * 8, C), dtype=np.uint64)
        rows[0, : self.w] = (np.uint64(1) << np.arange(self.w, dtype=np.uint64))[:, None]
        for piv in pivots.transpose(1, 2, 0):
            bitkernel.gf3_clear(rows, piv)
        table = np.empty((groups, 2, 256, C), dtype=np.uint64)
        bitkernel.gf3_table(rows.reshape(2, groups, 8, C).swapaxes(1, 2), 2, out=table.transpose(1, 2, 0, 3))
        return table

    def _residue_tags(self, basis, table):
        """The (L, C, P) tag indices of the prefix rows' reduced parts, as
        (2, P, L, C) word pairs, reduced through each class's residue table
        a byte of each plane at a time and then eliminated.  The table is
        zero past bit w, so the tags above it add nothing."""
        (_, P, L), C = basis.shape, table.shape[-1]
        rows = np.zeros((2, P, L, C), dtype=np.uint64)
        for g, tab in enumerate(table):
            for c, plane in enumerate(basis):
                part = np.take(tab, (plane >> np.uint64(8 * g)) & np.uint64(255), axis=1)
                rows = bitkernel.gf3_add(rows, part[::-1] if c else part)
        bitkernel.gf3_rank(rows.reshape(2, P, L * C))
        return self._tag_index(np.moveaxis(rows, 0, -1)).transpose(1, 2, 0)

    def rank(self, rows):
        return bitkernel.gf3_rank(rows)

    def block(self, rows, width):
        """As many matrices as fill GF3_BLOCK words, and at least one: a
        packed row is one word pair, whatever its width."""
        return max(1, GF3_BLOCK // (2 * rows))

    @staticmethod
    def cost(rows, width):
        """Word-pair operations of an elimination: a row is one word pair."""
        return rows * rows


class _FpRows(_Rows):
    """F_p rows as uint8 arrays, for `bitkernel.fp_rank`: a batch is one
    array of shape (B, R, W).

    Rows are F_p-linear in the base-p digits of the entries, so a batch's
    rows are its digits times a table, a `_row_table` as it is.  No table
    has an entry per field element.
    """

    def _rows(self, digits, table):
        """Digits of shape (B, d, D) times a (D, r, w) table, mod p, as a
        (B, d * r, w) batch."""
        size, r, w = table.shape
        rows = bitkernel.fp_dot(digits, table.reshape(size, r * w), self.p)
        return rows.reshape(len(digits), digits.shape[1] * r, w)

    def table_rows(self, vals, table):
        """The rows of a (B, d, k) block of values through one table: n
        rows per vector."""
        digits = _digit_array(vals, self.p, self.n)
        return self._rows(digits.reshape(*vals.shape[:2], -1), table)

    def _tag_index(self, rows):
        """The tag index of each row with a zero low part, 0 for others."""
        flat = rows.reshape(-1, rows.shape[-1])  # 2-D: an N-D matmul maps more numpy code
        index = flat[:, self.w :] @ self.p ** np.arange(self.U.dim, dtype=np.int64)
        return np.where(flat[:, : self.w].any(axis=-1), 0, index).reshape(rows.shape[:-1])

    def basis(self, prefixes):
        digits = _digit_array(prefixes, self.p, self.U.dim)
        rows = self._rows(digits, self._generators)
        bitkernel.fp_rank(rows, self.p)
        return rows, self._tag_index(rows)

    def _class_maps(self):
        """Row e of the map of lambda = sum_l c_l b_l: the image of g_e, and
        the tag of digit e after it, eliminated for every class at once."""
        image, dim = self._rows(self.lambdas[:, None], self._generators[..., : self.w].transpose(1, 0, 2)), self.U.dim
        rows = np.concatenate([image, np.broadcast_to(np.eye(dim, dtype=np.uint8), (len(image), dim, dim))], axis=2)
        bitkernel.fp_rank(rows, self.p)
        return rows

    def _residue_tags(self, basis, pivots):
        """The (L, C, P) tag indices of the prefix rows' reduced parts, by
        one `fp_rank` of each class's pivots, an echelon form already,
        stacked above them."""
        (L, P, _), (C, r, W) = basis.shape, pivots.shape
        rows = np.zeros((L, C, r + P, W), dtype=np.uint8)
        rows[:, :, :r] = pivots
        rows[:, :, r:, : self.w] = basis[:, None, :, : self.w]
        bitkernel.fp_rank(rows.reshape(L * C, r + P, W), self.p)
        return self._tag_index(rows[:, :, r:])

    def rank(self, rows):
        return bitkernel.fp_rank(rows, self.p)

    def block(self, rows, width):
        """As many matrices as fill FP_BLOCK bytes, and at least one."""
        return max(1, FP_BLOCK // max(1, rows * width))

    @staticmethod
    def cost(rows, width):
        """Entry operations of an elimination."""
        return rows * rows * width


_KERNELS = {"gf2": _GF2Rows, "gf3": _GF3Rows, "fp": _FpRows}


class _Sweep:
    """What every sweep shares, built from the system and the `Plan` of its
    question alone: the plan's `dim`, `bound`, `seed` and `total` units, and
    the backend `weight_backend` picks, whose row `kernel` is built on first
    use.  A subclass lists the keys of its counted units in unit order
    (`_keys`), maps a key to its subspace, or to None when it names no unit
    (`subspace`), and weighs units on the kernel in batches (`_weights`)."""

    shape = "value"  # the rows an exhaustive sweep ranks: "value" or "annihilator"
    # the kernel tables every run of the sweep reads; a sampled sweep reads
    # the raw table too, for samples short mod U, and builds it on first use
    reads = ("reduced",)

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
        """The row kernel of the backend with the tables the sweep `reads`
        built, or None on the scalar backend; a run on the scalar oracle
        never builds them."""
        if self.backend not in _KERNELS:
            return None
        kern = _KERNELS[self.backend](self)
        for table in self.reads:
            getattr(kern, table)
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
            self.shape, self.reads = "annihilator", ("annihilator",)
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
            ones, one, table, base = list(pivots), 1, kern.reduced, self.dim * self.n
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

    reads = ("_generators", "_class_echelon")

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
            if d > 1:
                yield from self._tuples(d, [i for a, b in runs for i in range(a, b)])
                continue
            prepared, lv = self._first_level
            for a, b in runs:
                if lv is None:
                    yield from self._levels(1, [()], a, b, prepared)
                else:
                    # a run of first indices is a dense slice of the d = 1 level
                    i, j = np.searchsorted(lv.pos, [a - 1, b - 1]).tolist()
                    wts = np.full(b - a, lv.bases.item(0), dtype=np.int64)
                    wts[lv.pos[i:j] + 1 - a] = lv.wts[i:j]
                    yield (1,), a, wts

    # batched tuple walk: one level of weights per (d-1)-prefix
    #
    # With V = U + <P> over the extension, the span of a prefix P and u_j
    # has weight wt(P) + e_j, where e_j = dim_Fq {lambda : lambda u_j in V}.
    # That space holds F_q, so e_j - 1 is the dimension of its meet with a
    # complement of F_q: q^(e_j - 1) = 1 + (q - 1) * c_j, where c_j counts
    # the F_q^*-classes of lambda in the complement whose kernel K_lambda =
    # {j : lambda u_j in V} holds j.  Each K_lambda is the kernel of a map
    # linear in the index digits of j, so a level costs a reduction of its
    # prefix rows against each class's pivots, eliminated once per sweep,
    # and a pass over the elements of the kernels it lists.
    # The u_j inside <P> are the kernel of j -> u_j mod <P>, which has
    # q^wt(P) elements.  Each K_lambda holds them, as lambda <P> = <P>, so a
    # K_lambda of dimension wt(P) is that span: it holds no unit outside the
    # skipped ones, changes no count and is not listed.  Most are such a
    # span: all are on a level whose units weigh at most wt(P) + 1.  Where
    # the kernels a level would list add up to more elements than it has
    # units, as when U holds an extension line, `basis` weighs the span of
    # every unit instead; `_prepare` picks each level's route.
    # Eliminations run for a batch of levels at once, and so does the
    # sorting of kernel elements into each level's exceptions.  At d = 2 a
    # batch of prefixes is a slice of the first indices.

    def _kernel_route(self, size, units):
        """The rule between the routes: list kernels of `size` elements in
        all rather than rank `units` units."""
        return size <= units

    @cached_property
    def _extension(self) -> np.ndarray:
        """e_j by the count c_j of classes whose kernel holds j."""
        q, n = self.tower.q, self.n
        table = np.full(len(self.kernel.lambdas) + 1, -1, dtype=np.int64)
        table[[(q**e - 1) // (q - 1) for e in range(n)]] = np.arange(1, n + 1)
        return table

    def _spans(self, index):
        """Elements of the F_q-span of the index digits of the nonzero tag
        indices of each row of `index`, grouped by row: (bounds, elements),
        the elements of row i at bounds[i]:bounds[i + 1]."""
        q, dim = self.tower.q, self.U.dim
        kappa, tags = (index != 0).sum(axis=1), index[index != 0]
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

        def walk(prefix, lasts):
            """The (d-1)-prefixes that extend `prefix` by one of `lasts`, in
            walk order, as arrays: at d = 2 one, of the first indices."""
            if len(prefix) == d - 2:
                rows = np.empty((len(lasts), d - 1), dtype=np.int64)
                rows[:, :-1], rows[:, -1] = prefix, lasts
                yield rows
                return
            for j in lasts.tolist():
                skip = self._spans(kern.basis(np.array([(*prefix, j)]))[1])[1]
                yield from walk((*prefix, j), np.setdiff1d(np.arange(j + 1, self.NU), skip))

        # a prefix's levels take one map of P + dim U rows per class
        size = max(1, kern.block((d - 1) * self.n + self.U.dim, kern.w + self.U.dim) // len(kern.lambdas))
        batch = np.zeros((0, d - 1), dtype=np.int64)
        for rows in walk((), np.asarray(firsts, dtype=np.int64)):
            batch = np.concatenate([batch, rows])
            while len(batch) >= size:
                yield from self._levels(d, batch[:size], 0, self.NU)
                batch = batch[size:]
        if len(batch):
            yield from self._levels(d, batch, 0, self.NU)

    def _prepare(self, prefixes, units):
        """What the levels of a batch of (d-1)-prefixes with `units` units
        each need: weights, the elements inside each prefix's span, each
        level's route and, for kernel-route levels, the elements of their
        class kernels larger than the prefix's dependent span, grouped by
        level as `_spans` does.  The class kernels are always computed, and
        the kernel route is priced by the elements it lists."""
        kern, q, L, C = self.kernel, self.tower.q, len(prefixes), len(self.kernel.lambdas)
        # the prefix rows are F_q-independent, so wt(P) tags span U n <P>
        basis, dependent = kern.basis(prefixes)
        weights = (dependent != 0).sum(axis=1)
        index = kern.kernels(basis)
        # a sum maps less numpy code than count_nonzero
        kappa = (index != 0).sum(axis=2)
        # only a kernel larger than the dependent span, of dimension wt(P),
        # can hold an exception
        larger = kappa > weights[:, None]
        route = self._kernel_route(np.where(larger, q**kappa, 0).sum(axis=1), units)
        rows = np.flatnonzero(larger & route[:, None])
        bounds, elements = self._spans(index.reshape(L * C, -1)[rows])
        return weights, self._spans(dependent), route, (bounds[np.searchsorted(rows, np.arange(L + 1) * C)], elements)

    @cached_property
    def _first_level(self):
        """The d = 1 level, of the empty prefix over j in [1, NU), once per
        process: its `_prepare`, which decides its route, and on the kernel
        route its Levels, else None; nothing is ranked here."""
        prepared = self._prepare(np.zeros((1, 0), dtype=np.int64), np.array([self.NU - 1]))
        return prepared, next(self._levels(1, [()], 1, self.NU, prepared)) if prepared[2].item(0) else None

    def _levels(self, d, prefixes, lo, hi, prepared=None):
        """Weights of the spans of each (d-1)-prefix and u_j, for j in
        lo..hi-1 past the prefix's last index, with -1 for a u_j inside the
        prefix's extension span, in unit order: one Levels for each run of
        kernel-route levels, and dense blocks for each rank-route level.
        `prepared` is the batch's `_prepare` when the caller has it."""
        kern, n, L = self.kernel, self.n, len(prefixes)
        # a span is d n rows of w reduced entries and dim U tag entries; a
        # block of spans holds as many rows as one of n-row matrices
        block = max(1, kern.block(n, kern.w + self.U.dim) // d)
        prefixes = np.array(prefixes, dtype=np.int64).reshape(L, d - 1)
        starts = np.maximum(prefixes[:, -1] + 1, lo) if d > 1 else np.full(L, lo)
        units = hi - starts
        weights, deps, route, hits = prepared or self._prepare(prefixes, units)

        def keys(grouped):
            """Level * NU + j of the grouped elements j in range on a
            kernel-route level."""
            bounds, elements = grouped
            level = np.repeat(np.arange(L), np.diff(bounds))
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
        heads = np.concatenate([np.full((L, 1), d), prefixes], axis=1)
        # a rank-route level has no listed unit
        lv = _listed(heads, starts, units * route, weights + 1, level, found % self.NU - starts[level], wts)
        a = 0
        for r in [*np.flatnonzero(~route).tolist(), L]:
            if a < r:
                i, j = np.searchsorted(lv.level, [a, r]).tolist()
                yield Levels(heads[a:r], starts[a:r], lv.sizes[a:r], lv.bases[a:r], lv.level[i:j] - a, lv.pos[i:j], lv.wts[i:j])
            if r < L:
                head, dep = (d, *prefixes[r].tolist()), deps[1][deps[0][r] : deps[0][r + 1]]
                for b in range(starts.item(r), hi, block):
                    e = min(b + block, hi)
                    # the span [P, j] weighs its nonzero tags, as a prefix does
                    spans = np.concatenate([np.broadcast_to(prefixes[r], (e - b, d - 1)), np.arange(b, e)[:, None]], axis=1)
                    wts = (kern.basis(spans)[1] != 0).sum(axis=1)
                    wts[dep[(dep >= b) & (dep < e)] - b] = -1
                    yield head, b, wts
            a = r + 1


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

    def ranks(self, vals: np.ndarray, reduced: bool) -> np.ndarray:
        """Rank of the expansion rows of each (dim, k) matrix of element
        values in vals, raw or reduced mod U, on the batched kernel."""
        kern = self.kernel
        block = kern.block(self.dim * self.n, self.k * self.n - reduced * self.U.dim)
        parts = [kern.rank(kern.value_rows(vals[s : s + block], reduced)) for s in range(0, len(vals), block)]
        return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


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
    table past SPAN_TABLE_CAP or class residue table past RESIDUE_TABLE_CAP,
    or samples over a field past 2^63 elements."""
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
    elif known is None and mode == "witness_span" and (size := _residue_bytes(system, dim)) > RESIDUE_TABLE_CAP:
        refusal = (f"witness-span class residue table of {size} bytes exceeds the cap of {RESIDUE_TABLE_CAP}; "
                   "use sampled mode")
    elif known is None and mode == "sampled" and Q > 1 << 63:
        # samples are int64 residues of 64-bit words
        refusal = f"sampled mode needs a field of at most 2^63 elements, not {Q}"
    return Plan(mode, dim, bound, defect, budget, seed, known, total, chunk, units, subspaces, refusal)


def _residue_bytes(system: QSystem, dim: int) -> int:
    """Bytes of the class residue table that a witness-span sweep's kernel
    builds, from the shapes alone: an entry per byte value of each byte
    group of a reduced part of w = k n - t entries, for each F_q^*-class of
    the complement of F_q in the extension."""
    tower, k = system.tower, system.ambient
    entry = _KERNELS.get(weight_backend(tower, k, dim), _Rows).residue_entry
    return -(-(k * tower.n - system.t) // 8) * 256 * (tower.q ** (tower.n - 1) - 1) // (tower.q - 1) * entry


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
