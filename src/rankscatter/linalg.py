"""Linear algebra over F_{q^n} and, through coordinate expansion, over F_q.

Vectors over the extension are tuples of element values; subspaces over the
extension carry a canonical reduced row-echelon basis, so equal subspaces
compare equal structurally.  F_q-subspaces are held by generators plus a
cached RREF of their F_q-expansion: bit-packed integer rows when q = 2,
index rows with table arithmetic otherwise.

Row convention for expansions: the coordinate l of extension coordinate c
sits at position c*n + l.  For q = 2 that position is a bit index, and the
leftmost column is bit 0, so the pivot of a row is its lowest set bit.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .field import FieldTower

Vector = tuple[int, ...]


# --- RREF over the extension field ---


def rref(tower: FieldTower, rows: Sequence[Sequence[int]], ncols: int | None = None):
    """Reduced row echelon form over F_{q^n}.

    Pivot choice is frozen: leftmost column, first nonzero row.  Returns
    (rows, pivots) with zero rows dropped; rank is len(pivots).
    """
    work = [list(r) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = next((r for r in range(prow, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        inv = tower.inv(work[prow][col])
        if inv != 1:
            work[prow] = [tower.mul(inv, e) for e in work[prow]]
        for r in range(len(work)):
            if r != prow and work[r][col]:
                c = work[r][col]
                work[r] = [tower.sub(e, tower.mul(c, pe)) for e, pe in zip(work[r], work[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(work):
            break
    return tuple(tuple(r) for r in work[:prow]), tuple(pivots)


def matrix_rank(tower: FieldTower, rows: Sequence[Sequence[int]], ncols=None) -> int:
    return len(rref(tower, rows, ncols)[1])


def nullspace(tower: FieldTower, rows: Sequence[Sequence[int]], ncols: int):
    """Canonical RREF basis of the right kernel {v : M v^T = 0}."""
    red, pivots = rref(tower, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = tower.neg(red[i][f])
        basis.append(tuple(v))
    return rref(tower, basis, ncols)[0]


class SubspaceQn:
    """A subspace of F_{q^n}^k with canonical RREF basis."""

    __slots__ = ("tower", "k", "basis", "pivots")

    def __init__(self, tower: FieldTower, k: int, basis, pivots):
        self.tower = tower
        self.k = k
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, tower: FieldTower, k: int, vectors: Iterable[Sequence[int]]):
        basis, pivots = rref(tower, [tuple(v) for v in vectors], k)
        return cls(tower, k, basis, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceQn)
            and self.tower == other.tower
            and self.k == other.k
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.tower, self.k, self.basis))

    def __repr__(self):
        return f"SubspaceQn(k={self.k}, dim={self.dim})"

    def contains(self, vec: Sequence[int]) -> bool:
        work = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = work[p]
            if c:
                work = [self.tower.sub(e, self.tower.mul(c, r)) for e, r in zip(work, row)]
        return not any(work)

    def serialize(self) -> list:
        t = self.tower
        return [[list(t.coeffs(e)) for e in row] for row in self.basis]

    @classmethod
    def deserialize(cls, tower: FieldTower, k: int, data) -> "SubspaceQn":
        vecs = [tuple(tower.val(c) for c in row) for row in data]
        return cls.from_vectors(tower, k, vecs)


# --- F_q row containers ---


class BitRows:
    """Incremental full-RREF container for GF(2) rows packed into ints."""

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots: list[int] = []
        self.rows: list[int] = []

    def reduce(self, v: int) -> int:
        for p, r in zip(self.pivots, self.rows):
            if (v >> p) & 1:
                v ^= r
        return v

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        p = (v & -v).bit_length() - 1
        for i, r in enumerate(self.rows):
            if (r >> p) & 1:
                self.rows[i] = r ^ v
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.pivots.insert(idx, p)
        self.rows.insert(idx, v)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class IdxRows:
    """Incremental full-RREF container for F_q rows as index lists (q > 2)."""

    __slots__ = ("tables", "pivots", "rows")

    def __init__(self, tower: FieldTower):
        self.tables = tower.subfield_tables
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []

    def _axpy(self, target, c, row):
        add, mul, _, neg = self.tables
        cneg = neg[c]
        mrow = mul[cneg]
        return [add[t][mrow[r]] for t, r in zip(target, row)]

    def reduce(self, v: Sequence[int]) -> list[int]:
        v = list(v)
        for p, r in zip(self.pivots, self.rows):
            if v[p]:
                v = self._axpy(v, v[p], r)
        return v

    def add(self, v: Sequence[int]) -> bool:
        add, mul, inv, _ = self.tables
        v = self.reduce(v)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        if v[p] != 1:
            mrow = mul[inv[v[p]]]
            v = [mrow[x] for x in v]
        for i, r in enumerate(self.rows):
            if r[p]:
                self.rows[i] = self._axpy(r, r[p], v)
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.pivots.insert(idx, p)
        self.rows.insert(idx, v)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def make_rows(tower: FieldTower):
    return BitRows() if tower.q == 2 else IdxRows(tower)


# --- expansion ---


def expand_vector(tower: FieldTower, vec: Sequence[int]):
    """F_q-expansion of a vector in F_{q^n}^k.

    Returns a packed int for q = 2 and a flat index tuple otherwise; either
    way the map is F_q-linear and injective.
    """
    n = tower.n
    if tower.q == 2:
        row = 0
        for c, x in enumerate(vec):
            if x:
                e = tower.expand_scalar(x)
                bits = 0
                for l, b in enumerate(e):
                    bits |= b << l
                row |= bits << (c * n)
        return row
    out = []
    for x in vec:
        out.extend(tower.expand_scalar(x))
    return tuple(out)


def unexpand_row(tower: FieldTower, row, k: int) -> Vector:
    """Inverse of expand_vector on the image."""
    n = tower.n
    out = []
    if tower.q == 2:
        mask = (1 << n) - 1
        for c in range(k):
            coords = (row >> (c * n)) & mask
            out.append(tower.unexpand_scalar([(coords >> l) & 1 for l in range(n)]))
    else:
        for c in range(k):
            out.append(tower.unexpand_scalar(row[c * n : (c + 1) * n]))
    return tuple(out)


def subspace_fq_rows(tower: FieldTower, H: SubspaceQn) -> list:
    """Rows spanning H viewed as an F_q-space (n rows per basis vector)."""
    rows = []
    for v in H.basis:
        for b in tower.q_basis:
            rows.append(expand_vector(tower, tuple(tower.mul(b, x) for x in v)))
    return rows


class FqSubspace:
    """An F_q-subspace of F_{q^n}^k given by generators.

    The expansion RREF is the canonical equality witness; generators may be
    dependent, the stored dimension is the expansion rank.
    """

    def __init__(self, tower: FieldTower, k: int, generators: Iterable[Sequence[int]]):
        self.tower = tower
        self.k = k
        gens = [tuple(v) for v in generators]
        for v in gens:
            if len(v) != k:
                raise ValueError("generator has wrong ambient dimension")
        self.generators = tuple(gens)

    @cached_property
    def _rref(self):
        acc = make_rows(self.tower)
        for g in self.generators:
            acc.add(expand_vector(self.tower, g))
        return acc

    @property
    def dim(self) -> int:
        return self._rref.rank

    @property
    def width(self) -> int:
        return self.k * self.tower.n

    @property
    def fq_rows(self):
        return self._rref.rows

    @property
    def fq_pivots(self):
        return self._rref.pivots

    @cached_property
    def canonical_generators(self) -> tuple[Vector, ...]:
        """Generators read back from the expansion RREF; a frozen basis."""
        return tuple(unexpand_row(self.tower, r, self.k) for r in self.fq_rows)

    @cached_property
    def spans_ambient(self) -> bool:
        return matrix_rank(self.tower, self.canonical_generators, self.k) == self.k

    def reduce_row(self, row):
        return self._rref.reduce(row)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        r = self.reduce_row(expand_vector(self.tower, vec))
        return (r == 0) if self.tower.q == 2 else not any(r)

    def element(self, index: int) -> Vector:
        """Element with the given coefficient index over canonical_generators.

        Index digits are base q, least significant digit on generator 0;
        this is the frozen element order used by the tuple sweeps.
        """
        t = self.tower
        vals = t.subfield_values
        out = [0] * self.k
        for g in self.canonical_generators:
            index, d = divmod(index, t.q)
            if d:
                c = vals[d]
                out = [t.add(o, t.mul(c, x)) for o, x in zip(out, g)]
        return tuple(out)

    def elements(self) -> Iterator[Vector]:
        for i in range(self.tower.q**self.dim):
            yield self.element(i)

    def __eq__(self, other):
        return (
            isinstance(other, FqSubspace)
            and self.tower == other.tower
            and self.k == other.k
            and tuple(self.fq_rows) == tuple(other.fq_rows)
        )

    def __hash__(self):
        rows = self.fq_rows
        key = tuple(rows) if self.tower.q == 2 else tuple(tuple(r) for r in rows)
        return hash((self.tower, self.k, key))

    def serialize(self) -> list:
        t = self.tower
        return [[list(t.coeffs(e)) for e in g] for g in self.generators]

    @classmethod
    def deserialize(cls, tower: FieldTower, k: int, data) -> "FqSubspace":
        gens = [tuple(tower.val(c) for c in g) for g in data]
        return cls(tower, k, gens)


def sum_dim(S: FqSubspace, T: FqSubspace) -> int:
    if S.tower != T.tower or S.k != T.k:
        raise ValueError("subspaces live in different ambient spaces")
    acc = make_rows(S.tower)
    for r in S.fq_rows:
        acc.add(r if S.tower.q == 2 else list(r))
    for r in T.fq_rows:
        acc.add(r if S.tower.q == 2 else list(r))
    return acc.rank


def intersection_dim(S: FqSubspace, T: FqSubspace) -> int:
    """dim(S n T) = dim S + dim T - dim(S + T), over F_q."""
    return S.dim + T.dim - sum_dim(S, T)


def intersection_rows(tower: FieldTower, width: int, s_rows, t_rows) -> list:
    """F_q-basis rows of (span s_rows) n (span t_rows), Zassenhaus style.

    Rows of [[S | S], [T | 0]] are reduced; reduced rows whose left block
    vanished have right blocks spanning the intersection.
    """
    if tower.q == 2:
        acc = BitRows()
        for r in s_rows:
            acc.add(r | (r << width))
        for r in t_rows:
            acc.add(r)
        mask = (1 << width) - 1
        out = [row >> width for row in acc.rows if row & mask == 0]
        fin = BitRows()
        for r in out:
            fin.add(r)
        return list(fin.rows)
    acc = IdxRows(tower)
    for r in s_rows:
        acc.add(list(r) + list(r))
    for r in t_rows:
        acc.add(list(r) + [0] * width)
    out = [row[width:] for row in acc.rows if not any(row[:width])]
    fin = IdxRows(tower)
    for r in out:
        fin.add(r)
    return [list(r) for r in fin.rows]


# --- Grassmannian bookkeeping ---


def gaussian_binomial(k: int, d: int, Q: int) -> int:
    """Number of d-dimensional subspaces of a k-space over a Q-element field."""
    if d < 0 or d > k:
        raise ValueError("need 0 <= d <= k")
    num = 1
    den = 1
    for i in range(d):
        num *= Q ** (k - i) - 1
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _free_cells(pivots: Sequence[int], k: int) -> list[tuple[int, int]]:
    pivset = set(pivots)
    cells = []
    for i, p in enumerate(pivots):
        for c in range(p + 1, k):
            if c not in pivset:
                cells.append((i, c))
    return cells


def _pivot_blocks(k: int, d: int, Q: int):
    """(pivots, free_cells, block_size) per pivot set, lex order."""
    out = []
    for pivots in itertools.combinations(range(k), d):
        cells = _free_cells(pivots, k)
        out.append((pivots, cells, Q ** len(cells)))
    return out


def _subspace_from_assignment(tower, k, pivots, cells, a) -> SubspaceQn:
    d = len(pivots)
    rows = [[0] * k for _ in range(d)]
    for i, p in enumerate(pivots):
        rows[i][p] = 1
    # digits of a, most significant on the first cell: the last cell varies fastest
    for (i, c) in reversed(cells):
        a, v = divmod(a, tower.order)
        rows[i][c] = v
    return SubspaceQn(tower, k, tuple(tuple(r) for r in rows), tuple(pivots))


def enumerate_subspaces(tower: FieldTower, k: int, d: int) -> Iterator[SubspaceQn]:
    """Every d-dimensional subspace of F_{q^n}^k exactly once.

    Order is frozen: pivot-column sets lexicographically, then free entries
    by element value with the last free cell varying fastest.
    """
    if d < 0 or d > k:
        raise ValueError("need 0 <= d <= k")
    for pivots, cells, count in _pivot_blocks(k, d, tower.order):
        for a in range(count):
            yield _subspace_from_assignment(tower, k, pivots, cells, a)


def subspace_at(tower: FieldTower, k: int, d: int, index: int) -> SubspaceQn:
    """Random access into the enumerate_subspaces order."""
    for pivots, cells, count in _pivot_blocks(k, d, tower.order):
        if index < count:
            return _subspace_from_assignment(tower, k, pivots, cells, index)
        index -= count
    raise IndexError("subspace index out of range")


# --- deterministic sampling ---


def rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) from getrandbits only (version-stable)."""
    if n <= 0:
        raise ValueError("n must be positive")
    bits = (n - 1).bit_length()
    if bits == 0:
        return 0
    while True:
        v = rng.getrandbits(bits)
        if v < n:
            return v


def derive_seed(seed: int, *path) -> int:
    """Stable 64-bit seed for a sub-stream; used for per-index sampling."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((seed, *path)).encode())
    return int.from_bytes(h.digest(), "big")


def sample_subspace(tower: FieldTower, k: int, d: int, seed: int) -> SubspaceQn:
    """Uniformly random d-dim subspace of F_{q^n}^k; deterministic per seed.

    A d x k matrix is drawn uniformly and redrawn until full rank, then
    canonicalised; full-rank matrices hit every subspace equally often.
    """
    if d < 0 or d > k:
        raise ValueError("need 0 <= d <= k")
    if d == 0:
        return SubspaceQn(tower, k, (), ())
    rng = random.Random(derive_seed(seed, "subspace", k, d))
    Q = tower.order
    while True:
        rows = [tuple(rand_below(rng, Q) for _ in range(k)) for _ in range(d)]
        red, pivots = rref(tower, rows, k)
        if len(pivots) == d:
            return SubspaceQn(tower, k, red, pivots)
