"""Linear algebra over F_{q^n} and, through coordinate expansion, over F_q.

Vectors over the extension are tuples of element values; subspaces over the
extension carry a canonical reduced row-echelon basis, so equal subspaces
compare equal structurally.  F_q-subspaces are held by generators plus a
cached RREF of their F_q-expansion: bit-packed integer rows when q = 2,
index rows with table arithmetic otherwise.

This module alone owns that row format.  Only `make_rows`, `expand_vector`,
`unexpand_row` and the two row containers (`BitRows`, `IdxRows`) know it;
everything else builds rows with `expand_vector`, reads them back with
`unexpand_row`, and asks a container for `add`, `contains` and `rank`.

Row convention for expansions: the coordinate l of extension coordinate c
sits at position c*n + l.  For q = 2 that position is a bit index, and the
leftmost column is bit 0, so the pivot of a row is its lowest set bit.
"""

from __future__ import annotations

import hashlib
import itertools
import math
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

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

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

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)


def make_rows(tower: FieldTower):
    return BitRows() if tower.q == 2 else IdxRows(tower)


# --- expansion ---


def expand_vector(tower: FieldTower, vec: Sequence[int]):
    """F_q-expansion of a vector in F_{q^n}^k.

    Returns a packed int for q = 2 and a flat index tuple otherwise; either
    way the map is F_q-linear and injective.  For q = 2 (so s = 1) the
    coordinates of a value on 1, z, ..., z^(n-1) are its own bits.
    """
    n = tower.n
    if tower.q == 2:
        return sum(x << c * n for c, x in enumerate(vec))
    out = []
    for x in vec:
        out.extend(tower.expand_scalar(x))
    return tuple(out)


def unexpand_row(tower: FieldTower, row, k: int) -> Vector:
    """Inverse of expand_vector on the image."""
    n = tower.n
    if tower.q == 2:
        mask = (1 << n) - 1
        return tuple((row >> c * n) & mask for c in range(k))
    return tuple(tower.unexpand_scalar(row[c * n : (c + 1) * n]) for c in range(k))


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
    def pivots(self) -> list[int]:
        """Pivot column of each row of fq_rows, in increasing order: the
        element with index digits d_e has entry d_e in column pivots[e]."""
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
        return self._rref.contains(expand_vector(self.tower, vec))

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
        return hash((self.tower, self.k, self.canonical_generators))

    def serialize(self) -> list:
        t = self.tower
        return [[list(t.coeffs(e)) for e in g] for g in self.generators]

    @classmethod
    def deserialize(cls, tower: FieldTower, k: int, data) -> "FqSubspace":
        gens = [tuple(tower.val(c) for c in g) for g in data]
        return cls(tower, k, gens)


def intersection_rows(tower: FieldTower, width: int, s_rows, t_rows) -> list:
    """RREF rows of (span s_rows) n (span t_rows) over F_q, Zassenhaus style.

    The 2k-vectors (s, s) and (t, 0) are reduced; reduced rows whose left
    half vanished have right halves spanning the intersection.
    """
    k = width // tower.n
    acc = make_rows(tower)
    for r in s_rows:
        v = unexpand_row(tower, r, k)
        acc.add(expand_vector(tower, v + v))
    for r in t_rows:
        acc.add(expand_vector(tower, unexpand_row(tower, r, k) + (0,) * k))
    fin = make_rows(tower)
    for row in acc.rows:
        v = unexpand_row(tower, row, 2 * k)
        if not any(v[:k]):
            fin.add(expand_vector(tower, v[k:]))
    return list(fin.rows)


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
    if num % den:
        raise AssertionError(f"[{k}, {d}]_{Q} is not an integer")
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


def rand_below_blocks(rng: random.Random, n: int, size: int):
    """Endless int64 arrays of `size` values each: the values that repeated
    `rand_below(rng, n)` calls return, in the same order, for 2 <= n <= 2^32.

    For bits <= 32, getrandbits(bits) is the next 32-bit Mersenne Twister
    word shifted right by 32 - bits, and getrandbits(32 w) holds the next w
    words, the first least significant.  Values accepted past the end of
    one array begin the next, so no draw is lost between arrays.
    """
    import numpy as np

    if not 2 <= n <= 1 << 32:
        raise ValueError(f"n must lie in 2..2^32, got {n}")
    bits = (n - 1).bit_length()
    spare = np.empty(0, dtype=np.int64)
    while True:
        while len(spare) < size:
            # words for the missing values plus about four standard deviations
            need = size - len(spare)
            words = ((need + 3 * math.isqrt(need) + 8) << bits) // n
            raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4")
            v = (raw >> (32 - bits)).astype(np.int64)
            spare = np.concatenate([spare, v[v < n]])
        yield spare[:size]
        spare = spare[size:]


def derive_seed(seed: int, *path) -> int:
    """Stable 64-bit seed for a sub-stream; used for per-index sampling."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((seed, *path)).encode())
    return int.from_bytes(h.digest(), "big")


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the golden-ratio
# increment and the two finaliser multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def counter_words(key: int, lo: int, count: int) -> np.ndarray:
    """Words lo .. lo+count-1 of the counter stream keyed by `key`.

    Word c is the SplitMix64 finaliser of key + (c + 1) * gamma: a pure
    function of (key, c), so any range can be drawn on its own.  All
    arithmetic is on uint64 arrays, which wrap silently; numpy scalars
    would warn on the same overflow.
    """
    # `import rankscatter` loads numpy anyway, through verify.  Loading it
    # here at module level instead would load it before the later modules
    # of the package compile, and without cached bytecode that raises the
    # peak resident set by about 0.8 MB per process.
    import numpy as np

    u64 = np.uint64
    z = np.arange(lo + 1, lo + 1 + count, dtype=u64)
    z *= u64(_GAMMA)
    z += u64(key)
    z ^= z >> u64(30)
    z *= u64(_MIX1)
    z ^= z >> u64(27)
    z *= u64(_MIX2)
    z ^= z >> u64(31)
    return z


def _word_limit(Q: int) -> int:
    """Words at or above this limit are rejected, so that the residues mod Q
    are exactly uniform; it is 2^64, which rejects nothing, when Q is a
    power of two."""
    return (1 << 64) // Q * Q


def sample_values(Q: int, k: int, d: int, seed: int, lo: int, hi: int, attempt: int):
    """The d x k matrices of samples lo .. hi-1 at a redraw attempt.

    Sample i at attempt a takes the d*k words at counters i*d*k onward of
    the stream keyed by derive_seed(seed, "sample", k, d, a), row by row,
    each reduced mod Q.  Returns (values, accepted): values is an int64
    array of shape (hi - lo, d, k), and accepted is False for a sample with
    a word at or above _word_limit(Q), which is then redrawn.  A field of
    more than 2^63 elements is a ValueError.
    """
    import numpy as np

    if Q > 1 << 63:
        raise ValueError(f"sampled mode needs a field of at most 2^63 elements, not {Q}")
    dk = d * k
    words = counter_words(derive_seed(seed, "sample", k, d, attempt), lo * dk, (hi - lo) * dk)
    words = words.reshape(hi - lo, d, k)
    limit = _word_limit(Q)
    if limit >> 64:
        accepted = np.ones(hi - lo, dtype=bool)
    else:
        accepted = (words < np.uint64(limit)).all(axis=(1, 2))
    if Q & (Q - 1):
        np.remainder(words, np.uint64(Q), out=words)
    else:
        words &= np.uint64(Q - 1)
    # residues below Q <= 2^63 read the same as int64
    return words.view(np.int64), accepted


def sample_subspace(tower: FieldTower, k: int, d: int, seed: int, index: int) -> SubspaceQn:
    """Sample `index` of the seeded stream of d-dim subspaces of F_{q^n}^k.

    The scalar oracle of sampled sweeps: the first accepted, full-rank
    matrix of attempts 0, 1, ... of `sample_values`, canonicalised.
    Full-rank matrices hit every subspace equally often, so the sample is
    uniform.
    """
    if d < 0 or d > k:
        raise ValueError("need 0 <= d <= k")
    return _redraw(tower, k, d, seed, index, 0)


def sample_subspaces(tower: FieldTower, k: int, d: int, seed: int, lo: int, hi: int) -> Iterator[SubspaceQn]:
    """Samples lo .. hi-1 of `sample_subspace`, equal to it index by index.

    Attempt 0 of every sample comes from one `sample_values` call; a sample
    whose attempt-0 matrix is rejected is redrawn alone, from attempt 1 on.
    """
    vals, accepted = sample_values(tower.order, k, d, seed, lo, hi, 0)
    for i, (m, ok) in enumerate(zip(vals, accepted.tolist())):
        H = _full_rank(tower, k, d, m.tolist()) if ok else None
        yield _redraw(tower, k, d, seed, lo + i, 1) if H is None else H


def _full_rank(tower: FieldTower, k: int, d: int, matrix) -> SubspaceQn | None:
    """The row space of a d x k matrix, canonicalised, or None when its rank
    is below d."""
    basis, pivots = rref(tower, matrix, k)
    return SubspaceQn(tower, k, basis, pivots) if len(pivots) == d else None


def _redraw(tower: FieldTower, k: int, d: int, seed: int, index: int, attempt: int) -> SubspaceQn:
    """Sample `index`, from redraw attempt `attempt` on; sweeps start at
    attempt 1 for a sample whose attempt-0 matrix they rejected."""
    while True:
        vals, accepted = sample_values(tower.order, k, d, seed, index, index + 1, attempt)
        if accepted[0]:
            H = _full_rank(tower, k, d, vals[0].tolist())
            if H is not None:
                return H
        attempt += 1
