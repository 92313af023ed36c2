"""Batched row reduction: GF(2) on packed uint64 words, GF(3) on pairs of
them, F_p on uint8 arrays.

A GF(2) batch is a list of R arrays of shape (B,): entry j of every array
is one row of the j-th matrix in the batch, packed into at most 64 bits.
Pivots are lowest set bits, matching the scalar BitRows convention, so
batch and scalar sweeps agree bit for bit.

A GF(3) batch is one uint64 array of shape (2, R, B), the same layout with
each row split into two bit planes on the leading axis: entry e of a row is
1 where bit e of plane 0 is set and 2 where bit e of plane 1 is.  Addition
is seven word operations (`gf3_add`), and negation swaps the planes.

An F_p batch, for a prime p < 256, is one uint8 array of shape (B, R, W):
R rows of W residues mod p per matrix.  All F_p arithmetic is exact
unsigned integer arithmetic, never float or BLAS: elimination runs in
uint8 or uint16, where (p - 1)^2 + p - 1 < 2^16, and reduces mod p only as
often as the dtype requires; `fp_dot` accumulates in the narrowest dtype
that holds its sums.

Everything here is batched; scalar row elimination is `linalg.BitRows` and
`linalg.IdxRows`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

U64 = np.uint64
MAX_WIDTH = 64
ROW_BLOCK = 1 << 14  # words per numpy call of batch_rank's elimination


def batch_rank(rows: list[np.ndarray]) -> np.ndarray:
    """Rank of each matrix in the batch; leaves the rows in echelon form,
    their nonzero rows with distinct lowest set bits.

    The rows are eliminated in one (R, B) copy: each row's lowest set bit
    is cleared from all later rows, ROW_BLOCK words of them per numpy call,
    so a small batch takes a few calls per pivot and no temporary of a
    large one holds more than ROW_BLOCK words.
    """
    if not rows:
        return np.zeros(0, dtype=np.int64)
    work = np.stack(rows)
    step = max(1, ROW_BLOCK // max(1, work.shape[1]))
    for i in range(len(rows) - 1):
        cur = work[i]
        low = cur & (U64(0) - cur)
        for s in range(i + 1, len(rows), step):
            rest = work[s : s + step]
            # hit is low or 0, so min(hit, 1) * cur is cur where rest has the pivot bit
            hit = rest & low
            np.minimum(hit, U64(1), out=hit)
            hit *= cur
            rest ^= hit
    for r, w in zip(rows, work):
        r[...] = w
    return np.count_nonzero(work, axis=0)


def subset_xor_table(deltas: np.ndarray, bits: int) -> np.ndarray:
    """Subset-XOR tables over groups of `bits` entries of the last axis of a
    (..., m) uint64 array: entry [..., g, mask] is the XOR of
    deltas[..., g * bits + t] over the set bits t of mask."""
    *lead, m = deltas.shape
    groups = np.zeros((*lead, -(-m // bits), bits), dtype=U64)
    groups.reshape(*lead, -1)[..., :m] = deltas
    t = np.zeros((*groups.shape[:-1], 1 << bits), dtype=U64)
    for i in range(bits):
        half = 1 << i
        t[..., half : 2 * half] = t[..., :half] ^ groups[..., i, None]
    return t


# --- GF(3) on pairs of bit planes ---


def gf3_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b over GF(3), entry by entry, for word pairs with their planes on
    the leading axis; b[::-1] is -b."""
    u = a | b[::-1]
    return (a | b)[::-1] ^ (u[0] ^ u[1])


def gf3_table(deltas: np.ndarray, base: int, out: np.ndarray) -> np.ndarray:
    """Tables of GF(3) sums of the word pairs deltas[:, e] of a (2, m, ...)
    array, written into `out`, of shape (2, base^m, ...): entry [:, v] is
    the sum of c_e deltas[:, e] over the base-`base` digits c_e of v, least
    significant first (base 2: subset sums; base 3: every combination)."""
    m = deltas.shape[1]
    out[:, :1] = 0
    size = 1
    for e in range(m):
        d = deltas[:, e : e + 1]
        for c in range(1, base):
            out[:, c * size : (c + 1) * size] = gf3_add(out[:, :size], d if c == 1 else d[::-1])
        size *= base
    return out


def gf3_clear(rest: np.ndarray, cur: np.ndarray) -> None:
    """Clear from the rows of `rest`, of shape (2, R, B), their entry at
    the lowest nonzero entry of each word pair of `cur`, of shape (2, B),
    by adding a multiple of it in place; a zero `cur` changes nothing.

    The pivot row, scaled to lead 1 and shifted down to its lowest entry,
    times a row's pivot bit (0 or that power of two) is the scaled row
    itself or 0, so a row whose pivot entry is a gets -a times it."""
    nz = cur[0] | cur[1]
    low = nz & (U64(0) - nz)
    shifted = cur // np.maximum(low, U64(1))
    norm = np.where(shifted[1] & U64(1), shifted[::-1], shifted)[:, None]
    hit = rest & low
    add = hit[0] * norm[::-1]
    add |= hit[1] * norm
    # gf3_add(rest, add), written into rest
    u = rest | add[::-1]
    add |= rest
    np.bitwise_xor(add[::-1], u[0] ^ u[1], out=rest)


def gf3_rank(rows: np.ndarray) -> np.ndarray:
    """Rank over GF(3) of each matrix of a (2, R, B) batch, which is left in
    `fp_rank`'s echelon form: row i's lowest nonzero entry is its pivot, and
    it is cleared from the later rows only; a pivot row is never rescaled.
    ROW_BLOCK word pairs of later rows go to one `gf3_clear`, as ROW_BLOCK
    words do in `batch_rank`."""
    nrows = rows.shape[1]
    step = max(1, ROW_BLOCK // max(1, rows.shape[2]))
    for i in range(nrows - 1):
        for s in range(i + 1, nrows, step):
            gf3_clear(rows[:, s : s + step], rows[:, i])
    return np.count_nonzero(rows[0] | rows[1], axis=0)


# --- F_p on uint8 arrays ---


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod p, with inv[0] = 0; read-only, since every caller
    shares it."""
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.uint16)
    inv.flags.writeable = False
    return inv


def fp_dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as uint8, for residues mod p in a (..., D) and b (D, M).

    The sums are exact: they accumulate in the narrowest unsigned dtype that
    holds D (p - 1)^2, through einsum, which runs integer products several
    times faster than integer matmul and, like it, without BLAS.
    """
    acc = np.min_scalar_type(a.shape[-1] * (p - 1) ** 2)
    out = np.einsum("...i,ij->...j", a.astype(acc, copy=False), b.astype(acc, copy=False))
    out %= p
    return out.astype(np.uint8, copy=False)


def fp_rank(rows: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of each matrix in a (B, R, W) uint8 batch.

    Elimination runs without row swaps: row i's first nonzero column is its
    pivot, and it is cleared from the later rows.  The batch is left in that
    echelon form, whose rows the witness-span kernels read.

    The rows are eliminated in one unsigned copy: uint8 when the whole
    elimination fits in it, as at p = 3 with up to 64 rows, else uint16.
    i steps add at most i (p - 1)^2 to an entry below p, so a row is
    reduced mod p when it becomes the pivot row, and the rows below it only
    when one more step could pass the dtype's maximum: in uint16, never at
    p = 3 and before every step but the first at p = 251.
    """
    nb, nrows, width = rows.shape
    if not width:
        return np.zeros(nb, dtype=np.int64)
    inv = _inverses(p)
    at = np.arange(nb)
    step = (p - 1) ** 2
    bound = p - 1
    work = rows.astype(np.min_scalar_type(min(bound + (nrows - 1) * step, 0xFFFF)))
    top = np.iinfo(work.dtype).max
    for i in range(nrows):
        cur = work[:, i]
        cur %= p
        if i + 1 == nrows:
            break
        piv = (cur != 0).argmax(axis=1)
        rest = work[:, i + 1 :]
        if bound + step > top:
            rest %= p
            bound = p - 1
        # f = -rest[piv] / lead; a zero row has lead 0, and p - inv[0] = p
        # makes f = 0
        f = rest[at, :, piv]
        f %= p
        f *= (p - inv[cur[at, piv]])[:, None]
        f %= p
        rest += f[:, :, None] * cur[:, None, :]
        bound += step
    rows[...] = work
    # the nonzero rows of an echelon form are independent
    return np.count_nonzero(rows.any(axis=2), axis=1)

