"""Batched row reduction: GF(2) on packed uint64 words, F_p on uint8 arrays.

A GF(2) batch is a list of R arrays of shape (B,): entry j of every array
is one row of the j-th matrix in the batch, packed into at most 64 bits.
Pivots are lowest set bits, matching the scalar BitRows convention, so
batch and scalar sweeps agree bit for bit.

An F_p batch, for a prime p < 256, is one uint8 array of shape (B, R, W):
R rows of W residues mod p per matrix.  Products are taken in uint16, where
(p - 1)^2 + p - 1 < 2^16.

Everything here is batched; scalar row elimination is `linalg.BitRows` and
`linalg.IdxRows`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

U64 = np.uint64
MAX_WIDTH = 64


def reduce_static(rows: list[np.ndarray], basis_rows, basis_pivots) -> None:
    """Reduce every batch row in place against a fixed pivot basis."""
    one = U64(1)
    for brow, p in zip(basis_rows, basis_pivots):
        brow = U64(brow)
        sp = U64(p)
        for r in rows:
            mask = (r >> sp) & one
            r ^= mask * brow


def batch_rank(rows: list[np.ndarray]) -> np.ndarray:
    """Rank of each matrix in the batch; consumes the row arrays."""
    if not rows:
        return np.zeros(0, dtype=np.uint8)
    b = rows[0].shape[0]
    rank = np.zeros(b, dtype=np.uint8)
    nrows = len(rows)
    for i in range(nrows):
        cur = rows[i]
        nz = cur != 0
        rank += nz.astype(np.uint8)
        if i + 1 == nrows:
            break
        low = cur & (np.uint64(0) - cur)
        for j in range(i + 1, nrows):
            hit = (rows[j] & low) != 0
            rows[j] ^= np.where(hit, cur, U64(0))
    return rank


def subset_xor_table(deltas: list[int]) -> np.ndarray:
    """T[mask] = XOR of deltas[t] over set bits t of mask."""
    t = np.zeros(1 << len(deltas), dtype=U64)
    for i, d in enumerate(deltas):
        half = 1 << i
        t[half : 2 * half] = t[:half] ^ U64(d)
    return t


# --- F_p on uint8 arrays ---


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod p, with inv[0] = 0; read-only, since every caller
    shares it."""
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.uint16)
    inv.flags.writeable = False
    return inv


def _axpy(rows: np.ndarray, src: np.ndarray, f: np.ndarray, p: int) -> None:
    """rows[b, r] += f[b, r] * src mod p in place; f is uint16, src
    broadcasts against rows."""
    f %= p
    t = f[:, :, None] * src
    t += rows
    t %= p
    rows[...] = t


def fp_rank(rows: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of each matrix in a (B, R, W) uint8 batch.

    Elimination runs without row swaps: row i's first nonzero column is its
    pivot, and it is cleared from the later rows.  The batch is left in that
    echelon form, which `fp_reduce_static` takes as a basis.
    """
    nb, nrows, width = rows.shape
    inv = _inverses(p)
    at = np.arange(nb)
    rank = np.zeros(nb, dtype=np.int64)
    for i in range(nrows if width else 0):
        cur = rows[:, i]
        piv = (cur != 0).argmax(axis=1)
        lead = cur[at, piv]
        rank += lead != 0
        if i + 1 < nrows:
            rest = rows[:, i + 1 :]
            _axpy(rest, cur[:, None, :], (p - rest[at, :, piv]) * inv[lead][:, None], p)
    return rank


def fp_reduce_static(rows: np.ndarray, basis: np.ndarray, p: int) -> None:
    """Reduce every row of a (B, R, W) batch in place against one (r, W)
    basis in the echelon form `fp_rank` leaves: afterwards each row is zero
    in every pivot column of the basis, and zero iff it lay in its span."""
    inv = _inverses(p)
    for b in basis:
        nz = np.flatnonzero(b)
        if nz.size:
            c = nz[0]
            _axpy(rows, b, (p - rows[:, :, c]) * inv[b[c]], p)
