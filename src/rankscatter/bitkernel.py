"""Batched GF(2) row reduction on numpy uint64 words.

A batch is a list of R arrays of shape (B,): entry j of every array is one
row of the j-th matrix in the batch, packed into at most 64 bits.  Pivots
are lowest set bits, matching the scalar BitRows convention, so batch and
scalar sweeps agree bit for bit.  Everything here is batched; scalar row
elimination is `linalg.BitRows`.
"""

from __future__ import annotations

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

