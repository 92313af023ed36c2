"""The batched GF(2) and F_p rank kernels against the scalar row containers."""

from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankscatter import bitkernel
from rankscatter.field import create_field
from rankscatter.linalg import BitRows, IdxRows


@lru_cache(maxsize=None)
def _tower(p):
    return create_field(p, 1, 2)


def _scalar_rank(p, matrix):
    """Rank from the incremental containers of linalg: packed ints at p = 2,
    index rows otherwise."""
    acc = BitRows() if p == 2 else IdxRows(_tower(p))
    for row in matrix:
        acc.add(sum(x << i for i, x in enumerate(row)) if p == 2 else row)
    return acc.rank


@st.composite
def gf2_batches(draw):
    """An (R, B) uint64 batch of packed GF(2) rows, with zero rows and rows
    that sum earlier ones."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 6)))
    bits = draw(st.sampled_from([1, 3, 8, 64]))
    words = st.one_of(st.just(0), st.integers(0, (1 << bits) - 1))
    size = shape[0] * shape[1]
    rows = np.array(draw(st.lists(words, min_size=size, max_size=size)), dtype=np.uint64).reshape(shape)
    if shape[0] > 1:
        cells = st.tuples(st.integers(1, shape[0] - 1), st.integers(0, shape[1] - 1))
        for i, b in draw(st.lists(cells, max_size=4)):
            rows[i, b] = rows[i - 1, b] ^ rows[0, b] * (i > 1)
    return rows


@settings(max_examples=150, deadline=None)
@given(gf2_batches(), st.sampled_from([1, 5, bitkernel.ROW_BLOCK]))
def test_batch_rank_equals_the_scalar_rank(rows, block):
    expected = [_scalar_rank(2, [[(r >> i) & 1 for i in range(64)] for r in m]) for m in rows.T.tolist()]
    work = list(rows.copy())
    # blocks of 1 and 5 words split the later rows over several numpy calls
    with patch.object(bitkernel, "ROW_BLOCK", block):
        assert bitkernel.batch_rank(work).tolist() == expected
    for j, m in enumerate(rows.T):
        basis = [r for r in np.array(work)[:, j].tolist() if r]
        pivots = [(r & -r).bit_length() - 1 for r in basis]
        assert len(set(pivots)) == len(basis) == expected[j]
        # the rows left behind span the input rows
        again = [m.copy()]
        bitkernel.reduce_static(again, basis, pivots)
        assert not again[0].any()


@st.composite
def batches(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(0, 9)))
    size = int(np.prod(shape))
    rows = np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)), dtype=np.int64)
    rows = rows.reshape(shape)
    # some rows become combinations of earlier ones, so ranks vary
    if shape[1] > 1:
        cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(1, shape[1] - 1))
        for b, i in draw(st.lists(cells, max_size=4)):
            c = draw(st.integers(0, p - 1))
            rows[b, i] = (c * rows[b, i - 1] + rows[b, 0] * (i > 1)) % p
    return p, rows.astype(np.uint8)


@settings(max_examples=150, deadline=None)
@given(batches())
def test_fp_rank_equals_the_scalar_rank(batch):
    p, rows = batch
    expected = [_scalar_rank(p, m.tolist()) for m in rows]
    work = rows.copy()
    assert bitkernel.fp_rank(work, p).tolist() == expected
    # the echelon form it leaves spans the same rows: reducing the input
    # against it leaves nothing
    for m, ech in zip(rows, work):
        again = m[None].copy()
        bitkernel.fp_reduce_static(again, ech, p)
        assert not again.any()


def _reference_echelon(rows, p):
    """The elimination of `fp_rank` with every entry reduced mod p after
    every step, as it ran before reductions were delayed."""
    rows = rows.astype(np.int64)
    nb, nrows, _ = rows.shape
    at = np.arange(nb)
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)])
    for i in range(nrows - 1):
        cur = rows[:, i]
        piv = (cur != 0).argmax(axis=1)
        f = (p - rows[at, i + 1 :, piv]) * inv[cur[at, piv]][:, None] % p
        rows[:, i + 1 :] = (rows[:, i + 1 :] + f[:, :, None] * cur[:, None, :]) % p
    return rows.astype(np.uint8)


@pytest.mark.parametrize(
    "p, shape",
    [
        # 12 + i * 12^2 passes 2^16 - 1 at i = 455: the rows below are reduced
        # mid-elimination
        (13, (3, 470, 24)),
        # every step passes it
        (251, (6, 40, 30)),
        (3, (4, 60, 50)),
    ],
)
def test_fp_rank_reduces_late_to_the_same_echelon_form(p, shape):
    rng = np.random.default_rng(p)
    nb, nrows, width = shape
    # rows spanning a random subspace of each matrix's own dimension
    mats = []
    for r in rng.integers(0, width + 1, nb).tolist():
        coeffs = rng.integers(0, p, (nrows, r))
        mats.append(coeffs @ rng.integers(0, p, (r, width)) % p)
    rows = np.array(mats, dtype=np.uint8)
    expected = [_scalar_rank(p, m.tolist()) for m in rows]
    work = rows.copy()
    assert bitkernel.fp_rank(work, p).tolist() == expected
    assert work.tobytes() == _reference_echelon(rows, p).tobytes()
    assert len(set(expected)) > 1
