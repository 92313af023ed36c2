"""The batched F_p rank kernel against the scalar row containers."""

from functools import lru_cache

import numpy as np
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
