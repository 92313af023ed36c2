"""The batched GF(2), GF(3) and F_p rank kernels against the scalar row
containers and each other."""

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
        # the rows left behind span the input rows: stacking them on the
        # echelon rows adds no rank
        stacked = basis + m.tolist()
        assert _scalar_rank(2, [[(r >> i) & 1 for i in range(64)] for r in stacked]) == expected[j]


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
    # the echelon form it leaves spans the input rows: stacking them on the
    # echelon rows adds no rank
    for m, ech, rank in zip(rows, work, expected):
        assert _scalar_rank(p, np.concatenate([ech, m]).tolist()) == rank


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


# --- GF(3) on pairs of bit planes ---


def _planes(rows):
    """A (B, R, W) batch of residues mod 3 as a (2, R, B) batch of word
    pairs: bit e of plane c - 1 is set where entry e is c."""
    weights = np.uint64(1) << np.arange(rows.shape[2], dtype=np.uint64)
    return np.stack([((rows == c) * weights).sum(axis=2, dtype=np.uint64).T for c in (1, 2)])


def test_gf3_add_matches_its_truth_table():
    # every pair of entries at once: entry 3 x + y holds x in a and y in b
    a = np.array([[x for x in range(3) for _ in range(3)]], dtype=np.uint8)
    b = np.array([[y for _ in range(3) for y in range(3)]], dtype=np.uint8)
    total = bitkernel.gf3_add(_planes(a[None]), _planes(b[None]))
    assert total.tobytes() == _planes(((a + b) % 3)[None]).tobytes()
    assert not (total[0] & total[1]).any()


def _gf3_batch(rng, nb, nrows, width, kind):
    if kind == "zero-rows":
        rows = rng.integers(0, 3, (nb, nrows, width))
        rows[:, rng.random(nrows) < 0.5] = 0
        rows[: nb // 2] = 0
    elif kind == "deficient":
        # rows spanning a random subspace of each matrix's own dimension
        mats = []
        for r in rng.integers(0, min(nrows, width) + 1, nb).tolist():
            mats.append(rng.integers(0, 3, (nrows, r)) @ rng.integers(0, 3, (r, width)) % 3)
        rows = np.array(mats)
    else:
        rows = rng.integers(0, 3, (nb, nrows, width))
    return rows.astype(np.uint8)


@pytest.mark.parametrize(
    "kind, shape",
    [
        ("random", (40, 12, 36)),
        ("deficient", (60, 9, 20)),
        ("zero-rows", (30, 8, 10)),
        ("random", (25, 1, 17)),
        ("deficient", (20, 70, 64)),
        ("random", (5, 3, 64)),
    ],
    ids=["random", "deficient", "zero-rows", "one-row", "width-64", "width-64-short"],
)
def test_gf3_rank_equals_fp_rank_in_ranks_and_echelon_rows(kind, shape):
    rows = _gf3_batch(np.random.default_rng(sum(shape)), *shape, kind)
    fp, pairs = rows.copy(), _planes(rows)
    ranks = bitkernel.fp_rank(fp, 3)
    assert bitkernel.gf3_rank(pairs).tolist() == ranks.tolist()
    # the same echelon form: pivots at lowest entries, cleared from later
    # rows only, and pivot rows never rescaled
    assert pairs.tobytes() == _planes(fp).tobytes()
    if kind != "random":
        assert len(set(ranks.tolist())) > 1
    # a small block splits the later rows over several calls
    again = _planes(rows)
    with patch.object(bitkernel, "ROW_BLOCK", 1):
        assert bitkernel.gf3_rank(again).tolist() == ranks.tolist()
    assert again.tobytes() == pairs.tobytes()


@pytest.mark.parametrize("base", [2, 3])
def test_gf3_tables_sum_their_rows_by_digit(base):
    rng = np.random.default_rng(base)
    deltas = rng.integers(0, 3, (1, 4, 10)).astype(np.uint8)  # 4 rows of 10 entries
    table = bitkernel.gf3_table(_planes(deltas), base, np.empty((2, base**4, 1), dtype=np.uint64))
    for v in range(base**4):
        coeffs = [v // base**e % base for e in range(4)]
        want = (np.array(coeffs) @ deltas[0].astype(np.int64)) % 3
        assert table[:, v].tobytes() == _planes(want[None, None].astype(np.uint8))[:, 0].tobytes()
