"""Subspace machinery: RREF, expansion, enumeration, sampling."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankscatter.field import create_field
from rankscatter.linalg import (
    FqSubspace,
    SubspaceQn,
    enumerate_subspaces,
    expand_vector,
    gaussian_binomial,
    intersection_dim,
    intersection_rows,
    matrix_rank,
    nullspace,
    rand_below,
    rand_below_blocks,
    rref,
    sample_subspace,
    subspace_at,
    subspace_fq_rows,
    unexpand_row,
)


@pytest.fixture(scope="module")
def F16():
    return create_field(2, 1, 4)


@pytest.fixture(scope="module")
def F8():
    return create_field(2, 1, 3)


def test_rref_identity_and_zero(F16):
    ident = [(1, 0), (0, 1)]
    rows, piv = rref(F16, ident, 2)
    assert rows == ((1, 0), (0, 1)) and piv == (0, 1)
    rows, piv = rref(F16, [(0, 0), (0, 0)], 2)
    assert rows == () and piv == ()


def test_rref_detects_scalar_multiple_rows(F16):
    g = F16.p
    rows, piv = rref(F16, [(1, g), (g, F16.mul(g, g))], 2)
    assert len(piv) == 1
    assert rows == ((1, g),)


def test_rref_is_idempotent_and_rank_preserving(F8):
    rng = random.Random(2)
    for _ in range(30):
        rows = [tuple(rng.randrange(8) for _ in range(4)) for _ in range(3)]
        red, piv = rref(F8, rows, 4)
        again, piv2 = rref(F8, red, 4)
        assert red == again and piv == piv2
        assert len(piv) == matrix_rank(F8, rows, 4)


def test_nullspace_annihilates(F8):
    rng = random.Random(3)
    for _ in range(20):
        rows = [tuple(rng.randrange(8) for _ in range(5)) for _ in range(2)]
        for v in nullspace(F8, rows, 5):
            for r in rows:
                acc = 0
                for a, b in zip(r, v):
                    acc = F8.add(acc, F8.mul(a, b))
                assert acc == 0


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 0, 16) == 1
    assert gaussian_binomial(4, 1, 8) == 585
    assert gaussian_binomial(2, 1, 16) == 17
    assert gaussian_binomial(3, 2, 16) == 273
    # symmetry and a hand-checked product
    assert gaussian_binomial(6, 2, 8) == gaussian_binomial(6, 4, 8)
    assert gaussian_binomial(6, 2, 8) == (8**6 - 1) * (8**5 - 1) // ((8**2 - 1) * (8 - 1))


def test_gaussian_binomial_matches_cell_census():
    # independent count: sum of Q^(free cells) over pivot sets
    import itertools

    for k, d, Q in [(4, 2, 2), (5, 2, 3), (4, 3, 4), (6, 2, 8)]:
        total = 0
        for pivots in itertools.combinations(range(k), d):
            free = sum(
                1
                for i, p in enumerate(pivots)
                for c in range(p + 1, k)
                if c not in pivots
            )
            total += Q**free
        assert total == gaussian_binomial(k, d, Q)


@pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_enumeration_is_complete_and_duplicate_free(F8, k, d):
    seen = set()
    count = 0
    for s in enumerate_subspaces(F8, k, d):
        assert s.dim == d
        seen.add(s.basis)
        count += 1
    assert count == gaussian_binomial(k, d, 8)
    assert len(seen) == count


def test_enumeration_count_on_a_larger_grassmannian(F16):
    # [4,2]_16 = 257 * 273 subspaces, streamed and counted
    count = sum(1 for _ in enumerate_subspaces(F16, 4, 2))
    assert count == gaussian_binomial(4, 2, 16) == 70161


def test_enumeration_order_is_frozen(F16):
    first = [s.basis for _, s in zip(range(4), enumerate_subspaces(F16, 2, 1))]
    # pivot set {0} first, free entry counts up in element order, then {1}
    assert first[0] == ((1, 0),)
    assert first[1] == ((1, 1),)
    assert first[2] == ((1, 2),)
    all_of_them = list(enumerate_subspaces(F16, 2, 1))
    assert all_of_them[-1].basis == ((0, 1),)


def test_random_access_matches_enumeration(F8):
    listed = list(enumerate_subspaces(F8, 4, 2))
    for i in [0, 1, 17, 100, len(listed) - 1]:
        assert subspace_at(F8, 4, 2, i) == listed[i]
    with pytest.raises(IndexError):
        subspace_at(F8, 4, 2, len(listed))


def test_expansion_linear_and_injective(F16):
    rng = random.Random(1)
    for _ in range(40):
        v = tuple(rng.randrange(16) for _ in range(3))
        w = tuple(rng.randrange(16) for _ in range(3))
        sv = tuple(F16.add(a, b) for a, b in zip(v, w))
        assert expand_vector(F16, sv) == expand_vector(F16, v) ^ expand_vector(F16, w)
        assert unexpand_row(F16, expand_vector(F16, v), 3) == v
    # basis vector e_i with coefficient b_0 expands to a unit vector
    assert expand_vector(F16, (1, 0)) == 1
    assert expand_vector(F16, (0, 1)) == 1 << F16.n


def test_fq_subspace_dims(F16):
    gens = [(b, 0) for b in F16.q_basis]
    S = FqSubspace(F16, 2, gens)
    assert S.dim == 4
    assert not S.spans_ambient
    assert S.contains_vector((7, 0))
    assert not S.contains_vector((0, 1))
    els = list(S.elements())
    assert len(els) == 16 == len(set(els))


def test_intersection_dim_trivials(F16):
    S = FqSubspace(F16, 2, [(b, 0) for b in F16.q_basis])
    T = FqSubspace(F16, 2, [(0, b) for b in F16.q_basis])
    assert intersection_dim(S, S) == S.dim
    assert intersection_dim(S, T) == 0


def test_intersection_dim_against_enumeration_oracle(F8):
    rng = random.Random(4)
    for _ in range(40):
        S = FqSubspace(F8, 2, [tuple(rng.randrange(8) for _ in range(2)) for _ in range(rng.randrange(1, 4))])
        T = FqSubspace(F8, 2, [tuple(rng.randrange(8) for _ in range(2)) for _ in range(rng.randrange(1, 4))])
        expected = int(math.log2(len(set(S.elements()) & set(T.elements()))))
        assert intersection_dim(S, T) == expected


def test_intersection_dim_over_f4():
    F = create_field(2, 2, 3)
    rng = random.Random(6)
    for _ in range(15):
        S = FqSubspace(F, 2, [tuple(rng.randrange(64) for _ in range(2)) for _ in range(2)])
        T = FqSubspace(F, 2, [tuple(rng.randrange(64) for _ in range(2)) for _ in range(2)])
        inter = set(S.elements()) & set(T.elements())
        expected = round(math.log(len(inter), 4))
        assert intersection_dim(S, T) == expected


def test_intersection_rows_spans_the_intersection(F8):
    # packed GF(2) rows over F_8, and index rows over F_64 as an F_4-space
    rng = random.Random(8)
    for F in (F8, create_field(2, 2, 3)):
        for _ in range(20):
            S = FqSubspace(F, 2, [tuple(rng.randrange(F.order) for _ in range(2)) for _ in range(2)])
            T = FqSubspace(F, 2, [tuple(rng.randrange(F.order) for _ in range(2)) for _ in range(2)])
            rows = intersection_rows(F, S.width, S.fq_rows, T.fq_rows)
            assert len(rows) == intersection_dim(S, T)
            vecs = [unexpand_row(F, r, 2) for r in rows]
            for v in vecs:
                assert S.contains_vector(v) and T.contains_vector(v)
            # the rows are the canonical RREF of the intersection
            assert list(FqSubspace(F, 2, vecs).fq_rows) == rows


def test_subspace_fq_rows_have_full_rank(F16):
    H = SubspaceQn.from_vectors(F16, 3, [(1, 2, 3), (0, 1, 7)])
    rows = subspace_fq_rows(F16, H)
    assert len(rows) == H.dim * F16.n
    from rankscatter.linalg import make_rows

    acc = make_rows(F16)
    added = sum(acc.add(r) for r in rows)
    assert added == H.dim * F16.n


def test_sample_determinism_and_full_space(F16):
    a = sample_subspace(F16, 3, 2, 99, 0)
    b = sample_subspace(F16, 3, 2, 99, 0)
    assert a == b and a.dim == 2
    assert sample_subspace(F16, 3, 2, 99, 1) != a
    full = sample_subspace(F16, 3, 3, 1, 0)
    assert full.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = sample_subspace(F16, 3, 0, 1, 0)
    assert zero.dim == 0


def test_sample_pivot_frequencies_are_uniform(F8):
    # pivot-set frequencies of samples 0..N-1 must match their Schubert cell
    # sizes within 5 sigma, where Q is a power of two (no word is rejected)
    # and where it is not
    N = 10_000
    F9 = create_field(3, 1, 2)
    for tower, d, sizes in (
        (F8, 1, {(0,): 64, (1,): 8, (2,): 1}),
        (F9, 2, {(0, 1): 81, (0, 2): 9, (1, 2): 1}),
    ):
        counts = {}
        for i in range(N):
            s = sample_subspace(tower, 3, d, 1000, i)
            counts[s.pivots] = counts.get(s.pivots, 0) + 1
        total = gaussian_binomial(3, d, tower.order)
        assert total == sum(sizes.values())
        for piv, size in sizes.items():
            p = size / total
            sigma = math.sqrt(N * p * (1 - p))
            assert abs(counts.get(piv, 0) - N * p) <= 5 * sigma, (tower.order, piv, counts)


def test_counter_words_are_a_pure_function_of_the_counter():
    from rankscatter.linalg import counter_words

    whole = counter_words(7, 0, 100)
    assert whole.dtype == np.uint64
    assert (counter_words(7, 40, 60) == whole[40:]).all()
    assert (counter_words(8, 0, 100) != whole).all()
    # SplitMix64 seeded with 0: its first output
    assert int(counter_words(0, 0, 1)[0]) == 0xE220A8397B1DCDAF


def test_sample_values_reject_words_above_the_limit(monkeypatch):
    from rankscatter import linalg

    vals, ok = linalg.sample_values(9, 3, 2, 5, 0, 500, 0)
    assert vals.shape == (500, 2, 3) and ok.all()
    assert 0 <= vals.min() and vals.max() < 9
    # a limit a sixteenth below 2^64 rejects about 1 - (15/16)^6 of the samples
    monkeypatch.setattr(linalg, "_word_limit", lambda Q: ((1 << 64) - (1 << 60)) // Q * Q)
    low, ok = linalg.sample_values(9, 3, 2, 5, 0, 500, 0)
    assert (low == vals).all()
    assert 0.2 < 1 - ok.mean() < 0.45
    # a rejected sample is the first accepted full-rank matrix of the later attempts
    F9 = create_field(3, 1, 2)
    for i in np.flatnonzero(~ok)[:20].tolist():
        attempt = 1
        while True:
            again, accepted = linalg.sample_values(9, 3, 2, 5, i, i + 1, attempt)
            if accepted[0] and matrix_rank(F9, again[0].tolist(), 3) == 2:
                break
            attempt += 1
        assert linalg.sample_subspace(F9, 3, 2, 5, i) == SubspaceQn.from_vectors(F9, 3, again[0].tolist())


@pytest.mark.parametrize("Q", [4, 16, 1 << 20, 1 << 62, 1 << 63, 9, 27])
def test_sample_values_are_the_stream_words_mod_q(Q):
    # a power of two is reduced by a mask, any other Q by division
    from rankscatter import linalg

    vals, _ = linalg.sample_values(Q, 3, 2, 5, 10, 410, 1)
    words = linalg.counter_words(linalg.derive_seed(5, "sample", 3, 2, 1), 10 * 6, 400 * 6)
    assert vals.dtype == np.int64
    assert vals.reshape(-1).tolist() == np.remainder(words, np.uint64(Q)).tolist()


def test_sample_values_refuse_fields_past_2_to_the_63():
    # residues at or past 2^63 would read as negative int64 "elements"
    from rankscatter import linalg

    with pytest.raises(ValueError, match="at most 2\\^63 elements"):
        linalg.sample_values(3**40, 2, 1, 0, 0, 4, 0)
    with pytest.raises(ValueError, match="at most 2\\^63 elements"):
        linalg.sample_values(2**66, 2, 1, 0, 0, 4, 0)
    vals, _ = linalg.sample_values(1 << 63, 2, 1, 0, 0, 400, 0)
    assert vals.min() >= 0 and vals.max() >= 1 << 62


def test_serialization_roundtrip(F16):
    H = SubspaceQn.from_vectors(F16, 3, [(1, 5, 9), (0, 1, 2)])
    data = H.serialize()
    assert SubspaceQn.deserialize(F16, 3, data) == H
    S = FqSubspace(F16, 2, [(3, 1), (2, 2)])
    assert FqSubspace.deserialize(F16, 2, S.serialize()) == S


@pytest.mark.parametrize("n", [2, 3, 80, 64, 63, 65, 1 << 16, (1 << 16) - 1, (1 << 16) + 1, (1 << 20) - 1, 1 << 32])
@pytest.mark.parametrize("size", [1, 7, 1000])
def test_bulk_draws_are_the_rand_below_stream(n, size):
    # 2,500 values cross several arrays, so values drawn past one array
    # must begin the next
    blocks = rand_below_blocks(random.Random(n * size), n, size)
    drawn = np.concatenate([next(blocks) for _ in range(-(-2500 // size))])
    rng = random.Random(n * size)
    assert drawn.tolist() == [rand_below(rng, n) for _ in range(len(drawn))]


@pytest.mark.parametrize("n", [0, 1, (1 << 32) + 1])
def test_bulk_draws_refuse_a_range_past_one_word(n):
    with pytest.raises(ValueError):
        next(rand_below_blocks(random.Random(0), n, 4))


# q = 2, an odd prime q, and q = 4 over F_2
PROPERTY_TOWERS = [(2, 1, 4), (3, 1, 2), (2, 2, 2)]


@functools.cache
def _tower(p, s, n):
    return create_field(p, s, n)


@st.composite
def _matrices(draw):
    """(tower, rows, ncols): a matrix of up to 4 rows over a property tower."""
    F = _tower(*draw(st.sampled_from(PROPERTY_TOWERS)))
    ncols = draw(st.integers(1, 5))
    entry = st.integers(0, F.order - 1)
    return F, draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4)), ncols


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_and_nullspace_split_the_columns(matrix):
    F, rows, ncols = matrix
    red, pivots = rref(F, rows, ncols)
    # reduced echelon rows of the same row space
    for i, p in enumerate(pivots):
        assert [r[p] for r in red] == [int(i == j) for j in range(len(red))]
    assert matrix_rank(F, rows + [list(r) for r in red], ncols) == len(pivots)
    kernel = nullspace(F, rows, ncols)
    for v in kernel:
        for r in rows:
            acc = 0
            for a, b in zip(r, v):
                acc = F.add(acc, F.mul(a, b))
            assert acc == 0
    assert matrix_rank(F, kernel, ncols) == len(kernel)
    assert len(pivots) + len(kernel) == ncols


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PROPERTY_TOWERS), st.integers(1, 3), st.data())
def test_expansion_round_trips(psn, k, data):
    F = _tower(*psn)
    v = tuple(data.draw(st.lists(st.integers(0, F.order - 1), min_size=k, max_size=k)))
    assert unexpand_row(F, expand_vector(F, v), k) == v
    # and every row over F_q is the expansion of one vector
    if F.q == 2:
        row = data.draw(st.integers(0, (1 << k * F.n) - 1))
    else:
        row = tuple(data.draw(st.lists(st.integers(0, F.q - 1), min_size=k * F.n, max_size=k * F.n)))
    assert expand_vector(F, unexpand_row(F, row, k)) == row
