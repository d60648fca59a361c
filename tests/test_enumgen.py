import itertools

import pytest

from conftest import LRC_EXAMPLE, RESHAPE_SIGMA, skew_shapes, ssc_oracle
from skyline.enumgen import (_col_word, _lr_counts, _skyline, count_lrc,
                             enum_ct, enum_lrk, enum_lrs, enum_ssc,
                             enum_ssk_shape, lrc_representatives, reshape)
from skyline.errors import NotContreLattice, NotRearrangement, SizeMismatch
from skyline.contretab import ContreTableau, is_ct
from skyline.fillings import BasementKind, Filling, SkewShape, is_ssk
from skyline.shapes import (compositions, partition_of, partitions,
                            rearrangements, strongof, weak_compositions)
from skyline.words import (col_word, column_sets, is_contre_lattice,
                           is_regular_contre_lattice)


def test_enum_ssk_forced_entries():
    only, = enum_ssk_shape((1, 0), BasementKind.IDENT)
    assert only.rows == ((1,), ())
    only, = enum_ssk_shape((0, 1), BasementKind.IDENT)
    assert only.rows == ((), (2,))


def test_enum_ssk_contains_worked_example(ssk_standard_example):
    all_fillings = list(enum_ssk_shape((2, 0, 3, 2, 1), BasementKind.IDENT))
    assert ssk_standard_example in all_fillings


def test_enum_ssk_stream_properties():
    for outer, inner, n in skew_shapes(4, 3):
        for kind in (BasementKind.IDENT, BasementKind.LARGE):
            got = list(enum_ssk_shape(outer, kind, inner))
            assert len(set(got)) == len(got)
            for f in got:
                assert is_ssk(f)
            # determinism
            assert got == list(enum_ssk_shape(outer, kind, inner))


def _brute_rows(lengths, n):
    """Every assignment of [n] to rows of the given lengths, as row lists."""
    for values in itertools.product(range(1, n + 1), repeat=sum(lengths)):
        it = iter(values)
        yield [[next(it) for _ in range(m)] for m in lengths]


def test_enum_ssk_complete_against_brute_force():
    # completeness: every filling of [n]^cells that passes is_ssk comes
    # out, exactly once, with and without an exact content
    for outer, inner, n in skew_shapes(4, 3):
        shape = SkewShape(outer, inner)
        lengths = [o - i for o, i in zip(outer, inner)]
        for kind in BasementKind:
            brute = [f for f in (Filling(shape, kind, rows)
                                 for rows in _brute_rows(lengths, n))
                     if is_ssk(f)]
            got = list(enum_ssk_shape(outer, kind, inner))
            assert len(got) == len(set(got)) and set(got) == set(brute)
            for c in weak_compositions(shape.size, n):
                got = list(enum_ssk_shape(outer, kind, inner, content=c))
                assert len(got) == len(set(got))
                assert set(got) == {f for f in brute if f.weight() == c}


def test_enum_ct_complete_against_brute_force():
    for size in range(0, 6):
        for nu in partitions(size):
            for msize in range(0, size + 1):
                for mu in partitions(msize):
                    if len(mu) > len(nu) or any(m > v for m, v in zip(mu, nu)):
                        continue
                    lengths = [v - m for v, m in
                               zip(nu, tuple(mu) + (0,) * len(nu))]
                    for n in range(1, 4):
                        brute = [t for t in (ContreTableau(nu, rows, mu)
                                             for rows in _brute_rows(lengths, n))
                                 if is_ct(t)]
                        got = list(enum_ct(nu, mu, n=n))
                        assert len(got) == len(set(got))
                        assert set(got) == set(brute)
                        for c in weak_compositions(sum(lengths), n):
                            got = list(enum_ct(nu, mu, n=n, content=c))
                            assert len(got) == len(set(got))
                            assert set(got) == {
                                t for t in brute
                                if tuple(sum(r.count(v) for r in t.rows)
                                         for v in range(1, n + 1)) == c}


def test_enum_ssk_content_filter_matches_postfilter():
    outer, target = (2, 0, 2), (2, 1, 1)
    with_filter = list(enum_ssk_shape(outer, BasementKind.IDENT,
                                      content=target))
    post = [f for f in enum_ssk_shape(outer, BasementKind.IDENT)
            if f.weight() == target]
    assert with_filter == post


def test_enum_query_flags():
    # the search grid's column word (require_regular) keeps the fillings
    # that words.col_word keeps, and reads the same word
    found = 0
    for outer, inner, _ in skew_shapes(4, 3):
        for kind in BasementKind:
            regular = list(enum_ssk_shape(outer, kind, inner,
                                          require_regular=True))
            fillings = list(enum_ssk_shape(outer, kind, inner))
            assert regular == [f for f in fillings
                               if is_regular_contre_lattice(col_word(f))]
            for f in fillings:
                grid = [[0] * (g + 1) + list(row)
                        for g, row in zip(inner, f.rows)]
                assert _col_word(grid, inner, outer) == col_word(f)
            found += len(regular)
    assert found


def test_enum_lrs(lrs_example):
    found = list(enum_lrs((3, 1, 4, 2, 5), (2, 0, 3, 1, 2), (2, 2, 3)))
    assert lrs_example in found
    assert len(found) == 1  # brute-forced count for this shape pair
    assert list(enum_lrs((2, 1), (1, 0), (0, 2))) == []
    assert list(enum_lrs((2, 1), (2, 1), ())) == []


def test_enum_lrk(lrk_example):
    found = list(enum_lrk((5, 1, 3, 2, 4), (2, 0, 1, 2, 3), (2, 2, 3)))
    assert lrk_example in found
    assert len(found) == 1  # brute-forced count for this shape pair
    assert list(enum_lrk((1, 1), (1, 1), ())) == []


def test_free_search_fills_every_row():
    # the table search yields every outer shape with no empty row at once,
    # with entries up to the content's length whatever the number of rows:
    # the fillings of each such shape padded with empty rows to that length
    kinds = (BasementKind.LARGE, BasementKind.SHIFTED)
    for m in range(1, 4):
        for inner in (g for s in range(3) for g in weak_compositions(s, m)):
            for size in range(1, 4):
                for content in (c for r in range(1, 5)
                                for c in weak_compositions(size, r) if c[-1]):
                    pad = (0,) * max(0, len(content) - m)
                    outers = [tuple(map(sum, zip(inner, e)))
                              for e in weak_compositions(size, m)]
                    for kind in kinds:
                        got = sorted(
                            (tuple(delta), tuple(tuple(row[g + 1:d + 1]) for row, g, d
                                                 in zip(grid, inner, delta)))
                            for grid, delta in _skyline(inner, kind, size, content))
                        expected = sorted(
                            (outer, f.rows[:m]) for outer in outers if all(outer)
                            for f in enum_ssk_shape(outer + pad, kind, inner + pad,
                                                    content=content))
                        assert got == expected, (inner, content, kind)
    # fewer rows than entries: one row holds 3, 2, 1 under a basement above
    # them, and its column word 1, 2, 3 is not contre-lattice
    assert [grid[0][1:] for grid, _ in
            _skyline((0,), BasementKind.LARGE, 3, (1, 1, 1))] == [[3, 2, 1]]
    assert _lr_counts((0,), BasementKind.LARGE, (1, 1, 1)) == {}


def test_enum_lrk_partition_shapes_are_skew_ct():
    # with both diagram shapes partitions, dropping the basement leaves a
    # skew contretableau whose column word is regular contre-lattice
    for nu in partitions(4):
        n = len(nu)
        for msize in range(0, 4):
            for mu in partitions(msize):
                if len(mu) > len(nu) or any(m > v for m, v in zip(mu, nu)):
                    continue
                pad_nu = tuple(nu) + (0,) * (n - len(nu))
                pad_mu = tuple(mu) + (0,) * (n - len(mu))
                for c in itertools.product(range(5), repeat=n):
                    if sum(c) != sum(nu) - sum(mu):
                        continue
                    for f in enum_lrk(pad_nu, pad_mu, c):
                        rows = [list(r) for r in f.rows[:len(nu)]]
                        t = ContreTableau(nu, rows, mu)
                        assert is_ct(t)


def test_count_lrc_worked_example():
    reps = lrc_representatives(LRC_EXAMPLE["beta"], LRC_EXAMPLE["alpha"],
                               LRC_EXAMPLE["content"])
    assert len(reps) == LRC_EXAMPLE["count"]
    assert {column_sets(r) for r in reps} == LRC_EXAMPLE["column_sets"]
    assert all(strongof(r.shape.inner) == LRC_EXAMPLE["alpha"] for r in reps)


def test_count_lrc_conventions():
    assert count_lrc((2, 1), (2, 1), ()) == 0
    with pytest.raises(SizeMismatch):
        count_lrc((2, 1), (1,), (1,))


def test_count_lrc_padding_independent():
    cases = [((4, 3, 1, 2, 2), (3, 2, 1), (1, 2, 3)),
             ((2, 2), (2,), (1, 1)),
             ((3, 1, 2), (1, 2), (1, 2))]
    for beta, alpha, c in cases:
        base = count_lrc(beta, alpha, c)
        for extra in (1, 3):
            n = max(len(beta) + len(alpha), len(c)) + extra
            assert count_lrc(beta, alpha, c, n=n) == base


def test_reshape_worked_example(lrk_example, reshape_expected):
    assert reshape(lrk_example, RESHAPE_SIGMA) == reshape_expected


def test_reshape_identity_on_large_basement():
    for f in enum_lrs((3, 1, 2), (1, 0, 2), (1, 2)):
        assert reshape(f, (3, 1, 2)) == f


def test_reshape_single_cell():
    f = Filling(SkewShape((1, 0)), BasementKind.LARGE, [[1], []])
    out = reshape(f, (0, 1))
    assert out.shape.outer == (0, 1) and out.rows == ((), (1,))


def test_reshape_errors(lrk_example):
    with pytest.raises(NotRearrangement):
        reshape(lrk_example, (5, 3, 2, 4, 2))
    not_contre = Filling(SkewShape((2, 0)), BasementKind.LARGE, [[2, 1], []])
    assert not is_contre_lattice(col_word(not_contre))
    with pytest.raises(NotContreLattice):
        reshape(not_contre, (0, 2))


def test_reshape_preserves_structure(lrk_example):
    for sigma in rearrangements(partition_of((5, 1, 3, 2, 4)), 5):
        out = reshape(lrk_example, sigma)
        assert out.shape.outer == sigma
        assert is_ssk(out)
        assert is_contre_lattice(col_word(out))
        assert column_sets(out) == column_sets(lrk_example)


def test_reshape_input_basement_irrelevant(lrk_example):
    # moving to the large basement first does not change any reshaping
    on_large = reshape(lrk_example, lrk_example.shape.outer)
    for sigma in rearrangements(partition_of((5, 1, 3, 2, 4)), 5):
        assert reshape(on_large, sigma) == reshape(lrk_example, sigma)


def test_enum_ssc_matches_flattened_standard_fillings():
    # composition tableaux of shape beta <-> standard-basement fillings
    # whose shape flattens to beta
    from skyline.shapes import placements

    for beta in [(2, 1), (1, 2), (2, 2), (1, 3)]:
        for n in (2, 3, 4):
            if len(beta) > n:
                continue
            ssc = sorted(enum_ssc(beta, n))
            flattened = []
            for g in placements(beta, n):
                for f in enum_ssk_shape(g, BasementKind.IDENT):
                    flattened.append(tuple(r for r, size in
                                           zip(f.rows, g) if size))
            assert ssc == sorted(flattened)


def test_enum_ssc_matches_the_definition():
    def fill_order(t):  # bottom row first, left to right
        return [v for row in reversed(t) for v in row]

    for size in range(6):
        for beta in compositions(size):
            for n in range(5):
                oracle = ssc_oracle(beta, n)
                assert list(enum_ssc(beta, n)) == \
                    sorted(oracle, key=fill_order, reverse=True)
                for c in weak_compositions(size, n):
                    want = [t for t in oracle
                            if all(sum(row.count(v) for row in t) == c[v - 1]
                                   for v in range(1, n + 1))]
                    assert sorted(enum_ssc(beta, n, c)) == want
    assert list(enum_ssc((), 0)) == [()]
    assert list(enum_ssc((), 3)) == [()]
    assert list(enum_ssc((1, 2), 1)) == []
