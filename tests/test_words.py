import pytest

from conftest import all_ssk, word_str
from skyline.errors import DuplicateInColumn
from skyline.fillings import BasementKind, Filling, SkewShape, weight_monomial
from skyline.words import (col_word, column_sets, content, is_contre_lattice,
                           is_loosely_contre_lattice,
                           is_regular_contre_lattice, loose_word, row_word)


def test_reading_words(ssk_large_skew_example, lrs_example, lrk_example):
    assert word_str(row_word(ssk_large_skew_example)) == "4212513"
    assert word_str(col_word(ssk_large_skew_example)) == "1254321"
    assert word_str(col_word(lrs_example)) == "3231321"
    assert word_str(row_word(lrs_example)) == "3332211"
    assert word_str(col_word(lrk_example)) == "3323121"


def test_empty_words():
    empty = Filling(SkewShape((0,)), BasementKind.IDENT, [[]])
    assert row_word(empty) == ()
    assert col_word(empty) == ()


def test_content():
    assert content((3, 2, 3, 1, 3, 2, 1)) == (2, 2, 3)
    assert content(()) == ()
    assert content((3, 3, 2, 3, 1, 2, 1)) == (2, 2, 3)


def test_is_contre_lattice():
    assert is_contre_lattice((3, 2, 3, 1, 3, 2, 1))
    assert is_contre_lattice(())
    assert not is_contre_lattice((1, 2))
    assert not is_contre_lattice((1, 3, 2))


def test_is_regular_contre_lattice():
    assert is_regular_contre_lattice((3, 2, 3, 1, 3, 2, 1))
    assert not is_regular_contre_lattice((3, 3, 2))
    assert is_regular_contre_lattice((3, 3, 2, 1, 3, 2, 1))
    assert not is_regular_contre_lattice(())


def test_column_sets(lrs_example, lrk_example, reshape_expected):
    assert [set(c) for c in column_sets(lrs_example)] == \
        [{1}, {2}, {1, 3}, {2, 3}, {3}]
    empty = Filling(SkewShape((0, 0)), BasementKind.IDENT, [[], []])
    assert column_sets(empty) == ()
    # reshaping preserves the column sets
    assert column_sets(lrk_example) == column_sets(reshape_expected)


def test_column_sets_rejects_attacking():
    f = Filling(SkewShape((1, 1)), BasementKind.IDENT, [[1], [1]])
    with pytest.raises(DuplicateInColumn):
        column_sets(f)


def test_loosely_contre_lattice(lrs_example):
    assert is_loosely_contre_lattice(lrs_example)
    single = Filling(SkewShape((1,)), BasementKind.IDENT, [[1]])
    assert is_loosely_contre_lattice(single)


def test_loose_equivalence_on_large_basement():
    # contre-lattice column word iff loosely contre-lattice, for every SSK
    # whose basement values all exceed n
    for f in all_ssk(4, 3, kinds=(BasementKind.LARGE,)):
        assert is_contre_lattice(col_word(f)) == is_loosely_contre_lattice(f)


def test_column_sorting_preserves_contre_lattice():
    # on any basement, sorting each column of a contre-lattice word into
    # decreasing order keeps the contre-lattice property
    for f in all_ssk(4, 3):
        if is_contre_lattice(col_word(f)):
            assert is_contre_lattice(loose_word(f))


def test_contents_agree_with_weight():
    for f in all_ssk(4, 3):
        w = weight_monomial(f)
        trimmed = tuple(w[:max((i + 1 for i, x in enumerate(w) if x), default=0)])
        assert tuple(content(row_word(f))) == trimmed
        assert tuple(content(col_word(f))) == trimmed


def test_word_str_large_entries():
    assert word_str((10, 2)) == "10,2"
    assert word_str((1, 2, 9)) == "129"
