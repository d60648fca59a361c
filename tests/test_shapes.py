import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import bruhat_closure_oracle
from skyline.errors import (IncomparableShapes, InvalidShape, NoSuchPart,
                            SizeMismatch)
from skyline.shapes import (Composition, Partition, Permutation,
                            WeakComposition, bruhat_leq, comp_bruhat_geq,
                            min_sorting_perm, pad, parse_sequence, parse_skew,
                            partition_of, partitions, placements,
                            rearrangements, rem_k, reverse, strongof,
                            weak_compositions)


def test_type_invariants():
    with pytest.raises(ValueError):
        WeakComposition((1, -1))
    with pytest.raises(ValueError):
        Composition((1, 0))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(InvalidShape):  # not truncated to (1, 2)
        Permutation([1.5, 2])
    assert WeakComposition((2, 1)) != WeakComposition((2, 1, 0))
    assert Composition((2, 1)) == (2, 1)


def test_strongof():
    assert strongof((1, 0, 0, 2, 0, 3, 4, 0, 1)) == (1, 2, 3, 4, 1)
    assert strongof((0, 0, 0)) == ()
    assert strongof((2, 0, 3, 1, 2)) == (2, 3, 1, 2)


@given(st.lists(st.integers(1, 6), max_size=5),
       st.lists(st.booleans(), max_size=10))
def test_strongof_undoes_zero_insertion(parts, pattern):
    comp = Composition(parts)
    it = iter(comp)
    padded = []
    for insert_zero in pattern:
        if insert_zero:
            padded.append(0)
        else:
            nxt = next(it, None)
            if nxt is not None:
                padded.append(nxt)
    padded.extend(it)
    assert strongof(WeakComposition(padded)) == comp


def test_reverse():
    assert reverse(Partition((3, 2, 2))) == (2, 2, 3)
    assert reverse(()) == ()
    assert reverse((5, 1, 3, 2, 4)) == (4, 2, 3, 1, 5)
    assert isinstance(reverse(Partition((3, 1))), Composition)
    assert isinstance(reverse(WeakComposition((1, 0))), WeakComposition)


@given(st.lists(st.integers(0, 9), max_size=8))
def test_reverse_involution(parts):
    g = WeakComposition(parts)
    assert reverse(reverse(g)) == g


def test_rem_k_examples():
    assert rem_k(WeakComposition((1, 0, 4, 2, 0, 1, 2, 3)), 2) == \
        (1, 0, 4, 2, 0, 1, 1, 3)
    assert rem_k(Composition((1, 4, 2, 1, 2, 3)), 1) == (1, 4, 2, 2, 3)
    assert rem_k(Composition((3,)), 3) == (2,)
    assert rem_k(Composition((1,)), 1) == ()
    assert rem_k(WeakComposition((1,)), 1) == (0,)
    with pytest.raises(NoSuchPart):
        rem_k(WeakComposition((1, 2)), 3)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.data())
def test_rem_k_drops_one_box(parts, data):
    g = WeakComposition(parts)
    values = sorted({p for p in g if p > 0})
    if not values:
        return
    k = data.draw(st.sampled_from(values))
    assert rem_k(g, k).size == g.size - 1


def test_partition_of():
    assert partition_of((2, 0, 3, 1, 2)) == (3, 2, 2, 1)
    assert partition_of((0, 0)) == ()
    assert partition_of((1, 4, 2, 1, 2, 3)) == (4, 3, 2, 2, 1, 1)


def brute_min_sorter(g):
    """All minimal-length permutations arranging g nonincreasingly."""
    n = len(g)
    sorters = []
    for p in itertools.permutations(range(1, n + 1)):
        w = Permutation(p)
        arranged = w.apply_to_positions(g)
        if all(a >= b for a, b in zip(arranged, arranged[1:])):
            sorters.append(w)
    best = min(w.inversions() for w in sorters)
    return [w for w in sorters if w.inversions() == best]


def test_min_sorting_perm_examples():
    assert min_sorting_perm((3, 2, 1)) == Permutation.identity(3)
    assert min_sorting_perm((0, 1)) == Permutation((2, 1))
    assert min_sorting_perm((1, 0, 2)) == Permutation((2, 3, 1))  # brute forced


def test_min_sorting_perm_brute_force():
    for n in range(1, 5):
        for g in itertools.product(range(3), repeat=n):
            minimal = brute_min_sorter(g)
            assert len(minimal) == 1
            assert min_sorting_perm(g) == minimal[0]


def test_min_sorting_perm_sorts():
    for n in range(1, 5):
        for d in range(0, 5):
            for g in weak_compositions(d, n):
                arranged = min_sorting_perm(g).apply_to_positions(g)
                assert arranged == tuple(pad(partition_of(g), n))


def test_bruhat_leq_basics():
    e = Permutation.identity(3)
    for p in itertools.permutations((1, 2, 3)):
        v = Permutation(p)
        assert bruhat_leq(e, v)
        assert bruhat_leq(v, v)
    with pytest.raises(SizeMismatch):
        bruhat_leq(Permutation((1, 2)), Permutation((1, 2, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_leq_matches_closure_oracle(n):
    oracle = bruhat_closure_oracle(n)
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    for u in perms:
        for v in perms:
            assert bruhat_leq(u, v) == oracle[(u, v)]


def test_bruhat_leq_partial_order():
    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]
    for u in perms:
        for v in perms:
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u == v
    for u in perms:
        for v in perms:
            if not bruhat_leq(u, v):
                continue
            for w in perms:
                if bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


def test_comp_bruhat_geq():
    assert comp_bruhat_geq((2, 1), (2, 1))
    assert comp_bruhat_geq((2, 1), (1, 2))
    assert not comp_bruhat_geq((1, 2), (2, 1))
    with pytest.raises(IncomparableShapes):
        comp_bruhat_geq((2, 1), (1, 1))
    with pytest.raises(SizeMismatch):
        comp_bruhat_geq((2, 1), (2, 1, 0))


def test_comp_bruhat_geq_partial_order_on_rearrangements():
    lam = (2, 1, 0, 0)
    shapes = list(rearrangements(lam, 4))
    for a in shapes:
        assert comp_bruhat_geq(a, a)
        for b in shapes:
            if comp_bruhat_geq(a, b) and comp_bruhat_geq(b, a):
                assert a == b
            for c in shapes:
                if comp_bruhat_geq(a, b) and comp_bruhat_geq(b, c):
                    assert comp_bruhat_geq(a, c)


def test_generators():
    assert len(list(weak_compositions(3, 2))) == 4
    assert len(list(partitions(4))) == 5
    assert sorted(rearrangements((1, 1), 3)) == \
        [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(placements((2, 1), 3, bound=(2, 2, 1))) == \
        [(2, 1, 0), (2, 0, 1), (0, 2, 1)]


def test_parsing():
    assert parse_sequence("2,0,3,1,2") == (2, 0, 3, 1, 2)
    assert parse_sequence("") == ()
    assert parse_sequence("-") == ()
    outer, inner = parse_skew("3,1,4,2,5/2,0,3,1,2")
    assert outer == (3, 1, 4, 2, 5) and inner == (2, 0, 3, 1, 2)
    outer, inner = parse_skew("2,1")
    assert outer == (2, 1) and inner is None
