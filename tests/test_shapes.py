import inspect
import itertools
import sys
import time

import pytest
from hypothesis import given, strategies as st

from conftest import (apply_to_positions, bruhat_closure_oracle, bruhat_leq,
                      inversions, min_sorting_perm, rearrangements_oracle)
from skyline.errors import (IncomparableShapes, InvalidShape, NoSuchPart,
                            SizeMismatch)
from skyline.shapes import (Composition, Partition, WeakComposition,
                            comp_bruhat_geq, compositions, pad, parse_sequence,
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
    assert WeakComposition((2, 1)) != WeakComposition((2, 1, 0))
    assert Composition((2, 1)) == (2, 1)


def test_constructors_return_their_own_class_unchanged():
    for cls, parts in ((WeakComposition, (2, 0, 1)), (Composition, (2, 3)),
                       (Partition, (3, 1))):
        shape = cls(parts)
        assert cls(shape) is shape
    lam = Partition((2, 1))
    for cls in (WeakComposition, Composition):
        copy = cls(lam)
        assert type(copy) is cls and copy == lam and copy is not lam


def test_public_functions_validate_plain_tuples():
    for bad in ((1, -1), (1.5,), (True, False)):
        for fn in (WeakComposition, strongof, partition_of, lambda g: pad(g, 3),
                   lambda g: list(rearrangements(g, 3))):
            with pytest.raises(InvalidShape):
                fn(bad)


def _trusted_outputs():
    """Every shape the generators and shape maps build without validation,
    over small bounds."""
    for total in range(5):
        yield from compositions(total)
        yield from partitions(total)
        for length in range(4):
            yield from weak_compositions(total, length)
    for lam in partitions(4):
        for n in range(len(lam), 5):
            for g in rearrangements(lam, n):
                alpha = strongof(g)
                yield from (g, partition_of(g), alpha, reverse(g), pad(g, n + 1),
                            reverse(alpha))
                yield from placements(alpha, n)
                yield from placements(alpha, n, bound=g)


def test_trusted_outputs_pass_their_constructor():
    kinds = set()
    for shape in _trusted_outputs():
        cls = type(shape)
        kinds.add(cls)
        rebuilt = cls(tuple(shape))
        assert type(rebuilt) is cls and rebuilt == shape, shape
    assert kinds == {WeakComposition, Composition, Partition}


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
    for w in itertools.permutations(range(1, n + 1)):
        arranged = apply_to_positions(w, g)
        if all(a >= b for a, b in zip(arranged, arranged[1:])):
            sorters.append(w)
    best = min(map(inversions, sorters))
    return [w for w in sorters if inversions(w) == best]


def test_min_sorting_perm_examples():
    assert min_sorting_perm((3, 2, 1)) == (1, 2, 3)
    assert min_sorting_perm((0, 1)) == (2, 1)
    assert min_sorting_perm((1, 0, 2)) == (2, 3, 1)  # brute forced


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
                arranged = apply_to_positions(min_sorting_perm(g), g)
                assert arranged == tuple(pad(partition_of(g), n))


def test_bruhat_leq_basics():
    e = (1, 2, 3)
    for v in itertools.permutations((1, 2, 3)):
        assert bruhat_leq(e, v)
        assert bruhat_leq(v, v)
    with pytest.raises(SizeMismatch):
        bruhat_leq((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_leq_matches_closure_oracle(n):
    oracle = bruhat_closure_oracle(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    for u in perms:
        for v in perms:
            assert bruhat_leq(u, v) == oracle[(u, v)]


def test_bruhat_leq_partial_order():
    perms = list(itertools.permutations((1, 2, 3, 4)))
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
    # every pair of rearrangements against the rank-matrix oracle
    for n in range(1, 6):
        for size in range(6):
            for lam in partitions(size):
                shapes = list(rearrangements(lam, n))
                for a in shapes:
                    for b in shapes:
                        assert comp_bruhat_geq(b, a) == bruhat_leq(
                            min_sorting_perm(b), min_sorting_perm(a))


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
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(partitions(4))) == 5
    assert sorted(rearrangements((1, 1), 3)) == \
        [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(placements((2, 1), 3, bound=(2, 2, 1))) == \
        [(2, 1, 0), (2, 0, 1), (0, 2, 1)]


def test_rearrangements_match_all_orderings():
    # each distinct ordering once, in strictly decreasing order
    for size in range(7):
        for lam in partitions(size):
            for n in range(7):
                assert list(rearrangements(lam, n)) == \
                    rearrangements_oracle(lam, n), (lam, n)


def test_rearrangements_follow_their_output():
    # 12 compositions out of 12! orderings of (1, 0, ..., 0)
    start = time.perf_counter()
    found = list(rearrangements((1,), 12))
    assert time.perf_counter() - start < 1
    assert found == [(0,) * i + (1,) + (0,) * (11 - i) for i in range(12)]


def test_generators_do_not_recurse():
    # 300 parts: neither generator may recurse per part
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        placed = list(placements((1,) * 300, 301))
        spread = list(weak_compositions(1, 300))
    finally:
        sys.setrecursionlimit(limit)
    assert placed[0] == (1,) * 300 + (0,) and len(placed) == 301
    assert spread[0] == (0,) * 299 + (1,) and len(spread) == 300


def test_placements_skip_dead_ends():
    # 24 ones under a bound with room for 25: a search that places each
    # part wherever it fits visits millions of dead ends
    start = time.perf_counter()
    found = list(placements((1,) * 24, 49, bound=(1,) * 25 + (0,) * 24))
    assert time.perf_counter() - start < 1
    assert len(found) == 25 and found[-1] == (0,) + (1,) * 24 + (0,) * 24


def test_parsing():
    assert parse_sequence("2,0,3,1,2") == (2, 0, 3, 1, 2)
    assert parse_sequence("") == ()
    assert parse_sequence("-") == ()
