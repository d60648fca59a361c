"""Shared fixtures: worked examples transcribed once as cell data, plus
independent brute-force oracles used to pin expected values."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from skyline.contretab import ContreTableau
from skyline.enumgen import enum_ct, enum_ssk_shape
from skyline.errors import NonIntegralCoefficient, NotInSpan
from skyline.fillings import BasementKind, Filling, SkewShape
from skyline.lrrules import coeff_a, coeff_b
from skyline.poly import Polynomial, atom_poly
from skyline.shapes import (Partition, Permutation, WeakComposition,
                            comp_bruhat_geq, partition_of, rearrangements,
                            weak_compositions)


# ---------------------------------------------------------------------------
# worked examples (kept as coordinates, never re-read by eye)


@pytest.fixture
def ssk_standard_example() -> Filling:
    """Standard-basement SSK of shape (2,0,3,2,1) with n=5."""
    return Filling(SkewShape((2, 0, 3, 2, 1)), BasementKind.IDENT,
                   [[1, 1], [], [3, 3, 2], [4, 2], [5]])


@pytest.fixture
def ssk_reversed_example() -> Filling:
    """Reversed-basement SSK of shape (2,0,3,0,1) with n=5."""
    return Filling(SkewShape((2, 0, 3, 0, 1)), BasementKind.REVERSED,
                   [[3, 1], [], [2, 2, 2], [], [1]])


@pytest.fixture
def ssk_large_skew_example() -> Filling:
    """Large-basement skew SSK of shape (3,1,4,2,6)/(2,0,3,1,3); its row
    word is 4212513 and its column word 1254321."""
    return Filling(SkewShape((3, 1, 4, 2, 6), (2, 0, 3, 1, 3)),
                   BasementKind.LARGE, [[3], [1], [5], [2], [4, 2, 1]])


@pytest.fixture
def lrs_example() -> Filling:
    """LR skyline tableau of shape (3,1,4,2,5)/(2,0,3,1,2), column word
    3231321, content (2,2,3)."""
    return Filling(SkewShape((3, 1, 4, 2, 5), (2, 0, 3, 1, 2)),
                   BasementKind.LARGE, [[1], [1], [2], [2], [3, 3, 3]])


@pytest.fixture
def lrk_example() -> Filling:
    """LR skew key of shape (5,1,3,2,4)/(2,0,1,2,3), column word 3323121."""
    return Filling(SkewShape((5, 1, 3, 2, 4), (2, 0, 1, 2, 3)),
                   BasementKind.SHIFTED, [[3, 3, 3], [1], [2, 1], [], [2]])


RESHAPE_SIGMA = (5, 3, 2, 4, 1)


@pytest.fixture
def reshape_expected() -> Filling:
    """Known output of reshaping the LR skew key example to (5,3,2,4,1)."""
    return Filling(SkewShape((5, 3, 2, 4, 1), (3, 2, 1, 2, 0)),
                   BasementKind.LARGE, [[3, 3], [1], [2], [3, 2], [1]])


@pytest.fixture
def ct_example() -> ContreTableau:
    return ContreTableau((4, 4, 2, 1),
                         [[7, 7, 5, 2], [6, 4, 4, 1], [4, 2], [1]])


@pytest.fixture
def skew_ct_example() -> ContreTableau:
    return ContreTableau((4, 4, 2, 1), [[8], [7, 6], [5, 4], [2]],
                         inner=(3, 2))


@pytest.fixture
def lr_ct_example() -> ContreTableau:
    """LR skew contretableau of shape (4,4,2,1)/(3,2), content (1,2,3)."""
    return ContreTableau((4, 4, 2, 1), [[3], [3, 2], [3, 1], [2]],
                         inner=(3, 2))


@pytest.fixture
def column_sorted_pair(ssk_standard_example) -> tuple[Filling, ContreTableau]:
    """A standard-basement SSK and its column-sorted contretableau."""
    ct = ContreTableau((3, 2, 2, 1), [[5, 3, 2], [4, 2], [3, 1], [1]])
    return ssk_standard_example, ct


LRC_EXAMPLE = {
    "beta": (4, 3, 1, 2, 2),
    "alpha": (3, 2, 1),
    "content": (1, 2, 3),
    "count": 4,
    # per class: per-column entry sets, leftmost column first
    "column_sets": {
        (frozenset({2, 3}), frozenset({1, 2}), frozenset({3}), frozenset({3})),
        (frozenset({2, 3}), frozenset({1, 3}), frozenset({2}), frozenset({3})),
        (frozenset({1, 2}), frozenset({2, 3}), frozenset({3}), frozenset({3})),
        (frozenset({1, 3}), frozenset({2, 3}), frozenset({2}), frozenset({3})),
    },
}


# ---------------------------------------------------------------------------
# oracles and sweep domains


def bruhat_closure_oracle(n: int) -> dict[tuple[Permutation, Permutation], bool]:
    """Strong Bruhat order from covering relations (u -> u.t, length +1)."""
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    covers = {u: [] for u in perms}
    for u in perms:
        lu = u.inversions()
        for i in range(n):
            for j in range(i + 1, n):
                v = list(u)
                v[i], v[j] = v[j], v[i]
                v = Permutation(v)
                if v.inversions() == lu + 1:
                    covers[u].append(v)
    leq = {}
    for u in perms:
        seen = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for x in covers[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        for v in perms:
            leq[(u, v)] = v in seen
    return leq


def enum_ssyt(lam, n):
    """Row-weakly-increasing, column-strictly-increasing tableaux; the
    classical counterpart used to cross-check counts."""
    lam = tuple(lam)
    if not lam:
        yield ()
        return
    rows = [[0] * c for c in lam]

    def fill(r, c):
        if r == len(lam):
            yield tuple(tuple(x) for x in rows)
            return
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0 and c < lam[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            yield from fill(nr, nc)

    yield from fill(0, 0)


def skew_shapes(max_outer_size: int, max_n: int):
    """All (outer, inner, n) with len(outer) = n <= max_n, |outer| bounded."""
    for n in range(1, max_n + 1):
        for d in range(0, max_outer_size + 1):
            for outer in weak_compositions(d, n):
                for inner in itertools.product(*[range(p + 1) for p in outer]):
                    yield outer, WeakComposition(inner), n


def all_ssk(max_outer_size: int, max_n: int, kinds=tuple(BasementKind)):
    """Every SSK over the bounded skew-shape domain, all basements."""
    for outer, inner, n in skew_shapes(max_outer_size, max_n):
        for kind in kinds:
            yield from enum_ssk_shape(outer, kind, inner)


def _weight_sum(n: int, weights) -> Polynomial:
    terms: dict[tuple[int, ...], int] = {}
    for w in weights:
        terms[w] = terms.get(w, 0) + 1
    return Polynomial(n, terms)


def atom_oracle(g, n: int) -> Polynomial:
    """Demazure atom as the weight sum over standard-basement (IDENT)
    skyline fillings of shape g: the combinatorial model of the paper,
    against which the operator derivation in skyline.poly is checked."""
    return _weight_sum(n, (f.weight() for f in
                           enum_ssk_shape(g, BasementKind.IDENT)))


def char_oracle(g, n: int) -> Polynomial:
    """Demazure character as the weight sum over reversed-basement skyline
    fillings of shape reverse(g)."""
    return _weight_sum(n, (f.weight() for f in
                           enum_ssk_shape(tuple(reversed(g)),
                                          BasementKind.REVERSED)))


def schur_oracle(lam, n: int) -> Polynomial:
    """Schur polynomial as the weight sum over contretableaux of shape lam
    with entries in [n]."""
    def weight(t):
        e = [0] * n
        for row in t.rows:
            for v in row:
                e[v - 1] += 1
        return tuple(e)
    return _weight_sum(n, (weight(t) for t in enum_ct(lam, n=n)))


def consistency_oracle(delta, gamma, lam) -> bool:
    """The consistency identity summed directly: a pairwise Bruhat test
    and one coefficient count per term, with no memo."""
    delta, gamma, lam = WeakComposition(delta), WeakComposition(gamma), Partition(lam)
    n = len(delta)
    if delta.size != gamma.size + lam.size:
        return True
    lhs = 0
    for alpha in rearrangements(partition_of(delta), n):
        if alpha.contains(gamma) and comp_bruhat_geq(delta, alpha):
            lhs += coeff_b(gamma, lam, alpha)
    rhs = 0
    for beta in rearrangements(partition_of(gamma), n):
        if delta.contains(beta) and comp_bruhat_geq(beta, gamma):
            rhs += coeff_a(beta, lam, delta)
    return lhs == rhs


def expand_in_atoms_solve(p: Polynomial) -> dict[WeakComposition, int]:
    """Reference expansion by exact rational linear solve over the monomial
    basis of each homogeneous component.  Exponential in size; intended as
    an independent oracle for small instances."""
    result: dict[WeakComposition, int] = {}
    for d, comp in sorted(p.degree_components().items()):
        basis = list(weak_compositions(d, p.n))
        index = {tuple(m): r for r, m in enumerate(basis)}
        dim = len(basis)
        rows = [[Fraction(0)] * (dim + 1) for _ in range(dim)]
        for col, g in enumerate(basis):
            for m, c in atom_poly(g, p.n).terms.items():
                rows[index[m]][col] = Fraction(c)
        for m, c in comp.items():
            rows[index[m]][dim] = Fraction(c)
        sol = _solve_exact(rows, dim)
        for g, x in zip(basis, sol):
            if x:
                if x.denominator != 1:
                    raise NonIntegralCoefficient(f"coefficient {x} at {tuple(g)}")
                result[WeakComposition(g)] = int(x)
    return result


def _solve_exact(rows: list[list[Fraction]], dim: int) -> list[Fraction]:
    """Gaussian elimination on an augmented (dim x dim+1) rational system."""
    r = 0
    pivots = []
    for col in range(dim):
        piv = next((i for i in range(r, dim) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(dim):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == dim:
            break
    for i in range(r, dim):
        if rows[i][dim] != 0:
            raise NotInSpan("inconsistent system: polynomial outside atom span")
    sol = [Fraction(0)] * dim
    for i, col in enumerate(pivots):
        sol[col] = rows[i][dim]
    return sol
