import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import atom_oracle, char_oracle, expand_in_atoms_solve, schur_oracle
from skyline.errors import (LengthMismatch, NonIntegralCoefficient, NotInSpan,
                            TooManyParts, TooManyRows, VariableCountMismatch)
from skyline.lrrules import _qs_index
from skyline.poly import (Polynomial, _peel, atom_poly, char_poly, clear_caches,
                          expand_in_atoms, qs_poly, schur_poly)
from skyline.shapes import (Permutation, WeakComposition, comp_bruhat_geq,
                            compositions, partition_of, partitions, placements,
                            rearrangements, strongof, weak_compositions)


def poly_of(n, *terms):
    return Polynomial(n, {tuple(e): c for e, c in terms})


# ---------------------------------------------------------------------------
# ring arithmetic


def test_polynomial_basics():
    p = poly_of(2, ((1, 0), 1), ((0, 1), 1))
    assert p * Polynomial.one(2) == p
    assert p - p == Polynomial.zero(2)
    assert not Polynomial.zero(2)
    with pytest.raises(VariableCountMismatch):
        p * Polynomial.one(3)
    with pytest.raises(VariableCountMismatch):
        Polynomial(2, {(1, 0, 0): 1})


@pytest.mark.parametrize("e", [(1, 0, 0), (1,), (1, -1), (1.5, 0)])
def test_public_constructors_validate_exponents(e):
    with pytest.raises(VariableCountMismatch):
        Polynomial(2, {e: 1})
    with pytest.raises(VariableCountMismatch):
        Polynomial.from_json({"n": 2, "terms": [{"e": list(e), "c": 1}]})
    # coefficients must be whole numbers too
    with pytest.raises(NonIntegralCoefficient):
        Polynomial(2, {(1, 0): 0.5})
    with pytest.raises(NonIntegralCoefficient):
        Polynomial.from_json({"n": 2, "terms": [{"e": [1, 0], "c": 0.5}]})


small_polys = st.builds(
    lambda terms: Polynomial(2, {e: c for e, c in terms}),
    st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(-4, 4)), max_size=5))


@settings(max_examples=200)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    # ring operations skip validation: their terms must already be clean
    for result in (p + q, p - q, p * q, p * 0, 0 * p, -p):
        assert 0 not in result.terms.values()
        assert result == Polynomial(result.n, result.terms)


def test_str_rendering():
    assert str(atom_poly((1, 0), 2)) == "x1"
    assert str(Polynomial.zero(2)) == "0"
    assert str(poly_of(2, ((2, 0), 1), ((1, 1), -2), ((0, 0), 3))) == \
        "x1^2 - 2*x1*x2 + 3"


def test_json_roundtrip():
    p = schur_poly((2, 1), 3)
    assert Polynomial.from_json(p.to_json()) == p
    data = p.to_json()
    exps = [t["e"] for t in data["terms"]]
    assert exps == sorted(exps)


# ---------------------------------------------------------------------------
# generating functions


def test_schur_small():
    assert schur_poly((1,), 2) == poly_of(2, ((1, 0), 1), ((0, 1), 1))
    assert schur_poly((), 3) == Polynomial.one(3)
    p = schur_poly((2, 1), 3)
    assert sum(p.terms.values()) == 8
    with pytest.raises(TooManyRows):
        schur_poly((1, 1, 1), 2)


def test_schur_symmetric():
    for lam in [(2, 1), (3,), (2, 2)]:
        p = schur_poly(lam, 3)
        for w in itertools.permutations((1, 2, 3)):
            assert p.permute_variables(Permutation(w)) == p


def test_atom_small():
    assert atom_poly((1, 0), 2) == poly_of(2, ((1, 0), 1))
    assert atom_poly((0, 1), 2) == poly_of(2, ((0, 1), 1))
    assert atom_poly((), 0) == char_poly((), 0) == Polynomial.one(0)
    with pytest.raises(LengthMismatch):
        atom_poly((1, 0), 3)


def test_atoms_sum_to_schur():
    for n in (2, 3):
        for d in range(0, 5):
            for lam in partitions(d):
                if len(lam) > n:
                    continue
                total = Polynomial.zero(n)
                for g in rearrangements(lam, n):
                    total = total + atom_poly(g, n)
                assert total == schur_poly(lam, n)


# The operator derivations in skyline.poly against the tableau weight sums.


def test_atoms_and_chars_match_fillings():
    for n in range(1, 6):
        for d in range(0, 6):
            for g in weak_compositions(d, n):
                assert atom_poly(g, n) == atom_oracle(g, n), g
                assert char_poly(g, n) == char_oracle(g, n), g


def test_all_n6_degree6_atoms_match_fillings():
    shapes = list(weak_compositions(6, 6))
    assert len(shapes) == 462
    for g in shapes:
        assert atom_poly(g, 6) == atom_oracle(g, 6), g


def test_schur_matches_contretableaux():
    for n in range(1, 7):
        for d in range(0, 8):
            for lam in partitions(d):
                if len(lam) <= n:
                    assert schur_poly(lam, n) == schur_oracle(lam, n), (lam, n)


def test_long_operator_chain():
    # 1,199 operator steps, beyond the recursion limit: the walk down to
    # the dominant index must be iterative
    g = (0,) * 1199 + (1,)
    assert atom_poly(g, 1200) == Polynomial.monomial(g)


def test_increasing_atom_is_fast():
    # A_(0,1,...,9) is one monomial; the walk must not build large
    # intermediate polynomials on the way to it
    clear_caches()
    g = tuple(range(10))
    start = time.perf_counter()
    p = atom_poly(g, 10)
    elapsed = time.perf_counter() - start
    assert p == Polynomial.monomial(g)
    assert elapsed < 0.5, f"{elapsed:.2f}s"


def test_char_small():
    assert char_poly((0,) * 3, 3) == Polynomial.one(3)
    # every Schur polynomial is a character: index by the reversed partition
    for n in (2, 3):
        for d in range(0, 5):
            for mu in partitions(d):
                if len(mu) > n:
                    continue
                mu_rev = WeakComposition((0,) * (n - len(mu)) + tuple(reversed(mu)))
                assert char_poly(mu_rev, n) == schur_poly(mu, n)


def test_char_is_bruhat_interval_of_atoms():
    # the decomposition that pins the composition Bruhat convention
    for n in (2, 3):
        for d in range(0, 5):
            for g in weak_compositions(d, n):
                total = Polynomial.zero(n)
                for b in rearrangements(partition_of(g), n):
                    if comp_bruhat_geq(b, g):
                        total = total + atom_poly(b, n)
                assert total == char_poly(g, n)


def test_qs_small():
    assert qs_poly((1,), 2) == schur_poly((1,), 2)
    with pytest.raises(TooManyParts):
        qs_poly((1, 1, 1), 2)


def test_qs_rectangles_are_schur():
    for lam, n in [((2, 2), 3), ((3,), 3), ((1, 1, 1), 3), ((2, 2, 2), 3)]:
        assert qs_poly(lam, n) == schur_poly(lam, n)


def test_qs_sum_to_schur():
    for lam in [(2, 1), (3, 1), (2, 1, 1)]:
        n = 3
        total = Polynomial.zero(n)
        seen = set()
        for beta in {tuple(strongof(g)) for g in rearrangements(lam, n)}:
            if beta not in seen:
                seen.add(beta)
                total = total + qs_poly(beta, n)
        assert total == schur_poly(lam, n)


def test_qs_quasisymmetric():
    for beta, n in [((2, 1), 3), ((1, 2), 3), ((2, 1), 4)]:
        p = qs_poly(beta, n)
        by_flat = {}
        for e, c in p.terms.items():
            by_flat.setdefault(strongof(e), set()).add(c)
        assert all(len(v) == 1 for v in by_flat.values())
        # all placements of each flattening carry the shared coefficient
        for flat, coeffs in by_flat.items():
            c = coeffs.pop()
            for g in placements(flat, n):
                assert p.coefficient(g) == c


def test_qs_stability():
    for beta in [(2, 1), (1, 2), (2, 2)]:
        for n in (3, 4):
            assert qs_poly(beta, n).specialize_last_to_zero() == \
                qs_poly(beta, n - 1)


def test_generating_functions_homogeneous():
    assert schur_poly((2, 1), 3).is_homogeneous()
    assert atom_poly((2, 0, 1), 3).is_homogeneous()
    assert char_poly((1, 2, 0), 3).is_homogeneous()
    assert qs_poly((2, 1), 3).is_homogeneous()


def test_atom_times_schur_example():
    assert atom_poly((1, 0), 2) * schur_poly((1,), 2) == \
        poly_of(2, ((2, 0), 1), ((1, 1), 1))


# ---------------------------------------------------------------------------
# atom expansion


def test_atom_monomials_dominated_by_shape():
    # supports the peeling order: every monomial of an atom has suffix sums
    # bounded by the shape's, and the shape monomial appears exactly once
    for n in (2, 3):
        for d in range(0, 5):
            for g in weak_compositions(d, n):
                p = atom_poly(g, n)
                assert p.coefficient(g) == 1
                for e in p.terms:
                    for k in range(n):
                        assert sum(e[k:]) <= sum(g[k:])


def test_expand_in_atoms_basis_elements():
    for n in (2, 3):
        for d in range(0, 4):
            for g in weak_compositions(d, n):
                assert expand_in_atoms(atom_poly(g, n)) == {g: 1}
    # the same peel in the character and QS bases, with the leading
    # exponents the LR harness maps to their indices
    for n in range(1, 5):
        for d in range(5):
            for g in weak_compositions(d, n):
                assert _peel(char_poly(g, n), WeakComposition, char_poly) == {g: 1}
            for a in compositions(d):
                if len(a) <= n:
                    assert _peel(qs_poly(a, n), _qs_index, qs_poly) == {a: 1}
    with pytest.raises(NotInSpan):  # x1 = A_(1,0) is not quasisymmetric
        _peel(atom_poly((1, 0), 2), _qs_index, qs_poly)


def test_expand_in_atoms_schur():
    for lam, n in [((2, 1), 3), ((2,), 2), ((1, 1), 3)]:
        expansion = expand_in_atoms(schur_poly(lam, n))
        assert expansion == {g: 1 for g in rearrangements(lam, n)}


def test_expand_matches_solve_oracle():
    for n in (2, 3):
        for d in range(1, 4):
            for g in weak_compositions(d, n):
                p = char_poly(g, n)
                assert expand_in_atoms(p) == expand_in_atoms_solve(p)
    p = atom_poly((1, 0, 1), 3) * schur_poly((2,), 3)
    assert expand_in_atoms(p) == expand_in_atoms_solve(p)


def test_atoms_span_monomials():
    # every homogeneous polynomial expands: single monomials suffice since
    # the expansion is linear, and both routes must agree on them
    for n in (2, 3):
        for d in range(0, 5):
            for e in weak_compositions(d, n):
                p = Polynomial.monomial(e)
                expansion = expand_in_atoms(p)
                rebuilt = Polynomial.zero(n)
                for g, c in expansion.items():
                    rebuilt = rebuilt + c * atom_poly(g, n)
                assert rebuilt == p
                assert expansion == expand_in_atoms_solve(p)


def test_expand_single_box_product_nonnegative():
    for n in (2, 3):
        for d in range(0, 3):
            for g in weak_compositions(d, n):
                p = atom_poly(g, n) * schur_poly((1,), n)
                assert all(c >= 0 for c in expand_in_atoms(p).values())


def test_expand_handles_inhomogeneous():
    p = atom_poly((1, 0), 2) + atom_poly((2, 0), 2) + atom_poly((1, 1), 2)
    assert expand_in_atoms(p) == {(1, 0): 1, (2, 0): 1, (1, 1): 1}
