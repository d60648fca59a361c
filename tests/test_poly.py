import hashlib
import itertools
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (atom_oracle, char_oracle, expand_in_atoms_solve,
                      product_oracle, schur_oracle)
from skyline.errors import (LengthMismatch, NonIntegralCoefficient, NotInSpan,
                            TooManyParts, TooManyRows, VariableCountMismatch)
from skyline import poly
from skyline.lrrules import _qs_index, sweep, verify_qs_theorem
from skyline.cli import main
from skyline.poly import (Polynomial, _peel, atom_poly, char_poly, clear_caches,
                          expand_in_atoms, qs_poly, schur_poly)
from skyline.shapes import (WeakComposition, comp_bruhat_geq,
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


def test_booleans_are_not_integers():
    with pytest.raises(VariableCountMismatch):
        Polynomial.from_json({"n": 1, "terms": [{"e": [True], "c": 1}]})
    with pytest.raises(NonIntegralCoefficient):
        Polynomial.from_json({"n": 1, "terms": [{"e": [1], "c": True}]})
    # the variable count is a non-negative int, whether or not terms check it
    for n in (True, False, 2.0, -1, "2", None):
        with pytest.raises(VariableCountMismatch):
            Polynomial(n)
    with pytest.raises(VariableCountMismatch):
        Polynomial.from_json({"n": True, "terms": [{"e": [1], "c": 1}]})
    with pytest.raises(VariableCountMismatch):
        Polynomial.from_json({"n": 2.0, "terms": [{"e": [1, 0], "c": 1}]})


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
        for w in itertools.permutations(range(3)):
            assert Polynomial(3, {tuple(e[i] for i in w): c
                                  for e, c in p.terms.items()}) == p


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
            # x_n = 0 gives the polynomial in one variable fewer
            p = qs_poly(beta, n)
            assert Polynomial(n - 1, {e[:-1]: c for e, c in p.terms.items()
                                      if e[-1] == 0}) == qs_poly(beta, n - 1)


def test_qs_poly_memoizes_only_left_justified_atoms():
    # the memo keeps the chain of each QS index padded with zeros; every
    # other placement lives only as long as its qs_poly call, and a QS
    # polynomial is kept only when its index is asked for again, which
    # the anchor's peel never does
    clear_caches()
    p = qs_poly((2, 1, 2), 6)
    atoms = [g for g, atom in poly._demazure_cache if atom]
    assert atoms and all(0 not in g[:len(g) - g.count(0)] for g in atoms)
    # the same sum of atoms, cold and with every placement memoized
    total = Polynomial.zero(6)
    for g in placements((2, 1, 2), 6):
        total = total + atom_poly(g, 6)
    assert p == total == qs_poly((2, 1, 2), 6)
    # so the peel of the n=6 anchor stays small
    clear_caches()
    tracemalloc.start()
    try:
        assert verify_qs_theorem((3, 2, 1), (3, 2, 1), 6).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    clear_caches()
    assert peak < 2 * 2 ** 20, peak


def test_qs_poly_memoizes_an_index_asked_for_again(monkeypatch):
    # a sweep asks for the same QS index again and again: qs_poly keeps
    # the sum from the second request on, so no atom is built more than
    # twice, and it keeps none when the atoms suite memoized the placements
    built = []
    isobaric = poly._isobaric
    def step(p, i, atom):
        built.append((isobaric(p, i, atom), atom))
        return built[-1][0]
    monkeypatch.setattr(poly, "_isobaric", step)
    clear_caches()
    assert all(ok for _, ok, _ in sweep("qs", 3, 3, 2))
    assert built and max(Counter(built).values()) <= 2
    kept = {key: p for key, p in poly._qs_cache.items() if p is not None}
    assert kept
    del built[:]
    assert all(qs_poly(a, n) is p for (a, n), p in kept.items())
    assert not built
    clear_caches()
    assert all(ok for _, ok, _ in sweep("atoms", 3, 3, 2))
    assert all(ok for _, ok, _ in sweep("qs", 3, 3, 2))
    assert all(p is None for p in poly._qs_cache.values())
    clear_caches()


def test_generating_functions_homogeneous():
    for p in (schur_poly((2, 1), 3), atom_poly((2, 0, 1), 3),
              char_poly((1, 2, 0), 3), qs_poly((2, 1), 3)):
        assert len(p.degree_components()) == 1


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


# ---------------------------------------------------------------------------
# terms keyed by packed suffix sums inside skyline.poly


def test_degrees_past_the_common_width():
    # degree 256 and above needs wider key fields than every lower degree
    x1, x2 = Polynomial.monomial((300, 0)), Polynomial.monomial((0, 5))
    for p, q in [(x1, x2), (Polynomial.monomial((200, 0)), Polynomial.monomial((0, 100))),
                 (schur_poly((2, 1), 2), Polynomial.monomial((255, 1)))]:
        assert p * q == product_oracle(p, q)
    assert (x1 * x2).terms == {(300, 5): 1}
    assert atom_poly((300, 0, 1), 3) == atom_oracle((300, 0, 1), 3)
    assert char_poly((0, 256), 2) == char_oracle((0, 256), 2)
    assert len(char_poly((0, 256), 2).terms) == 257


def test_expand_in_atoms_two_degrees():
    p = 2 * atom_poly((0, 2, 1), 3) - atom_poly((1, 0, 0), 3) + atom_poly((0, 0, 1), 3)
    assert p.degree_components().keys() == {1, 3}
    assert expand_in_atoms(p) == {(1, 0, 0): -1, (0, 0, 1): 1, (0, 2, 1): 2}
    assert expand_in_atoms(p) == expand_in_atoms_solve(p)
    # both degrees peel in the QS basis; x1^2 lies outside its span
    q = qs_poly((1,), 2) + atom_poly((2, 0), 2)
    with pytest.raises(NotInSpan) as exc:
        _peel(q, _qs_index, qs_poly)
    assert str(exc.value) == "no basis element leads with the monomial (2, 0)"
    with pytest.raises(NotInSpan) as exc:  # a basis that misses its lead
        _peel(Polynomial.monomial((1, 2)), WeakComposition,
              lambda g, n: Polynomial.monomial((0, 3)))
    assert str(exc.value) == "leading monomial (1, 2) failed to cancel"
    with pytest.raises(NotInSpan) as exc:  # the lowest degree fails first
        _peel(Polynomial.monomial((1, 2)) + Polynomial.monomial((1, 0)), WeakComposition,
              lambda g, n: Polynomial.monomial((0, sum(g))))
    assert str(exc.value) == "leading monomial (1, 0) failed to cancel"


def test_terms_are_exponent_tuples():
    p = atom_poly((0, 2, 1), 3) * schur_poly((1,), 3)
    assert p.terms and all(isinstance(e, tuple) and len(e) == 3 for e in p.terms)
    assert p.coefficient((1, 2, 1)) == p.coefficient([1, 2, 1]) == 2
    assert p.coefficient((1.0, 2, 1)) == 2
    assert all(p.coefficient(e) == c for e, c in p.terms.items())
    # a wrong length, a negative part, a degree past the width of the keys
    assert p.coefficient((1, 2)) == p.coefficient((1, 2, 1, 0)) == 0
    assert Polynomial.one(2).coefficient(()) == Polynomial.one(2).coefficient((0,)) == 0
    assert p.coefficient((2, 3, -1)) == p.coefficient((-1, 3, 2)) == 0
    assert p.coefficient((1.5, 1.5, 1)) == p.coefficient((True, 2, 1)) == 0
    assert Polynomial.monomial((1, 0)).coefficient((-255, 256)) == 0  # packs as x1's key
    assert p.coefficient((256, 0, 0)) == p.coefficient((0, 0, 1 << 20)) == 0
    wide = Polynomial.monomial((300, 0))
    assert wide.coefficient((300, 0)) == 1 and wide.coefficient((0, 1 << 9)) == 0
    assert Polynomial.zero(3).coefficient((0, 0, 0)) == 0
    assert Polynomial.one(0).coefficient(()) == 1


def test_terms_is_a_read_only_view(capsys):
    # writing into the terms of a memoized atom neither succeeds nor
    # changes what later reads of that atom see
    clear_caches()
    p = atom_poly((0, 1), 2)
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 0
    with pytest.raises(TypeError):
        del p.terms[(0, 1)]
    assert dict(p.terms) == {(0, 1): 1}
    assert main("compute atom --shape 0,1 --n 2".split()) == 0
    assert capsys.readouterr().out == "x2\n"
    assert str(atom_poly((0, 1), 2)) == "x2"
    assert not hasattr(p, "__dict__") and Polynomial.__slots__ == ("n", "_w", "_keys")


def test_equal_polynomials_from_every_path_hash_equal():
    for p in (atom_poly((1, 0, 2), 3) * schur_poly((2, 1), 3),
              Polynomial.monomial((300, 0, 2)) * schur_poly((1,), 3)):
        built = Polynomial(p.n, dict(p.terms))
        read = Polynomial.from_json(p.to_json())
        assert p == built == read
        assert hash(p) == hash(built) == hash(read)
    # a cancellation that leaves only low degrees gives the low width back
    low, high = schur_poly((2, 1), 3), Polynomial.monomial((0, 300, 1))
    assert (low + high) - high == low
    assert hash((low + high) - high) == hash(low)


# stdout of each command, as sha256, pinned from the tuple-keyed implementation
PINNED_STDOUT = {
    "expand qs --shape 3,2,1 --lambda 3,2,1 --n 6 --json":
        "97d4334eb624c9412fa717fb95acb4b83e73d3a95e27439ede987896fca67236",
    "expand chars --shape 0,0,1,2,1 --lambda 2,1 --n 5 --json":
        "4d27483dcf7dce799805a67c18bb893499446e7cad670b439bac6e0ebca504dd",
    "compute char --shape 0,2,1,3 --n 4 --json":
        "b6ef5c99bc8a788782a95fd62f8d9f4e2240cade8ab54e392bd73a171e863a5d",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_outputs(capsys, command):
    clear_caches()
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]
