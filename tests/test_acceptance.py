"""Acceptance suite: every criterion runs at its stated tolerance (exact)
and prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete."""

import contextlib
import itertools
import time

from conftest import LRC_EXAMPLE, skew_shapes, word_str
from skyline.contretab import rho, rho_inv
from skyline.enumgen import (_reshape, enum_ct, enum_ssk_shape,
                             lrc_representatives, reshape)
from skyline.fillings import (BasementKind, Filling, SkewShape, is_nonattacking,
                              is_ssk)
from skyline.lrrules import (coeff_b, coeff_classical, sweep,
                             verify_atom_theorem, verify_qs_theorem)
from skyline.poly import (Polynomial, atom_poly, char_poly, clear_caches,
                          qs_poly, schur_poly)
from skyline.shapes import (Composition, WeakComposition, comp_bruhat_geq,
                            pad, partition_of, partitions, rearrangements,
                            rem_k, reverse, strongof, weak_compositions)
from skyline.words import (col_word, column_sets, is_contre_lattice,
                           is_loosely_contre_lattice,
                           is_regular_contre_lattice, row_word)


@contextlib.contextmanager
def criterion(num: int, desc: str, budget: float):
    # cold caches, so that no budget depends on which tests ran before
    clear_caches()
    start = time.perf_counter()
    done = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
        done = True
        print(f"[acceptance {num}] PASS ({elapsed:.2f}s): {desc}")
    finally:
        if not done:
            print(f"[acceptance {num}] FAIL: {desc}")


def test_criterion_1_lrc_class_count():
    with criterion(1, "LR class count 4 on (4,3,1,2,2)/(3,2,1), content (1,2,3)",
                   budget=1.0):
        reps = lrc_representatives(LRC_EXAMPLE["beta"], LRC_EXAMPLE["alpha"],
                                   LRC_EXAMPLE["content"])
        assert len(reps) == 4
        assert {column_sets(r) for r in reps} == LRC_EXAMPLE["column_sets"]


def test_criterion_2_figure_fixtures(ssk_standard_example,
                                     ssk_large_skew_example, lrs_example,
                                     lrk_example):
    with criterion(2, "transcribed fillings validate with exact reading words",
                   budget=1.0):
        assert is_ssk(ssk_standard_example)
        assert is_ssk(ssk_large_skew_example)
        assert word_str(col_word(ssk_large_skew_example)) == "1254321"
        assert word_str(row_word(ssk_large_skew_example)) == "4212513"
        assert is_ssk(lrs_example)
        assert word_str(col_word(lrs_example)) == "3231321"
        assert is_regular_contre_lattice(col_word(lrs_example))
        assert is_ssk(lrk_example)
        assert word_str(col_word(lrk_example)) == "3323121"
        assert is_regular_contre_lattice(col_word(lrk_example))


def test_criterion_3_column_sort_bijection(column_sorted_pair):
    with criterion(3, "column-sorting bijection and its inverse on the "
                      "worked example", budget=1.0):
        filling, ct = column_sorted_pair
        assert rho(filling) == ct
        assert ct.rows == ((5, 3, 2), (4, 2), (3, 1), (1,))
        assert rho_inv(ct, 5) == filling


def test_criterion_4_single_box_removal():
    with criterion(4, "single-box removal on the worked sequences",
                   budget=1.0):
        assert rem_k(WeakComposition((1, 0, 4, 2, 0, 1, 2, 3)), 2) == \
            (1, 0, 4, 2, 0, 1, 1, 3)
        assert rem_k(Composition((1, 4, 2, 1, 2, 3)), 1) == (1, 4, 2, 2, 3)


def test_criterion_5_atom_rule_sweep():
    with criterion(5, "atom rule sweep (n<=3, |shape|<=3, |lambda|<=2) plus "
                      "the size-8 by (3,2,2) instance at n=5", budget=300.0):
        results = sweep("atoms", max_n=3, max_size=3, max_lambda=2)
        assert results and all(ok for _, ok, _ in results)
        big = verify_atom_theorem((2, 0, 3, 1, 2), (3, 2, 2), 5)
        assert big.ok
        assert big.enumerated[WeakComposition((3, 1, 5, 2, 4))] == 1


def test_criterion_6_qs_and_char_rule_sweeps():
    with criterion(6, "quasisymmetric and character rule sweeps plus the "
                      "interval consistency identity", budget=600.0):
        for suite in ("qs", "chars", "consistency"):
            results = sweep(suite, max_n=3, max_size=3, max_lambda=2)
            assert results and all(ok for _, ok, _ in results)
        big = verify_qs_theorem((3, 2, 1), (3, 2, 1), 6)
        assert big.ok
        assert big.enumerated[Composition((4, 3, 1, 2, 2))] == 4


def test_criterion_7_classical_recovery():
    with criterion(7, "classical LR rule recovered from the character rule, "
                      "all outer shapes of size <= 5", budget=60.0):
        for nsize in range(0, 6):
            for nu in partitions(nsize):
                for msize in range(0, nsize + 1):
                    for mu in partitions(msize):
                        if len(mu) > len(nu) or any(
                                m > v for m, v in zip(mu, nu)):
                            continue
                        for lam in partitions(nsize - msize):
                            n = max(len(nu), len(lam), 1)
                            assert coeff_classical(mu, lam, nu) == coeff_b(
                                reverse(pad(mu, n)), lam, reverse(pad(nu, n)))
        expansion = {}
        total = 0
        for nu in partitions(6):
            if len(nu) < 2 or not all(m <= v for m, v in zip((2, 1), nu)):
                continue
            c = coeff_classical((2, 1), (2, 1), nu)
            if c:
                expansion[tuple(nu)] = c
                total += c
        assert total == 8
        assert expansion[(3, 2, 1)] == 2
        # cross-check through the polynomial product at n=3
        prod = schur_poly((2, 1), 3) * schur_poly((2, 1), 3)
        rebuilt = Polynomial.zero(3)
        for nu, c in expansion.items():
            if len(nu) <= 3:
                rebuilt = rebuilt + c * schur_poly(nu, 3)
        assert rebuilt == prod


def test_criterion_8_structural_decompositions():
    with criterion(8, "structural decompositions (atoms, QS, rectangles, "
                      "characters) for all shapes of size <= 4, n <= 4",
                   budget=120.0):
        for n in range(1, 5):
            for d in range(0, 5):
                for lam in partitions(d):
                    if len(lam) > n:
                        continue
                    s = schur_poly(lam, n)
                    total = Polynomial.zero(n)
                    for g in rearrangements(lam, n):
                        total = total + atom_poly(g, n)
                    assert total == s
                    total = Polynomial.zero(n)
                    for beta in sorted({tuple(strongof(g))
                                        for g in rearrangements(lam, n)}):
                        total = total + qs_poly(beta, n)
                    assert total == s
                    if lam and len(set(lam)) == 1:  # rectangles
                        assert qs_poly(lam, n) == s
                    mu_rev = WeakComposition(
                        (0,) * (n - len(lam)) + tuple(reversed(lam)))
                    assert char_poly(mu_rev, n) == s
                for g in weak_compositions(d, n):
                    total = Polynomial.zero(n)
                    for b in rearrangements(partition_of(g), n):
                        if comp_bruhat_geq(b, g):
                            total = total + atom_poly(b, n)
                    assert total == char_poly(g, n)


def _rightmost_minimum(f):
    best = None
    x = min(v for row in f.rows for v in row)
    for i, k in f.data_cells():
        if f.value_at(i, k) == x:
            if best is None or k > best[1] or (k == best[1] and i < best[0]):
                best = (i, k)
    return best


def _matching_fillings(colsets, sigma, n):
    """Exhaustive search for large-basement fillings of overall shape sigma
    with the given column sets that are contre-lattice SSK."""
    t = len(colsets)
    matches = []
    for tau in itertools.product(*[range(s + 1) for s in sigma]):
        percol = []
        ok = True
        for k in range(1, t + 1):
            rows = [i for i in range(1, n + 1) if tau[i - 1] < k <= sigma[i - 1]]
            if len(rows) != len(colsets[k - 1]):
                ok = False
                break
            percol.append(rows)
        if not ok:
            continue
        if any(sigma[i] > t and tau[i] < sigma[i] for i in range(n)):
            continue  # a data cell beyond the last column set
        for assign in itertools.product(
                *[itertools.permutations(sorted(c)) for c in colsets]):
            entries = {}
            for k in range(1, t + 1):
                for i, v in zip(percol[k - 1], assign[k - 1]):
                    entries[(i, k)] = v
            rows = [[entries[(i, k)]
                     for k in range(tau[i - 1] + 1, sigma[i - 1] + 1)]
                    for i in range(1, n + 1)]
            f = Filling(SkewShape(sigma, tau), BasementKind.LARGE, rows)
            if is_ssk(f) and is_contre_lattice(col_word(f)):
                matches.append(f)
    return matches


def test_criterion_9_proposition_suite():
    with criterion(9, "skyline structure propositions, exhaustively to 5 "
                      "cells and n <= 4", budget=300.0):
        decreasing = (BasementKind.REVERSED, BasementKind.LARGE)
        # every SSK up to 5 cells with n <= 4, on all four basements,
        # enumerated once for the checks below
        family = [f for outer, inner, n in skew_shapes(5, 4)
                  for kind in BasementKind
                  for f in enum_ssk_shape(outer, kind, inner)]
        contre = [f for f in family if is_contre_lattice(col_word(f))]

        # every SSK is non-attacking, on all four basements
        for f in family:
            assert is_nonattacking(f)

        # contre-lattice iff loosely contre-lattice when basements exceed n
        for f in family:
            if f.basement is BasementKind.LARGE:
                assert is_contre_lattice(col_word(f)) == \
                    is_loosely_contre_lattice(f)

        # reduction properties of the rightmost minimal cell
        for f in contre:
            if not any(f.rows):
                continue
            i, k = _rightmost_minimum(f)
            assert k == f.shape.outer[i - 1]  # always ends its row
            if f.basement is BasementKind.LARGE or (
                    f.basement in decreasing and not any(f.shape.inner)):
                # no lower row of equal length (needs basement values that
                # beat every entry, or a straight shape)
                assert not any(f.shape.outer[j - 1] == f.shape.outer[i - 1]
                               for j in range(i + 1, f.n + 1))
            # removing the cell keeps a contre-lattice SSK, on any basement
            g = f.remove_cell(i, k)
            assert is_ssk(g)
            assert is_contre_lattice(col_word(g))

        # unique reshaping per rearranged overall shape, with flattening
        # invariance of the resulting basement shapes
        seen = set()
        for y in contre:
            sets = column_sets(y)
            key0 = (sets, tuple(sorted(y.shape.outer)), y.n)
            by_flat = {}
            checked = False
            for sigma in rearrangements(partition_of(y.shape.outer), y.n):
                # reshape validates y once; the other sigmas skip that
                out = _reshape(y, sigma) if checked else reshape(y, sigma)
                checked = True
                assert column_sets(out) == sets
                assert is_ssk(out) and is_contre_lattice(col_word(out))
                by_flat.setdefault(strongof(sigma), set()).add(
                    strongof(out.shape.inner))
                key = key0 + (tuple(sigma),)
                if key not in seen:
                    seen.add(key)
                    matches = _matching_fillings(sets, tuple(sigma), y.n)
                    assert matches == [out]
            assert all(len(v) == 1 for v in by_flat.values())

        # reversed row word regular contre-lattice iff column word is,
        # over skew contretableaux with at most 5 cells
        for n in range(1, 5):
            for nsize in range(0, 7):
                for nu in partitions(nsize):
                    if len(nu) > 4:
                        continue
                    for msize in range(max(0, nsize - 5), nsize + 1):
                        for mu in partitions(msize):
                            if len(mu) > len(nu) or any(
                                    m > v for m, v in zip(mu, nu)):
                                continue
                            for t in enum_ct(nu, mu, n=n):
                                rev = tuple(row_word(t))[::-1]
                                assert is_regular_contre_lattice(rev) == \
                                    is_regular_contre_lattice(col_word(t))


def test_criterion_10_n6_qs_instance():
    with criterion(10, "quasisymmetric rule on QS(3,2,1) * s(3,2,1) at n=6, "
                       "from cold caches", budget=5.0):
        report = verify_qs_theorem((3, 2, 1), (3, 2, 1), 6)
        assert report.ok
        assert report.enumerated == report.expanded
