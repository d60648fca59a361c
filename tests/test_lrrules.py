import inspect
import sys

import pytest

from conftest import (coeff_a_oracle, coeff_b_oracle, coeff_classical_oracle,
                      coeff_qs_oracle, consistency_oracle)
from skyline import lrrules, poly
from skyline.cli import main
from skyline.errors import ShapeMismatch, SizeMismatch
from skyline.lrrules import (_bruhat_interval, _lr_table, _outer_candidates,
                             coeff_a, coeff_b, coeff_classical, coeff_qs,
                             iter_atom_instances, iter_consistency_instances,
                             iter_qs_instances, pieri_single_box, sweep,
                             verify_atom_theorem, verify_char_theorem,
                             verify_consistency_identity, verify_qs_theorem)
from skyline.poly import (Polynomial, atom_poly, char_poly, clear_caches,
                          qs_poly, schur_poly)
from skyline.shapes import (Partition, WeakComposition, comp_bruhat_geq,
                            compositions, pad, partition_of, partitions,
                            rearrangements, reverse, weak_compositions)


def test_coeff_a():
    assert coeff_a((2, 0, 3, 1, 2), (3, 2, 2), (3, 1, 4, 2, 5)) == 1
    with pytest.raises(ShapeMismatch):
        coeff_a((1, 1), (1,), (1, 0))  # containment fails
    with pytest.raises(ShapeMismatch):
        coeff_a((1, 1), (2,), (2, 1))  # sizes inconsistent
    assert coeff_a((1, 0), (), (1, 0)) == 0  # counting convention


def test_coeff_a_single_box_matches_pieri():
    for n in (2, 3):
        for d in range(0, 3):
            for gamma in weak_compositions(d, n):
                preimages = set(pieri_single_box("atom", gamma))
                for extra in weak_compositions(1, n):
                    delta = WeakComposition(g + e for g, e in zip(gamma, extra))
                    expected = 1 if delta in preimages else 0
                    assert coeff_a(gamma, (1,), delta) == expected


def test_coeff_b():
    assert coeff_b((3, 2, 1, 0, 2), (3, 2, 2), (4, 2, 3, 1, 5)) == 1
    assert coeff_b((1, 0), (), (1, 0)) == 0


def test_coeff_b_schur_case_forces_partition_shape():
    # with the left index a reversed partition, only reversed-partition
    # outer shapes carry nonzero coefficients
    for mu in [(1,), (2,), (1, 1), (2, 1)]:
        n = 3
        gamma = reverse(pad(mu, n))
        for lam in [(1,), (2,), (1, 1)]:
            for extra in weak_compositions(sum(lam), n):
                delta = WeakComposition(g + e for g, e in zip(gamma, extra))
                if coeff_b(gamma, lam, delta):
                    rev = list(reverse(delta))
                    assert rev == sorted(rev, reverse=True)


def test_coeff_qs():
    assert coeff_qs((3, 2, 1), (3, 2, 1), (4, 3, 1, 2, 2)) == 4
    assert coeff_qs((2, 1), (), (2, 1)) == 0
    with pytest.raises(SizeMismatch):
        coeff_qs((1,), (1,), (3,))


def test_coeff_qs_single_box():
    for alpha in [(1,), (2, 1), (1, 1)]:
        preimages = set(pieri_single_box("qs", alpha))
        for beta in compositions(sum(alpha) + 1):
            expected = 1 if beta in preimages else 0
            assert coeff_qs(alpha, (1,), beta) == expected


def test_coeff_classical_small():
    assert coeff_classical((1,), (1,), (2,)) == 1
    assert coeff_classical((1,), (1,), (1, 1)) == 1
    assert coeff_classical((2, 1), (2, 1), (3, 2, 1)) == 2
    total = 0
    for nu in partitions(6):
        if len(nu) >= 2 and nu[0] >= 2 and nu[1] >= 1:
            total += coeff_classical((2, 1), (2, 1), nu)
    assert total == 8
    with pytest.raises(ShapeMismatch):
        coeff_classical((2,), (1,), (1, 1))


def test_coeff_classical_symmetry():
    # symmetry in the two lower indices; the empty factor is excluded since
    # the identity product is handled at the polynomial level, not by counts
    for nsize in range(2, 6):
        for nu in partitions(nsize):
            for msize in range(1, nsize):
                for mu in partitions(msize):
                    if len(mu) > len(nu) or any(
                            m > v for m, v in zip(mu, nu)):
                        continue
                    for lam in partitions(nsize - msize):
                        if len(lam) > len(nu) or any(
                                l > v for l, v in zip(lam, nu)):
                            continue
                        assert coeff_classical(mu, lam, nu) == \
                            coeff_classical(lam, mu, nu)


def test_coeff_classical_equals_char_specialization():
    for nsize in range(0, 6):
        for nu in partitions(nsize):
            for msize in range(0, nsize + 1):
                for mu in partitions(msize):
                    if len(mu) > len(nu) or any(
                            m > v for m, v in zip(mu, nu)):
                        continue
                    for lam in partitions(nsize - msize):
                        n = max(len(nu), len(lam), 1)
                        # the library's table, the brute-force count and
                        # the skew keys at the specialization all agree
                        assert coeff_classical(mu, lam, nu) == \
                            coeff_classical_oracle(mu, lam, nu) == \
                            coeff_b_oracle(reverse(pad(mu, n)), lam, reverse(pad(nu, n)))


def test_pieri_single_box_atoms():
    assert pieri_single_box("atom", (1, 0)) == [(1, 1), (2, 0)]
    assert atom_poly((1, 0), 2) * schur_poly((1,), 2) == \
        atom_poly((2, 0), 2) + atom_poly((1, 1), 2)
    zeros = WeakComposition((0, 0, 0))
    units = pieri_single_box("atom", zeros)
    assert units == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    total = Polynomial.zero(3)
    for d in units:
        total = total + atom_poly(d, 3)
    assert total == schur_poly((1,), 3)


def test_pieri_single_box_qs():
    assert pieri_single_box("qs", (1,)) == [(1, 1), (2,)]
    assert qs_poly((1,), 2) * schur_poly((1,), 2) == \
        qs_poly((1, 1), 2) + qs_poly((2,), 2)
    with pytest.raises(ValueError):
        pieri_single_box("schur", (1,))


def test_verify_atom_theorem_samples():
    assert verify_atom_theorem((1, 0), (1,), 2).ok
    assert verify_atom_theorem((2, 0, 1), (2,), 3).ok
    r = verify_atom_theorem((0, 2), (), 2)
    assert r.ok and r.enumerated == {(0, 2): 1}


def test_verify_char_theorem_samples():
    assert verify_char_theorem((0, 1), (1,), 2).ok
    assert verify_char_theorem((1, 2, 0), (1, 1), 3).ok
    assert verify_char_theorem((2, 1), (), 2).ok


def test_verify_qs_theorem_samples():
    assert verify_qs_theorem((1,), (1,), 2).ok
    assert verify_qs_theorem((2, 1), (2,), 3).ok
    assert verify_qs_theorem((1, 2), (), 3).ok


def test_qs_rectangle_expansion_matches_classical():
    # for a rectangle the QS polynomial is Schur, so its expansion must be
    # the classical one restated composition by composition
    r = verify_qs_theorem((2, 2), (1,), 3)
    assert r.ok
    assert dict(r.enumerated) == {(3, 2): 1, (2, 3): 1, (2, 2, 1): 1,
                                  (2, 1, 2): 1, (1, 2, 2): 1}
    for beta, c in r.enumerated.items():
        assert c == coeff_classical_oracle((2, 2), (1,), partition_of(beta))


def test_verify_consistency_samples():
    assert verify_consistency_identity((2, 0), (1, 0), (1,))
    assert verify_consistency_identity((1, 1), (1, 0), (1,))
    for delta, gamma, lam in iter_consistency_instances(2, 2, 2):
        assert verify_consistency_identity(delta, gamma, lam)


def test_consistency_matches_direct_sums():
    instances = list(iter_consistency_instances(3, 3, 2))
    clear_caches()
    for inst in instances:
        assert verify_consistency_identity(*inst) == consistency_oracle(*inst)
    clear_caches()
    list(sweep("atoms", 3, 3, 2))
    list(sweep("chars", 3, 3, 2))
    for inst in instances:
        assert verify_consistency_identity(*inst) == consistency_oracle(*inst)


# basis letter -> (coefficient oracle, the outer shapes the rule ranges over)
COEFFICIENTS = {
    "A": (coeff_a_oracle, lambda g, lam, n: _outer_candidates(g, lam.size)),
    "k": (coeff_b_oracle, lambda g, lam, n: _outer_candidates(g, lam.size)),
    "S": (coeff_qs_oracle, lambda a, lam, n: (b for b in compositions(a.size + lam.size)
                                              if len(b) <= n)),
}


@pytest.mark.parametrize("label, instances", [
    ("A", iter_atom_instances), ("k", iter_atom_instances),
    ("S", iter_qs_instances)])
def test_tables_match_one_coefficient_per_outer_shape(label, instances,
                                                      cold_caches, monkeypatch):
    # one search per product gives what one count per outer shape gives
    coeff, outers = COEFFICIENTS[label]
    expected = {(shape, lam, n): {shape: 1} if lam.size == 0 else
                {outer: c for outer in outers(shape, lam, n)
                 if (c := coeff(shape, lam, outer))}
                for shape, lam, n in instances(4, 4, 3)}
    for case, table in expected.items():
        assert _lr_table(label, *case) == table, case
    # warm: read from the memo that the atom and character sweeps filled,
    # the S tables from the atom sweep's counts, with no search left
    clear_caches()
    list(sweep("atoms", 4, 4, 3))
    list(sweep("chars", 4, 4, 3))
    monkeypatch.setattr(lrrules, "_lr_counts", None)
    for case, table in expected.items():
        assert _lr_table(label, *case) == table, case


def _past_four_rows(label):
    """Products on 5 and 6 rows: more zero rows, and so more sets of them
    left empty, than a 4/4/3 sweep meets."""
    for n in (5, 6):
        lams = [lam for size in range(4) for lam in partitions(size)
                if len(lam) <= n]
        shapes = ([a for size in range(4) for a in compositions(size)]
                  if label == "S" else
                  [g for size in range(3) for g in weak_compositions(size, n)])
        for shape in shapes:
            for lam in lams:
                yield shape, lam, n


@pytest.mark.parametrize("label", ["A", "k", "S"])
def test_tables_match_coefficients_past_four_rows(label, cold_caches):
    # the tables sum counts over the zero rows that stay empty; each entry
    # must still be one coefficient of its outer shape
    coeff, outers = COEFFICIENTS[label]
    for shape, lam, n in _past_four_rows(label):
        table = {shape: 1} if lam.size == 0 else {
            outer: c for outer in outers(shape, lam, n)
            if (c := coeff(shape, lam, outer))}
        assert _lr_table(label, shape, lam, n) == table, (shape, lam, n)


def test_table_search_does_not_recurse(cold_caches):
    # 300 rows and one cell: every tableau crosses all 300 rows
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        table = _lr_table("A", WeakComposition((0,) * 300), Partition((1,)), 300)
        chars = _lr_table("k", WeakComposition((0,) * 300), Partition((1,)), 300)
    finally:
        sys.setrecursionlimit(limit)
    assert len(table) == 300 and set(table.values()) == {1}
    # kappa_0 * s_1 = s_1 = kappa_(0, ..., 0, 1)
    assert chars == {(0,) * 299 + (1,): 1}


def test_bruhat_intervals_match_pairwise():
    clear_caches()
    for n in range(1, 5):
        for size in range(5):
            for g in weak_compositions(size, n):
                rearr = list(rearrangements(partition_of(g), n))
                assert _bruhat_interval(g, up=True) == tuple(
                    h for h in rearr if comp_bruhat_geq(h, g))
                assert _bruhat_interval(g, up=False) == tuple(
                    h for h in rearr if comp_bruhat_geq(g, h))


def test_clear_caches_starts_cold():
    def run():
        return list(sweep("chars", 2, 2, 1)) + list(sweep("consistency", 2, 2, 1))
    clear_caches()
    first = run()
    assert lrrules._memo and poly._demazure_cache
    clear_caches()
    assert not lrrules._memo and not poly._demazure_cache
    assert run() == first


def test_report_json():
    r = verify_atom_theorem((1, 0), (1,), 2)
    data = r.to_json()
    assert data["ok"] is True
    assert data["enumerated"] == {"1,1": 1, "2,0": 1}
    assert data["first_discrepancy"] is None


def test_sweep_runner_deterministic():
    once = list(sweep("atoms", 2, 2, 1))
    again = list(sweep("atoms", 2, 2, 1))
    assert once == again
    assert all(ok for _, ok, _ in once)
    with pytest.raises(ValueError):
        sweep("nope", 1, 1, 1)


# basis letter -> (verify_*, basis polynomial, `skyline expand` basis,
# coefficient name in lrrules, one product with a nonzero expansion)
RULES = {
    "A": (verify_atom_theorem, atom_poly, "atoms", "coeff_a", ((1, 0), (1,), 2)),
    "k": (verify_char_theorem, char_poly, "chars", "coeff_b", ((0, 1), (1,), 2)),
    "S": (verify_qs_theorem, qs_poly, "qs", "coeff_qs", ((1,), (1,), 2)),
}


@pytest.mark.parametrize("label, instances", [
    ("A", iter_atom_instances), ("k", iter_atom_instances),
    ("S", iter_qs_instances)])
def test_peel_is_exact(label, instances):
    # the peel alone stands for the product: its expansion rebuilds it
    verify, basis = RULES[label][:2]
    for shape, lam, n in instances(3, 3, 2):
        report = verify(shape, lam, n)
        assert report.ok
        rebuilt = Polynomial.zero(n)
        for index, c in report.expanded.items():
            rebuilt = rebuilt + c * basis(index, n)
        assert rebuilt == basis(shape, n) * schur_poly(lam, n)


@pytest.fixture
def cold_caches():
    # a patched coefficient or basis must not leave its tables behind
    clear_caches()
    yield
    clear_caches()


def expand_cli(capsys, label, shape, lam, n):
    code = main(["expand", RULES[label][2], "--shape", ",".join(map(str, shape)),
                 "--lambda", ",".join(map(str, lam)), "--n", str(n)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("label", list(RULES))
def test_wrong_coefficient_fails(label, monkeypatch, capsys, cold_caches):
    verify, _, _, name, (shape, lam, n) = RULES[label]
    outer = min(verify(shape, lam, n).enumerated)
    c = getattr(lrrules, name)(shape, lam, outer)
    # the rule's table, which the verification reads, counts one too many
    row = lrrules._THEOREMS[label]
    table = row[2]
    monkeypatch.setitem(lrrules._THEOREMS, label, row[:2] + (
        lambda *product: {**table(*product), outer: c + 1},) + row[3:])
    clear_caches()
    diff = f"shape {tuple(outer)}: enumerated {c + 1}, expanded {c}"
    report = verify(shape, lam, n)
    assert not report.ok and report.first_discrepancy == diff
    clear_caches()
    code, captured = expand_cli(capsys, label, shape, lam, n)
    assert code == 1
    assert captured.out.splitlines()[-1] == f"FAILED: {diff}"
    assert "Traceback" not in captured.err


def left_justified_atom(a, n):
    return atom_poly(tuple(a) + (0,) * (n - len(a)), n)


@pytest.mark.parametrize("label, name, patched, diff", [
    # x1 * s_1 = x1^2 + x1*x2 is not quasisymmetric
    ("S", "qs_poly", left_justified_atom,
     "no basis element leads with the monomial (2, 0)"),
    # a basis that is not unitriangular: its leading monomials never cancel
    ("k", "char_poly", lambda g, n: 2 * char_poly(g, n),
     "leading monomial (0, 2) failed to cancel"),
    ("A", "atom_poly", lambda g, n: 2 * atom_poly(g, n),
     "leading monomial (1, 1) failed to cancel"),
], ids=["qs", "chars", "atoms"])
def test_product_outside_the_span_fails(label, name, patched, diff, monkeypatch,
                                        capsys, cold_caches):
    verify, _, _, _, (shape, lam, n) = RULES[label]
    monkeypatch.setattr(lrrules, name, patched)
    report = verify(shape, lam, n)
    assert not report.ok and report.expanded == {}
    assert report.first_discrepancy == diff
    code, captured = expand_cli(capsys, label, shape, lam, n)
    assert code == 1
    assert captured.out.splitlines()[-1] == f"FAILED: {diff}"
    assert "Traceback" not in captured.err
