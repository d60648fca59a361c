"""Littlewood-Richardson coefficients for Demazure atoms, Demazure
characters, and quasisymmetric Schur polynomials, with verification
harnesses that check every expansion two ways: tableau enumeration
against exact polynomial arithmetic.  The harness peels each product in
the rule's own basis, so it needs no change of basis, and builds the
product's table of LR tableau counts by outer shape from searches that
count the outer shapes with no empty row, one search per inner shape and
content, kept in the query memo with no n in the key.  An atom or
character table sums those counts over the zero rows that stay empty,
and a QS table over the placements of its index in m rows for each m,
so the QS rule reads the atom rule's searches.  The coefficients coeff_a,
coeff_b, coeff_qs and coeff_classical are read from these verified tables,
which the memo holds until clear_caches empties it.

The consistency identity rests on the character decomposition into
atoms, kappa_g = sum of atoms over weak compositions weakly above g in
the Bruhat order.  Statements of this identity sometimes reverse the
index; under the basement conventions of this package the reversed form
already fails at n = 2, and the tests pin the form used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .errors import NotInSpan, ShapeMismatch, SizeMismatch
from .enumgen import _lr_counts
from .fillings import BasementKind
from .poly import _caches, _peel, atom_poly, char_poly, qs_poly, schur_poly
from .shapes import (Composition, Partition, WeakComposition, comp_bruhat_geq,
                     compositions, pad, partition_of, partitions, placements,
                     rearrangements, reverse, strongof, weak_compositions)


# ---------------------------------------------------------------------------
# coefficients


def _skyline_coeff(label: str, gamma: Sequence[int], lam: Sequence[int],
                   delta: Sequence[int]) -> int:
    """The coefficient at delta in the verified table of the atom ("A") or
    character ("k") rule, after checking that delta contains gamma, both
    of one length, and |delta| - |gamma| = |lam|; 0 when lam is empty."""
    gamma, lam, delta = WeakComposition(gamma), Partition(lam), WeakComposition(delta)
    if len(delta) != len(gamma):
        raise ShapeMismatch(f"lengths differ: {tuple(gamma)} vs {tuple(delta)}")
    if not delta.contains(gamma):
        raise ShapeMismatch(f"{tuple(delta)} does not contain {tuple(gamma)}")
    if delta.size - gamma.size != lam.size:
        raise ShapeMismatch(
            f"|delta|-|gamma| = {delta.size - gamma.size} != |lam| = {lam.size}")
    if lam.size == 0:
        return 0
    return _lr_table(label, gamma, lam, len(gamma)).get(delta, 0)


def coeff_a(gamma: Sequence[int], lam: Sequence[int], delta: Sequence[int]) -> int:
    """Atom rule coefficient: LR skyline tableaux of shape delta/gamma with
    content reverse(lam), from the verified table, memoized until clear_caches."""
    return _skyline_coeff("A", gamma, lam, delta)


def coeff_b(gamma: Sequence[int], lam: Sequence[int], delta: Sequence[int]) -> int:
    """Character rule coefficient: LR skew keys of shape delta*/gamma* with
    content reverse(lam), from the verified table, memoized until clear_caches."""
    return _skyline_coeff("k", gamma, lam, delta)


def coeff_qs(alpha: Sequence[int], lam: Sequence[int], beta: Sequence[int]) -> int:
    """Quasisymmetric rule coefficient: LR equivalence classes of shape
    beta/alpha with content reverse(lam), from the verified table in
    len(alpha) + |lam| variables, memoized until clear_caches."""
    alpha, lam, beta = Composition(alpha), Partition(lam), Composition(beta)
    if beta.size != alpha.size + lam.size:
        raise SizeMismatch(
            f"|beta| = {beta.size} != |alpha|+|lam| = {alpha.size + lam.size}")
    if lam.size == 0:
        return 0
    return _lr_table("S", alpha, lam, len(alpha) + lam.size).get(beta, 0)


def coeff_classical(mu: Sequence[int], lam: Sequence[int], nu: Sequence[int]) -> int:
    """Classical LR coefficient: the character rule at mu and nu reversed
    and padded to max(len(nu), len(lam), 1) parts, the paper's
    specialization, from the verified table, memoized until clear_caches."""
    mu, lam, nu = Partition(mu), Partition(lam), Partition(nu)
    if len(mu) > len(nu) or any(m > v for m, v in zip(mu, nu)):
        raise ShapeMismatch(f"{tuple(mu)} not contained in {tuple(nu)}")
    n = max(len(nu), len(lam), 1)
    return _skyline_coeff("k", reverse(pad(mu, n)), lam, reverse(pad(nu, n)))


def pieri_single_box(kind: str, shape: Sequence[int]) -> list:
    """All shapes whose single-box removal recovers the input.

    kind "atom": weak compositions delta with rem_k(delta) = shape;
    kind "qs": compositions beta with rem_k(beta) = shape.

    A preimage of the same length is some shape + e_i, and rem_k lowers
    the rightmost part equal to k, so shape + e_i is one exactly when no
    later part of shape equals shape_i + 1.  A composition also drops a
    part lowered to 0, so its longer preimages are shape with a 1
    inserted anywhere after its last 1.
    """
    if kind == "atom":
        shape = WeakComposition(shape)
    elif kind == "qs":
        shape = Composition(shape)
    else:
        raise ValueError(f"kind must be 'atom' or 'qs', got {kind!r}")
    found = [shape[:i] + (p + 1,) + shape[i + 1:]
             for i, p in enumerate(shape) if p + 1 not in shape[i + 1:]]
    if kind == "qs":
        last = max((i for i, p in enumerate(shape) if p == 1), default=-1)
        found += [shape[:i] + (1,) + shape[i:]
                  for i in range(last + 1, len(shape) + 1)]
    return sorted(type(shape)._trusted(b) for b in found)


# ---------------------------------------------------------------------------
# expansion reports


@dataclass
class ExpansionReport:
    """Double-entry record of one product expansion.

    `enumerated` holds the tableau counts, `expanded` the coefficients
    peeled from the product polynomial in the rule's own basis; the
    report passes iff the two maps agree.  A product outside that basis's
    span fails with an empty `expanded`.
    """

    identity: str
    n: int
    ok: bool
    enumerated: dict = field(default_factory=dict)
    expanded: dict = field(default_factory=dict)
    first_discrepancy: str | None = None

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        def keyed(d):
            return {_fmt(k): v for k, v in sorted(d.items())}
        return {"identity": self.identity, "n": self.n, "ok": self.ok,
                "enumerated": keyed(self.enumerated),
                "expanded": keyed(self.expanded),
                "first_discrepancy": self.first_discrepancy}


def _first_diff(enumerated: dict, expanded: dict) -> str | None:
    for k in sorted(set(enumerated) | set(expanded)):
        a, b = enumerated.get(k, 0), expanded.get(k, 0)
        if a != b:
            return f"shape {tuple(k)}: enumerated {a}, expanded {b}"
    return None


def _outer_candidates(gamma: WeakComposition, size: int) -> Iterator[WeakComposition]:
    """Weak compositions containing gamma with |delta| = |gamma| + size."""
    for extra in weak_compositions(size, len(gamma)):
        yield WeakComposition._trusted(map(add, gamma, extra))


# The memo of one query: LR coefficient tables keyed by (basis letter,
# shape, lam, n), the LR tableau counts they sum keyed by (basement, inner
# shape, content), and Bruhat intervals keyed by (up, g).  A sweep meets
# each product under several rules (the consistency identity sums exactly
# the counts of the atom and character rules), and the tables of many
# products, of every n, under one inner shape, so each is counted once.
# poly.clear_caches empties it.
_memo: dict = {}
_caches.append(_memo)


def _bruhat_interval(g: WeakComposition, up: bool) -> tuple[WeakComposition, ...]:
    """The rearrangements h of g with h >= g (`up`) or g >= h, in
    `rearrangements` order."""
    interval = _memo.get((up, g))
    if interval is None:
        interval = _memo[up, g] = tuple(
            h for h in rearrangements(partition_of(g), len(g))
            if (comp_bruhat_geq(h, g) if up else comp_bruhat_geq(g, h)))
    return interval


def _qs_index(e: tuple[int, ...]) -> Composition | None:
    """The composition beta with e = (0, ..., 0, beta), the exponent that
    leads QS_beta, or None when e is not of that form."""
    beta = strongof(e)
    return beta if e[len(e) - len(beta):] == beta else None


def _counts(basement: BasementKind, inner: tuple[int, ...],
            content: tuple[int, ...]) -> dict:
    """_lr_counts, kept in the query memo under a key with no n in it, so
    the products of every n whose tables reach this shape share it."""
    key = (basement, inner, content)
    counts = _memo.get(key)
    if counts is None:
        counts = _memo[key] = _lr_counts(inner, basement, content)
    return counts


def _skyline_table(gamma: Sequence[int], lam: Partition,
                   basement: BasementKind) -> dict:
    """The LR tableau counts of shape delta/gamma on the large or shifted
    basement, by delta: the sum, over the sets of zero rows of gamma that
    stay empty, of the counts on gamma with those rows deleted, whose
    outer shapes have no empty row, read back with the zeros put in.

    An empty row i (gamma_i = delta_i = 0) is in no triple that can fail,
    so deleting it changes no count.  A row above it meets it only in
    type A triples of columns 1..delta_i, so in none, and an empty row
    below it in none either.  A nonempty row j below it meets it in one
    type B triple, (x, b_i, b_j) with x the cell (j, 1), and x <= b_j.
    On the large basement b_i > b_j, so x <= b_j < b_i makes it an
    inversion triple: any set of zero rows may stay empty, and as each
    kept zero row needs a cell, at most |lam| of them are kept.  On the
    shifted basement b_i < b_j, so it is an inversion triple only when
    b_i < x, that is, when x is the basement value b_j of a row with a
    part of gamma, never when x is an entry.  So there a zero row stays
    empty only if every zero row below it does: the empty zero rows are
    the last ones.  The column word does not see empty rows either, and
    the search keeps the basement values above the entries in the same
    order, so each term is a count on the smaller shape alone.

    At least len(lam) - len(parts) zero rows are kept, as a nonzero
    coefficient needs at least len(lam) nonempty rows.  Every monomial of
    s_lam has at least len(lam) nonzero exponents and every term of the
    product is positive, so no monomial of the product has fewer.  The
    basis element at delta leads with x^delta at coefficient 1, so a
    nonzero coefficient puts x^delta in the product.
    """
    n = len(gamma)
    table: dict = {}
    content = reverse(lam)
    parts = [i for i, g in enumerate(gamma) if g]
    zeros = [i for i, g in enumerate(gamma) if not g]
    fewest, most = max(len(lam) - len(parts), 0), min(len(zeros), lam.size)
    if basement is BasementKind.LARGE:
        kept_sets = (kept for r in range(fewest, most + 1)
                     for kept in combinations(zeros, r))
    else:
        kept_sets = (zeros[:r] for r in range(fewest, most + 1))
    for kept in kept_sets:
        rows = sorted(parts + list(kept))
        for d, c in _counts(basement, tuple(gamma[i] for i in rows), content).items():
            delta = [0] * n
            for i, p in zip(rows, d):
                delta[i] = p
            table[tuple(delta)] = c
    return table


def _qs_table(alpha: Composition, lam: Partition, n: int) -> dict:
    """The QS table: LR skyline tableaux of shape delta/gamma with zeros
    trailing in delta, summed over the placements gamma of alpha in n
    rows, by delta without its zeros.  These are the classes that
    count_lrc counts, padded to n rows.

    Such a delta is a composition beta of some length m over n - m empty
    rows, the last rows, which _skyline_table's argument deletes.  So the
    table sums, over m, the counts on the placements of alpha in m rows,
    whose outer shapes with no empty row are the betas themselves.  Each
    of the m - len(alpha) zero rows of a placement needs a cell, and, by
    _skyline_table's argument, m >= len(lam).
    """
    table: dict = {}
    content = reverse(lam)
    for m in range(max(len(alpha), len(lam)), min(n, len(alpha) + lam.size) + 1):
        for gamma in placements(alpha, m):
            for beta, c in _counts(BasementKind.LARGE, gamma, content).items():
                table[beta] = table.get(beta, 0) + c
    return table


# One row per LR rule, keyed by the basis letter of the identity label:
# the index type, the basis, the table of LR tableau counts by outer shape
# (the atom rule on the large basement, the character rule on reversed
# shapes over the shifted basement, the QS rule from the atom rule's
# counts), and a map from an exponent to the index of the basis element
# that leads with it: the atom A_g and the character kappa_g lead with
# x^g, QS_beta with x^(0, ..., 0, beta).  The rows call the module-level
# functions by name when they run, so a wrapper installed on one of those
# names (as perfbench/tracing.py does) sees every call.
_THEOREMS = {
    "A": (WeakComposition,
          lambda g, n: atom_poly(g, n),
          lambda g, lam, n: _skyline_table(g, lam, BasementKind.LARGE),
          WeakComposition._trusted),
    "k": (WeakComposition,
          lambda g, n: char_poly(g, n),
          lambda g, lam, n: {
              d[::-1]: c for d, c in _skyline_table(
                  g[::-1], lam, BasementKind.SHIFTED).items()},
          WeakComposition._trusted),
    "S": (Composition,
          lambda a, n: qs_poly(a, n),
          lambda a, lam, n: _qs_table(a, lam, n),
          _qs_index),
}


def _fmt(x) -> str:
    return str(x) if isinstance(x, int) else ",".join(map(str, x)) or "-"


def _lr_table(label: str, shape: WeakComposition, lam: Partition, n: int
              ) -> dict:
    """The nonzero LR tableau counts of one product, by outer shape: the
    coefficients of basis[shape] * s[lam] in its own basis, from the
    rule's table search.  This is the one place a product's coefficients
    are counted; the table is kept in the query's memo and must not be
    modified."""
    key = (label, shape, lam, n)
    table = _memo.get(key)
    if table is None:
        table = _memo[key] = ({shape: 1} if lam.size == 0
                              else _THEOREMS[label][2](shape, lam, n))
    return table


def _verify(label: str, shape: Sequence[int], lam: Sequence[int], n: int
            ) -> ExpansionReport:
    """Check one LR rule on one product: peel the product polynomial in
    the rule's own basis and compare the coefficients with the tableau
    counts.  A product outside the basis's span fails the check."""
    index_type, basis, _, lead = _THEOREMS[label]
    shape, lam = index_type(shape), Partition(lam)
    ident = f"{label}[{_fmt(shape)}] * s[{_fmt(lam)}]"
    lhs = basis(shape, n) * schur_poly(lam, n)
    enumerated = dict(_lr_table(label, shape, lam, n))
    try:
        expanded = _peel(lhs, lead, basis)
    except NotInSpan as exc:
        return ExpansionReport(ident, n, False, enumerated, {}, str(exc))
    diff = _first_diff(enumerated, expanded)
    return ExpansionReport(ident, n, diff is None, enumerated, expanded, diff)


def verify_atom_theorem(gamma: Sequence[int], lam: Sequence[int], n: int
                        ) -> ExpansionReport:
    """Check atom * Schur = sum of LR-counted atoms against the atom
    expansion of the product polynomial."""
    return _verify("A", gamma, lam, n)


def verify_char_theorem(gamma: Sequence[int], lam: Sequence[int], n: int
                        ) -> ExpansionReport:
    """Check character * Schur = sum of LRK-counted characters against
    the character expansion of the product polynomial."""
    return _verify("k", gamma, lam, n)


def verify_qs_theorem(alpha: Sequence[int], lam: Sequence[int], n: int
                      ) -> ExpansionReport:
    """Check QS * Schur = sum of LRC-counted QS polynomials against the
    quasisymmetric Schur expansion of the product polynomial."""
    return _verify("S", alpha, lam, n)


def verify_consistency_identity(delta: Sequence[int], gamma: Sequence[int],
                                lam: Sequence[int]) -> bool:
    """The linear-independence consequence of the two LR rules: for fixed
    delta and gamma, summing character-rule coefficients over shapes
    between gamma and delta equals summing atom-rule coefficients over
    basements between gamma and delta."""
    delta, gamma, lam = WeakComposition(delta), WeakComposition(gamma), Partition(lam)
    n = len(delta)
    if len(gamma) != n:
        raise ShapeMismatch(f"lengths differ: {tuple(gamma)} vs {tuple(delta)}")
    if delta.size != gamma.size + lam.size:
        return True  # both sides are empty sums
    chars = _lr_table("k", gamma, lam, n)
    lhs = sum(chars.get(alpha, 0) for alpha in _bruhat_interval(delta, up=False))
    rhs = sum(_lr_table("A", beta, lam, n).get(delta, 0)
              for beta in _bruhat_interval(gamma, up=True))
    return lhs == rhs


# ---------------------------------------------------------------------------
# sweeps


def _index_partitions(max_lambda: int, n: int) -> list[Partition]:
    out = []
    for size in range(0, max_lambda + 1):
        for lam in partitions(size):
            if len(lam) <= n:
                out.append(lam)
    return out


def _instances(max_n: int, max_size: int, max_lambda: int,
               shapes: Callable[[int, int], Iterable]) -> Iterator[tuple]:
    """(shape, lam, n) for n <= max_n, shape in shapes(size, n) for size
    <= max_size, and lam a partition of <= max_lambda with <= n parts."""
    for n in range(1, max_n + 1):
        lams = _index_partitions(max_lambda, n)
        for size in range(0, max_size + 1):
            for shape in shapes(size, n):
                for lam in lams:
                    yield shape, lam, n


def iter_atom_instances(max_n: int, max_size: int, max_lambda: int
                        ) -> Iterator[tuple[WeakComposition, Partition, int]]:
    return _instances(max_n, max_size, max_lambda, weak_compositions)


def iter_qs_instances(max_n: int, max_size: int, max_lambda: int
                      ) -> Iterator[tuple[Composition, Partition, int]]:
    return _instances(max_n, max_size, max_lambda, lambda size, n: (
        alpha for alpha in compositions(size) if len(alpha) <= n))


def iter_consistency_instances(max_n: int, max_size: int, max_lambda: int
                               ) -> Iterator[tuple[WeakComposition, WeakComposition, Partition]]:
    for gamma, lam, _ in iter_atom_instances(max_n, max_size, max_lambda):
        for delta in _outer_candidates(gamma, lam.size):
            yield delta, gamma, lam


def _outcome(result: ExpansionReport | bool) -> tuple[bool, str | None]:
    if isinstance(result, ExpansionReport):
        return result.ok, result.first_discrepancy
    return result, None if result else "sides differ"


# suite -> (instances, label fields, check).  The checks call the public
# verify_* names when they run, for the same reason as _THEOREMS.
_SUITES = {
    "atoms": (iter_atom_instances, ("gamma", "lambda", "n"),
              lambda *inst: verify_atom_theorem(*inst)),
    "chars": (iter_atom_instances, ("gamma", "lambda", "n"),
              lambda *inst: verify_char_theorem(*inst)),
    "qs": (iter_qs_instances, ("alpha", "lambda", "n"),
           lambda *inst: verify_qs_theorem(*inst)),
    "consistency": (iter_consistency_instances, ("delta", "gamma", "lambda"),
                    lambda *inst: verify_consistency_identity(*inst)),
}


def sweep(suite: str, max_n: int, max_size: int, max_lambda: int
          ) -> Iterator[tuple[str, bool, str | None]]:
    """Run one verification suite, yielding (instance label, ok, detail)
    as each instance is checked, in deterministic order; an unknown suite
    raises ValueError at once.  No result is kept; until clear_caches the
    memo keeps the tables, the atoms and characters, of each QS index its
    first placement, and each QS polynomial the suite asks for again whose
    placements the atoms suite did not build."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    instances, fields, check = _SUITES[suite]
    return ((" ".join([suite] + [f"{name}={_fmt(x)}" for name, x in zip(fields, inst)]),
             *_outcome(check(*inst)))
            for inst in instances(max_n, max_size, max_lambda))
