"""Exact sparse integer polynomials in x_1..x_n and the combinatorial
generating functions built from tableau enumeration: Schur polynomials,
Demazure atoms, Demazure characters, and quasisymmetric Schur polynomials.

All coefficients are exact Python integers; equality is structural.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import (LengthMismatch, NotInSpan, TooManyParts, TooManyRows,
                     VariableCountMismatch)
from .enumgen import BasementKind, enum_ct, enum_ssk_shape
from .shapes import Composition, Partition, WeakComposition, placements


class Polynomial:
    """A polynomial in x_1..x_n keyed by dense exponent vectors.

    Zero coefficients are never stored, so `==` is exact structural
    equality.  Instances are immutable by convention; all operations
    return new values.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                if c == 0:
                    continue
                e = tuple(e)
                if len(e) != n or any(x < 0 for x in e):
                    raise VariableCountMismatch(
                        f"exponent {e} invalid for {n} variables")
                clean[e] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, e: Sequence[int], c: int = 1, n: int | None = None
                 ) -> "Polynomial":
        e = tuple(e)
        return cls(len(e) if n is None else n, {e: c})

    # -- ring operations -------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise VariableCountMismatch(f"{self.n} != {other.n} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Polynomial(self.n, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure --------------------------------------------------------

    def coefficient(self, e: Sequence[int]) -> int:
        return self.terms.get(tuple(e), 0)

    def degree_components(self) -> dict[int, dict[tuple[int, ...], int]]:
        """Split into homogeneous components keyed by total degree."""
        comps: dict[int, dict[tuple[int, ...], int]] = {}
        for e, c in self.terms.items():
            comps.setdefault(sum(e), {})[e] = c
        return comps

    def is_homogeneous(self) -> bool:
        return len(self.degree_components()) <= 1

    def specialize_last_to_zero(self) -> "Polynomial":
        """Set x_n = 0 and forget the last variable."""
        out = {e[:-1]: c for e, c in self.terms.items() if e[-1] == 0}
        return Polynomial(self.n - 1, out)

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Apply x_i -> x_{perm(i)} (perm in one-line notation, 1-based)."""
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ne = [0] * self.n
            for i, x in enumerate(e):
                ne[perm[i] - 1] = x
            out[tuple(ne)] = c
        return Polynomial(self.n, out)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i + 1}" if x == 1 else f"x{i + 1}^{x}"
                for i, x in enumerate(e) if x)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial(n={self.n}, {str(self)})"

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"e": list(e), "c": c} for e, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data: dict | str) -> "Polynomial":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["n"], {tuple(t["e"]): t["c"] for t in data["terms"]})


def _weight_sum(n: int, weights: Iterable[tuple[int, ...]]) -> Polynomial:
    terms: dict[tuple[int, ...], int] = {}
    for w in weights:
        terms[w] = terms.get(w, 0) + 1
    return Polynomial(n, terms)


def _ct_weight(rows: Iterable[Sequence[int]], n: int) -> tuple[int, ...]:
    e = [0] * n
    for row in rows:
        for v in row:
            e[v - 1] += 1
    return tuple(e)


def schur_poly(lam: Sequence[int], n: int) -> Polynomial:
    """Schur polynomial s_lam(x_1..x_n), via contretableau enumeration."""
    lam = Partition(lam)
    if len(lam) > n:
        raise TooManyRows(f"partition {tuple(lam)} has more than {n} rows")
    return _weight_sum(n, (_ct_weight(t.rows, n) for t in enum_ct(lam, n=n)))


@lru_cache(maxsize=None)
def _atom_poly_cached(g: tuple[int, ...], n: int) -> Polynomial:
    weights = (f.weight() for f in enum_ssk_shape(g, BasementKind.IDENT))
    return _weight_sum(n, weights)


def atom_poly(g: Sequence[int], n: int) -> Polynomial:
    """Demazure atom: weight sum over standard-basement fillings of shape g."""
    g = WeakComposition(g)
    if len(g) != n:
        raise LengthMismatch(f"shape {tuple(g)} must have exactly n={n} parts")
    return _atom_poly_cached(tuple(g), n)


@lru_cache(maxsize=None)
def _char_poly_cached(g: tuple[int, ...], n: int) -> Polynomial:
    shape = tuple(reversed(g))
    weights = (f.weight() for f in enum_ssk_shape(shape, BasementKind.REVERSED))
    return _weight_sum(n, weights)


def char_poly(g: Sequence[int], n: int) -> Polynomial:
    """Demazure character: weight sum over reversed-basement fillings of
    shape reverse(g)."""
    g = WeakComposition(g)
    if len(g) != n:
        raise LengthMismatch(f"shape {tuple(g)} must have exactly n={n} parts")
    return _char_poly_cached(tuple(g), n)


def qs_poly(a: Sequence[int], n: int) -> Polynomial:
    """Quasisymmetric Schur polynomial: the sum of atoms over all length-n
    weak compositions flattening to a."""
    a = Composition(a)
    if len(a) > n:
        raise TooManyParts(f"composition {tuple(a)} has more than {n} parts")
    out = Polynomial.zero(n)
    for g in placements(a, n):
        out = out + atom_poly(g, n)
    return out


def _suffix_key(e: Sequence[int]) -> tuple[int, ...]:
    """Suffix sums (e_k + ... + e_n) for k = 2..n, the triangularity order."""
    out = []
    total = 0
    for x in reversed(e[1:]):
        total += x
        out.append(total)
    return tuple(reversed(out))


def expand_in_atoms(p: Polynomial) -> dict[WeakComposition, int]:
    """Write p as an integer combination of Demazure atoms.

    Works per homogeneous component by peeling the monomial whose
    exponent vector is maximal in suffix-sum dominance: every monomial
    of an atom indexed by g is dominated by g (entries of row i never
    exceed i), with x^g itself appearing exactly once, so the peeled
    coefficient is the true expansion coefficient at every step.
    """
    result: dict[WeakComposition, int] = {}
    for _, comp in sorted(p.degree_components().items()):
        work = dict(comp)
        rounds = 0
        while work:
            rounds += 1
            if rounds > 10 ** 6:
                raise NotInSpan("atom expansion did not terminate")
            e = max(work, key=_suffix_key)
            c = work[e]
            atom = atom_poly(WeakComposition(e), p.n)
            for m, cm in atom.terms.items():
                nc = work.get(m, 0) - c * cm
                if nc:
                    work[m] = nc
                else:
                    work.pop(m, None)
            if e in work:
                raise NotInSpan(f"leading monomial {e} failed to cancel")
            result[WeakComposition(e)] = c
    return result


def clear_caches():
    """Drop memoized generating functions (mostly useful in benchmarks)."""
    _atom_poly_cached.cache_clear()
    _char_poly_cached.cache_clear()
