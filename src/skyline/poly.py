"""Exact sparse integer polynomials in x_1..x_n and the generating
functions of the paper: Schur polynomials, Demazure atoms, Demazure
characters, and quasisymmetric Schur polynomials.

Atoms and characters come from the Demazure operators (isobaric divided
differences), Schur polynomials are the characters at increasing indices,
and quasisymmetric Schur polynomials are sums of atoms.  No tableau is
enumerated here: the skyline-filling and contretableau enumerators, which
count the LR coefficients, serve as the test oracle for these
polynomials, so each LR rule is checked against an independent
derivation.

All coefficients are exact Python integers; equality is structural.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add
from typing import Callable, Mapping, Sequence

from .errors import (LengthMismatch, NonIntegralCoefficient, NotInSpan,
                     TooManyParts, TooManyRows, VariableCountMismatch)
from .shapes import Composition, Partition, WeakComposition, _as_ints, placements


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
                try:
                    (c,) = _as_ints((c,))
                except (ValueError, OverflowError):
                    raise NonIntegralCoefficient(
                        f"coefficient {c!r} is not an integer") from None
                if c == 0:
                    continue
                try:
                    e = _as_ints(e)
                    ok = len(e) == n and all(x >= 0 for x in e)
                except (ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise VariableCountMismatch(
                        f"exponent {tuple(e)} invalid for {n} variables")
                clean[e] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """Wrap terms this module built itself, without validation: every
        exponent is an n-tuple of nonnegative ints, no coefficient is 0,
        and the dict is not shared."""
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

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
        return Polynomial._trusted(self.n, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.n)
            return Polynomial._trusted(
                self.n, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return Polynomial._trusted(self.n, {e: c for e, c in out.items() if c})

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


def _isobaric(p: Polynomial, i: int, atom: bool) -> Polynomial:
    """pi_i p, or pi-bar_i p = pi_i p - p when `atom`, for 0-based i.

    pi_i f = (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1}) is the isobaric
    divided difference.  On x^e with (e_i, e_{i+1}) = (a, b) it gives the
    string x_i^a x_{i+1}^b + ... + x_i^b x_{i+1}^a when a >= b, and minus
    the monomials strictly between the two ends when a < b.
    """
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for e, c in p.terms.items():
        a, b = e[i], e[i + 1]
        head, tail = e[:i], e[i + 2:]
        if a >= b:  # (a - k, b + k) for k = 0 (pi_i only) .. a - b
            for k in range(1 if atom else 0, a - b + 1):
                m = head + (a - k, b + k) + tail
                out[m] = get(m, 0) + c
        else:  # -(a + k, b - k) for k = 0 (pi-bar_i only) .. b - a - 1
            for k in range(0 if atom else 1, b - a):
                m = head + (a + k, b - k) + tail
                out[m] = get(m, 0) - c
    return Polynomial._trusted(p.n, {m: c for m, c in out.items() if c})


# Demazure polynomials computed so far, keyed by (index, is_atom).  Every
# index met on the way from a requested one down to its dominant
# rearrangement is kept, so related indices share their work.
_demazure_cache: dict[tuple[tuple[int, ...], bool], Polynomial] = {}


def _demazure(g: tuple[int, ...], atom: bool) -> Polynomial:
    """The atom A_g (`atom`) or the character kappa_g, from operators.

    Both are x^g when g weakly decreases.  Otherwise, at an ascent i of g
    (g_i < g_{i+1}), A_g = pi-bar_i A_{s_i g} and kappa_g = pi_i
    kappa_{s_i g} (Mason, arXiv:0707.4267; Lascoux-Schuetzenberger, "Keys
    and standard bases").  Any ascent gives the same polynomial; the one
    with the largest g_{i+1} (the first such) keeps the intermediate
    polynomials small, where the first ascent can build one of 132,802
    terms on the way to the monomial A_(0,1,...,9).  The chain is walked
    iteratively, so no index meets the recursion limit.
    """
    chain = []
    while (g, atom) not in _demazure_cache:
        i = max((i for i in range(len(g) - 1) if g[i] < g[i + 1]),
                key=lambda i: g[i + 1], default=None)
        if i is None:
            _demazure_cache[g, atom] = Polynomial._trusted(len(g), {g: 1})
            break
        chain.append((g, i))
        g = g[:i] + (g[i + 1], g[i]) + g[i + 2:]
    p = _demazure_cache[g, atom]
    for h, i in reversed(chain):
        p = _demazure_cache[h, atom] = _isobaric(p, i, atom)
    return p


def schur_poly(lam: Sequence[int], n: int) -> Polynomial:
    """Schur polynomial s_lam(x_1..x_n): the Demazure character at the
    increasing rearrangement of lam padded to n parts."""
    lam = Partition(lam)
    if len(lam) > n:
        raise TooManyRows(f"partition {tuple(lam)} has more than {n} rows")
    return _demazure((0,) * (n - len(lam)) + tuple(reversed(lam)), False)


def atom_poly(g: Sequence[int], n: int) -> Polynomial:
    """Demazure atom A_g, from the operators pi-bar_i."""
    g = WeakComposition(g)
    if len(g) != n:
        raise LengthMismatch(f"shape {tuple(g)} must have exactly n={n} parts")
    return _demazure(tuple(g), True)


def char_poly(g: Sequence[int], n: int) -> Polynomial:
    """Demazure character kappa_g, from the operators pi_i."""
    g = WeakComposition(g)
    if len(g) != n:
        raise LengthMismatch(f"shape {tuple(g)} must have exactly n={n} parts")
    return _demazure(tuple(g), False)


def qs_poly(a: Sequence[int], n: int) -> Polynomial:
    """Quasisymmetric Schur polynomial: the sum of atoms over all length-n
    weak compositions flattening to a."""
    a = Composition(a)
    if len(a) > n:
        raise TooManyParts(f"composition {tuple(a)} has more than {n} parts")
    terms: dict[tuple[int, ...], int] = {}
    get = terms.get
    for g in placements(a, n):
        for e, c in atom_poly(g, n).terms.items():
            terms[e] = get(e, 0) + c  # atoms are positive: no term cancels
    return Polynomial._trusted(n, terms)


def _heap_key(e: tuple[int, ...]) -> tuple[int, ...]:
    """Negated suffix sums (e_k + ... + e_n) for k = 2..n: the smallest
    key is the largest monomial in the triangularity order."""
    return tuple(accumulate(-x for x in reversed(e[1:])))[::-1]


def _peel(p: Polynomial, lead: Callable[[tuple[int, ...]], object],
          basis: Callable[[object, int], Polynomial]) -> dict:
    """Write p in a basis that is unitriangular against the monomials.

    `lead(e)` is the index of the basis element whose largest monomial is
    x^e, or None when no element leads with it; `basis(index, n)` is that
    element.  Each homogeneous component is peeled from the top: the
    monomial whose exponent is maximal in suffix-sum dominance can only
    come from the element it leads, which has coefficient 1 there, so
    its coefficient in p is the expansion coefficient.  The candidates
    sit in a heap; an entry whose monomial has cancelled is skipped when
    it comes up.  Raises NotInSpan when p is not in the span.
    """
    result: dict = {}
    for _, comp in sorted(p.degree_components().items()):
        work = dict(comp)
        heap = [(_heap_key(e), e) for e in work]
        heapify(heap)
        rounds = 0
        while heap:
            e = heappop(heap)[1]
            c = work.get(e)
            if c is None:
                continue
            rounds += 1
            if rounds > 10 ** 6:
                raise NotInSpan("the expansion did not terminate")
            index = lead(e)
            if index is None:
                raise NotInSpan(f"no basis element leads with the monomial {e}")
            for m, cm in basis(index, p.n).terms.items():
                old = work.get(m)
                nc = (old or 0) - c * cm
                if not nc:
                    del work[m]
                else:
                    if old is None:
                        heappush(heap, (_heap_key(m), m))
                    work[m] = nc
            if e in work:
                raise NotInSpan(f"leading monomial {e} failed to cancel")
            result[index] = c
    return result


def expand_in_atoms(p: Polynomial) -> dict[WeakComposition, int]:
    """Write p as an integer combination of Demazure atoms.  The atom
    A_g leads with x^g: every monomial of it is dominated by g (entries
    of row i never exceed i), with x^g itself appearing exactly once."""
    return _peel(p, WeakComposition._trusted, atom_poly)


# Every memo of the package, so that clear_caches reaches them all; a module
# that keeps one appends it here.
_caches: list[dict] = [_demazure_cache]


def clear_caches():
    """Empty every memo: the Demazure polynomials here, and the LR
    coefficient tables and Bruhat intervals of `lrrules`.  Afterwards a
    query starts cold, as in a fresh process."""
    for cache in _caches:
        cache.clear()
