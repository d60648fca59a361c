"""Exact sparse integer polynomials in x_1..x_n and the generating
functions of the paper: Schur polynomials, Demazure atoms, Demazure
characters, and quasisymmetric Schur polynomials.

Atoms and characters come from the Demazure operators (isobaric divided
differences), Schur polynomials are the characters at increasing indices,
and quasisymmetric Schur polynomials are sums of atoms.  Until
clear_caches, the memo keeps the operator chains of the atoms and
characters asked for and of each QS index's first placement, and each QS
polynomial asked for again whose placements were not all in it: a peel
asks for each index once, a sweep again and again.  No tableau is
enumerated here: the skyline-filling and contretableau enumerators, which
count the LR coefficients, serve as the test oracle for these
polynomials, so each LR rule is checked against an independent
derivation.

All coefficients are exact Python integers; equality is structural.

Inside this module a monomial x^e in n variables is one int: with
S_k = e_k + ... + e_n, its key is the sum of S_k << (w * (n - k)) for
k = 1..n, so the degree S_1 sits in the top field.  Every field is below
2**w, where the width w is 8 for every polynomial of degree below 256 and
grows only when a degree needs it.  Adding keys multiplies monomials, as
no field carries; the Demazure operators move mass between x_i and
x_{i+1}, which changes only the field S_{i+1}; and the order of the ints
is the order of the peel: degree first, then the suffix sums
lexicographically, which extends suffix-sum dominance, the order in
which each basis here is unitriangular (see `_peel`).  Exponent tuples
stay at the public edge: `Polynomial.terms`, a read-only view decoded
per read, and every argument and result outside this module use them.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import (LengthMismatch, NonIntegralCoefficient, NotInSpan,
                     TooManyParts, TooManyRows, VariableCountMismatch)
from .shapes import Composition, Partition, WeakComposition, _as_ints, placements


# The field width of every polynomial whose degrees are all below 2**_W0.
_W0 = 8


def _width(degree: int) -> int:
    """The field width of a polynomial of largest degree `degree`: _W0
    bits below 2**_W0, else just enough bits for the degree."""
    return max(_W0, degree.bit_length())


def _pack(e: Sequence[int], w: int) -> int:
    """The key of x^e: the suffix sums e_k + ... + e_n, each in a w-bit
    field, the whole degree (k = 1) in the top one."""
    key = s = shift = 0
    for x in reversed(e):
        s += x
        key |= s << shift
        shift += w
    return key


def _unpack(key: int, n: int, w: int) -> tuple[int, ...]:
    """The exponent vector of a w-bit key in n variables."""
    mask = (1 << w) - 1
    e = [0] * n
    below = 0
    for j in range(n - 1, -1, -1):
        s = key & mask
        e[j] = s - below
        below = s
        key >>= w
    return tuple(e)


def _degree(key: int, n: int, w: int) -> int:
    """The degree of a w-bit key in n variables: its top field."""
    return key >> (w * (n - 1)) if n else 0


def _repack(keys: dict[int, int], n: int, w: int, to: int) -> dict[int, int]:
    """w-bit keys in n variables, repacked to width `to`."""
    return {_pack(_unpack(k, n, w), to): c for k, c in keys.items()}


class Polynomial:
    """A polynomial in x_1..x_n.

    Each term is keyed by one int that packs the exponent's suffix sums
    (see the module docstring); those keys are all it holds, and `terms`
    is a read-only view decoded from them on each read.  No coefficient
    is 0 and the field width is a function of the largest degree, so
    `==` is exact structural equality.  Instances are immutable by
    convention; all operations return new values.
    """

    __slots__ = ("n", "_w", "_keys")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise VariableCountMismatch(f"{n!r} is not a number of variables")
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
        self._w = w = _width(max(map(sum, clean), default=0))
        self._keys = {_pack(e, w): c for e, c in clean.items()}

    @classmethod
    def _trusted(cls, n: int, w: int, keys: dict[int, int]) -> "Polynomial":
        """Wrap w-bit keys this module built itself, without validation:
        every field holds less than 2**w, no coefficient is 0, and the
        dict is not shared.  A width beyond _W0 that the degrees no longer
        need, after a cancellation, is narrowed."""
        if w > _W0:
            need = _width(_degree(max(keys), n, w)) if keys else _W0
            if need < w:
                keys, w = _repack(keys, n, w, need), need
        self = object.__new__(cls)
        self.n = n
        self._w = w
        self._keys = keys
        return self

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Exponent vector -> coefficient: a read-only view, decoded from
        the keys on each read, so a loop should read it once."""
        n, w = self.n, self._w
        return MappingProxyType({_unpack(k, n, w): c for k, c in self._keys.items()})

    def _at(self, w: int) -> dict[int, int]:
        """The keys at width w >= self._w."""
        return self._keys if w == self._w else _repack(self._keys, self.n, self._w, w)

    def _max_degree(self) -> int:
        """The largest degree of a term; 0 for the zero polynomial."""
        return _degree(max(self._keys, default=0), self.n, self._w)

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
        w = max(self._w, other._w)
        out = dict(self._at(w))
        for k, c in other._at(w).items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return Polynomial._trusted(self.n, w, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(
            self.n, self._w, {k: -c for k, c in self._keys.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.n)
            return Polynomial._trusted(
                self.n, self._w, {k: c * other for k, c in self._keys.items()})
        self._check(other)
        # The product's largest degree is the sum of the factors' (the
        # product of their top components is not 0), so its width holds
        # every field of every sum of keys: adding keys adds exponents.
        w = _width(self._max_degree() + other._max_degree())
        pairs = list(other._at(w).items())
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in self._at(w).items():
            for k2, c2 in pairs:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return Polynomial._trusted(self.n, w, {k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n
                and self._w == other._w and self._keys == other._keys)

    def __hash__(self):
        return hash((self.n, frozenset(self._keys.items())))

    def __bool__(self):
        return bool(self._keys)

    # -- structure --------------------------------------------------------

    def coefficient(self, e: Sequence[int]) -> int:
        """The coefficient of x^e, from its key; 0 when e has the wrong
        length, a part not a whole number or negative, or too high a degree."""
        try:
            e = _as_ints(e)
        except (ValueError, OverflowError):
            return 0
        if len(e) != self.n or min(e, default=0) < 0 or sum(e) >= 1 << self._w:
            return 0
        return self._keys.get(_pack(e, self._w), 0)

    def degree_components(self) -> dict[int, dict[tuple[int, ...], int]]:
        """Split into homogeneous components keyed by total degree."""
        n, w = self.n, self._w
        comps: dict[int, dict[tuple[int, ...], int]] = {}
        for k, c in self._keys.items():
            comps.setdefault(_degree(k, n, w), {})[_unpack(k, n, w)] = c
        return comps

    # -- presentation -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __str__(self):
        if not self._keys:
            return "0"
        parts = []
        for e, c in reversed(self.sorted_terms()):
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
    the monomials strictly between the two ends when a < b.  Moving one
    from e_i to e_{i+1} adds one to the suffix sum S_{i+1} and to no
    other, so the string is an arithmetic progression of keys with step
    `unit`, and a - b = S_i - 2 S_{i+1} + S_{i+2} (S_n = 0).
    """
    n, w = p.n, p._w
    w2, mask, mask3 = 2 * w, (1 << w) - 1, (1 << 3 * w) - 1
    shift = w * (n - 2 - i)  # of the field S_{i+1}
    unit = 1 << shift
    up = unit if atom else 0  # pi-bar_i leaves out the first end, x^e itself
    down = 0 if atom else unit
    out: dict[int, int] = {}
    get = out.get
    for key, c in p._keys.items():
        f = (key << w) >> shift & mask3  # the fields S_i, S_{i+1}, S_{i+2}
        d = (f >> w2) - 2 * (f >> w & mask) + (f & mask)
        if d >= 0:  # (a - k, b + k) for k = 0 (pi_i only) .. a - b
            for m in range(key + up, key + d * unit + 1, unit):
                out[m] = get(m, 0) + c
        else:  # -(a + k, b - k) for k = 0 (pi-bar_i only) .. b - a - 1
            for m in range(key - down, key + d * unit, -unit):
                out[m] = get(m, 0) - c
    return Polynomial._trusted(n, w, {m: c for m, c in out.items() if c})


# Demazure polynomials computed so far, keyed by (index, is_atom).  Every
# index met on the way from a requested one down to its dominant
# rearrangement is kept, so related indices share their work.
_demazure_cache: dict[tuple[tuple[int, ...], bool], Polynomial] = {}

# QS polynomials by (index, n): None once an index is built from an atom
# the Demazure memo lacked, and the polynomial once it is so built again.
_qs_cache: dict[tuple[tuple[int, ...], int], Polynomial | None] = {}


def _demazure(g: tuple[int, ...], atom: bool) -> Polynomial:
    """The atom A_g (`atom`) or the character kappa_g, from operators.

    Both are x^g when g weakly decreases.  Otherwise, at an ascent i of g
    (g_i < g_{i+1}), A_g = pi-bar_i A_{s_i g} and kappa_g = pi_i
    kappa_{s_i g} (Mason, arXiv:0707.4267; Lascoux-Schuetzenberger, "Keys
    and standard bases").  Any ascent gives the same polynomial; the one
    with the largest g_{i+1} (the first such) keeps the intermediate
    polynomials small, where the first ascent can build one of 132,802
    terms on the way to the monomial A_(0,1,...,9).  The chain is walked
    iteratively, so no index meets the recursion limit.  Every index on
    it is memoized until clear_caches; `qs_poly` asks here only for its
    first placement.
    """
    chain = []
    while (g, atom) not in _demazure_cache:
        i = max((i for i in range(len(g) - 1) if g[i] < g[i + 1]),
                key=lambda i: g[i + 1], default=None)
        if i is None:
            w = _width(sum(g))
            _demazure_cache[g, atom] = Polynomial._trusted(len(g), w, {_pack(g, w): 1})
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
    weak compositions flattening to a.

    The first placement, a padded with zeros, comes from `_demazure`,
    which memoizes its chain.  Every later placement g has a first i with
    g_i = 0 < g_{i+1}, and s_i g is an earlier placement, so A_g =
    pi-bar_i A_{s_i g} is one step from an atom at hand.  Those atoms are
    read from the Demazure memo when it has them, and else kept for this
    call only.  When some were not, the sum is memoized the second time
    (a, n) is asked for: a peel asks for each index once, and a sweep
    whose atoms suite filled the memo keeps no second copy."""
    a = Composition(a)
    if len(a) > n:
        raise TooManyParts(f"composition {tuple(a)} has more than {n} parts")
    memo = _qs_cache.get((a, n))
    if memo is not None:
        return memo
    keys: dict[int, int] = {}
    get = keys.get
    atoms: dict[tuple[int, ...], Polynomial] = {}
    built = False
    for g in placements(a, n):
        p = _demazure_cache.get((g, True))
        if p is None:
            built = True
            i = next((i for i in range(n - 1) if g[i] == 0 < g[i + 1]), None)
            p = (_demazure(tuple(g), True) if i is None else
                 _isobaric(atoms[g[:i] + (g[i + 1], 0) + g[i + 2:]], i, True))
        atoms[g] = p
        for k, c in p._keys.items():
            keys[k] = get(k, 0) + c  # atoms are positive: no term cancels
    p = Polynomial._trusted(n, _width(a.size), keys)
    if built:
        _qs_cache[a, n] = p if (a, n) in _qs_cache else None
    return p


def _peel(p: Polynomial, lead: Callable[[tuple[int, ...]], object],
          basis: Callable[[object, int], Polynomial]) -> dict:
    """Write p in a basis that is unitriangular against the monomials.

    `lead(e)` is the index of the basis element whose largest monomial is
    x^e, or None when no element leads with it; `basis(index, n)` is that
    element.  Each homogeneous component, lowest degree first, is peeled
    from the top: the monomial whose exponent is maximal in suffix-sum
    dominance can only come from the element it leads, which has
    coefficient 1 there, so its coefficient in p is the expansion
    coefficient.  Within one degree the keys share their top field and
    compare as the vectors of the other suffix sums do, lexicographically,
    a linear extension of that dominance; so the largest key left is
    always a maximal monomial.  The basis is homogeneous, so one heap of
    keys serves all degrees: with the fields below the degree flipped,
    its least entry is the largest key of the lowest degree left.
    Cancelled entries are skipped, and a key is decoded only to ask for
    its lead.  Raises NotInSpan when p is not in the span.
    """
    n, w = p.n, p._w
    low = (1 << w * (n - 1)) - 1 if n else 0  # the fields below the degree
    work = dict(p._keys)
    heap = [k ^ low for k in work]
    heapify(heap)
    result: dict = {}
    rounds = 0
    while heap:
        k = heappop(heap) ^ low
        c = work.get(k)
        if c is None:
            continue
        rounds += 1
        if rounds > 10 ** 6:
            raise NotInSpan("the expansion did not terminate")
        e = _unpack(k, n, w)
        index = lead(e)
        if index is None:
            raise NotInSpan(f"no basis element leads with the monomial {e}")
        for m, cm in basis(index, n)._at(w).items():
            old = work.get(m)
            nc = (old or 0) - c * cm
            if not nc:
                del work[m]
            else:
                if old is None:
                    heappush(heap, m ^ low)
                work[m] = nc
        if k in work:
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
_caches: list[dict] = [_demazure_cache, _qs_cache]


def clear_caches():
    """Empty every memo: the Demazure polynomials here, and the LR
    coefficient tables and Bruhat intervals of `lrrules`.  Afterwards a
    query starts cold, as in a fresh process."""
    for cache in _caches:
        cache.clear()
