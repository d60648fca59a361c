"""Integer-sequence shapes and the Bruhat order on weak compositions.

Weak compositions carry an explicit length: (2, 1) and (2, 1, 0) are
different objects, because basements and row indexing depend on the
number of parts.  All types are immutable tuples and can be shared
freely.  The Bruhat order counts, in each prefix, the parts at or above
each threshold; it builds no permutation.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .errors import IncomparableShapes, InvalidShape, NoSuchPart, SizeMismatch


def _as_ints(values: Sequence) -> tuple[int, ...]:
    """The values as ints, rejecting a number with a fractional part
    (1.7) instead of truncating it; strings go through int() unchanged.
    Raises ValueError, OverflowError or TypeError as int() does."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        for v, i in zip(values, ints):
            if i != v and not isinstance(v, str):
                raise ValueError(f"{v!r} is not a whole number")
    return ints


class WeakComposition(tuple):
    """A finite sequence of nonnegative integers, trailing zeros significant.

    Passed an instance of its own exact class, each shape constructor
    returns it unchanged: instances are immutable and were checked once.
    """

    def __new__(cls, parts: Sequence[int] = ()):
        if type(parts) is cls:
            return parts
        try:
            parts = _as_ints(parts)
        except (ValueError, OverflowError) as exc:
            raise InvalidShape(f"parts must be integers ({exc})") from None
        if any(p < 0 for p in parts):
            raise InvalidShape(f"weak composition parts must be nonnegative: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts: Sequence[int]):
        """Wrap parts this package built itself, without validation: they
        must already satisfy the invariant of cls."""
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def contains(self, other: Sequence[int]) -> bool:
        """Componentwise containment: other_i <= self_i, same length."""
        return len(self) == len(other) and all(o <= s for o, s in zip(other, self))

    def __repr__(self):
        return f"{type(self).__name__}{tuple(self)!r}"


class Composition(WeakComposition):
    """A sequence of strictly positive integers."""

    def __new__(cls, parts: Sequence[int] = ()):
        if type(parts) is cls:
            return parts
        self = super().__new__(cls, parts)
        if any(p < 1 for p in self):
            raise InvalidShape(f"composition parts must be positive: {tuple(self)}")
        return self


class Partition(Composition):
    """A weakly decreasing sequence of positive integers."""

    def __new__(cls, parts: Sequence[int] = ()):
        if type(parts) is cls:
            return parts
        self = super().__new__(cls, parts)
        if any(a < b for a, b in zip(self, self[1:])):
            raise InvalidShape(f"partition parts must weakly decrease: {tuple(self)}")
        return self


def strongof(g: Sequence[int]) -> Composition:
    """Drop the zero parts of a weak composition, keeping the order."""
    parts = tuple(p for p in g if p != 0)
    return (Composition._trusted(parts) if isinstance(g, WeakComposition)
            else Composition(parts))


def reverse(s):
    """Reverse a sequence, preserving its shape type where the invariant
    allows: a reversed partition is a composition."""
    rev = tuple(s)[::-1]
    if isinstance(s, Composition):
        return Composition._trusted(rev)
    if isinstance(s, WeakComposition):
        return WeakComposition._trusted(rev)
    return rev


def rem_k(s, k: int):
    """Decrement the rightmost part equal to k (the single-box Pieri move).

    For compositions the resulting zero part is removed; weak compositions
    keep it.  Raises NoSuchPart if no part equals k.
    """
    if k < 1:
        raise NoSuchPart(f"part value must be positive: {k}")
    parts = list(s)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == k:
            parts[i] -= 1
            if isinstance(s, Composition):
                if parts[i] == 0:
                    del parts[i]
                return Composition(parts)
            return WeakComposition(parts)
    raise NoSuchPart(f"no part equal to {k} in {tuple(s)}")


def partition_of(g: Sequence[int]) -> Partition:
    """The underlying partition: nonzero parts sorted weakly decreasing."""
    parts = sorted((p for p in g if p != 0), reverse=True)
    return (Partition._trusted(parts) if isinstance(g, WeakComposition)
            else Partition(parts))


def comp_bruhat_geq(b: Sequence[int], a: Sequence[int]) -> bool:
    """Bruhat order on rearrangements of one partition: b >= a iff, for
    every threshold t and prefix length k, b has at least as many parts
    >= t among its first k parts as a has (the tableau criterion for a
    parabolic quotient of the symmetric group).  Thresholds other than
    the positive parts of b add no condition."""
    if len(b) != len(a):
        raise SizeMismatch(f"lengths differ: {len(b)} vs {len(a)}")
    if partition_of(b) != partition_of(a):
        raise IncomparableShapes(
            f"different underlying partitions: {tuple(b)} vs {tuple(a)}"
        )
    for t in set(b) - {0}:
        surplus = 0
        for x, y in zip(b, a):
            surplus += (x >= t) - (y >= t)
            if surplus < 0:
                return False
    return True


def pad(g: Sequence[int], n: int) -> WeakComposition:
    """Extend with trailing zeros to length n."""
    g = tuple(g)
    if len(g) > n:
        raise SizeMismatch(f"cannot pad length-{len(g)} sequence to {n}")
    return WeakComposition(g + (0,) * (n - len(g)))


def weak_compositions(total: int, length: int) -> Iterator[WeakComposition]:
    """All weak compositions of `total` into exactly `length` parts, in
    lexicographic order: the gaps between length - 1 bars chosen, in
    lexicographic order, among total + length - 1 slots."""
    if total < 0 or length == 0:
        if total == length == 0:
            yield WeakComposition()
        return
    slots = total + length - 1
    for bars in combinations(range(slots), length - 1):
        yield WeakComposition._trusted(
            hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (slots,)))


def compositions(total: int) -> Iterator[Composition]:
    """All compositions of `total` (any number of positive parts)."""
    if total == 0:
        yield Composition()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield Composition._trusted((first,) + rest)


def partitions(total: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of `total` with parts bounded by max_part."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield Partition()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield Partition._trusted((first,) + rest)


def rearrangements(lam: Sequence[int], n: int) -> Iterator[WeakComposition]:
    """All weak compositions of length n whose underlying partition is lam,
    each once, in strictly decreasing lexicographic order: from lam padded
    with zeros, each is the previous one's lexicographic predecessor
    among the rearrangements."""
    lam = partition_of(lam)
    if len(lam) > n:
        return
    a = list(lam) + [0] * (n - len(lam))
    while True:
        yield WeakComposition._trusted(a)
        # the predecessor: swap the part at the last descent i with the
        # last smaller part after it; the tail after i still increases
        # weakly, and reversed it decreases
        i = n - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def placements(alpha: Sequence[int], length: int, bound: Sequence[int] | None = None
               ) -> Iterator[WeakComposition]:
    """Weak compositions g of the given length with strongof(g) = alpha, in
    lexicographic order of the parts' positions; with `bound` set, only
    those contained componentwise in bound.  The positions are kept on a
    stack, and no position is tried that leaves the later parts no room."""
    alpha, m = tuple(alpha), len(alpha)
    if bound is None:
        bound = [max(alpha, default=0)] * length
    # last[t]: part t's last position, with the later parts as late as they fit
    last, i = [0] * m, length
    for t in reversed(range(m)):
        i -= 1
        while i >= 0 and alpha[t] > bound[i]:
            i -= 1
        last[t] = i
    out, pos, i = [0] * length, [], 0  # pos[t]: part t's position; i: next try
    while True:
        t = len(pos)
        if t == m:
            yield WeakComposition._trusted(out)
        else:
            while i <= last[t] and alpha[t] > bound[i]:
                i += 1
            if i <= last[t]:
                out[i] = alpha[t]
                pos.append(i)
                i += 1
                continue
        if not pos:
            return
        i = pos.pop()
        out[i] = 0
        i += 1


def parse_sequence(text: str) -> WeakComposition:
    """Parse the CLI syntax for sequences: comma-separated nonnegative integers."""
    text = text.strip()
    if text in ("", "-", "()"):
        return WeakComposition()
    return WeakComposition(text.split(","))
