"""Integer-sequence shapes and the Bruhat order on weak compositions.

Weak compositions carry an explicit length: (2, 1) and (2, 1, 0) are
different objects, because basements and row indexing depend on the
number of parts.  All types are immutable tuples and can be shared
freely.
"""

from __future__ import annotations

from itertools import permutations
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
    """A finite sequence of nonnegative integers, trailing zeros significant."""

    def __new__(cls, parts: Sequence[int] = ()):
        try:
            parts = _as_ints(parts)
        except (ValueError, OverflowError) as exc:
            raise InvalidShape(f"parts must be integers ({exc})") from None
        if any(p < 0 for p in parts):
            raise InvalidShape(f"weak composition parts must be nonnegative: {parts}")
        return super().__new__(cls, parts)

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
        self = super().__new__(cls, parts)
        if any(p < 1 for p in self):
            raise InvalidShape(f"composition parts must be positive: {tuple(self)}")
        return self


class Partition(Composition):
    """A weakly decreasing sequence of positive integers."""

    def __new__(cls, parts: Sequence[int] = ()):
        self = super().__new__(cls, parts)
        if any(a < b for a, b in zip(self, self[1:])):
            raise InvalidShape(f"partition parts must weakly decrease: {tuple(self)}")
        return self


class Permutation(tuple):
    """A permutation of {1, ..., n} in one-line notation (images of 1..n)."""

    def __new__(cls, images: Sequence[int]):
        try:
            images = _as_ints(images)
        except (ValueError, OverflowError) as exc:
            raise InvalidShape(f"images must be integers ({exc})") from None
        if sorted(images) != list(range(1, len(images) + 1)):
            raise InvalidShape(f"not a permutation of 1..{len(images)}: {images}")
        return super().__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def inversions(self) -> int:
        """Coxeter length: the number of pairs i < j with w(i) > w(j)."""
        n = len(self)
        return sum(1 for i in range(n) for j in range(i + 1, n) if self[i] > self[j])

    def apply_to_positions(self, seq: Sequence) -> tuple:
        """Move the item at position i to position w(i); returns the new tuple."""
        if len(seq) != len(self):
            raise SizeMismatch(f"cannot apply size-{len(self)} permutation to {seq}")
        out = [None] * len(seq)
        for i, v in enumerate(seq):
            out[self[i] - 1] = v
        return tuple(out)

    def __repr__(self):
        return f"Permutation{tuple(self)!r}"


def strongof(g: Sequence[int]) -> Composition:
    """Drop the zero parts of a weak composition, keeping the order."""
    return Composition(p for p in g if p != 0)


def reverse(s):
    """Reverse a sequence, preserving its shape type where the invariant allows."""
    rev = tuple(s)[::-1]
    if isinstance(s, Partition):
        return Composition(rev) if all(p > 0 for p in rev) else WeakComposition(rev)
    if isinstance(s, Composition):
        return Composition(rev)
    if isinstance(s, WeakComposition):
        return WeakComposition(rev)
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
    return Partition(sorted((p for p in g if p != 0), reverse=True))


def min_sorting_perm(g: Sequence[int]) -> Permutation:
    """The minimal-length permutation moving g's parts into nonincreasing order.

    Realized as the stable descending sort: position i goes to slot pi(i),
    equal parts keeping their original relative order.  Applying the result
    to positions of g yields partition_of(g) padded with zeros.
    """
    n = len(g)
    order = sorted(range(n), key=lambda i: (-g[i], i))
    pi = [0] * n
    for slot, i in enumerate(order, start=1):
        pi[i] = slot
    return Permutation(pi)


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Strong Bruhat order via the rank-matrix criterion.

    u <= v iff for all i, j the count of k <= i with u(k) >= j is at most
    the same count for v.
    """
    n = len(u)
    if len(v) != n:
        raise SizeMismatch(f"permutations of different sizes: {len(u)} vs {len(v)}")
    cu = [0] * (n + 2)
    cv = [0] * (n + 2)
    for i in range(n):
        for j in range(1, u[i] + 1):
            cu[j] += 1
        for j in range(1, v[i] + 1):
            cv[j] += 1
        for j in range(1, n + 1):
            if cu[j] > cv[j]:
                return False
    return True


def comp_bruhat_geq(b: Sequence[int], a: Sequence[int]) -> bool:
    """Bruhat order on weak compositions: b >= a iff pi(b) <= pi(a).

    Only rearrangements of one another are comparable.
    """
    if len(b) != len(a):
        raise SizeMismatch(f"lengths differ: {len(b)} vs {len(a)}")
    if partition_of(b) != partition_of(a):
        raise IncomparableShapes(
            f"different underlying partitions: {tuple(b)} vs {tuple(a)}"
        )
    return bruhat_leq(min_sorting_perm(b), min_sorting_perm(a))


def pad(g: Sequence[int], n: int) -> WeakComposition:
    """Extend with trailing zeros to length n."""
    g = tuple(g)
    if len(g) > n:
        raise SizeMismatch(f"cannot pad length-{len(g)} sequence to {n}")
    return WeakComposition(g + (0,) * (n - len(g)))


def weak_compositions(total: int, length: int) -> Iterator[WeakComposition]:
    """All weak compositions of `total` into exactly `length` parts."""
    if length == 0:
        if total == 0:
            yield WeakComposition()
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, length - 1):
            yield WeakComposition((first,) + tuple(rest))


def compositions(total: int) -> Iterator[Composition]:
    """All compositions of `total` (any number of positive parts)."""
    if total == 0:
        yield Composition()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield Composition((first,) + tuple(rest))


def partitions(total: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of `total` with parts bounded by max_part."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield Partition()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield Partition((first,) + tuple(rest))


def rearrangements(lam: Sequence[int], n: int) -> Iterator[WeakComposition]:
    """All weak compositions of length n whose underlying partition is lam."""
    lam = partition_of(lam)
    if len(lam) > n:
        return
    base = tuple(lam) + (0,) * (n - len(lam))
    seen = set()
    for perm in permutations(base):
        if perm not in seen:
            seen.add(perm)
            yield WeakComposition(perm)


def placements(alpha: Sequence[int], length: int, bound: Sequence[int] | None = None
               ) -> Iterator[WeakComposition]:
    """Weak compositions g of the given length with strongof(g) = alpha.

    With `bound` set, only yields g contained componentwise in bound.
    """
    alpha = tuple(alpha)
    out = [0] * length

    def place(t: int, pos: int) -> Iterator[WeakComposition]:
        if t == len(alpha):
            yield WeakComposition(out)
            return
        for i in range(pos, length - (len(alpha) - t) + 1):
            if bound is None or alpha[t] <= bound[i]:
                out[i] = alpha[t]
                yield from place(t + 1, i + 1)
                out[i] = 0

    yield from place(0, 0)


def parse_sequence(text: str) -> WeakComposition:
    """Parse the CLI syntax for sequences: comma-separated nonnegative integers."""
    text = text.strip()
    if text in ("", "-", "()"):
        return WeakComposition()
    return WeakComposition(text.split(","))


def parse_skew(text: str) -> tuple[WeakComposition, WeakComposition | None]:
    """Parse `delta/gamma` skew-shape syntax; the inner shape is optional."""
    if "/" in text:
        outer, inner = text.split("/", 1)
        return parse_sequence(outer), parse_sequence(inner)
    return parse_sequence(text), None
