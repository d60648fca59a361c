"""Reading words, content, and the contre-lattice predicates.

Words are plain tuples of positive integers.  The row and column words
of a filling or contretableau ignore basement and inner cells.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DuplicateInColumn
from .fillings import Filling
from .shapes import WeakComposition


def row_word(t) -> tuple[int, ...]:
    """Entries left to right in each row, bottommost row first."""
    return tuple(t.row_reading_entries())


def col_word(t) -> tuple[int, ...]:
    """Entries top to bottom in each column, rightmost column first."""
    return tuple(t.col_reading_entries())


def content(w: Iterable[int]) -> WeakComposition:
    """Occurrence counts (c_1, ..., c_r) up to the maximum entry of w."""
    w = tuple(w)
    if not w:
        return WeakComposition()
    counts = [0] * max(w)
    for v in w:
        counts[v - 1] += 1
    return WeakComposition(counts)


def is_contre_lattice(w: Sequence[int]) -> bool:
    """Every prefix has at least as many j as j-1, for 1 < j <= max(w)."""
    w = tuple(w)
    if not w:
        return True
    r = max(w)
    counts = [0] * (r + 1)
    for v in w:
        counts[v] += 1
        if v + 1 <= r and counts[v] > counts[v + 1]:
            return False
    return True


def is_regular_contre_lattice(w: Sequence[int]) -> bool:
    """Contre-lattice with minimum entry 1; the empty word is not regular."""
    w = tuple(w)
    return bool(w) and min(w) == 1 and is_contre_lattice(w)


def column_sets(f: Filling) -> tuple[frozenset[int], ...]:
    """Per-column sets of data entries, C_1..C_t; requires non-attacking columns."""
    sets = []
    for k in range(1, f.shape.ncols + 1):
        entries = f.column_entries(k)
        s = frozenset(entries)
        if len(s) != len(entries):
            raise DuplicateInColumn(f"column {k} repeats a value: {entries}")
        sets.append(s)
    return tuple(sets)


def loose_word(f: Filling) -> tuple[int, ...]:
    """Column sets sorted decreasing, concatenated right to left."""
    w: list[int] = []
    for ck in reversed(column_sets(f)):
        w.extend(sorted(ck, reverse=True))
    return tuple(w)


def is_loosely_contre_lattice(f: Filling) -> bool:
    return is_contre_lattice(loose_word(f))
