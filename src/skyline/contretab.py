"""Contretableaux: the mirror-image tableaux whose rows weakly decrease
and columns strictly decrease, together with the column-sorting bijection
rho between skyline fillings on the standard basement and contretableaux.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import InvalidFilling, InvalidShape, NoValidRow, NotSSK
from .fillings import BasementKind, Filling, SkewShape, _render_grid, is_ssk
from .shapes import Partition, WeakComposition, _as_ints, pad
from .words import is_regular_contre_lattice, row_word


def _skew_inner(outer: Partition, inner: Sequence[int]) -> WeakComposition:
    """The inner shape of a skew shape outer/inner, padded with zeros to
    len(outer), checked to weakly decrease and to lie inside outer."""
    inner = WeakComposition(inner)
    if len(inner) > len(outer):
        raise InvalidShape(f"inner shape longer than outer: {tuple(inner)}")
    inner = pad(inner, len(outer))
    if any(a < b for a, b in zip(inner, inner[1:])):
        raise InvalidShape(f"inner parts must weakly decrease: {tuple(inner)}")
    if any(i > o for i, o in zip(inner, outer)):
        raise InvalidShape(f"inner {tuple(inner)} not inside {tuple(outer)}")
    return inner


class ContreTableau:
    """A (possibly skew) Ferrers shape with one positive entry per cell.

    `rows[r-1]` lists the entries of row r outside the inner shape.  The
    constructor checks shape consistency only; use is_ct for the row and
    column conditions.
    """

    __slots__ = ("outer", "inner", "rows")

    def __init__(self, outer: Sequence[int], rows: Sequence[Sequence[int]],
                 inner: Sequence[int] = ()):
        self.outer = Partition(outer)
        self.inner = Partition(p for p in _skew_inner(self.outer, inner) if p)
        try:
            self.rows = tuple(_as_ints(row) for row in rows)
        except (ValueError, OverflowError) as exc:
            raise InvalidFilling(f"entries must be integers ({exc})") from None
        if len(self.rows) != len(self.outer):
            raise InvalidShape(
                f"expected {len(self.outer)} rows, got {len(self.rows)}")
        for r, row in enumerate(self.rows, start=1):
            want = self.outer[r - 1] - self._inner_at(r)
            if len(row) != want:
                raise InvalidShape(f"row {r} needs {want} entries, got {len(row)}")
            if any(v < 1 for v in row):
                raise InvalidFilling(f"entries must be positive, row {r}: {row}")

    def _inner_at(self, r: int) -> int:
        return self.inner[r - 1] if r <= len(self.inner) else 0

    @property
    def nrows(self) -> int:
        return len(self.outer)

    @property
    def ncols(self) -> int:
        return self.outer[0] if self.outer else 0

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def column_entries(self, c: int) -> list[int]:
        return [self.rows[r - 1][c - self._inner_at(r) - 1]
                for r in range(1, self.nrows + 1)
                if self._inner_at(r) < c <= self.outer[r - 1]]

    def __eq__(self, other):
        return (isinstance(other, ContreTableau)
                and self.outer == other.outer
                and self.inner == other.inner
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.outer, self.inner, self.rows))

    def __repr__(self):
        if self.inner:
            return (f"ContreTableau({tuple(self.outer)}/{tuple(self.inner)}, "
                    f"{self.rows})")
        return f"ContreTableau({tuple(self.outer)}, {self.rows})"

    def to_json(self) -> dict:
        return {"shape": list(self.outer), "inner": list(self.inner),
                "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict | str) -> "ContreTableau":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["shape"], data["rows"], data.get("inner", ()))

    def render(self) -> str:
        """ASCII diagram, inner cells drawn as `.`."""
        return _render_grid([["."] * self._inner_at(r) + [str(v) for v in row]
                             for r, row in enumerate(self.rows, start=1)])


def is_ct(t: ContreTableau) -> bool:
    """Rows weakly decreasing, columns strictly decreasing, on the skew cells."""
    for r in range(1, t.nrows + 1):
        row = t.rows[r - 1]
        if any(a < b for a, b in zip(row, row[1:])):
            return False
    for c in range(1, t.ncols + 1):
        col = t.column_entries(c)
        if any(a <= b for a, b in zip(col, col[1:])):
            return False
    return True


def super_ct(lam: Sequence[int]) -> ContreTableau:
    """The unique contretableau of shape lam with content reverse(lam):
    row r is constant with value len(lam) - r + 1."""
    lam = Partition(lam)
    ell = len(lam)
    return ContreTableau(lam, [(ell - r + 1,) * lam[r - 1] for r in range(1, ell + 1)])


def rho(f: Filling) -> ContreTableau:
    """Column-sorting bijection from fillings on the standard basement.

    Each column's entry set is sorted into decreasing order and the
    columns are stacked top-justified; column sets are preserved.
    """
    if f.basement is not BasementKind.IDENT or any(f.shape.inner):
        raise NotSSK("rho expects a non-skew filling on the standard basement")
    if not is_ssk(f):
        raise NotSSK(f"not a semistandard skyline filling: {is_ssk(f).failure}")
    cols = []
    for k in range(1, f.shape.ncols + 1):
        cols.append(sorted(f.column_entries(k), reverse=True))
    heights = [len(c) for c in cols]
    if any(a < b for a, b in zip(heights, heights[1:])):
        raise NotSSK("column heights must weakly decrease")
    nrows = heights[0] if heights else 0
    rows = [[cols[c][r] for c in range(len(cols)) if heights[c] > r]
            for r in range(nrows)]
    return ContreTableau([len(r) for r in rows], rows)


def rho_inv(t: ContreTableau, n: int) -> Filling:
    """Inverse of rho: rebuild the skyline filling on the standard basement.

    Entries of each column, largest first, go into the highest admissible
    row: current length one less than the target column, rightmost value
    (basement included) weakly greater than the entry.
    """
    if t.inner:
        raise NotSSK("rho_inv expects a straight-shape contretableau")
    lengths = [0] * n
    last = list(range(1, n + 1))
    grid: list[list[int]] = [[] for _ in range(n)]
    for c in range(1, t.ncols + 1):
        for v in sorted(t.column_entries(c), reverse=True):
            if v > n:
                raise NoValidRow(f"entry {v} exceeds n={n}")
            for i in range(n):
                if lengths[i] == c - 1 and last[i] >= v:
                    lengths[i] = c
                    last[i] = v
                    grid[i].append(v)
                    break
            else:
                raise NoValidRow(f"no admissible row for entry {v} in column {c}")
    shape = SkewShape(WeakComposition(lengths))
    return Filling(shape, BasementKind.IDENT, grid)


def is_lr_skew_ct(t: ContreTableau) -> bool:
    """Littlewood-Richardson condition: the reversed row word is a regular
    contre-lattice word."""
    return is_regular_contre_lattice(tuple(row_word(t))[::-1])
