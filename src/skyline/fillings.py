"""Skyline diagrams, basements, fillings, triples, and SSK validation.

Coordinates follow the row-major convention: rows are 1-based top to
bottom, column 0 is the basement, data columns are 1-based.  A skew
shape delta/gamma treats the cells of gamma as an extension of the
basement: they carry the basement value of their row and are not data
cells.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import InvalidFilling, InvalidShape, UnorderedTriple
from .shapes import WeakComposition, _as_ints


class BasementKind(enum.Enum):
    """The four basement value rules for n rows."""

    IDENT = "ident"        # b_k = k
    REVERSED = "reversed"  # b_k = n - k + 1
    SHIFTED = "shifted"    # b_k = n + k
    LARGE = "large"        # b_k = 2n - k + 1, all entries > n


def basement_values(kind: BasementKind, n: int) -> tuple[int, ...]:
    """The basement column (b_1, ..., b_n) for the given rule."""
    if n < 1:
        raise InvalidShape(f"basement needs at least one row, got n={n}")
    if kind is BasementKind.IDENT:
        return tuple(range(1, n + 1))
    if kind is BasementKind.REVERSED:
        return tuple(range(n, 0, -1))
    if kind is BasementKind.SHIFTED:
        return tuple(range(n + 1, 2 * n + 1))
    if kind is BasementKind.LARGE:
        return tuple(range(2 * n, n, -1))
    raise InvalidShape(f"unknown basement kind {kind!r}")


class SkewShape:
    """A pair of weak compositions gamma <= delta of equal length."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Sequence[int], inner: Sequence[int] | None = None):
        self.outer = WeakComposition(outer)
        if inner is None:
            inner = (0,) * len(self.outer)
        self.inner = WeakComposition(inner)
        if len(self.inner) != len(self.outer):
            raise InvalidShape(
                f"inner and outer shapes must have equal length: "
                f"{tuple(self.inner)} vs {tuple(self.outer)}"
            )
        if not self.outer.contains(self.inner):
            raise InvalidShape(
                f"inner shape not contained in outer: {tuple(self.inner)} "
                f"inside {tuple(self.outer)}"
            )

    @property
    def nrows(self) -> int:
        return len(self.outer)

    @property
    def ncols(self) -> int:
        return max(self.outer, default=0)

    @property
    def size(self) -> int:
        """Number of data cells, |delta/gamma|."""
        return self.outer.size - self.inner.size

    def data_cells(self) -> Iterator[tuple[int, int]]:
        """Data cells (i, k) in row-major order, top row first."""
        for i in range(1, self.nrows + 1):
            for k in range(self.inner[i - 1] + 1, self.outer[i - 1] + 1):
                yield (i, k)

    def __eq__(self, other):
        return (isinstance(other, SkewShape)
                and self.outer == other.outer and self.inner == other.inner)

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({tuple(self.outer)}/{tuple(self.inner)})"


class Triple(NamedTuple):
    """A type A or B triple; a, b, c are (row, column) cell positions."""

    kind: str  # "A" or "B"
    a: tuple[int, int]
    b: tuple[int, int]
    c: tuple[int, int]


def enumerate_triples(shape: SkewShape) -> list[Triple]:
    """All triples of the diagram, basement cells included.

    For rows i < j: type A triples ((i,k),(j,k),(i,k-1)) with
    delta_i >= delta_j and 1 <= k <= delta_j; type B triples
    ((j,k+1),(i,k),(j,k)) with delta_i < delta_j and 0 <= k <= delta_i.
    """
    delta = shape.outer
    n = shape.nrows
    triples = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            di, dj = delta[i - 1], delta[j - 1]
            if di >= dj:
                for k in range(1, dj + 1):
                    triples.append(Triple("A", (i, k), (j, k), (i, k - 1)))
            else:
                for k in range(0, di + 1):
                    triples.append(Triple("B", (j, k + 1), (i, k), (j, k)))
    return triples


class TripleClass(enum.Enum):
    INVERSION = "inversion"
    COINVERSION = "coinversion"


def classify_triple(a: int, b: int, c: int) -> TripleClass:
    """Inversion iff b < a <= c or a <= c < b; coinversion iff a <= b <= c."""
    if b < a <= c or a <= c < b:
        return TripleClass.INVERSION
    if a <= b <= c:
        return TripleClass.COINVERSION
    raise UnorderedTriple(f"values (a,b,c)=({a},{b},{c}) need c >= a")


def is_inversion(a: int, b: int, c: int) -> bool:
    return b < a <= c or a <= c < b


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of is_ssk with the first offending row or triple on failure."""

    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class Filling:
    """An assignment of entries in [1, n] to the data cells of a skew diagram.

    `rows[i-1]` holds the data entries of row i left to right; inner cells
    carry the basement value of their row and are not stored.
    """

    __slots__ = ("shape", "basement", "n", "rows", "_bvals")

    def __init__(self, shape: SkewShape, basement: BasementKind,
                 rows: Sequence[Sequence[int]]):
        self.shape = shape
        self.basement = basement
        self.n = shape.nrows
        self._bvals = basement_values(basement, self.n)
        try:
            rows = tuple(_as_ints(row) for row in rows)
        except (ValueError, OverflowError) as exc:
            raise InvalidFilling(f"entries must be integers ({exc})") from None
        if len(rows) != self.n:
            raise InvalidFilling(f"expected {self.n} rows, got {len(rows)}")
        for i, row in enumerate(rows, start=1):
            want = shape.outer[i - 1] - shape.inner[i - 1]
            if len(row) != want:
                raise InvalidFilling(
                    f"row {i} needs {want} entries, got {len(row)}")
            for v in row:
                if not 1 <= v <= self.n:
                    raise InvalidFilling(
                        f"entry {v} in row {i} outside [1, {self.n}]")
        self.rows = rows

    # -- cell access -------------------------------------------------

    def basement_value(self, i: int) -> int:
        return self._bvals[i - 1]

    def value_at(self, i: int, k: int) -> int:
        """Value of cell (i, k); k=0 is the basement, k <= gamma_i is inner."""
        if k < 0 or k > self.shape.outer[i - 1]:
            raise InvalidFilling(f"cell ({i},{k}) outside the diagram")
        if k <= self.shape.inner[i - 1]:
            return self._bvals[i - 1]
        return self.rows[i - 1][k - self.shape.inner[i - 1] - 1]

    def data_cells(self) -> Iterator[tuple[int, int]]:
        return self.shape.data_cells()

    def row_reading_entries(self) -> Iterator[int]:
        """Entries left to right per row, bottommost row first, basement skipped."""
        for i in range(self.n, 0, -1):
            yield from self.rows[i - 1]

    def col_reading_entries(self) -> Iterator[int]:
        """Entries top to bottom per column, rightmost column first."""
        outer, inner = self.shape.outer, self.shape.inner
        for k in range(self.shape.ncols, 0, -1):
            for i in range(1, self.n + 1):
                if inner[i - 1] < k <= outer[i - 1]:
                    yield self.rows[i - 1][k - inner[i - 1] - 1]

    def column_entries(self, k: int) -> list[int]:
        """Data entries of column k, top to bottom."""
        outer, inner = self.shape.outer, self.shape.inner
        return [self.rows[i - 1][k - inner[i - 1] - 1]
                for i in range(1, self.n + 1)
                if inner[i - 1] < k <= outer[i - 1]]

    def weight(self) -> tuple[int, ...]:
        return weight_monomial(self)

    def remove_cell(self, i: int, k: int) -> "Filling":
        """Drop the last data cell (i, k) of row i, shrinking the shape."""
        if k != self.shape.outer[i - 1] or k <= self.shape.inner[i - 1]:
            raise InvalidFilling(f"({i},{k}) is not the last data cell of row {i}")
        outer = list(self.shape.outer)
        outer[i - 1] -= 1
        rows = [list(r) for r in self.rows]
        rows[i - 1].pop()
        return Filling(SkewShape(outer, self.shape.inner), self.basement, rows)

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Filling)
                and self.shape == other.shape
                and self.basement is other.basement
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, self.basement, self.rows))

    def __repr__(self):
        return (f"Filling({tuple(self.shape.outer)}/{tuple(self.shape.inner)}, "
                f"{self.basement.value}, rows={self.rows})")

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "shape": {"outer": list(self.shape.outer),
                      "inner": list(self.shape.inner)},
            "basement": self.basement.value,
            "n": self.n,
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict | str) -> "Filling":
        if isinstance(data, str):
            data = json.loads(data)
        shape = SkewShape(data["shape"]["outer"], data["shape"].get("inner"))
        try:
            kind = BasementKind(data["basement"])
        except ValueError:
            raise InvalidFilling(f"unknown basement {data['basement']!r}") from None
        if data.get("n", shape.nrows) != shape.nrows:
            raise InvalidFilling("n must equal the number of rows")
        return cls(shape, kind, data["rows"])

    def render(self) -> str:
        return render_filling(self)


def weight_monomial(f: Filling) -> tuple[int, ...]:
    """Exponent vector: e_v = number of data cells with entry v."""
    e = [0] * f.n
    for row in f.rows:
        for v in row:
            e[v - 1] += 1
    return tuple(e)


def is_ssk(f: Filling) -> ValidationReport:
    """Semistandard skyline check: rows weakly decreasing (basement
    included) and every triple an inversion triple."""
    for i in range(1, f.n + 1):
        prev = f.basement_value(i)
        for k in range(f.shape.inner[i - 1] + 1, f.shape.outer[i - 1] + 1):
            v = f.value_at(i, k)
            if v > prev:
                return ValidationReport(
                    False, f"row {i} increases at column {k}: {prev} < {v}")
            prev = v
    for t in enumerate_triples(f.shape):
        a = f.value_at(*t.a)
        b = f.value_at(*t.b)
        c = f.value_at(*t.c)
        if classify_triple(a, b, c) is TripleClass.COINVERSION:
            return ValidationReport(
                False,
                f"coinversion type-{t.kind} triple at {t.a},{t.b},{t.c} "
                f"with values ({a},{b},{c})")
    return ValidationReport(True)


def is_nonattacking(f: Filling) -> bool:
    """Distinct values per column; equal values at (i,k) and (j,k+1) only
    when i >= j.  Basement and inner cells participate."""
    outer, inner = f.shape.outer, f.shape.inner
    for k in range(0, f.shape.ncols + 1):
        seen = set()
        for i in range(1, f.n + 1):
            if k <= outer[i - 1]:
                v = f.value_at(i, k)
                if v in seen:
                    return False
                seen.add(v)
    for k in range(0, f.shape.ncols):
        for i in range(1, f.n + 1):
            if k > outer[i - 1]:
                continue
            v = f.value_at(i, k)
            for j in range(i + 1, f.n + 1):
                if k + 1 <= outer[j - 1] and f.value_at(j, k + 1) == v:
                    return False
    return True


def render_filling(f: Filling) -> str:
    """ASCII diagram: basement column, `|` separator, inner cells bracketed.

    The large basement is drawn with `*` in place of its values.
    """
    large = f.basement is BasementKind.LARGE
    grid: list[list[str]] = []
    for i in range(1, f.n + 1):
        bval = "*" if large else str(f.basement_value(i))
        cells = []
        for k in range(1, f.shape.outer[i - 1] + 1):
            if k <= f.shape.inner[i - 1]:
                cells.append(f"[{bval}]")
            else:
                cells.append(str(f.value_at(i, k)))
        grid.append([bval, "|"] + cells)
    width = max((len(s) for row in grid for s in row), default=1)
    lines = [" ".join(s.rjust(width) for s in row).rstrip() for row in grid]
    return "\n".join(lines)
