"""Exhaustive generators for skyline fillings, contretableaux, and the
Littlewood-Richardson tableau families, plus the shape-rearrangement
construction that underlies the equivalence-class counts.

All generators share one backtracking engine, `_search`, which uses an
explicit stack, so no shape size meets the recursion limit.  Each
generator only lays out its grid and two per-cell tables: the cells that
cap each entry, and the triple checks that become decidable once the cell
is placed.  Skyline fillings are placed in row reading order (bottom row
first, left to right), in which every triple becomes checkable exactly
when its last data cell is placed.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import (InvalidShape, NotContreLattice, NotRearrangement,
                     SizeMismatch)
from .contretab import ContreTableau
from .fillings import (BasementKind, Filling, SkewShape, basement_values,
                       enumerate_triples, is_inversion, is_ssk)
from .shapes import Composition, WeakComposition, pad, placements
from .words import col_word, is_contre_lattice, is_regular_contre_lattice

Cell = tuple[int, int]  # (row, column) index into the grid


def _search(grid: list[list[int]], cells: Sequence[Cell],
            caps: Sequence[Sequence[tuple[int, int, int]]],
            checks: Sequence[Sequence[tuple[Cell, Cell, Cell]]], n: int,
            content: Sequence[int] | None = None) -> Iterator[None]:
    """Assign entries in [1, n] to `cells`, in order, in every way that
    respects the caps, the triple checks and the exact content, if given.

    The entry at cell t is at most grid[r][c] - offset for each
    (r, c, offset) in caps[t], and every triple in checks[t] must be an
    inversion triple once it is placed.  The cells must hold 0 on entry,
    and 0 marks a cell not yet placed.  Yields once per complete
    assignment, with the grid holding it.  Cells are placed in the given
    order and candidate entries tried in descending order.
    """
    if content is None:
        budget = None
    elif sum(content) != len(cells):
        return
    else:
        budget = (list(content) + [0] * n)[:n]
    t = 0
    while t >= 0:
        if t == len(cells):
            yield
            t -= 1
            continue
        i, k = cells[t]
        row = grid[i]
        v = row[k]
        if v:  # back at cell t: release its entry and try the next lower one
            if budget is not None:
                budget[v - 1] += 1
            v -= 1
        else:  # first visit since the cells before t changed
            v = n
            for r, c, offset in caps[t]:
                v = min(v, grid[r][c] - offset)
        while v > 0:
            if budget is None or budget[v - 1]:
                row[k] = v
                for (ra, ca), (rb, cb), (rc, cc) in checks[t]:
                    if not is_inversion(grid[ra][ca], grid[rb][cb], grid[rc][cc]):
                        break
                else:
                    break
            v -= 1
        if v > 0:
            if budget is not None:
                budget[v - 1] -= 1
            t += 1
        else:
            row[k] = 0
            t -= 1


def enum_ssk_shape(outer: Sequence[int], basement: BasementKind,
                   inner: Sequence[int] | None = None,
                   content: Sequence[int] | None = None,
                   require_regular: bool = False) -> Iterator[Filling]:
    """All semistandard skyline fillings of shape outer/inner on the given
    basement, each once, optionally with exact content; with
    require_regular, only those whose column word is regular
    contre-lattice."""
    shape = SkewShape(outer, inner)
    outer, inner, n = shape.outer, shape.inner, shape.nrows
    bvals = basement_values(basement, n)
    # grid[i][k] for 0-based row i; column 0 and the inner cells hold the
    # basement value of the row.
    grid = [[bvals[i]] * (inner[i] + 1) + [0] * (outer[i] - inner[i])
            for i in range(n)]
    cells = [(i, k) for i in range(n - 1, -1, -1)
             for k in range(inner[i] + 1, outer[i] + 1)]
    order = {cell: t for t, cell in enumerate(cells)}
    # the left neighbor always exists: a data, inner or basement cell
    caps = [[(i, k - 1, 0)] for i, k in cells]
    # Bin each triple on its last data cell in fill order; triples made of
    # basement and inner cells only are constant and checked up front.
    checks: list[list[tuple[Cell, Cell, Cell]]] = [[] for _ in cells]
    for tr in enumerate_triples(shape):
        members = tuple((r - 1, c) for r, c in (tr.a, tr.b, tr.c))
        data = [order[m] for m in members if m in order]
        if not data:
            if not is_inversion(*(grid[r][c] for r, c in members)):
                return
            continue
        checks[max(data)].append(members)

    for _ in _search(grid, cells, caps, checks, n, content):
        f = Filling(shape, basement,
                    [grid[i][inner[i] + 1:] for i in range(n)])
        if not require_regular or is_regular_contre_lattice(col_word(f)):
            yield f


def enum_lrs(delta: Sequence[int], gamma: Sequence[int],
             content: Sequence[int]) -> Iterator[Filling]:
    """LR skyline tableaux: large-basement SSK of shape delta/gamma whose
    column word is regular contre-lattice with the given content."""
    return enum_ssk_shape(delta, BasementKind.LARGE, gamma, content,
                          require_regular=True)


def enum_lrk(delta: Sequence[int], gamma: Sequence[int],
             content: Sequence[int]) -> Iterator[Filling]:
    """LR skew keys: as enum_lrs but on the shifted basement b_i = n + i."""
    return enum_ssk_shape(delta, BasementKind.SHIFTED, gamma, content,
                          require_regular=True)


def lrc_representatives(beta: Sequence[int], alpha: Sequence[int],
                        content: Sequence[int], n: int | None = None
                        ) -> list[Filling]:
    """Canonical representatives of the LR equivalence classes of shape
    beta/alpha: the unique member whose overall shape is beta padded with
    trailing zeros, one per class, over all basements flattening to alpha.

    The padding length n defaults to len(beta) + len(alpha); any n at
    least max(len(beta), len(content)) yields the same classes.
    """
    beta = Composition(beta)
    alpha = Composition(alpha)
    content = tuple(content)
    if beta.size != alpha.size + sum(content):
        raise SizeMismatch(
            f"|beta|={beta.size} must equal |alpha|+|content|="
            f"{alpha.size + sum(content)}")
    if sum(content) == 0:
        return []
    if n is None:
        n = max(len(beta) + len(alpha), len(content))
    delta = pad(beta, n)
    reps = []
    for gamma in placements(alpha, n, bound=delta):
        reps.extend(enum_lrs(delta, gamma, content))
    return reps


def count_lrc(beta: Sequence[int], alpha: Sequence[int],
              content: Sequence[int], n: int | None = None) -> int:
    """Number of LR equivalence classes of shape beta/alpha and given content."""
    return len(lrc_representatives(beta, alpha, content, n))


def reshape(y: Filling, sigma: Sequence[int]) -> Filling:
    """The unique contre-lattice SSK on the large basement with overall
    shape sigma and the same column sets as y.

    Iteratively removes the rightmost occurrence of the smallest remaining
    entry of y and places it at the end of the lowest remaining row of
    matching length in sigma.
    """
    report = is_ssk(y)
    if not report:
        raise NotContreLattice(f"input is not an SSK: {report.failure}")
    if not is_contre_lattice(col_word(y)):
        raise NotContreLattice("input column word is not contre-lattice")
    sigma = WeakComposition(sigma)
    if sorted(sigma) != sorted(y.shape.outer):
        raise NotRearrangement(
            f"{tuple(sigma)} does not rearrange {tuple(y.shape.outer)}")
    n = y.n

    remaining: list[tuple[int, int]] = []  # (value, column)
    for i, k in y.data_cells():
        remaining.append((y.value_at(i, k), k))
    current = list(sigma)
    entries: dict[tuple[int, int], int] = {}
    while remaining:
        x = min(v for v, _ in remaining)
        j = max(k for v, k in remaining if v == x)
        row = None
        for i in range(n, 0, -1):
            if current[i - 1] == j:
                row = i
                break
        if row is None:
            raise NotContreLattice(
                f"no row of length {j} available while placing {x}")
        entries[(row, j)] = x
        current[row - 1] = j - 1
        remaining.remove((x, j))
    tau = WeakComposition(current)
    rows = []
    for i in range(1, n + 1):
        rows.append([entries[(i, k)] for k in range(tau[i - 1] + 1, sigma[i - 1] + 1)])
    return Filling(SkewShape(sigma, tau), BasementKind.LARGE, rows)


def enum_ct(outer: Sequence[int], inner: Sequence[int] = (), *, n: int,
            content: Sequence[int] | None = None) -> Iterator[ContreTableau]:
    """All (skew) contretableaux of shape outer/inner with entries in [n].

    Rows weakly decrease, columns strictly decrease; optional exact content.
    """
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    if any(i > o for i, o in zip(inner, outer)):
        raise InvalidShape(f"inner {inner} not inside {outer}")
    nrows = len(outer)
    grid = [[0] * (outer[r] + 1) for r in range(nrows)]  # col 0 unused
    cells = [(r, c) for r in range(nrows)
             for c in range(inner[r] + 1, outer[r] + 1)]
    # capped by the data cell to the left and, strictly, by the one above
    caps = []
    for r, c in cells:
        cap = []
        if c > inner[r] + 1:
            cap.append((r, c - 1, 0))
        if r > 0 and inner[r - 1] < c <= outer[r - 1]:
            cap.append((r - 1, c, 1))
        caps.append(cap)
    for _ in _search(grid, cells, caps, [()] * len(cells), n, content):
        yield ContreTableau(outer, [tuple(grid[r][inner[r] + 1:])
                                    for r in range(nrows)], inner)


def enum_ssc(beta: Sequence[int], n: int,
             content: Sequence[int] | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Semistandard composition tableaux of shape beta with entries in [n].

    First column strictly increasing top to bottom, rows weakly decreasing,
    every triple an inversion triple; triples are taken on the composition
    diagram itself (the basement is superfluous here).  Yields row tuples.
    """
    beta = Composition(beta)
    nrows = len(beta)
    grid = [[0] * (b + 1) for b in beta]  # col 0 unused
    cells = [(i, k) for i in range(nrows - 1, -1, -1) for k in range(1, beta[i] + 1)]
    order = {cell: t for t, cell in enumerate(cells)}
    # the first column strictly increases downward (lower rows are placed
    # first); elsewhere the left neighbor caps the entry
    caps = [[(i, k - 1, 0)] if k > 1 else [(i + 1, 1, 1)] if i + 1 < nrows else []
            for i, k in cells]
    checks: list[list[tuple[Cell, Cell, Cell]]] = [[] for _ in cells]
    for i in range(nrows):
        for j in range(i + 1, nrows):
            bi, bj = beta[i], beta[j]
            if bi >= bj:
                for k in range(2, bj + 1):
                    tri = ((i, k), (j, k), (i, k - 1))
                    checks[max(order[m] for m in tri)].append(tri)
            else:
                for k in range(1, bi + 1):
                    tri = ((j, k + 1), (i, k), (j, k))
                    checks[max(order[m] for m in tri)].append(tri)
    for _ in _search(grid, cells, caps, checks, n, content):
        yield tuple(tuple(row[1:]) for row in grid)
