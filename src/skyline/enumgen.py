"""Exhaustive generators for skyline fillings, contretableaux, and the
Littlewood-Richardson tableau families, plus the shape-rearrangement
construction that underlies the equivalence-class counts.

All generators share one backtracking engine, `_search`, which uses an
explicit stack, so no shape size meets the recursion limit.  It fills a
grid row by row and chooses each row's length as it reaches the row;
each generator only lays out, for a row of a given length, the cells
that cap each entry and the triple checks that become decidable once a
cell is placed.  Skyline fillings are placed in row reading order
(bottom row first, left to right).  In that order every triple between
a row and the rows below it is known once the row's length is chosen,
and becomes checkable exactly when its last data cell is placed.  So
with free row lengths one search finds the LR tableaux of every outer
shape with no empty row at once (`_lr_counts`; the LR rules put the
empty rows back), and the fixed shapes of `enum_ssk_shape` and
`enum_ct` are the case of forced lengths.  Composition tableaux
(`enum_ssc`) are standard-basement skyline fillings with the empty rows
dropped, so they come from the same skyline search.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterator, Sequence

from .errors import (InvalidShape, NotContreLattice, NotRearrangement,
                     SizeMismatch)
from .contretab import ContreTableau
from .fillings import (BasementKind, Filling, SkewShape, basement_values,
                       is_inversion, is_ssk)
from .shapes import Composition, Partition, WeakComposition, pad, placements
from .words import col_word, is_contre_lattice, is_regular_contre_lattice

Cell = tuple[int, int]  # (row, column) index into the grid
Triple = tuple[Cell, Cell, Cell]
# a cell to fill: row, column, caps (row, column, offset) and triple checks
Step = tuple[int, int, Sequence[tuple[int, int, int]], list[Triple]]
# a row's layout: the triples to check once its length is chosen, and its cells
Layout = tuple[Sequence[Triple], list[Step]]


def _search(grid: list[list[int]], delta: list[int],
            rows: Sequence[tuple[int, int, int, int]],
            layout: Callable[[int], Layout], size: int, n: int,
            content: Sequence[int] | None = None) -> Iterator[None]:
    """Place `size` entries in [1, n] in `grid`, row by row, in every way
    that respects the layouts and the exact content.  A content of None
    is a budget of `size` for every entry, which never runs out.

    rows[d] = (i, lo, shortest, longest): the d-th row filled, row i,
    holds delta[i] - lo cells, and the shortest - lo of them that every
    length gives it are set aside for it from the start.  The search sets
    delta[i] as it reaches the row, trying each length in [shortest,
    longest] in increasing order; the last row takes every cell still
    unplaced.  layout(i) then reads delta and returns (now, cells): the
    triples to check at once, and the row's cells in the order they are
    filled, each (i, k, caps, checks) for the grid cell (i, k).  A layout
    depends only on the lengths chosen so far, so it is reused until the
    row before it gives up its length.

    The entry at cell (i, k) is at most grid[r][c] - offset for each
    (r, c, offset) in caps, and every triple in checks, like those in
    `now`, must be an inversion triple once it is placed.  The cells must
    hold 0 on entry, and 0 marks a cell not yet placed.  Yields once per
    complete assignment, with grid and delta holding it.  Candidate
    entries are tried in descending order.
    """
    if content is None:
        content = [size] * n
    elif sum(content) != size:
        return
    budget = list(content)[:n]
    n = len(budget)  # larger entries have no budget
    last = len(rows) - 1
    # The path: the depth d of a row, where its length is chosen, then one
    # (i, k, caps, checks) per cell of that row.
    steps: list = [0] if rows else []
    # memo[d]: row d's layouts by length, from when row d - 1 takes its
    # length until it gives it up; so memo[d + 1] exists iff row d has one
    memo: list[dict] = [{}]
    # cells not yet in a row with a length, past each row's shortest length
    left = size - sum(shortest - lo for _, lo, shortest, _ in rows)
    t = 0
    while t >= 0:
        if t == len(steps):
            yield
            t -= 1
            continue
        step = steps[t]
        if step.__class__ is int:  # choose the length of the row at depth `step`
            i, _, shortest, longest = rows[step]
            length = shortest
            del steps[t + 1:]
            if len(memo) > step + 1:  # back at this row: release its length
                memo.pop()
                left += delta[i] - shortest
                length = delta[i] + 1
            if longest > shortest + left:
                longest = shortest + left
            if step == last and length < shortest + left:
                length = shortest + left
            layouts = memo[step]
            while length <= longest:
                delta[i] = length
                found = layouts.get(length)
                if found is None:
                    found = layouts[length] = layout(i)
                for (ra, ca), (rb, cb), (rc, cc) in found[0]:
                    if not is_inversion(grid[ra][ca], grid[rb][cb], grid[rc][cc]):
                        break
                else:
                    break
                length += 1
            if length <= longest:
                left -= length - shortest
                memo.append({})
                steps.extend(found[1])
                if step < last:
                    steps.append(step + 1)
                t += 1
            else:
                t -= 1
            continue
        i, k, caps, checks = step
        row = grid[i]
        v = row[k]
        if v:  # back at cell t: release its entry and try the next lower one
            budget[v - 1] += 1
            v -= 1
        else:  # first visit since the cells before t changed
            v = n
            for r, c, offset in caps:
                v = min(v, grid[r][c] - offset)
        while v > 0:
            if budget[v - 1]:
                row[k] = v
                for (ra, ca), (rb, cb), (rc, cc) in checks:
                    if not is_inversion(grid[ra][ca], grid[rb][cb], grid[rc][cc]):
                        break
                else:
                    break
            v -= 1
        if v > 0:
            budget[v - 1] -= 1
            t += 1
        else:
            row[k] = 0
            t -= 1


def _fixed(grid: list[list[int]], steps: list[Step], n: int,
           content: Sequence[int] | None) -> Iterator[None]:
    """_search over a fixed list of (i, k, caps, checks) cells, taken as
    one row whose length is forced."""
    return _search(grid, [0], [(0, 0, len(steps), len(steps))],
                   lambda _: ((), steps), len(steps), n, content)


def _skyline(inner: Sequence[int], basement: BasementKind, size: int,
             content: Sequence[int] | None, outer: Sequence[int] | None = None
             ) -> Iterator[tuple[list[list[int]], list[int]]]:
    """The semistandard skyline fillings of `size` cells of shape
    delta/inner on the basement: of the given outer shape, or, when outer
    is None, of every delta containing inner with no empty row (a row
    with nothing of inner gets at least one cell).  Then the entries run
    up to the content's length, and the basement values stay above them
    in the same order, however few rows there are.

    Yields (grid, delta) once per filling, both reused, so read them
    before the next one.  grid[i][k] is the cell (i + 1, k); column 0 and
    the inner cells hold the basement value of the row.
    """
    n = len(inner)
    top = n if outer is not None else max(n, len(content))
    bvals = basement_values(basement, top)[:n]
    longest = [g + size for g in inner] if outer is None else outer
    grid = [[bvals[i]] * (inner[i] + 1) + [0] * (longest[i] - inner[i])
            for i in range(n)]
    delta = list(inner if outer is None else outer)

    def layout(i: int) -> Layout:
        # Each triple between row i and a row j below it is binned on its
        # data cell in row i, or checked at once when its data cells all
        # lie in row j.  A triple with no data cell reads (b, b', b) for
        # two distinct basement values, always an inversion triple.
        di, gi = delta[i], inner[i]
        now: list[Triple] = []
        checks: list[list[Triple]] = [[] for _ in range(di - gi)]
        for j in compress(range(i + 1, n), delta[i + 1:]):  # rows below, not empty
            dj, gj = delta[j], inner[j]
            if di >= dj:  # type A: (i,k), (j,k), (i,k-1)
                for k in range(1, dj + 1):
                    if k > gi:
                        checks[k - gi - 1].append(((i, k), (j, k), (i, k - 1)))
                    elif k > gj:
                        now.append(((i, k), (j, k), (i, k - 1)))
            else:  # type B: (j,k+1), (i,k), (j,k)
                for k in range(di + 1):
                    if k > gi:
                        checks[k - gi - 1].append(((j, k + 1), (i, k), (j, k)))
                    elif k >= gj:
                        now.append(((j, k + 1), (i, k), (j, k)))
        # the left neighbor always exists: a data, inner or basement cell
        return now, [(i, k, ((i, k - 1, 0),), checks[k - gi - 1])
                     for k in range(gi + 1, di + 1)]

    if outer is None:
        # bottom row first: in that order every triple is known once the
        # length of its upper row is chosen
        rows = [(i, inner[i], max(inner[i], 1), longest[i])
                for i in range(n - 1, -1, -1)]
        search = _search(grid, delta, rows, layout, size, top, content)
    else:
        # every length is known: lay all rows out at once, with each
        # triple checked at its last data cell in fill order
        steps: list[Step] = []
        order: dict[Cell, int] = {}
        for i in range(n - 1, -1, -1):
            now, cells = layout(i)
            for tri in now:
                steps[max(order[m] for m in tri if m in order)][3].append(tri)
            for cell in cells:
                order[cell[:2]] = len(steps)
                steps.append(cell)
        search = _fixed(grid, steps, n, content)
    for _ in search:
        yield grid, delta


def _col_word(grid: list[list[int]], inner: Sequence[int],
              delta: Sequence[int]) -> tuple[int, ...]:
    """The column word of the filling in `grid`, in the order of
    `words.col_word` (data entries top to bottom in each column, rightmost
    column first), read without building the Filling."""
    return tuple(grid[i][k] for k in range(max(delta, default=0), 0, -1)
                 for i in range(len(delta)) if inner[i] < k <= delta[i])


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
    for grid, _ in _skyline(inner, basement, shape.size, content, outer):
        if not require_regular or is_regular_contre_lattice(
                _col_word(grid, inner, outer)):
            yield Filling(shape, basement,
                          [grid[i][inner[i] + 1:] for i in range(n)])


def _lr_counts(inner: Sequence[int], basement: BasementKind,
               content: Sequence[int]) -> dict[tuple[int, ...], int]:
    """The nonzero numbers of LR tableaux of shape delta/inner on the
    basement with the given content (a regular contre-lattice column
    word), by outer shape delta with no empty row, from one search over
    every such delta at once.  Entries run up to the content's length,
    whatever the number of rows."""
    counts: dict[tuple[int, ...], int] = {}
    for grid, delta in _skyline(inner, basement, sum(content), content):
        if is_regular_contre_lattice(_col_word(grid, inner, delta)):
            key = tuple(delta)
            counts[key] = counts.get(key, 0) + 1
    return counts


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

    Takes the entries of y by increasing value, rightmost first among
    equal values, and places each at the end of the lowest remaining row
    of matching length in sigma.
    """
    report = is_ssk(y)
    if not report:
        raise NotContreLattice(f"input is not an SSK: {report.failure}")
    if not is_contre_lattice(col_word(y)):
        raise NotContreLattice("input column word is not contre-lattice")
    return _reshape(y, sigma)


def _reshape(y: Filling, sigma: Sequence[int]) -> Filling:
    """reshape of a filling already known to be a contre-lattice SSK."""
    sigma = WeakComposition(sigma)
    if sorted(sigma) != sorted(y.shape.outer):
        raise NotRearrangement(
            f"{tuple(sigma)} does not rearrange {tuple(y.shape.outer)}")
    n = y.n
    current = list(sigma)
    entries: dict[tuple[int, int], int] = {}
    for x, j in sorted(((y.value_at(i, k), k) for i, k in y.data_cells()),
                       key=lambda e: (e[0], -e[1])):
        for row in range(n, 0, -1):
            if current[row - 1] == j:
                break
        else:
            raise NotContreLattice(
                f"no row of length {j} available while placing {x}")
        entries[(row, j)] = x
        current[row - 1] = j - 1
    tau = WeakComposition(current)
    rows = []
    for i in range(1, n + 1):
        rows.append([entries[(i, k)] for k in range(tau[i - 1] + 1, sigma[i - 1] + 1)])
    return Filling(SkewShape(sigma, tau), BasementKind.LARGE, rows)


def enum_ct(outer: Sequence[int], inner: Sequence[int] = (), *, n: int,
            content: Sequence[int] | None = None) -> Iterator[ContreTableau]:
    """All (skew) contretableaux of shape outer/inner with entries in [n].

    Rows weakly decrease, columns strictly decrease; optional exact content.
    Both shapes are checked up front, whether or not a tableau exists.
    """
    outer = Partition(outer)
    inner = WeakComposition(inner)
    if len(inner) > len(outer) or any(a < b for a, b in zip(inner, inner[1:])):
        raise InvalidShape(f"inner {tuple(inner)} is not a partition of at "
                           f"most {len(outer)} rows")
    inner = inner + (0,) * (len(outer) - len(inner))
    if any(i > o for i, o in zip(inner, outer)):
        raise InvalidShape(f"inner {inner} not inside {tuple(outer)}")
    nrows = len(outer)
    grid = [[0] * (outer[r] + 1) for r in range(nrows)]  # col 0 unused
    cells = [(r, c) for r in range(nrows)
             for c in range(inner[r] + 1, outer[r] + 1)]
    # capped by the data cell to the left and, strictly, by the one above
    steps = []
    for r, c in cells:
        cap = []
        if c > inner[r] + 1:
            cap.append((r, c - 1, 0))
        if r > 0 and inner[r - 1] < c <= outer[r - 1]:
            cap.append((r - 1, c, 1))
        steps.append((r, c, cap, []))
    for _ in _fixed(grid, steps, n, content):
        yield ContreTableau(outer, [tuple(grid[r][inner[r] + 1:])
                                    for r in range(nrows)], inner)


def enum_ssc(beta: Sequence[int], n: int,
             content: Sequence[int] | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Semistandard composition tableaux of shape beta with entries in [n].

    First column strictly increasing top to bottom, rows weakly decreasing,
    every triple an inversion triple; triples are taken on the composition
    diagram itself.  These are the standard-basement fillings whose shape
    flattens to beta, with the empty rows dropped, so each placement of
    beta in n rows is one skyline search.  Yields row tuples, decreasing
    on their entries in fill order (bottom row first, left to right).
    """
    beta = Composition(beta)
    if not beta:  # no rows, which a basement cannot have
        if content is None or sum(content) == 0:
            yield ()
        return
    tableaux = [tuple(tuple(row[1:]) for row in grid if len(row) > 1)
                for g in placements(beta, n)
                for grid, _ in _skyline((0,) * n, BasementKind.IDENT,
                                        beta.size, content, g)]
    tableaux.sort(key=lambda t: [v for row in reversed(t) for v in row],
                  reverse=True)
    yield from tableaux
