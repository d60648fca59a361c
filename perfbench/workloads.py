"""The three benchmark workloads: seeded CLI argv generators and the output
checks that judge each query after the timed region.

Nothing here imports skyline at module level, so the set-up probe can time
the import of ``skyline.cli`` itself.  Query generation uses only this
file's own combinatorics; the program receives nothing but argv lists.

Why each workload exists (kept in step with BENCHMARK.json):

* ``sweep`` is the batch job users run: ``verify all`` at 4/4/3.  Its time
  goes to shape value objects, the Bruhat order and LRS/LRK enumeration
  with a content budget and the regular filter; generating functions are
  memoized across its 9,828 instances.
* ``expand`` asks single ``expand`` queries with cold caches, always
  including the n=6 anchor ``expand qs --shape 3,2,1 --lambda 3,2,1``.  It
  is where polynomial multiplication and the atom peel matter.
* ``genfun`` asks single ``compute`` queries on larger shapes with cold
  caches: unconstrained fillings and contretableaux, no multiplication,
  no LR counting, large outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Callable

SWEEP_ARGV = ["verify", "all", "--max-n", "4", "--max-size", "4",
              "--max-lambda", "3", "--json"]
SWEEP_INSTANCES = 9828
SMOKE_SWEEP_ARGV = ["verify", "all", "--max-n", "2", "--max-size", "2",
                    "--max-lambda", "1", "--json"]
SMOKE_SWEEP_INSTANCES = 74

EXPAND_ANCHOR = ["expand", "qs", "--shape", "3,2,1", "--lambda", "3,2,1",
                 "--n", "6", "--json"]
SMOKE_ANCHOR = ["expand", "qs", "--shape", "2,1", "--lambda", "1", "--n",
                "3", "--json"]
# (partition of the left index, Schur partition, n): |shape| 3-5, |lambda|
# 2-4, n in {5, 6}, each asked in all three bases.  Degree-9 products in six
# variables take up to 4 s each here and would let one draw decide a run's
# tail, so six-variable products stop at degree 8; the anchor covers n=6 at
# degree 12.  The seed draws the arrangement of each left index.
EXPAND_FAMILIES = [
    ((3,), (2,), 5), ((2, 1), (1, 1), 5), ((1, 1, 1), (3,), 5),
    ((4,), (2, 1), 5), ((2, 2), (1, 1), 5), ((3, 1), (2, 2), 5),
    ((2, 1, 1), (3, 1), 5), ((3, 2), (2, 1), 5),
    ((3,), (1, 1), 6), ((2, 1), (2,), 6), ((1, 1, 1), (2, 1), 6),
    ((4,), (1, 1, 1), 6), ((2, 1, 1), (2,), 6), ((3, 1, 1), (1, 1), 6),
    ((2, 2), (2, 2), 6),
]

# Two shape families (lam, n) for each n in {7, 8} and |lam| in {8, 9, 10},
# one with few parts and one with many.  Each has 3,000-12,000 tableaux, so
# its schur query takes 0.1-0.5 s here and no single draw decides a run.
# Every batch asks all twelve families; the seed draws the arrangements of
# the atom, char and qs shapes, which is where their cost varies.
GENFUN_FAMILIES = [
    ((7, 1), 7), ((3, 2, 2, 1), 7), ((3, 3, 3), 7), ((4, 2, 1, 1, 1), 7),
    ((10,), 7), ((3, 3, 2, 1, 1), 7), ((8,), 8), ((3, 2, 1, 1, 1), 8),
    ((3, 2, 2, 2), 8), ((4, 1, 1, 1, 1, 1), 8), ((5, 1, 1, 1, 1, 1), 8),
    ((3, 3, 1, 1, 1, 1), 8),
]

ROUNDS = 8  # seeded rounds per plan; a run that gets through more starts over


@dataclass
class Query:
    """One CLI invocation and what its check needs to know about it."""

    argv: list[str]
    kind: str
    info: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        """Operations the query stands for: instances for the sweep."""
        return self.info.get("instances", 1)


@dataclass
class Unit:
    """Queries that run back to back.  Units of one kind ask the same
    number of queries at the same cost profile."""

    kind: str
    queries: list[Query]


@dataclass
class Plan:
    """The order in which a run executes its units.  A run first executes
    the first ``warmup`` units untimed, then at least the first
    ``min_units``, then goes on (starting over at the end) while the next
    unit is expected to fit its time; see run.py.  The workload's
    throughput is that of one unit of each kind, and its tail latency
    percentile is set by the queries of the first min_units."""

    units: list[Unit]
    min_units: int = 1
    warmup: int = 0

    @property
    def kinds(self) -> list[str]:
        return list(dict.fromkeys(u.kind for u in self.units))


def _csv(parts) -> str:
    return ",".join(map(str, parts))


@lru_cache(maxsize=None)
def _by_inversions(parts: tuple[int, ...]) -> tuple[int, ...]:
    """For each k, the number of distinct orderings of the multiset parts
    (sorted decreasing) with exactly k inversions, i.e. pairs i < j with
    seq[i] < seq[j]: the q-multinomial coefficient."""
    if not parts:
        return (1,)
    out: list[int] = []
    for v, rest, c in _first_choices(parts):
        for k, m in enumerate(_by_inversions(rest)):
            out.extend([0] * (k + c + 1 - len(out)))
            out[k + c] += m
    return tuple(out)


@lru_cache(maxsize=None)
def _first_choices(parts: tuple[int, ...]) -> tuple:
    """(first value, remaining parts, inversions the first value adds)."""
    out = []
    for i, v in enumerate(parts):
        if i == 0 or parts[i - 1] != v:
            rest = parts[:i] + parts[i + 1:]
            out.append((v, rest, sum(1 for x in rest if x > v)))
    return tuple(out)


@lru_cache(maxsize=None)
def _options(parts: tuple[int, ...], k: int) -> tuple:
    """For each first value: how many orderings with k inversions start
    with it, the value, the remaining parts and the inversions left."""
    out = []
    for v, rest, c in _first_choices(parts):
        counts = _by_inversions(rest)
        m = counts[k - c] if 0 <= k - c < len(counts) else 0
        if m:
            out.append((m, v, rest, k - c))
    return tuple(out)


def _with_inversions(rng: random.Random, parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """An ordering of parts (sorted decreasing) with exactly k inversions,
    drawn uniformly among all such orderings."""
    out = []
    while parts:
        options = _options(parts, k)
        pick = rng.randrange(sum(m for m, *_ in options))
        for m, v, parts, k in options:
            if pick < m:
                break
            pick -= m
        out.append(v)
    return tuple(out)


# Inversion-count quantiles handed out to the columns of a round; 7 is
# coprime to the 3 and 4 columns per family, so every kind of query meets
# every quantile.
LEVELS = 7


def _spread(rng: random.Random, parts, column: int) -> list[tuple[int, ...]]:
    """One seeded ordering of parts per round.  A query's cost grows with
    the inversions of its shape (the Bruhat length of its sorting
    permutation), so each column fixes the inversion count at a quantile
    of its distribution and the seed draws uniformly among the orderings
    with that count.  Every round then costs about the same."""
    parts = tuple(sorted(parts, reverse=True))
    counts = _by_inversions(parts)
    q = (column % LEVELS + 0.5) / LEVELS * sum(counts)
    k, seen = 0, counts[0]
    while seen < q:
        k += 1
        seen += counts[k]
    return [_with_inversions(rng, parts, k) for _ in range(ROUNDS)]


def _padded(lam, n: int) -> tuple[int, ...]:
    return tuple(lam) + (0,) * (n - len(lam))


def sweep_plan(seed: int, smoke: bool = False) -> Plan:
    """The sweep is exhaustive, so the seed does not apply."""
    argv = SMOKE_SWEEP_ARGV if smoke else SWEEP_ARGV
    count = SMOKE_SWEEP_INSTANCES if smoke else SWEEP_INSTANCES
    return Plan([Unit("sweep", [Query(list(argv), "sweep", {"instances": count})])])


def expand_plan(seed: int, smoke: bool = False) -> Plan:
    """Seeded rounds of 45 queries, each split into two halves (even and
    odd columns) around one run of the anchor: a0, anchor, b0, a1, anchor,
    b1, and so on.  The anchor alone takes about twice as long as a round.
    Asking it once per round spreads its runs, and the seeded queries, over
    the whole run, so that both sample the host's speed across it."""
    rng = random.Random(f"expand:{seed}")
    families = [((2,), (1,), 3)] if smoke else EXPAND_FAMILIES
    columns = []
    for lam, mu, n in families:
        for basis in ("atoms", "chars", "qs"):
            parts = lam if basis == "qs" else _padded(lam, n)
            columns.append([Query(["expand", basis, "--shape", _csv(shape),
                                   "--lambda", _csv(mu), "--n", str(n), "--json"],
                                  "expand")
                            for shape in _spread(rng, parts, len(columns))])
    anchor = Unit("anchor", [Query(list(SMOKE_ANCHOR if smoke else EXPAND_ANCHOR),
                                   "expand")])
    units = [u for b in range(ROUNDS)
             for u in (Unit("even", [col[b] for col in columns[0::2]]), anchor,
                       Unit("odd", [col[b] for col in columns[1::2]]))]
    return Plan(units, min_units=6, warmup=1)


def _genfun_columns(rng: random.Random, lam, n: int, first: int) -> list[list[Query]]:
    """The four generating functions of one shape family (lam, n), one
    query of each kind per round."""
    info = {"lam": tuple(lam), "n": n}
    schur = Query(["compute", "schur", "--shape", _csv(lam), "--n", str(n),
                   "--json"], "schur", info)
    columns = [[schur] * ROUNDS]
    for kind, parts in (("atom", _padded(lam, n)), ("char", _padded(lam, n)),
                        ("qs", tuple(lam))):
        columns.append([Query(["compute", kind, "--shape", _csv(shape), "--n",
                               str(n), "--json"], kind, dict(info, shape=shape))
                        for shape in _spread(rng, parts, first + len(columns))])
    return columns


def genfun_plan(seed: int, smoke: bool = False) -> Plan:
    rng = random.Random(f"genfun:{seed}")
    families = [((2, 1), 3)] if smoke else GENFUN_FAMILIES
    columns = [c for i, (lam, n) in enumerate(families)
               for c in _genfun_columns(rng, lam, n, 4 * i)]
    return Plan([Unit("batch", [col[b] for col in columns]) for b in range(ROUNDS)],
                min_units=4, warmup=1)


# ---------------------------------------------------------------------------
# Output checks run after the timed region and never re-run the path that
# produced the output they judge.  A check returns (failed operations,
# reason): the sweep's operations are its instances, any other query is one.


def check_sweep(query: Query, out: str) -> tuple[int, str | None]:
    rows = json.loads(out)
    expected = query.info["instances"]
    bad = [r["instance"] for r in rows if r["ok"] is not True]
    missing = max(0, expected - len(rows))
    if len(rows) != expected:
        return max(missing, len(bad), 1), f"{len(rows)} instances, expected {expected}"
    if bad:
        return len(bad), f"{len(bad)} instances failed, first {bad[0]}"
    return 0, None


def check_expand(query: Query, out: str) -> tuple[int, str | None]:
    report = json.loads(out)
    if report["ok"] is not True:
        return 1, f"not ok: {report.get('first_discrepancy')}"
    if report["enumerated"] != report["expanded"]:
        return 1, "enumerated and expanded coefficients differ"
    return 0, None


def _accumulate(acc: dict, terms: dict, sign: int = 1) -> dict:
    for e, c in terms.items():
        v = acc.get(e, 0) + sign * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


class GenfunChecker:
    """Checks compute outputs against identities that route through the
    other enumerator: fillings (atoms) against contretableaux (Schur).

    For a family (lam, n) it computes every atom A_g over rearrangements g
    of lam once, through ``skyline.poly.atom_poly``, and then requires

    * s_lam = sum of A_g over rearrangements of lam, where s_lam is the
      output of the family's ``schur`` query (contretableaux),
    * the ``atom`` output plus the other atoms = s_lam,
    * sum of QS_alpha over alpha sorting to lam = s_lam, with the ``qs``
      output standing for its own alpha,
    * the ``char`` output kappa_g = sum of A_b over b >= g in Bruhat order.
    """

    def __init__(self):
        from skyline.poly import atom_poly, schur_poly
        from skyline.shapes import comp_bruhat_geq
        self.atom_poly = atom_poly
        self.schur_poly = schur_poly
        self.comp_bruhat_geq = comp_bruhat_geq
        self.families: dict[tuple, dict] = {}
        self.schur: dict[tuple, dict] = {}

    def family(self, lam, n: int) -> dict:
        key = (tuple(lam), n)
        if key not in self.families:
            base = tuple(lam) + (0,) * (n - len(lam))
            atoms = {g: self.atom_poly(g, n).terms
                     for g in sorted(set(permutations(base)))}
            total: dict = {}
            flat: dict[tuple, dict] = {}
            for g, terms in atoms.items():
                _accumulate(total, terms)
                _accumulate(flat.setdefault(tuple(x for x in g if x), {}), terms)
            self.families[key] = {"atoms": atoms, "total": total, "qs": flat}
        return self.families[key]

    def check(self, query: Query, out: str) -> tuple[int, str | None]:
        why = self.mismatch(query, out)
        return (1 if why else 0), why

    def mismatch(self, query: Query, out: str) -> str | None:
        data = json.loads(out)
        p = {tuple(t["e"]): t["c"] for t in data["terms"]}
        lam, n = query.info["lam"], query.info["n"]
        if data["n"] != n:
            return f"output has {data['n']} variables, expected {n}"
        fam = self.family(lam, n)
        if query.kind == "schur":
            if p != fam["total"]:
                return "s_lam differs from the sum of atoms over rearrangements"
            self.schur[(lam, n)] = p
            return None
        schur = self.schur.get((lam, n))
        if schur is None:
            schur = self.schur[(lam, n)] = self.schur_poly(lam, n).terms
        g = query.info["shape"]
        if query.kind == "atom":
            rest = _accumulate(dict(fam["total"]), fam["atoms"][g], -1)
            if _accumulate(rest, p) != schur:
                return "atom plus the other atoms differs from s_lam"
        elif query.kind == "char":
            above: dict = {}
            for b, terms in fam["atoms"].items():
                if self.comp_bruhat_geq(b, g):
                    _accumulate(above, terms)
            if p != above:
                return "kappa_g differs from the sum of atoms above g"
        elif query.kind == "qs":
            rest = _accumulate(dict(fam["total"]), fam["qs"][g], -1)
            if _accumulate(rest, p) != schur:
                return "sum of QS over orderings of lam differs from s_lam"
        return None


WORKLOADS: dict[str, Callable[[int, bool], Plan]] = {
    "sweep": sweep_plan, "expand": expand_plan, "genfun": genfun_plan}


def make_checker(workload: str) -> Callable[[Query, str], tuple[int, str | None]]:
    if workload == "sweep":
        return check_sweep
    if workload == "expand":
        return check_expand
    return GenfunChecker().check
