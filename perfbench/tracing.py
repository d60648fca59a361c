"""Outside-in tracing of skyline's layers for the traced benchmark run.

The tracer wraps every public function and every constructor of each
``skyline.*`` module, in every ``skyline.*`` namespace that holds a
reference to it, and restores the originals on exit.  A span stack gives
self time (a span's duration minus the time of the spans it caused).  A
generator's time is the time spent inside its ``next()`` calls.  Spans are
aggregated per callable in memory and written out once, at the end.

Counters that a metric needs name their target explicitly.  When a target
no longer exists in the program, its wrapper is skipped and the metrics
that depend on it are left out of the report rather than reported as zero.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import sys
import types
from time import perf_counter

MODULES = ("shapes", "fillings", "words", "contretab", "enumgen", "poly",
           "lrrules", "cli")
BRUHAT = {"shapes.Permutation", "shapes.min_sorting_perm", "shapes.bruhat_leq",
          "shapes.comp_bruhat_geq"}
SHAPE_OBJECTS = {"shapes.WeakComposition", "shapes.Composition",
                 "shapes.Partition"}
GENFUNS = {"poly.schur_poly", "poly.atom_poly", "poly.char_poly",
           "poly.qs_poly"}
COEFFS = {"lrrules.coeff_a", "lrrules.coeff_b", "lrrules.coeff_qs",
          "lrrules.coeff_classical"}
INSTANCES = {"lrrules.verify_atom_theorem", "lrrules.verify_char_theorem",
             "lrrules.verify_qs_theorem", "lrrules.verify_consistency_identity"}
# is_inversion is the enumerator's innermost predicate, called for every
# candidate entry of every cell; a wrapper there would mostly measure
# itself, so its time stays in enumgen's self time, where the calls are
# made.  The benchmark itself calls clear_caches between queries.
SKIP = {"fillings.is_inversion", "poly.clear_caches"}


class Record:
    """Aggregated spans of one callable."""

    __slots__ = ("name", "group", "calls", "total", "self_time")

    def __init__(self, name: str, group: str):
        self.name, self.group = name, group
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stack, per-callable aggregates and the counters behind the
    per-layer metrics of one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [record, child_time]
        self.records: dict[str, Record] = {}
        self.present: set[str] = set()
        self.counts: dict[str, float] = {}
        self.outer_time: dict[str, float] = {}  # group -> time entered from outside
        self.instance_ms: list[float] = []
        self.genfun_seen: set = set()
        self.genfun_distinct = 0
        self._undo: list = []

    # -- spans ----------------------------------------------------------

    def _record(self, name: str) -> Record:
        module = name.split(".")[0]
        group = "shapes.bruhat" if name in BRUHAT else module
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record(name, group)
        return rec

    def _enter(self, rec: Record):
        frame = [rec, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, t0: float) -> float:
        dt = perf_counter() - t0
        self.stack.pop()
        rec = frame[0]
        rec.calls += 1
        rec.total += dt
        rec.self_time += dt - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            if parent[0].group == rec.group:
                return dt
        self.outer_time[rec.group] = self.outer_time.get(rec.group, 0.0) + dt
        return dt

    def _parent_group(self) -> str | None:
        return self.stack[-1][0].group if self.stack else None

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def new_epoch(self):
        """Caches were cleared: arguments seen before count as new again."""
        self.genfun_distinct += len(self.genfun_seen)
        self.genfun_seen = set()

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, name: str):
        rec = self._record(name)
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer._leave(frame, t0)
            if hook is not None:
                hook(tracer, args, result, dt)
            if isinstance(result, types.GeneratorType):
                return TracedGenerator(tracer, result, tracer._record(name + ".next"))
            return result

        traced.__wrapped__ = fn
        traced.__perfbench_span__ = name
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self):
        """Wrap every target that exists; return the wrapped names."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"skyline.{short}")
            except ModuleNotFoundError:
                continue
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "skyline" or n.startswith("skyline.")) and m]
        replace: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in SKIP:
                    continue
                if inspect.isfunction(obj):
                    if id(obj) in replace:  # an alias of a name already wrapped
                        continue
                    replace[id(obj)] = self.wrap(obj, name)
                    self.present.add(name)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._wrap_class(obj, name)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None and new.__wrapped__ is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, new)
        return sorted(self.present)

    def _wrap_class(self, cls, name: str):
        d = cls.__dict__
        if "__new__" in d and isinstance(d["__new__"], staticmethod):
            self._patch(cls, "__new__",
                        staticmethod(self._constructor(d["__new__"].__func__, cls, name)))
        elif "__init__" in d and inspect.isfunction(d["__init__"]):
            self._patch(cls, "__init__", self._constructor(d["__init__"], cls, name))
        else:
            return
        self.present.add(name)
        for dunder in ("__mul__", "__rmul__"):
            if inspect.isfunction(d.get(dunder)):
                self._patch(cls, dunder, self.wrap(d[dunder], f"{name}.{dunder}"))
                self.present.add(f"{name}.{dunder}")

    def _constructor(self, fn, owner, name: str):
        """Count objects only for the class actually being built, so a
        super().__new__ chain counts once."""
        traced = self.wrap(fn, name)
        tracer = self

        def construct(first, *args, **kwargs):
            cls = first if isinstance(first, type) else type(first)
            if cls is owner:
                tracer.count(f"built:{name}")
            return traced(first, *args, **kwargs)

        construct.__wrapped__ = fn
        construct.__perfbench_span__ = name
        return construct

    def _patch(self, cls, attr: str, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- report ---------------------------------------------------------

    def spans(self) -> list[dict]:
        return [{"name": r.name, "group": r.group, "calls": r.calls,
                 "total_s": r.total, "self_s": r.self_time}
                for r in sorted(self.records.values(), key=lambda r: -r.self_time)]

    def group_self(self, group: str) -> float:
        return sum(r.self_time for r in self.records.values() if r.group == group)

    def metrics(self, percentiles) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit).  ``percentiles``
        maps samples to (median, tail, tail percentile, count)."""
        has = self.present.__contains__
        c = self.counts.get
        m: dict[str, tuple[float, str]] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        if SHAPE_OBJECTS & self.present:
            m["shapes.objects"] = (sum(c(f"built:{n}", 0) for n in SHAPE_OBJECTS), "count")
        if any(n.startswith("shapes.") and n not in BRUHAT for n in self.present):
            m["shapes.self_s"] = (self.group_self("shapes"), "s")
        if {"shapes.bruhat_leq", "shapes.comp_bruhat_geq"} & self.present:
            m["shapes.bruhat_calls"] = (c("bruhat_calls", 0), "count")
            m["shapes.bruhat_self_s"] = (self.group_self("shapes.bruhat"), "s")
        if has("fillings.Filling"):
            m["fillings.built"] = (c("built:fillings.Filling", 0), "count")
        if any(n.startswith("fillings.") for n in self.present):
            m["fillings.self_s"] = (self.group_self("fillings"), "s")
        if has("words.is_regular_contre_lattice"):
            checks = c("regular_checks", 0)
            m["words.regular_checks"] = (checks, "count")
            m["words.regular_accept_ratio"] = (ratio(c("regular_accepted", 0), checks), "ratio")
        if any(n.startswith("words.") for n in self.present):
            m["words.self_s"] = (self.group_self("words"), "s")
        if has("contretab.ContreTableau"):
            m["contretab.built"] = (c("built:contretab.ContreTableau", 0), "count")
        if any(n.startswith("contretab.") for n in self.present):
            m["contretab.self_s"] = (self.group_self("contretab"), "s")
        if any(n.startswith("enumgen.") for n in self.present):
            items = c("enum_items", 0)
            m["enumgen.items"] = (items, "count")
            m["enumgen.self_s"] = (self.group_self("enumgen"), "s")
            m["enumgen.items_per_s"] = (ratio(items, self.outer_time.get("enumgen", 0.0)), "1/s")
        if has("poly.Polynomial.__mul__"):
            m["poly.mul_calls"] = (c("mul_calls", 0), "count")
            m["poly.mul_term_pairs"] = (c("mul_term_pairs", 0), "count")
            m["poly.mul_self_s"] = (sum(
                r.self_time for r in self.records.values()
                if r.name in ("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__")), "s")
        if has("poly.expand_in_atoms"):
            m["poly.expand_peels"] = (c("expand_peels", 0), "count")
            m["poly.expand_input_terms"] = (c("expand_input_terms", 0), "count")
            m["poly.expand_self_s"] = (self.records["poly.expand_in_atoms"].self_time, "s")
        if has("poly.Polynomial"):
            m["poly.built"] = (c("built:poly.Polynomial", 0), "count")
            m["poly.init_self_s"] = (self.records["poly.Polynomial"].self_time, "s")
        if GENFUNS & self.present:
            calls = c("genfun_calls", 0)
            distinct = self.genfun_distinct + len(self.genfun_seen)
            m["poly.genfun_calls"] = (calls, "count")
            m["poly.genfun_reuse_ratio"] = (ratio(calls - distinct, calls), "ratio")
        if COEFFS & self.present:
            calls = c("coeff_calls", 0)
            m["lrrules.coeff_calls"] = (calls, "count")
            m["lrrules.coeff_nonzero_ratio"] = (ratio(c("coeff_nonzero", 0), calls), "ratio")
        if any(n.startswith("lrrules.") for n in self.present):
            m["lrrules.self_s"] = (self.group_self("lrrules"), "s")
        if INSTANCES & self.present:
            p50, tail, _, _ = percentiles(self.instance_ms)
            m["lrrules.instances"] = (len(self.instance_ms), "count")
            m["lrrules.instance_p50_ms"] = (p50, "ms")
            m["lrrules.instance_tail_ms"] = (tail, "ms")
        if has("cli.main"):
            m["cli.self_s"] = (self.group_self("cli"), "s")
            m["cli.output_bytes"] = (c("output_bytes", 0), "count")
        return m


class TracedGenerator:
    """A generator whose next() calls are spans; enumgen ones count items."""

    __slots__ = ("tracer", "gen", "rec", "counts_items")

    def __init__(self, tracer: Tracer, gen, rec: Record):
        self.tracer, self.gen, self.rec = tracer, gen, rec
        self.counts_items = rec.group == "enumgen"

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer._enter(self.rec)
        t0 = perf_counter()
        try:
            item = next(self.gen)
        finally:
            tracer._leave(frame, t0)
        if self.counts_items:
            tracer.count("enum_items")
        return item


# -- hooks: counters measured where the work happens -------------------


def _freeze(args) -> tuple:
    return tuple(tuple(a) if isinstance(a, (list, tuple)) else a for a in args)


def _genfun(name):
    def hook(tracer: Tracer, args, result, dt):
        tracer.count("genfun_calls")
        tracer.genfun_seen.add((name, _freeze(args)))
    return hook


def _coeff(tracer: Tracer, args, result, dt):
    tracer.count("coeff_calls")
    if result:
        tracer.count("coeff_nonzero")


def _instance(tracer: Tracer, args, result, dt):
    if not (tracer.stack and tracer.stack[-1][0].name in INSTANCES):
        tracer.instance_ms.append(dt * 1000.0)


def _regular(tracer: Tracer, args, result, dt):
    tracer.count("regular_checks")
    if result:
        tracer.count("regular_accepted")


def _bruhat(tracer: Tracer, args, result, dt):
    if tracer._parent_group() != "shapes.bruhat":
        tracer.count("bruhat_calls")


def _mul(tracer: Tracer, args, result, dt):
    a, b = args
    tracer.count("mul_calls")
    tracer.count("mul_term_pairs", len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))


def _expand(tracer: Tracer, args, result, dt):
    tracer.count("expand_input_terms", len(args[0].terms))
    tracer.count("expand_peels", len(result))


HOOKS = {name: _genfun(name) for name in GENFUNS}
HOOKS.update({name: _coeff for name in COEFFS})
HOOKS.update({name: _instance for name in INSTANCES})
HOOKS.update({
    "words.is_regular_contre_lattice": _regular,
    "shapes.bruhat_leq": _bruhat,
    "shapes.comp_bruhat_geq": _bruhat,
    "poly.Polynomial.__mul__": _mul,
    "poly.Polynomial.__rmul__": _mul,
    "poly.expand_in_atoms": _expand,
})
