"""Command-line interface: compute generating polynomials, count LR
tableaux, run verification sweeps, render diagrams, and expand products.

Exit codes: 0 success (all verifications passed), 1 verification failure,
2 usage or parse error.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SkylineError
from .contretab import ContreTableau
from .enumgen import enum_ct, enum_lrk, enum_lrs, lrc_representatives
from .fillings import Filling
from .contretab import is_lr_skew_ct
from .lrrules import sweep, verify_atom_theorem, verify_char_theorem, verify_qs_theorem
from .poly import atom_poly, char_poly, clear_caches, qs_poly, schur_poly
from .shapes import parse_sequence

DEFAULT_BOUNDS = {"max_n": 3, "max_size": 3, "max_lambda": 2}


def _check_nonnegative(**flags: int) -> None:
    for k, v in flags.items():
        if v < 0:
            raise SkylineError(f"--{k.replace('_', '-')} must be nonnegative, got {v}")

def _cmd_compute(args) -> int:
    _check_nonnegative(n=args.n)
    # built per call, so that a wrapper installed on a module-level name
    # (as perfbench/tracing.py does) sees the call
    poly = {"schur": schur_poly, "atom": atom_poly, "char": char_poly,
            "qs": qs_poly}[args.kind]
    p = poly(parse_sequence(args.shape), args.n)
    if args.json:
        print(json.dumps(p.to_json()))
    else:
        print(p)
    return 0


def _cmd_count(args) -> int:
    outer = parse_sequence(args.outer)
    inner = parse_sequence(args.inner) if args.inner is not None else None
    content = parse_sequence(args.content)
    if args.kind == "lrs":
        items = list(enum_lrs(outer, inner or (0,) * len(outer), content))
    elif args.kind == "lrk":
        items = list(enum_lrk(outer, inner or (0,) * len(outer), content))
    elif args.kind == "lrc":
        items = list(lrc_representatives(outer, inner or (), content))
    else:  # LR skew contretableaux
        items = [t for t in enum_ct(outer, inner or (), n=len(content),
                                    content=content)
                 if is_lr_skew_ct(t)]
    if args.list:
        print(json.dumps([t.to_json() for t in items]))
    elif args.json:
        print(json.dumps({"count": len(items)}))
    else:
        print(len(items))
    return 0


def _cmd_verify(args) -> int:
    bounds = {"max_n": args.max_n, "max_size": args.max_size,
              "max_lambda": args.max_lambda}
    _check_nonnegative(**bounds)
    if any(bounds[k] > DEFAULT_BOUNDS[k] for k in bounds):
        print("warning: bounds beyond the default envelope; "
              "exhaustive sweeps grow quickly", file=sys.stderr)
    suites = (["atoms", "chars", "qs", "consistency"]
              if args.suite == "all" else [args.suite])
    results = []
    for suite in suites:
        results.extend(sweep(suite, **bounds))
    clear_caches()  # the memo is not needed while the output is built
    failures = [r for r in results if not r[1]]
    if args.json:
        # Written item by item, byte for byte as json.dumps of the whole
        # list, so that neither the list of dicts nor the output is built.
        write = sys.stdout.write
        write("[")
        for j, (label, ok, detail) in enumerate(results):
            if j:
                write(", ")
            write(json.dumps({"instance": label, "ok": ok, "detail": detail}))
        write("]\n")
    else:
        for label, ok, detail in results:
            line = f"{'PASS' if ok else 'FAIL'} {label}"
            if detail and not ok:
                line += f" ({detail})"
            print(line)
        print(f"{len(results) - len(failures)}/{len(results)} instances passed")
    return 1 if failures else 0


def _cmd_render(args) -> int:
    data = json.load(sys.stdin)
    if isinstance(data, dict) and "basement" in data:
        print(Filling.from_json(data).render())
    else:
        print(ContreTableau.from_json(data).render())
    return 0


def _cmd_expand(args) -> int:
    _check_nonnegative(n=args.n)
    verify = {"atoms": verify_atom_theorem, "chars": verify_char_theorem,
              "qs": verify_qs_theorem}[args.basis]  # built per call, as above
    report = verify(parse_sequence(args.shape), parse_sequence(args.lam),
                    args.n)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.identity)
        for key, c in sorted(report.enumerated.items()):
            print(f"  {','.join(map(str, key)) or '-'}: {c}")
        print("OK" if report.ok else f"FAILED: {report.first_discrepancy}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skyline",
        description="Skyline-filling combinatorics: Demazure atoms and "
                    "characters, quasisymmetric Schur polynomials, and "
                    "their Littlewood-Richardson rules.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print a generating polynomial")
    p.add_argument("kind", choices=["schur", "atom", "char", "qs"])
    p.add_argument("--shape", required=True, help="comma-separated parts")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("count", help="count LR tableaux or classes")
    p.add_argument("kind", choices=["lrs", "lrk", "lrc", "ct"])
    p.add_argument("--outer", required=True, help="outer shape")
    p.add_argument("--inner", help="inner (basement) shape")
    p.add_argument("--content", required=True, help="content vector")
    p.add_argument("--list", action="store_true",
                   help="emit the tableaux as a JSON array")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="run exhaustive verification sweeps")
    p.add_argument("suite", choices=["atoms", "chars", "qs", "consistency", "all"])
    p.add_argument("--max-n", type=int, default=DEFAULT_BOUNDS["max_n"])
    p.add_argument("--max-size", type=int, default=DEFAULT_BOUNDS["max_size"])
    p.add_argument("--max-lambda", type=int, default=DEFAULT_BOUNDS["max_lambda"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render a filling/tableau JSON from stdin")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("expand", help="expand a product into a coefficient table")
    p.add_argument("basis", choices=["atoms", "chars", "qs"])
    p.add_argument("--shape", required=True, help="index shape of the left factor")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition for the Schur factor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built once per process; parsing leaves it unchanged
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except SkylineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
