"""Benchmark of the skyline CLI, driven in-process through
``skyline.cli.main(argv)`` from one process and one thread as a closed loop:
each query is issued only after the previous one returns.

    python3 perfbench/run.py --workload {sweep,expand,genfun} --seed N \\
        --seconds S --trace {0,1}

A run executes the units of its workload's plan (see workloads.py) in order.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs the first units untraced, then the same units
with every layer wrapped (see tracing.py), and reports the per-layer
metrics and the tracing overhead.  Outputs are checked after the timed
region.  The last line of standard output is the result object; the line
before it holds diagnostics that are not metrics (the host-speed reference
loop, sample counts, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
import zlib
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Plan, make_checker  # noqa: E402

SETUP_PROBES = (5, 4)  # fresh interpreters timed before and after the run
TAIL_BEYOND = 10
HD_MIN_SAMPLES = 20
HD_STEPS = 32  # integration steps per order statistic


def hd_quantile(s: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples: the
    average of all order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    distribution of the sample quantile, integrated numerically.  Query
    costs leave gaps between neighbouring samples; this estimate does not
    jump across them when a few samples trade places."""
    n = len(s)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)

    def log_density(x: float) -> float:
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    # Densities are taken relative to the one at the mode, which would
    # underflow to 0 on their own for thousands of samples.
    top = log_density((a - 1) / (a + b - 2) if a > 1 and b > 1 else 0.5)
    steps = n * HD_STEPS
    weights = [0.0] * n
    for j in range(steps):
        weights[j // HD_STEPS] += math.exp(log_density((j + 0.5) / steps) - top)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, s)) / total


def tail_stats(samples: list[float], n_min: int | None = None
               ) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, sample count).  The tail is the
    highest percentile with at least TAIL_BEYOND samples beyond it in a
    sample of ``n_min`` (by default, of this one); with too few samples for
    that it is the maximum.  Fixing n_min for a workload fixes its
    percentile, however many samples a run takes.  From HD_MIN_SAMPLES on,
    both are Harrell-Davis estimates."""
    if not samples:
        return 0.0, 0.0, 0.0, 0
    s = sorted(samples)
    n = len(s)
    n_min = n if n_min is None else min(n, n_min)
    if n_min <= TAIL_BEYOND:
        return statistics.median(s), s[-1], 100.0, n
    q = 1.0 - TAIL_BEYOND / n_min
    if n < HD_MIN_SAMPLES:
        return statistics.median(s), s[math.ceil(q * n) - 1], 100.0 * q, n
    return hd_quantile(s, 0.5), hd_quantile(s, q), 100.0 * q, n


def reference_loop() -> float:
    """A fixed pure-Python loop; its time is a host-speed diagnostic."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def import_program():
    sys.path.insert(0, str(SRC))
    import skyline.cli
    if Path(skyline.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: imported skyline from {skyline.cli.__file__}")
    return skyline.cli


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """Runs in a fresh interpreter: time the import of skyline.cli and the
    generation of the queries."""
    t0 = perf_counter()
    import_program()
    WORKLOADS[workload](seed, smoke)
    print(perf_counter() - t0)


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
            + (["--smoke"] if smoke else []),
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Result:
    """One executed query; the output is kept compressed until checked."""

    __slots__ = ("query", "seconds", "code", "stdout", "stderr", "error")

    def __init__(self, query, seconds, code, stdout, stderr, error):
        self.query, self.seconds, self.code = query, seconds, code
        self.stdout = zlib.compress(stdout.encode(), 1)
        self.stderr, self.error = stderr, error


def run_query(cli, query, tracer=None) -> Result:
    """One CLI invocation with cold caches, as from a fresh process."""
    from skyline.poly import clear_caches
    clear_caches()
    if tracer is not None:
        tracer.new_epoch()
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(query.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed query, not a failed run
        code, error = None, traceback.format_exc()
    dt = perf_counter() - t0
    text = out.getvalue()
    if tracer is not None:
        tracer.count("output_bytes", len(text.encode()))
    return Result(query, dt, code, text, err.getvalue(), error)


Done = list[tuple[str, list[Result]]]  # (unit kind, its results) in run order


def run_units(cli, plan: Plan, more, tracer=None, host=None) -> Done:
    """Closed loop over the plan's units, in order and starting over at the
    end, while ``more(done)`` says so.  After each unit the host reference
    loop is timed into ``host``, if given, outside the query times."""
    done: Done = []
    while more(done):
        unit = plan.units[len(done) % len(plan.units)]
        done.append((unit.kind, [run_query(cli, q, tracer) for q in unit.queries]))
        if host is not None:
            host.append(reference_loop())
    return done


def unit_seconds(results: list[Result]) -> float:
    return sum(r.seconds for r in results)


def timed(plan: Plan, seconds: float):
    """After the plan's first min_units, start the next unit only while at
    least half of it, by the mean time of the units of its kind so far, fits
    in ``seconds`` of query time.  A run thus ends within half a unit of its
    time, and whole units keep the mix of queries fixed."""
    def more(done: Done) -> bool:
        if len(done) < plan.min_units:
            return True
        kind = plan.units[len(done) % len(plan.units)].kind
        same = [unit_seconds(rs) for k, rs in done if k == kind]
        elapsed = sum(unit_seconds(rs) for _, rs in done)
        return elapsed + statistics.mean(same) / 2 <= seconds
    return more


def flat(done: Done) -> list[Result]:
    return [r for _, rs in done for r in rs]


def check_results(workload: str, results: list[Result]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) in operations: verified
    instances for the sweep, queries otherwise."""
    checker = make_checker(workload)
    attempted = failed = 0
    messages = []
    for r in results:
        weight = r.query.ops
        attempted += weight
        if r.error is not None or "Traceback" in r.stderr:
            bad, why = weight, (r.error or r.stderr).strip().splitlines()[-1]
        elif r.code != 0:
            bad, why = weight, f"exit code {r.code}: {r.stderr.strip()[:200]}"
        else:
            try:
                bad, why = checker(r.query, zlib.decompress(r.stdout).decode())
            except Exception as exc:  # malformed output fails its check
                bad, why = weight, f"unreadable output: {exc!r}"
        if bad:
            failed += bad
            messages.append(f"{' '.join(r.query.argv)}: {why}")
    return attempted, failed, messages


def wrapped_callables() -> int:
    """Number of skyline callables currently replaced by a tracing wrapper."""
    def traced(v):
        return hasattr(getattr(v, "__func__", v), "__perfbench_span__")

    count = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "skyline" or name.startswith("skyline.")) or mod is None:
            continue
        for obj in vars(mod).values():
            count += traced(obj)
            if isinstance(obj, type) and obj.__module__ == name:
                count += sum(traced(v) for v in vars(obj).values())
    return count


def ops_per_s(done: Done) -> float:
    """Throughput of one unit of each kind: the operations of those units
    over the sum of the median time of each kind.  Medians over units keep
    a burst of host slowness in one unit from moving the rate, and taking
    one unit of each kind keeps the mix fixed however many units ran."""
    ops = seconds = 0.0
    for kind in dict.fromkeys(k for k, _ in done):
        units = [rs for k, rs in done if k == kind]
        ops += sum(r.query.ops for r in units[0])
        seconds += statistics.median(unit_seconds(rs) for rs in units)
    return ops / seconds


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    diag: dict = {"workload": workload, "seed": seed, "trace": trace,
                  "host_reference_loop_s": [reference_loop()]}
    before, after = SETUP_PROBES
    if not trace:
        setup = measure_setup(workload, seed, smoke, before)
    cli = import_program()
    plan = WORKLOADS[workload](seed, smoke)
    # Lazy set-up inside the program and the interpreter's first
    # allocations are paid here, untimed; the outputs are still checked.
    warmup = flat(run_units(cli, plan, lambda done: len(done) < plan.warmup))

    if not trace:
        done = run_units(cli, plan, timed(plan, seconds),
                         host=diag["host_reference_loop_s"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        diag["wrappers_during_run"] = wrapped_callables()
        timed_results = flat(done)
        results = warmup + timed_results
        setup += measure_setup(workload, seed, smoke, after)
        diag["setup_samples_s"] = setup
        n_min = sum(len(u.queries) for u in plan.units[:plan.min_units])
        p50, tail, pct, n = tail_stats([r.seconds * 1000.0 for r in timed_results], n_min)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ops_per_s(done), "1/s"),
            "query_p50_ms": (p50, "ms"),
            "query_tail_ms": (tail, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        diag.update(units=[k for k, _ in done],
                    unit_s=[unit_seconds(rs) for _, rs in done], queries=n,
                    timed_s=sum(r.seconds for r in timed_results),
                    tail_percentile=pct, tail_samples=n)
    else:
        from tracing import Tracer
        kinds = set(plan.kinds)

        def warm(done: Done) -> bool:
            return ({k for k, _ in done} != kinds
                    or sum(unit_seconds(rs) for _, rs in done) < seconds / 4)

        untraced = run_units(cli, plan, warm)
        tracer = Tracer()
        diag["wrapped"] = len(tracer.install())
        try:
            traced = run_units(cli, plan, lambda done: len(done) < len(untraced), tracer)
        finally:
            tracer.uninstall()
        diag["wrappers_after_uninstall"] = wrapped_callables()
        results = warmup + flat(untraced) + flat(traced)
        untraced_s = sum(r.seconds for r in flat(untraced))
        traced_s = sum(r.seconds for r in flat(traced))
        metrics = tracer.metrics(tail_stats)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        diag.update(units=[k for k, _ in traced], untraced_s=untraced_s,
                    traced_s=traced_s)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"trace-{workload}-{seed}.json"
        spans_file.write_text(json.dumps({"spans": tracer.spans(),
                                          "counts": tracer.counts,
                                          "instance_ms": tracer.instance_ms}))
        diag["spans_file"] = str(spans_file.relative_to(ROOT))

    attempted, failed, messages = check_results(workload, results)
    diag["host_reference_loop_s"].append(reference_loop())
    diag.update(fail_ratio=failed / attempted, failures=messages[:5])
    return {
        "diagnostics": diag,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    if not (SRC / "skyline" / "__init__.py").is_file():
        print(f"error: no skyline sources under {SRC}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"diagnostics": out["diagnostics"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
