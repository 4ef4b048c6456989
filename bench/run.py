"""Run one rolecrypt benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload check-small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, why the workload was chosen, the workload's own
figures (its unit rate, or for serve the latency of each request class,
from the untraced run) and the fingerprints of its outputs.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` the workload runs once untraced and once traced, and
the metrics are the per-layer ones, including the tracing overhead.  The
exit code is 1 when a correctness gate failed and 2 when the package cannot
be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_package() -> None:
    """Put the checkout's own ``src`` first on the path; refuse to run
    against any other copy of the package."""
    if not (SRC / "rolecrypt" / "__init__.py").is_file():
        print(f"error: no rolecrypt package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rolecrypt

    if Path(rolecrypt.__file__).resolve().parent != SRC / "rolecrypt":
        print(f"error: imported rolecrypt from {rolecrypt.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup(plan, setup, ctx, repeats: int):
    """Plan and set up ``repeats`` times; return the last inputs and the
    median time."""
    times = []
    state = None
    for _ in range(repeats):
        state = None  # let the previous inputs go before building the next
        t0 = time.perf_counter()
        state = setup(ctx, plan(ctx))
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def _end_to_end(out, setup_s: float) -> dict:
    """Throughput and typical cost per primitive operation, each the
    geometric mean over the workload's request classes, so that every class
    weighs the same however many requests it has."""
    classes = out.classes.values()
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (
            statistics.geometric_mean(c.ops / c.busy_s for c in classes) if classes else 0.0,
            "1/s",
        ),
        "op_p50_us": (
            statistics.geometric_mean(statistics.median(c.us_per_op) for c in classes)
            if classes else 0.0,
            "us",
        ),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, scale=None) -> dict:
    """Set up and run one workload; return its result record."""
    import tracing
    import workloads

    plan, setup, run = workloads.WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        ctx = workloads.Context(seed, seconds, scale or workloads.FULL, workdir)
        state, setup_s = _setup(plan, setup, ctx, ctx.scale.setup_repeats)
        t0 = time.perf_counter()
        out = run(state, ctx)
        untraced_s = time.perf_counter() - t0
        state = None
        outcomes = [out]
        if not trace:
            metrics = _end_to_end(out, setup_s)
        else:
            # the harness's own inputs are built untraced; the package's
            # set-up and the run are traced
            t0 = time.perf_counter()
            inputs = plan(ctx)
            plan_s = time.perf_counter() - t0
            tracer = tracing.Tracer()
            with workloads.recorded_providers() as providers:
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    traced_out = run(setup(ctx, inputs), ctx)
                    traced_s = time.perf_counter() - t0 + plan_s
                finally:
                    tracer.uninstall()
            outcomes.append(traced_out)
            if traced_out.counts.hexdigest() != out.counts.hexdigest():
                traced_out.fail("primitive counts differ between the traced and untraced runs")
            # the untraced pass set up as often as it was told to: charge it
            # one set-up, as the traced pass did
            untraced_s += setup_s
            values = tracer.per_layer_metrics(providers, traced_s)
            values.update({
                "trace.untraced_s": untraced_s,
                "trace.traced_s": traced_s,
                "trace.overhead_s": traced_s - untraced_s,
                "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
            })
            metrics = {k: (values[k], unit) for k, unit in tracing.LAYER_UNITS.items()}
            print(tracer.table(), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        if o.first_error:
            print(f"FAILED: {o.first_error}", file=sys.stderr)
    return {
        "figures": workloads.figures(name, out),
        "fingerprint": {
            "counts_sha256": out.counts.hexdigest(),
            **({"runs_csv_sha256": out.runs_csv.hexdigest()} if out.runs_csv else {}),
        },
        "result": {
            "correct": failed == 0,
            "attempted": sum(o.attempted for o in outcomes),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description="rolecrypt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    print(json.dumps({
        "env": _environment(args),
        "why": workloads.WHY[args.workload],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in record["figures"].items()},
        "fingerprint": record["fingerprint"],
    }))
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
