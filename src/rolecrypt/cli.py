"""Command-line front end.

Subcommands:

* ``cost-table``  — closed-form per-operation costs in multiplication units.
* ``check``       — randomized differential checking of an engine against the
  reference model (exit 1 on divergence, with a minimized failing trace).
* ``gen-dataset`` — synthesize a benchmark-shaped dataset to a JSON file.
* ``simulate``    — monte-carlo administrative workload priced by the
  closed-form cost model, writing runs.csv / summary.csv (and optionally
  events.csv).  A run names no variant: each is priced once and its rows
  are written under every requested variant's name.  ``--check-costs``
  also audits every run on a seeded engine of each variant and fails at the
  first event where the engine raises, decrypts without authorization,
  grants a request outside the envelope of the model's states before and
  after the event, or counts other primitives than the priced ones.

Files are read and written as UTF-8 whatever the locale.  Terminal output
follows the locale; a character it cannot encode prints as an escape.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import random
import sys
from pathlib import Path

from .costmodel import (
    HEADLINE_PROFILES,
    all_scheme_pairs,
    format_units,
    scheme_profile,
    static_cost_table,
)
from .engine import BINDINGS
from .equivalence import TraceBuilder, minimize_counterexample, run_differential
from .workload import (
    derive_seed,
    load_dataset,
    load_marginals,
    monte_carlo,
    save_dataset,
    synthesize_dataset,
    user_revocation_summary,
    write_events_csv,
    write_runs_csv,
    write_summary_csv,
)


def _at_least(convert, low, strict: bool = False):
    """An argparse type: a finite number ``>= low`` (``> low`` when
    ``strict``), so a bad value exits 2 with a message naming the flag."""

    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            x = math.nan  # fails every comparison below
        if not (x > low if strict else x >= low) or math.isinf(x):
            bound = f"{'>' if strict else '>='} {low}"
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound}, got {text!r}"
            )
        return x

    return parse


def _parse_profiles(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return tuple(all_scheme_pairs())
    profiles = tuple(p.strip() for p in spec.split(",") if p.strip())
    if not profiles:
        raise ValueError(f"--profiles names no scheme profile: {spec!r}")
    for i, p in enumerate(profiles):
        try:
            scheme_profile(p)
        except KeyError:
            raise ValueError(f"unknown scheme profile {p!r}") from None
        if p in profiles[:i]:
            raise ValueError(f"--profiles names {p!r} twice")
    return profiles


def cmd_cost_table(args: argparse.Namespace) -> int:
    profiles = _parse_profiles(args.profiles)
    rows = static_cost_table(profiles)
    widths = [8, 9] + [max(len(p), 7) for p in profiles]
    header = ["party", "op"] + list(profiles)
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for party, op, cells in rows:
        cols = [party, op] + [format_units(cells[p]) for p in profiles]
        print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    variants = tuple(BINDINGS) if args.variant == "both" else (args.variant,)
    failures = 0
    for i in range(args.traces):
        trace_rng = random.Random(derive_seed(args.seed, i))
        labels = TraceBuilder(trace_rng).build(args.labels)
        for variant in variants:
            rep = run_differential(
                labels,
                binding=variant,
                check_costs=args.costs,
                step_congruence=args.step_congruence,
            )
            if not rep.ok:
                failures += 1
                print(f"trace {i} [{variant}] DIVERGED: {rep.detail}")
                minimal = minimize_counterexample(
                    labels,
                    binding=variant,
                    check_costs=args.costs,
                    step_congruence=args.step_congruence,
                )
                print(f"  minimized to {len(minimal)} labels:")
                for lbl in minimal:
                    print(f"    {lbl}")
                break
        if failures:
            break
    checked = (i + 1) if args.traces else 0
    if failures:
        print(f"FAIL after {checked} trace(s)")
        return 1
    print(
        f"ok: {args.traces} traces x {len(variants)} variant(s), "
        f"up to {args.labels} labels each"
        + (", costs reconciled" if args.costs else "")
    )
    return 0


def _bundled(name: str, seed: int):
    """The bundled dataset ``name`` as ``--seed`` ``seed`` synthesizes it,
    or None if no bundled dataset has that name."""
    marginals = load_marginals()
    if name not in marginals:
        return None
    rng = random.Random(derive_seed(seed, -1))
    return synthesize_dataset(name, rng, marginals)


def _resolve_dataset(args: argparse.Namespace):
    """A regular file, else a bundled name, else any other existing path."""
    name = args.dataset
    ds = None if os.path.isfile(name) else _bundled(name, args.seed)
    if ds is None and not os.path.exists(name):
        known = ", ".join(sorted(load_marginals()))
        raise ValueError(
            f"{name!r} is neither a file nor a known dataset ({known})"
        )
    return load_dataset(name) if ds is None else ds


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    ds = _bundled(args.name, args.seed)
    if ds is None:
        known = ", ".join(sorted(load_marginals()))
        raise ValueError(f"unknown dataset {args.name!r} (known: {known})")
    out = args.out or f"{args.name}.json"
    save_dataset(ds, out)
    print(f"wrote {out}: {ds.marginals()}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    profiles = _parse_profiles(args.profiles)
    window = args.revocation_window
    if window is not None and math.isinf(args.duration_days / window):
        raise ValueError(
            f"--revocation-window {window!r} cuts --duration-days "
            f"{args.duration_days!r} into more windows than a float can count"
        )
    dataset = _resolve_dataset(args)
    variants = tuple(BINDINGS) if args.variant == "both" else (args.variant,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the model prices all variants alike, so only an audit runs each one;
    # every audited pass returns the same runs
    for audit in variants if args.check_costs else (None,):
        results = monte_carlo(
            dataset,
            runs=args.runs,
            days=args.duration_days,
            seed=args.seed,
            workers=args.parallel,
            audit=audit,
        )
    runs_path = out_dir / "runs.csv"
    summary_path = out_dir / "summary.csv"
    write_runs_csv(
        str(runs_path), results, variants, profiles, args.revocation_window
    )
    write_summary_csv(str(summary_path), results, variants, profiles)
    written = [runs_path, summary_path]
    if args.events:
        events_path = out_dir / "events.csv"
        write_events_csv(str(events_path), results, variants)
        written.append(events_path)
    summ = user_revocation_summary(results, profiles[0])
    for variant in variants:
        print(
            f"{dataset.name} [{variant}]: {len(results)} runs, "
            f"{summ['user_revocations']} user revocations, "
            f"mean {summ['mean_enc_per_user_revocation']:.1f} enc/revocation, "
            f"median {summ['median_units_per_user_revocation']:.1f} "
            f"{profiles[0]} units/revocation"
        )
    for p in written:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolecrypt",
        description="cryptographically enforced role-based access control: "
        "differential checking and cost experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost-table", help="closed-form per-operation costs")
    p.add_argument(
        "--profiles",
        default=",".join(HEADLINE_PROFILES),
        help="comma-separated scheme pairs, or 'all'",
    )
    p.set_defaults(fn=cmd_cost_table)

    p = sub.add_parser("check", help="differential check against the model")
    p.add_argument("--traces", type=_at_least(int, 0), default=50)
    p.add_argument(
        "--labels", type=_at_least(int, 0), default=40,
        help="labels per trace",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--variant", choices=(*BINDINGS, "both"), default="both"
    )
    p.add_argument(
        "--no-costs", dest="costs", action="store_false",
        help="skip per-label cost reconciliation",
    )
    p.add_argument(
        "--step-congruence", action="store_true",
        help="also check congruence after every label (slower)",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen-dataset", help="synthesize a dataset to JSON")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen_dataset)

    p = sub.add_parser("simulate", help="monte-carlo workload simulation")
    p.add_argument(
        "--dataset", required=True,
        help="bundled dataset name (synthesized) or path to a dataset JSON",
    )
    p.add_argument("--runs", type=_at_least(int, 0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--variant", choices=(*BINDINGS, "both"), default="ibe"
    )
    p.add_argument(
        "--duration-days", type=_at_least(float, 0), default=30.0
    )
    p.add_argument(
        "--profiles", default=",".join(HEADLINE_PROFILES),
        help="comma-separated scheme pairs, or 'all'",
    )
    p.add_argument(
        "--out", default=os.environ.get("ROLECRYPT_OUT_DIR", "."),
        help="output directory (default: $ROLECRYPT_OUT_DIR or .)",
    )
    p.add_argument(
        "--parallel", type=_at_least(int, 1), default=1,
        help="worker processes",
    )
    p.add_argument(
        "--revocation-window", type=_at_least(float, 0, strict=True),
        default=None,
        help="report max revocations per tumbling window of this many days",
    )
    p.add_argument(
        "--events", action="store_true", help="also write per-event CSV"
    )
    p.add_argument(
        "--check-costs", action="store_true",
        help="also run every event on a seeded engine and fail (exit 1) "
        "unless its counted primitives equal the closed form's",
    )
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # a dataset name the terminal cannot encode must not fail the run
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        # a bad profile, dataset name or dataset file, or a path that cannot
        # be read or written
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
