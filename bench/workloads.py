"""The three benchmark workloads.

Each workload is a closed loop with one client in one process: it sends its
next request only after the previous one returned.  A workload has three
steps:

* ``plan`` builds the benchmark's own inputs from the seed: invocation
  seeds, trace seeds, the serve request stream.  It is the harness's
  bookkeeping and is never traced.
* ``setup`` hands those inputs to the package: it writes the dataset, seeds
  engines and builds traces.  It is traced in the traced pass.
* ``run`` sends the requests through the package's public functions, times
  each call and checks every output.

``setup_s`` is the time of ``plan`` and ``setup`` together.  The amount of
work is fixed by the seed, the ``seconds`` argument and a ``Scale``; at full
scale a run takes about ``seconds`` on a 2-CPU machine.

Every timed call belongs to a request class.  The end-to-end figures are
computed per class and then combined with equal weight, so they do not
depend on how many requests of each class a workload sends.

The firewall1-shaped dataset is one fixed instance for every seed: it is the
dataset ``rolecrypt gen-dataset --name firewall1`` writes with its default
seed.  The seed varies everything sent to it: Monte Carlo run seeds,
differential traces, and the serve workload's administrative arrivals and
data-path requests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from rolecrypt import cli, crypto, equivalence, workload
from rolecrypt.crypto import OP_NAMES
from rolecrypt.engine import Engine, default_content

WHY = {
    "simulate-firewall1": (
        "What users of the reproduction run (acceptance criterion 6): one "
        "`rolecrypt simulate --runs N --variant both --parallel 1` on "
        "firewall1, where every run seeds a fresh engine, so seeding, "
        "canonical encoding and the CLI/CSV path dominate; it also covers "
        "the pki binding.  Worker-pool scaling is left out: on 2 shared "
        "cores it would measure the neighbours, not the program."
    ),
    "check-small": (
        "`rolecrypt check` with cost reconciliation, as it runs by default: "
        "states are tiny (at most 15 users), so seeding and FileStore scans "
        "barely register and the work is in the rbac oracle, the envelope "
        "hook, theory, cost reconciliation and the final canonicalize.  A "
        "seed-once-and-fork change should show no change here."
    ),
    "serve-firewall1": (
        "The only workload with a data path and a deep file-key version "
        "history: one long-lived firewall1 ibe engine takes the paper's "
        "administrative actor over many months, interleaved with reads and "
        "writes by currently granted users, so revocation and the FileStore "
        "version scans dominate and seeding is paid once in set-up.  Data-"
        "path tails (p99) are not reported: in identical runs they move with "
        "scheduler jitter, not with work."
    ),
}

# The ranges ActorRates.sample draws each run's add bias and user-role bias
# from, as in the paper.
ADD_BIAS_RANGE = (0.7, 1.0)
UR_BIAS_RANGE = (0.3, 0.7)
# Midpoints of those ranges, fixed so that every serve stream has the same
# mix of administrative kinds.
SERVE_ADD_BIAS = 0.85
SERVE_UR_BIAS = 0.5
# Candidate `simulate --seed` values searched for the most evenly spread runs.
SEED_CANDIDATES = 1000

# The harness reads exact counts with these.  They are bound before a tracer
# wraps the classes' methods, so that its own bookkeeping is not counted in
# the crypto layer.
_snapshot = crypto.CryptoProvider.snapshot
_items = crypto.CostVector.items


@dataclass(frozen=True)
class Scale:
    dataset: str  # a bundled dataset_marginals entry
    sim_runs_per_s: float  # Monte Carlo runs per variant
    check_traces_per_s: float
    check_labels: int  # labels per differential trace
    serve_revocations_per_s: float  # user revocations in the serve stream
    serve_data_per_s: float  # reads, and as many writes, in the serve stream
    setup_repeats: int

    def count(self, per_s: float, seconds: int, least: int = 1) -> int:
        return max(least, round(per_s * seconds))


FULL = Scale("firewall1", 1 / 2.8, 34.0, 40, 5.5, 100.0, 5)
TOY = Scale("healthcare", 1.0, 4.0, 15, 4.0, 20.0, 2)


@dataclass
class Context:
    seed: int
    seconds: int
    scale: Scale
    workdir: Path


@dataclass
class RequestClass:
    """Timings of one class of timed call."""

    ops: int = 0  # primitive operations of the calls
    busy_s: float = 0.0  # summed wall time of the calls
    ms: list = field(default_factory=list)  # one sample per call
    us_per_op: list = field(default_factory=list)  # one sample per call


@dataclass
class Outcome:
    """What one run step measured and checked."""

    units: int = 0  # work completed: Monte Carlo runs or labels
    classes: dict = field(default_factory=dict)  # class name -> RequestClass
    attempted: int = 0
    failed: int = 0
    counts: object = field(default_factory=hashlib.sha256)  # sha256 of cost vectors
    runs_csv: object = None  # simulate: sha256 of runs.csv + summary.csv
    first_error: str = ""

    def fail(self, why: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = why

    def add_counts(self, items) -> int:
        """Fold one exact cost vector, as sorted (key, count) items, into the
        fingerprint; return its number of primitive operations."""
        self.counts.update(repr(items).encode())
        self.counts.update(b";")
        return sum(n for _, n in items)

    def record(self, name: str, seconds: float, ops: int) -> None:
        c = self.classes.setdefault(name, RequestClass())
        c.ops += ops
        c.busy_s += seconds
        c.ms.append(seconds * 1e3)
        c.us_per_op.append(seconds * 1e6 / ops)

    @property
    def busy_s(self) -> float:
        return sum(c.busy_s for c in self.classes.values())


@contextmanager
def recorded_providers():
    """Collect the crypto provider of every engine created inside the block,
    so that exact primitive counts can be read after the package is done
    with the engine."""
    cls = crypto.CryptoProvider
    original = cls.__init__
    seen: list = []

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen.append(self)

    cls.__init__ = __init__
    try:
        yield seen
    finally:
        cls.__init__ = original


def _dataset(ctx: Context) -> "workload.Dataset":
    rng = random.Random(workload.derive_seed(0, -1))
    return workload.synthesize_dataset(ctx.scale.dataset, rng)


# --- simulate-firewall1 -------------------------------------------------------


VARIANTS = ("ibe", "pki")


@dataclass
class SimulatePlan:
    dataset: "workload.Dataset"
    seed: int  # the `simulate --seed`
    runs: int  # the `simulate --runs`


@dataclass
class SimulateState:
    dataset_path: Path
    seed: int
    runs: int
    seeding: dict  # variant -> exact cost items of seeding one engine


def _spread(seed: int, runs: int, n_users: int) -> float:
    """How far the runs of `simulate --seed seed --runs runs` are from an
    even spread over the actor's ranges: the largest distance, as a share of
    the range, between a run's sorted add bias (or user-role bias) and the
    midpoint of its equal stratum."""
    rates = [
        workload.ActorRates.sample(random.Random(workload.derive_seed(seed, i)), n_users)
        for i in range(runs)
    ]
    worst = 0.0
    for values, (lo, hi) in (
        ([r.add_bias for r in rates], ADD_BIAS_RANGE),
        ([r.ur_bias for r in rates], UR_BIAS_RANGE),
    ):
        for k, v in enumerate(sorted(values)):
            worst = max(worst, abs((v - lo) / (hi - lo) - (k + 0.5) / runs))
    return worst


def simulate_plan(ctx: Context) -> SimulatePlan:
    """Pick, among candidates drawn from the benchmark seed, the invocation
    seed whose runs spread most evenly over the actor's ranges.

    A run's add bias sets its share of revocations and its user-role bias
    the share of those that revoke users: the costliest and most variable
    work.  Drawn freely, a handful of runs can all land at one end of a
    range; picking the most even candidate keeps the mix alike in every
    benchmark run while every other draw stays random."""
    ds = _dataset(ctx)
    runs = ctx.scale.count(ctx.scale.sim_runs_per_s, ctx.seconds)
    candidates = (workload.derive_seed(ctx.seed, i) for i in range(SEED_CANDIDATES))
    seed = min(candidates, key=lambda s: _spread(s, runs, len(ds.users)))
    return SimulatePlan(ds, seed, runs)


def simulate_setup(ctx: Context, plan: SimulatePlan) -> SimulateState:
    path = ctx.workdir / f"{ctx.scale.dataset}.json"
    workload.save_dataset(plan.dataset, str(path))
    # every Monte Carlo run seeds one engine of its variant from the dataset,
    # at a cost fixed by the dataset: measure it once
    seeding = {v: _items(_snapshot(workload.seed_engine(plan.dataset, v).provider)) for v in VARIANTS}
    return SimulateState(path, plan.seed, plan.runs, seeding)


def _simulate(state: SimulateState, runs: int, out_dir: Path) -> tuple[float, bytes, bytes]:
    """One `rolecrypt simulate` invocation: its wall time and the bytes of
    its runs.csv and summary.csv."""
    argv = [
        "simulate", "--dataset", str(state.dataset_path), "--runs", str(runs),
        "--variant", "both", "--parallel", "1", "--seed", str(state.seed),
        "--out", str(out_dir),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"simulate exited {rc}")
    return dt, (out_dir / "runs.csv").read_bytes(), (out_dir / "summary.csv").read_bytes()


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def simulate_run(state: SimulateState, ctx: Context) -> Outcome:
    """Time one invocation.  Its work, in primitive operations, is what the
    program must keep fixed: the per-run totals it writes to runs.csv, plus
    one engine seeding per run and variant."""
    out = Outcome(runs_csv=hashlib.sha256())
    out.attempted += 1
    try:
        dt, runs_csv, summary_csv = _simulate(state, state.runs, ctx.workdir / "simulate")
    except Exception:
        out.fail(traceback.format_exc())
        return out
    out.runs_csv.update(runs_csv + summary_csv)
    rows = _csv_rows(runs_csv)
    ops = sum(state.runs * out.add_counts(state.seeding[v]) for v in VARIANTS)
    for row in rows:
        ops += out.add_counts([(op, int(row[op])) for op in OP_NAMES if op in row])
    out.units += len(rows)
    out.record("simulate", dt, ops)
    # repeat the first run of each variant, untimed: its runs.csv rows must
    # not change
    out.attempted += 1
    try:
        _, again, _ = _simulate(state, 1, ctx.workdir / "repeat")
    except Exception:
        out.fail(traceback.format_exc())
        return out
    if _csv_rows(again) != [row for row in rows if row["run"] == "0"]:
        out.fail(f"runs.csv rows of run 0 differ on a repeat of seed {state.seed}")
    return out


# --- check-small --------------------------------------------------------------


def check_plan(ctx: Context) -> list:
    n = ctx.scale.count(ctx.scale.check_traces_per_s, ctx.seconds)
    return [workload.derive_seed(ctx.seed, i) for i in range(n)]


def check_setup(ctx: Context, seeds: list) -> list:
    return [
        equivalence.TraceBuilder(random.Random(s)).build(ctx.scale.check_labels)
        for s in seeds
    ]


def check_run(traces: list, ctx: Context) -> Outcome:
    out = Outcome()
    with recorded_providers() as providers:
        for i, labels in enumerate(traces):
            for variant in VARIANTS:
                out.attempted += 1
                providers.clear()
                try:
                    t0 = time.perf_counter()
                    report = equivalence.run_differential(labels, binding=variant, check_costs=True)
                    dt = time.perf_counter() - t0
                except Exception:
                    out.fail(traceback.format_exc())
                    continue
                ops = sum(out.add_counts(_items(_snapshot(p))) for p in providers)
                if not report.ok:
                    out.fail(f"trace {i} [{variant}] diverged: {report.detail}")
                    continue
                out.units += len(labels)
                out.record("differential", dt, ops)
    return out


# --- serve-firewall1 ----------------------------------------------------------


@dataclass
class ServePlan:
    dataset: "workload.Dataset"
    requests: list  # ("read", user, file) | ("write", user, file, body) | ("admin", label)


@dataclass
class ServeState:
    engine: Engine
    requests: list


def _admin_labels(ds, ctx: Context) -> list:
    """The paper's administrator actor up to the n-th user revocation,
    skipped arrivals left out."""
    target = ctx.scale.count(ctx.scale.serve_revocations_per_s, ctx.seconds)
    rates = workload.ActorRates(
        workload.admin_rate(len(ds.users)), SERVE_ADD_BIAS, SERVE_UR_BIAS
    )
    expected_days = target / rates.kind_rates()["revokeU"]
    events = workload.sample_events(
        random.Random(workload.derive_seed(ctx.seed, 0)), ds, rates, 3 * expected_days + 30
    )
    labels: list = []
    for ev in events:
        if ev.label is None:
            continue
        labels.append(ev.label)
        target -= ev.label.kind == "revokeU"
        if not target:
            break
    return labels


def serve_plan(ctx: Context) -> ServePlan:
    """The administrative stream, with a fixed number of reads and as many
    writes spread evenly over it.  Each goes to a (user, file) pair the
    relation grants at that point; a shadow of the relation tracks it."""
    ds = _dataset(ctx)
    labels = _admin_labels(ds, ctx)
    data = ctx.scale.count(ctx.scale.serve_data_per_s, ctx.seconds)
    rng = random.Random(workload.derive_seed(ctx.seed, 1))
    ur = workload.IndexedSet(ds.ur)
    files: dict[str, workload.IndexedSet] = {}
    for r, fn in ds.pa:
        files.setdefault(r, workload.IndexedSet()).add(fn)

    def granted():
        for _ in range(100):
            u, r = ur.choose(rng)
            held = files.get(r)
            if held is not None and len(held):
                return u, held.choose(rng)
        raise RuntimeError("no granted (user, file) pair found")

    requests: list = []
    for i, lbl in enumerate(labels):
        for _ in range((i + 1) * data // len(labels) - i * data // len(labels)):
            u, fn = granted()
            requests.append(("read", u, fn))
            u, fn = granted()
            requests.append(("write", u, fn, f"w{len(requests)}:{fn}".encode()))
        requests.append(("admin", lbl))
        if lbl.kind == "assignU":
            ur.add((lbl.user, lbl.role))
        elif lbl.kind == "revokeU":
            ur.discard((lbl.user, lbl.role))
        elif lbl.kind == "assignP":
            files.setdefault(lbl.role, workload.IndexedSet()).add(lbl.file)
        else:
            files[lbl.role].discard(lbl.file)
    return ServePlan(ds, requests)


def serve_setup(ctx: Context, plan: ServePlan) -> ServeState:
    return ServeState(workload.seed_engine(plan.dataset, "ibe"), plan.requests)


_CLASS = {"assignU": "assign", "assignP": "assign", "revokeU": "revoke_user", "revokeP": "revoke_perm"}


def serve_run(state: ServeState, ctx: Context) -> Outcome:
    out = Outcome()
    eng = state.engine
    provider = eng.provider
    last_body: dict[str, bytes] = {}
    clock = time.perf_counter
    for req in state.requests:
        out.attempted += 1
        snap = _snapshot(provider)
        unauthorized = len(provider.unauthorized_events)
        kind = req[0]
        try:
            if kind == "read":
                t0 = clock()
                body = eng.read_file(req[1], req[2])
                dt = clock() - t0
                want = last_body.get(req[2], default_content(req[2]))
                error = "" if body == want else f"read {req[1]} {req[2]}: {body!r} != {want!r}"
                cls = "read"
            elif kind == "write":
                t0 = clock()
                eng.write_file(req[1], req[2], req[3])
                dt = clock() - t0
                last_body[req[2]] = req[3]
                error, cls = "", "write"
            else:
                t0 = clock()
                eng.apply_label(req[1])
                dt = clock() - t0
                error, cls = "", _CLASS[req[1].kind]
        except Exception:
            out.fail(f"{req}: {traceback.format_exc()}")
            continue
        ops = out.add_counts(_items(_snapshot(provider) - snap))
        if len(provider.unauthorized_events) != unauthorized:
            error = error or f"{req}: unauthorized decryption"
        if error:
            out.fail(error)
            continue
        out.record(cls, dt, ops)
    return out


# Serve latencies by request class: metric name -> (class, percentile).
SERVE_LATENCIES = {
    "read_p50_ms": ("read", 50),
    "write_p50_ms": ("write", 50),
    "assign_p50_ms": ("assign", 50),
    "revoke_perm_p50_ms": ("revoke_perm", 50),
    "revoke_user_p50_ms": ("revoke_user", 50),
    "revoke_user_p90_ms": ("revoke_user", 90),
}


def figures(name: str, out: Outcome) -> dict[str, tuple[float, str]]:
    """The workload's own figures: its unit rate, or for serve the latency
    of each request class.  They are printed beside the metrics, not as
    metrics: each applies to one workload only, and the rate of Monte Carlo
    runs spreads about 20% from seed to seed."""
    if name != "serve-firewall1":
        rate = {"simulate-firewall1": "runs_per_s", "check-small": "labels_per_s"}[name]
        return {rate: (out.units / out.busy_s if out.busy_s else 0.0, "1/s")}
    m = {}
    for metric, (cls, pct) in SERVE_LATENCIES.items():
        xs = out.classes[cls].ms if cls in out.classes else []
        if len(xs) > 1:
            m[metric] = (statistics.quantiles(xs, n=100, method="inclusive")[pct - 1], "ms")
        elif xs:
            m[metric] = (xs[0], "ms")
    return m


WORKLOADS = {
    "simulate-firewall1": (simulate_plan, simulate_setup, simulate_run),
    "check-small": (check_plan, check_setup, check_run),
    "serve-firewall1": (serve_plan, serve_setup, serve_run),
}
