"""End-to-end acceptance checks.

Each test covers one release criterion, prints a single PASS/FAIL line that
stays visible under pytest's output capture, and enforces its runtime budget.
The unit suites establish the pieces; these runs establish the whole.
"""

import functools
import math
import os
import random
import statistics
import time
from fractions import Fraction

from rolecrypt.costmodel import HEADLINE_PROFILES, static_cost_table
from rolecrypt.crypto import IBE_TO_PKI
from rolecrypt.engine import Engine, measure_label
from rolecrypt.equivalence import (
    Lockstep,
    TraceBuilder,
    canonicalize,
    congruent,
    run_differential,
)
from rolecrypt.rbac import RW, Label, theory
from rolecrypt.workload import (
    ActorRates,
    admin_rate,
    monte_carlo,
    sample_events,
    synthesize_dataset,
    user_revocation_summary,
)


def _report(capsys, idx: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {idx}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


@functools.lru_cache(maxsize=1)
def _shared_corpus() -> tuple[tuple[Label, ...], ...]:
    """At least 10,000 labels over random small evolving states; reused by the
    reconciliation and variant-parity criteria so both see identical input."""
    rng = random.Random(0xC0FFEE)
    traces: list[tuple[Label, ...]] = []
    total = 0
    while total < 10_000:
        t = TraceBuilder(
            rng, max_users=15, max_roles=8, max_files=20, version_cap=3
        ).build(80)
        traces.append(tuple(t))
        total += len(t)
    return tuple(traces)


# --- 1: static cost table ----------------------------------------------------------

F = Fraction

# (party, op) -> units under ("BF+CC", "BB1+PS", "LW+PS")
GOLDEN_CELLS = {
    ("invoker", "addU"): (F(11, 2), F(29, 2), F(65, 2)),
    ("invoker", "addP"): (F(15), F(25), F(29)),
    ("invoker", "addR"): (F(37, 2), F(33), F(55)),
    ("invoker", "assignU"): (F(41), F(127, 2), F(207, 2)),
    ("invoker", "assignP"): (F(41), F(127, 2), F(207, 2)),
    ("invoker", "read"): (F(56), F(90), F(162)),
    ("invoker", "write"): (F(58), F(193, 2), F(337, 2)),
    ("monitor", "addP"): (F(38), F(54), F(54)),
    ("monitor", "write"): (F(38), F(54), F(54)),
}


def test_criterion_1_static_cost_table(capsys):
    t0 = time.monotonic()
    rows = static_cost_table(HEADLINE_PROFILES)
    elapsed = time.monotonic() - t0

    mismatches = []
    for party, op, cells in rows:
        expected = GOLDEN_CELLS[(party, op)]
        for profile, want in zip(HEADLINE_PROFILES, expected):
            got = cells[profile]
            if got != want:  # exact rationals, tolerance zero
                mismatches.append((party, op, profile, got, want))
    n_cells = sum(len(c) for _, _, c in rows)

    ok = not mismatches and n_cells == 27 and elapsed < 1.0
    _report(
        capsys, 1, "static cost table",
        ok, f"{n_cells - len(mismatches)}/27 cells exact, {elapsed:.3f}s",
    )
    assert n_cells == 27
    assert not mismatches, mismatches
    assert elapsed < 1.0


# --- 2: per-label cost reconciliation ----------------------------------------------


def test_criterion_2_cost_reconciliation(capsys):
    t0 = time.monotonic()
    corpus = _shared_corpus()
    n_labels = 0
    mismatches = []
    for trace in corpus:
        lock = Lockstep(Engine("ibe"))
        for lbl in trace:
            n_labels += 1
            failure = lock.step(lbl)
            if failure is not None:
                mismatches.append((lbl, failure))
                break
    elapsed = time.monotonic() - t0

    ok = n_labels >= 10_000 and not mismatches and elapsed < 60.0
    _report(
        capsys, 2, "measured costs match the closed forms",
        ok, f"{n_labels} labels, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )
    assert n_labels >= 10_000
    assert not mismatches, mismatches[:3]
    assert elapsed < 60.0


# --- 3: differential correctness ---------------------------------------------------


def test_criterion_3_differential_correctness(capsys):
    t0 = time.monotonic()
    rng = random.Random(1234)
    traces = [
        TraceBuilder(rng).build(rng.randint(1, 50)) for _ in range(1000)
    ]
    failures = []
    for i, trace in enumerate(traces):
        for binding in ("ibe", "pki"):
            rep = run_differential(trace, binding)
            if not rep.ok:
                failures.append((i, binding, rep.failure_kind, rep.detail))
    elapsed = time.monotonic() - t0

    ok = not failures and elapsed < 300.0
    _report(
        capsys, 3, "lockstep differential vs authorization model",
        ok,
        f"{len(traces)} traces x 2 variants, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 300.0


# --- 4: congruence sanity ----------------------------------------------------------


def test_criterion_4_congruence_sanity(capsys):
    t0 = time.monotonic()
    failures = []
    checked_idem = checked_ur = checked_pa = 0

    def membership_pair(eng):
        facts = theory(eng.state())
        ur = {(f[1], f[2]) for f in facts if f[0] == "UR"}
        for u in sorted(eng.users):
            for r in sorted(eng.roles):
                if (u, r) not in ur:
                    return u, r
        return None

    def grant_pair(eng):
        facts = theory(eng.state())
        held = {(f[1], f[2]) for f in facts if f[0] == "PA"}
        for r in sorted(eng.roles):
            for fn in sorted(eng.files):
                if (r, fn) not in held:
                    return r, fn
        return None

    for i in range(1000):
        rng = random.Random(9000 + i)
        eng = Engine("ibe")
        for lbl in TraceBuilder(rng).build(30):
            eng.apply_label(lbl)

        canon = canonicalize(eng)
        checked_idem += 1
        if canonicalize(canon) != canon:
            failures.append((i, "idempotence"))

        pair = membership_pair(eng)
        if pair is not None:
            u, r = pair
            before_dump = eng.dump()
            eng.apply_label(Label("assignU", user=u, role=r))
            eng.apply_label(Label("revokeU", user=u, role=r))
            checked_ur += 1
            if not congruent(eng, canon):
                failures.append((i, "assignU;revokeU not congruent"))
            if eng.dump() == before_dump:
                failures.append((i, "assignU;revokeU left state unchanged"))

        pair = grant_pair(eng)
        if pair is not None:
            r, fn = pair
            canon2 = canonicalize(eng)
            before_dump = eng.dump()
            eng.apply_label(Label("assignP", role=r, file=fn, op=RW))
            eng.apply_label(Label("revokeP", role=r, file=fn, op=RW))
            checked_pa += 1
            if not congruent(eng, canon2):
                failures.append((i, "assignP;revokeP not congruent"))
            if eng.dump() == before_dump:
                failures.append((i, "assignP;revokeP left state unchanged"))
    elapsed = time.monotonic() - t0

    ok = not failures and checked_ur >= 500 and checked_pa >= 500
    _report(
        capsys, 4, "congruence under do/undo round trips",
        ok,
        f"{checked_idem} canonical fixed points, {checked_ur} membership and "
        f"{checked_pa} grant round trips, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert checked_ur >= 500 and checked_pa >= 500


# --- 5: actor-machine calibration --------------------------------------------------


def test_criterion_5_actor_calibration(capsys):
    t0 = time.monotonic()
    runs = 1000
    details = []
    ok = True
    for name, pinned_rate, seed in (("emea", 0.59, 51), ("university", 2.22, 52)):
        ds = synthesize_dataset(name, random.Random(seed))
        n = len(ds.users)
        rate = admin_rate(n)
        if abs(rate - pinned_rate) > 0.01:
            ok = False
            details.append(f"{name}: rate {rate:.4f} != {pinned_rate}")
            continue
        rng = random.Random(seed + 1000)
        counts = [
            len(sample_events(rng, ds, ActorRates.sample(rng, n), 30.0))
            for _ in range(runs)
        ]
        mean = statistics.fmean(counts)
        target = 30.0 * rate
        # arrivals over a fixed horizon are Poisson, so the mean of `runs`
        # samples has standard error sqrt(target / runs)
        sigma = math.sqrt(target / runs)
        dev = abs(mean - target) / sigma
        details.append(f"{name}: |U|={n} rate={rate:.4f} mean={mean:.2f} "
                       f"target={target:.2f} dev={dev:.2f}sigma")
        if dev > 3.0:
            ok = False
    elapsed = time.monotonic() - t0

    _report(
        capsys, 5, "administrator rate calibration",
        ok, "; ".join(details) + f", {elapsed:.1f}s",
    )
    assert ok, details


# --- 6: revocation cost magnitude --------------------------------------------------


def test_criterion_6_revocation_magnitude(capsys):
    t0 = time.monotonic()
    ds = synthesize_dataset("firewall1", random.Random(61))
    shape = (len(ds.users), len(ds.perms), len(ds.roles), len(ds.ur), len(ds.pa))
    assert shape == (365, 709, 60, 1130, 3455)

    results = monte_carlo(
        ds, 100, days=30.0, seed=17,
        workers=min(8, os.cpu_count() or 1),
    )
    summary = user_revocation_summary(results, profile="BF+CC")
    mean_enc = summary["mean_enc_per_user_revocation"]
    median_units = summary["median_units_per_user_revocation"]
    elapsed = time.monotonic() - t0

    ok = (
        100.0 <= mean_enc <= 10_000.0
        and median_units > 10_000.0
        and elapsed < 600.0
    )
    _report(
        capsys, 6, "order-of-magnitude revocation costs",
        ok,
        f"{summary['user_revocations']} revocations over 100 runs, "
        f"mean {mean_enc:.0f} enc each, median {median_units:.0f} "
        f"mult units each, {elapsed:.1f}s",
    )
    assert 100.0 <= mean_enc <= 10_000.0, mean_enc
    assert median_units > 10_000.0, median_units
    assert elapsed < 600.0


# --- 7: variant count parity -------------------------------------------------------


def test_criterion_7_variant_parity(capsys):
    t0 = time.monotonic()
    corpus = _shared_corpus()
    n_labels = 0
    mismatches = []
    for trace in corpus:
        a = Engine("ibe")
        b = Engine("pki")
        for lbl in trace:
            ma = measure_label(a, lbl)
            mb = measure_label(b, lbl)
            n_labels += 1
            if ma.renamed(IBE_TO_PKI) != mb:
                mismatches.append((lbl, ma, mb))
    elapsed = time.monotonic() - t0

    ok = n_labels >= 10_000 and not mismatches
    _report(
        capsys, 7, "identity-based vs certificate-based count parity",
        ok, f"{n_labels} labels, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )
    assert n_labels >= 10_000
    assert not mismatches, mismatches[:3]
