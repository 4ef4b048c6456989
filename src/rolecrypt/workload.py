"""Workload-driven cost experiments.

A simulation starts from a realistic access-control state, runs an
administrator actor for a simulated month, and records the cryptographic
primitives each administrative action costs.  The actor is a
continuous-time Markov process: events arrive at rate
``0.1 * sqrt(|U|)`` per day and are split among user/permission assignment
and revocation by an add bias sampled from [0.7, 1.0] and a user-role bias
sampled from [0.3, 0.7], fresh per run.  Only the four assignment/revocation
actions occur; populations of users, roles, and files stay fixed within a
run.  An arrival with no eligible target (nothing left to revoke, or every
pair already assigned) is recorded as skipped.

Start states are synthesized from bundled aggregate statistics of six
published role-mining datasets: exact entity counts and relation sizes, with
degree sequences drawn from a truncated zipfian distribution clamped to the
published per-degree ranges and realized by stub matching with swap repair.
Every synthesized dataset reproduces its published |U|, |P|, |R|, |UR|, |PA|
exactly.

The closed-form cost model prices every action from the model state and the
file-key versions, which the run carries forward itself, so no engine is
built.  Both variants spend the same primitives, so a run names no variant:
its costs carry the identity-based counter names and the writers name its
rows.  An audited run also steps every action through a seeded engine of
one variant in lockstep with the model, and fails at the first action where
the engine raises, decrypts without authorization, grants a request outside
the envelope of the states before and after the action, spends other
primitives than ``reconcile`` expects, or leaves UR and PA unlike the
model's.

Permission grants carry the full read-write level throughout: the source
relations do not distinguish levels, and revocation experiments remove the
grant entirely.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import itertools
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from importlib import resources
from typing import Iterable, Optional, Sequence

from .costmodel import HEADLINE_PROFILES, algebraic_cost, scheme_profile
from .crypto import CostVector, MODEL_OPS
from .engine import Engine
from .equivalence import Lockstep, sigma
from .rbac import (
    Label, RbacState, RW, SUPERUSER, apply_label, indexed_state,
    utf8_encodable,
)

EVENT_KINDS = ("assignU", "revokeU", "assignP", "revokeP")


# --- datasets --------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """A start state: named entities plus the two assignment relations.
    All permission grants are full read-write."""

    name: str
    users: tuple[str, ...]
    roles: tuple[str, ...]
    perms: tuple[str, ...]
    ur: tuple[tuple[str, str], ...]
    pa: tuple[tuple[str, str], ...]  # (role, file)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "users": list(self.users),
            "roles": list(self.roles),
            "perms": list(self.perms),
            "ur": [list(p) for p in self.ur],
            "pa": [list(p) for p in self.pa],
        }

    @classmethod
    def from_dict(cls, d: object) -> "Dataset":
        """Raises ValueError on a missing key, a malformed entry, a name that
        is not a string or that UTF-8 cannot encode, a duplicate, a user or
        role named SU, or a pair naming an unlisted user, role or file."""
        if not isinstance(d, dict):
            raise ValueError("not a JSON object")
        for key in ("name", "users", "roles", "perms", "ur", "pa"):
            if key not in d:
                raise ValueError(f"missing key {key!r}")
        if not isinstance(d["name"], str):
            raise ValueError("'name' must be a string")
        ds = cls(
            name=d["name"],
            users=_names(d, "users"),
            roles=_names(d, "roles"),
            perms=_names(d, "perms"),
            ur=_pairs(d, "ur"),
            pa=_pairs(d, "pa"),
        )
        # whole-list checks; only a failing one walks to the first offender
        for key in ("name", "users", "roles", "perms"):
            xs = [ds.name] if key == "name" else getattr(ds, key)
            if not utf8_encodable("".join(xs)):
                x = next(x for x in xs if not utf8_encodable(x))
                raise ValueError(f"{key!r} holds {x!r}, which UTF-8 cannot encode")
        for key, kind in (("users", "user"), ("roles", "role")):
            if SUPERUSER in getattr(ds, key):
                raise ValueError(f"{kind} name {SUPERUSER!r} is reserved")
        for key in ("users", "roles", "perms", "ur", "pa"):
            xs, seen = getattr(ds, key), set()
            if len(set(xs)) < len(xs):
                x = next(x for x in xs if x in seen or seen.add(x))
                raise ValueError(f"duplicate {key} entry {x!r}")
        known = {
            "user": set(ds.users), "role": set(ds.roles), "file": set(ds.perms)
        }
        for key, kinds in (("ur", ("user", "role")), ("pa", ("role", "file"))):
            pairs = getattr(ds, key)
            if not all(map(set.issuperset, map(known.get, kinds), zip(*pairs))):
                pair, kind, name = next(
                    (p, k, n) for p in pairs for k, n in zip(kinds, p)
                    if n not in known[k]
                )
                raise ValueError(f"{key} pair {pair!r} names unknown {kind} {name!r}")
        return ds

    def state(self) -> RbacState:
        """The dataset as a reference-model state, every grant at RW: one
        immutable object per dataset, so every run shares its indexes."""
        return self._state

    @cached_property
    def _state(self) -> RbacState:
        # its indexes are built here, once per dataset, not in the first run
        return indexed_state(
            frozenset(self.users), frozenset(self.roles),
            frozenset(self.perms), self.ur,
            [(r, fn, RW) for r, fn in self.pa],
        )

    @cached_property
    def _pair_sets(self) -> tuple["IndexedSet", "IndexedSet"]:
        """UR and PA as the sets ``sample_events`` draws from, built once
        per dataset; each run edits a copy."""
        return IndexedSet(self.ur), IndexedSet(self.pa)

    def marginals(self) -> dict[str, int]:
        return {
            "users": len(self.users),
            "perms": len(self.perms),
            "roles": len(self.roles),
            "ur": len(self.ur),
            "pa": len(self.pa),
        }


def _all_are(xs: Iterable, cls: type) -> bool:
    return all(map(isinstance, xs, itertools.repeat(cls)))


def _names(d: dict, key: str) -> tuple[str, ...]:
    v = d[key]
    if not isinstance(v, list) or not _all_are(v, str):
        raise ValueError(f"{key!r} must be a list of names")
    return tuple(v)


def _pairs(d: dict, key: str) -> tuple[tuple[str, str], ...]:
    v = d[key]
    if not (
        isinstance(v, list) and _all_are(v, list) and set(map(len, v)) <= {2}
        and _all_are(itertools.chain.from_iterable(v), str)
    ):
        raise ValueError(f"{key!r} must be a list of [name, name] pairs")
    return tuple(map(tuple, v))


def save_dataset(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ds.to_dict(), fh, indent=1)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    """Raises ValueError, naming the file, when it is not a valid dataset."""
    with open(path, encoding="utf-8") as fh:
        try:
            return Dataset.from_dict(json.load(fh))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def load_marginals() -> dict[str, dict]:
    ref = resources.files("rolecrypt.data").joinpath("dataset_marginals.json")
    with ref.open(encoding="utf-8") as fh:
        return json.load(fh)["datasets"]


# --- synthesis -------------------------------------------------------------------


def _degree_sequence(
    rng: random.Random, n: int, total: int, lo: int, hi: int
) -> list[int]:
    """A degree sequence of length n summing to ``total`` with every entry in
    [lo, hi], zipf-shaped (exponent 1) and randomly permuted."""
    if not n * lo <= total <= n * hi:
        raise ValueError(f"no sequence: {n}x[{lo},{hi}] cannot sum to {total}")
    degs = [lo] * n
    remaining = total - n * lo
    weights = [1.0 / (i + 1) for i in range(n)]
    cum = list(itertools.accumulate(weights))
    stalls = 0
    while remaining:
        i = bisect.bisect_left(cum, rng.random() * cum[-1])
        if degs[i] >= hi:
            stalls += 1
            if stalls > 50 * n + 1000:
                # most mass saturated; drop saturated entries and rebuild
                weights = [
                    w if d < hi else 0.0 for w, d in zip(weights, degs)
                ]
                cum = list(itertools.accumulate(weights))
                stalls = 0
            continue
        degs[i] += 1
        remaining -= 1
    rng.shuffle(degs)
    return degs


def _greedy_realize(
    left: Sequence[str],
    right: Sequence[str],
    left_degs: Sequence[int],
    right_degs: Sequence[int],
) -> list[tuple[str, str]]:
    """Largest-first simple realization of a bipartite degree sequence."""
    residual = list(right_degs)
    edges: list[tuple[str, str]] = []
    for i in sorted(range(len(left)), key=lambda i: -left_degs[i]):
        need = left_degs[i]
        if need == 0:
            continue
        targets = sorted(range(len(right)), key=lambda j: -residual[j])[:need]
        if residual[targets[-1]] <= 0:
            raise ValueError("degree sequences are not realizable")
        for j in targets:
            residual[j] -= 1
            edges.append((left[i], right[j]))
    return edges


def _edge_swaps(
    rng: random.Random, edges: list[tuple[str, str]], rounds: int
) -> list[tuple[str, str]]:
    """Randomize a simple bipartite graph in place by double-edge swaps,
    preserving both degree sequences and simplicity."""
    edge_set = set(edges)
    m = len(edges)
    for _ in range(rounds):
        i, j = rng.randrange(m), rng.randrange(m)
        (a, b), (c, d) = edges[i], edges[j]
        if a == c or b == d or (a, d) in edge_set or (c, b) in edge_set:
            continue
        edge_set -= {(a, b), (c, d)}
        edge_set |= {(a, d), (c, b)}
        edges[i], edges[j] = (a, d), (c, b)
    return edges


def _stub_match(
    rng: random.Random,
    left: Sequence[str],
    right: Sequence[str],
    left_degs: Sequence[int],
    right_degs: Sequence[int],
) -> list[tuple[str, str]]:
    """Realize a bipartite graph with the given degree sequences and no
    duplicate edges: pair shuffled stubs, then repair duplicates by swapping
    right endpoints with randomly chosen clean edges.  Dense graphs (where
    collision repair stalls) go through greedy realization plus edge swaps
    instead."""
    total = sum(left_degs)
    if total > 0.4 * len(left) * len(right):
        edges = _greedy_realize(left, right, left_degs, right_degs)
        return _edge_swaps(rng, edges, 10 * total)
    lstubs = [x for x, d in zip(left, left_degs) for _ in range(d)]
    rstubs = [x for x, d in zip(right, right_degs) for _ in range(d)]
    for attempt in range(50):
        rng.shuffle(lstubs)
        rng.shuffle(rstubs)
        pairs = list(zip(lstubs, rstubs))
        seen: set[tuple[str, str]] = set()
        dups = []
        for idx, e in enumerate(pairs):
            if e in seen:
                dups.append(idx)
            else:
                seen.add(e)
        ok = True
        while dups and ok:
            i = dups.pop()
            e = pairs[i]
            for tries in range(500):
                j = rng.randrange(len(pairs))
                if j == i or j in dups:
                    continue
                ej = pairs[j]
                a, b = (e[0], ej[1]), (ej[0], e[1])
                if a == b or a in seen or b in seen:
                    continue
                seen.remove(ej)
                seen.add(a)
                seen.add(b)
                pairs[i], pairs[j] = a, b
                break
            else:
                ok = False  # couldn't repair this duplicate; reshuffle
        if ok:
            return pairs
    # unlucky sparse case: fall back to the always-feasible path
    edges = _greedy_realize(left, right, left_degs, right_degs)
    return _edge_swaps(rng, edges, 10 * total)


def _bipartite(
    rng: random.Random,
    left: Sequence[str],
    right: Sequence[str],
    total: int,
    left_range: Sequence[int],
    right_range: Sequence[int],
) -> list[tuple[str, str]]:
    """Draw degree sequences within the published ranges until the pair is
    jointly realizable, then realize it."""
    for _ in range(100):
        ldeg = _degree_sequence(rng, len(left), total, *left_range)
        rdeg = _degree_sequence(rng, len(right), total, *right_range)
        try:
            return _stub_match(rng, left, right, ldeg, rdeg)
        except ValueError:
            continue
    raise ValueError("no realizable degree sequences within the ranges")


def synthesize_dataset(
    name: str, rng: random.Random, marginals: Optional[dict] = None
) -> Dataset:
    """Build a dataset matching the published aggregate statistics of the
    named benchmark exactly."""
    row = (marginals or load_marginals())[name]
    users = tuple(f"u{i}" for i in range(1, row["users"] + 1))
    roles = tuple(f"r{i}" for i in range(1, row["roles"] + 1))
    perms = tuple(f"p{i}" for i in range(1, row["perms"] + 1))
    ur = _bipartite(
        rng, users, roles, row["ur"],
        row["roles_per_user"], row["users_per_role"],
    )
    pa = _bipartite(
        rng, roles, perms, row["pa"],
        row["perms_per_role"], row["roles_per_perm"],
    )
    return Dataset(name, users, roles, perms, tuple(ur), tuple(pa))


# --- the administrator actor ------------------------------------------------------


@dataclass(frozen=True)
class ActorRates:
    """Event rates of the administrator, all per day."""

    admin_rate: float
    add_bias: float  # fraction of events that assign rather than revoke
    ur_bias: float  # fraction of events that touch UR rather than PA

    @classmethod
    def sample(cls, rng: random.Random, n_users: int) -> "ActorRates":
        return cls(
            admin_rate=admin_rate(n_users),
            add_bias=rng.uniform(0.7, 1.0),
            ur_bias=rng.uniform(0.3, 0.7),
        )

    def kind_rates(self) -> dict[str, float]:
        r, a, u = self.admin_rate, self.add_bias, self.ur_bias
        return {
            "assignU": a * u * r,
            "revokeU": (1 - a) * u * r,
            "assignP": a * (1 - u) * r,
            "revokeP": (1 - a) * (1 - u) * r,
        }


def admin_rate(n_users: int) -> float:
    return 0.1 * math.sqrt(n_users)


class IndexedSet:
    """Set with O(1) membership, add, discard, and uniform random choice."""

    def __init__(self, items: Iterable = ()) -> None:
        # as adding each item in turn: first occurrences, in order
        self._list: list = list(dict.fromkeys(items))
        self._pos: dict = dict(zip(self._list, itertools.count()))

    def add(self, x) -> None:
        if x not in self._pos:
            self._pos[x] = len(self._list)
            self._list.append(x)

    def discard(self, x) -> None:
        i = self._pos.pop(x, None)
        if i is None:
            return
        last = self._list.pop()
        if i < len(self._list):
            self._list[i] = last
            self._pos[last] = i

    def copy(self) -> "IndexedSet":
        """An independent set with the same elements in the same order, so
        ``choose`` draws the same element for the same ``rng`` state."""
        new = IndexedSet()
        new._list = self._list.copy()
        new._pos = self._pos.copy()
        return new

    def choose(self, rng: random.Random):
        return self._list[rng.randrange(len(self._list))]

    def __contains__(self, x) -> bool:
        return x in self._pos

    def __len__(self) -> int:
        return len(self._list)


@dataclass(frozen=True)
class Event:
    t: float  # days since run start
    kind: str
    label: Optional[Label]  # None when the arrival found no eligible target


def sample_events(
    rng: random.Random, dataset: Dataset, rates: ActorRates, days: float
) -> list[Event]:
    """One run's administrative arrivals.  Targets are uniform over the
    eligible pairs at the moment of the event."""
    users, roles, perms = dataset.users, dataset.roles, dataset.perms
    ur, pa = (pairs.copy() for pairs in dataset._pair_sets)
    kind_rates = rates.kind_rates()
    kinds = list(kind_rates)
    weights = [kind_rates[k] for k in kinds]
    cum = list(itertools.accumulate(weights))
    total = cum[-1]

    def pick_absent(
        lefts: Sequence[str], rights: Sequence[str], present: IndexedSet
    ) -> Optional[tuple[str, str]]:
        capacity = len(lefts) * len(rights)
        if len(present) >= capacity:
            return None
        for _ in range(2000):  # relations here are sparse; this ~never loops
            pair = (rng.choice(lefts), rng.choice(rights))
            if pair not in present:
                return pair
        absent = [
            (l, r)
            for l in lefts
            for r in rights
            if (l, r) not in present
        ]
        return rng.choice(absent)

    out: list[Event] = []
    t = 0.0
    while total:  # an actor with rate 0 (no users) has no arrivals
        t += rng.expovariate(total)
        if t > days:
            break
        kind = kinds[bisect.bisect_left(cum, rng.random() * total)]
        label: Optional[Label] = None
        if kind == "assignU":
            pair = pick_absent(users, roles, ur)
            if pair is not None:
                ur.add(pair)
                label = Label("assignU", user=pair[0], role=pair[1])
        elif kind == "revokeU":
            if len(ur):
                u, r = ur.choose(rng)
                ur.discard((u, r))
                label = Label("revokeU", user=u, role=r)
        elif kind == "assignP":
            pair = pick_absent(roles, perms, pa)
            if pair is not None:
                pa.add(pair)
                label = Label("assignP", role=pair[0], file=pair[1], op=RW)
        else:
            if len(pa):
                r, fn = pa.choose(rng)
                pa.discard((r, fn))
                label = Label("revokeP", role=r, file=fn, op=RW)
        out.append(Event(t, kind, label))
    return out


# --- running ---------------------------------------------------------------------


@dataclass
class RunResult:
    """One run: its sampled arrivals and, for each, the primitive operations
    it cost (an empty vector for a skipped arrival).  Every count is derived
    from these two lists, once per run.  A run names no variant: the model
    prices every variant alike, and the writers name its rows."""

    dataset: str
    run_index: int
    seed: int
    days: float
    rates: ActorRates
    events: list[Event]
    costs: list[CostVector]
    _units: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @cached_property
    def arrivals(self) -> dict[str, int]:
        n = Counter(ev.kind for ev in self.events)
        return {k: n[k] for k in EVENT_KINDS}

    @cached_property
    def applied(self) -> dict[str, int]:
        n = Counter(ev.kind for ev in self.events if ev.label is not None)
        return {k: n[k] for k in EVENT_KINDS}

    @cached_property
    def skipped(self) -> dict[str, int]:
        return {k: n - self.applied[k] for k, n in self.arrivals.items()}

    @cached_property
    def by_kind(self) -> dict[str, CostVector]:
        costs: dict[str, list[CostVector]] = {k: [] for k in EVENT_KINDS}
        for ev, cost in zip(self.events, self.costs):
            costs[ev.kind].append(cost)
        return {k: CostVector.sum(c) for k, c in costs.items()}

    @cached_property
    def totals(self) -> CostVector:
        return CostVector.sum(self.by_kind.values())

    @cached_property
    def rekeys_by_kind(self) -> dict[str, int]:
        """File re-keys (fresh file keys minted) per event kind."""
        return {k: c.get("sym_gen") for k, c in self.by_kind.items()}

    def max_revocations_per_window(self, window: float) -> int:
        """Most applied revocations in one tumbling ``window``-day window.
        Raises ``ValueError`` for a window that is not positive or that cuts
        the run into more windows than a float can count."""
        if not window > 0 or math.isinf(self.days / window):
            raise ValueError(
                f"revocation window {window!r} does not cut {self.days!r} "
                f"days into a countable number of windows"
            )
        buckets = Counter(
            int(ev.t // window)
            for ev in self.events
            if ev.label is not None and ev.kind in ("revokeU", "revokeP")
        )
        return max(buckets.values(), default=0)

    def units(self, profile: str, kind: Optional[str] = None) -> Fraction:
        key = (profile, kind)
        if key not in self._units:
            cost = self.totals if kind is None else self.by_kind[kind]
            self._units[key] = scheme_profile(profile).units_of(cost)
        return self._units[key]


def derive_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seed_engine(dataset: Dataset, variant: str) -> Engine:
    return sigma(dataset.state(), variant)


def run_simulation(
    dataset: Dataset,
    *,
    days: float = 30.0,
    seed: int = 0,
    run_index: int = 0,
    engine: Optional[Engine] = None,
) -> RunResult:
    """One simulated period from ``dataset``.  Each applied event is priced
    by ``algebraic_cost`` from the model state, advanced by ``apply_label``,
    and the file-key versions, which ``algebraic_cost`` advances; no engine
    runs.  The costs carry the identity-based counter names, and both
    variants spend the same primitives, so the run names no variant.

    Given ``engine``, which holds the seeded dataset (see ``seed_engine``)
    and is consumed, the run audits it in the engine's binding: a
    ``Lockstep`` steps every label through the engine and the model, and
    its prices are the costs.  The run raises ``AssertionError`` naming the
    first label at which the engine raises, decrypts without authorization,
    grants a request outside the envelope of the model's states before and
    after the label, fails ``reconcile`` or leaves UR and PA unlike the
    model's, as far as the label's changes show.  After the last
    event it compares the engine's whole state with the model's once."""
    run_seed = derive_seed(seed, run_index)
    rng = random.Random(run_seed)
    rates = ActorRates.sample(rng, len(dataset.users))
    events = sample_events(rng, dataset, rates, days)

    costs: list[CostVector] = []
    state = dataset.state()
    lock = None if engine is None else Lockstep(engine, state)
    versions = dict.fromkeys(dataset.perms, 1) if lock is None else None
    for ev in events:
        label = ev.label
        if label is None:
            costs.append(CostVector())
        elif lock is None:
            costs.append(algebraic_cost(label, state, versions))
            state = apply_label(state, label)
        else:
            failure = lock.step(label)
            if failure is not None and lock.error is not None:
                raise AssertionError(
                    f"engine failed at {label}: {lock.error!r}"
                ) from lock.error
            if failure is not None:
                kind, detail = failure
                if kind == "unauthorized":
                    kind = "unauthorized decryption"
                elif kind == "safety":
                    kind = "envelope violation"
                else:
                    kind += " mismatch"
                raise AssertionError(f"{kind} at {label}: {detail}")
            costs.append(lock.price)
    failure = None if lock is None else lock.check_whole_state()
    if failure is not None:
        raise AssertionError(
            f"theory mismatch at the end of the run: {failure[1]}"
        )
    return RunResult(
        dataset=dataset.name,
        run_index=run_index,
        seed=run_seed,
        days=days,
        rates=rates,
        events=events,
        costs=costs,
    )


def _run_chunk(args: tuple) -> list[RunResult]:
    """Run every index of the chunk; an audited chunk seeds one engine and
    audits every run on a fork of it."""
    dataset, indices, audit, kwargs = args
    start = None if audit is None else seed_engine(dataset, audit)
    return [
        run_simulation(
            dataset, run_index=i,
            engine=None if start is None else start.fork(), **kwargs,
        )
        for i in indices
    ]


def monte_carlo(
    dataset: Dataset,
    runs: int = 100,
    *,
    days: float = 30.0,
    seed: int = 0,
    workers: int = 1,
    audit: Optional[str] = None,
) -> list[RunResult]:
    """Independent runs with per-run derived seeds; identical results for any
    worker count.  The run indices are split into one contiguous chunk per
    worker (at most one per run).  With ``audit``, a variant name, each
    chunk seeds a start engine of that variant once and gives every run a
    fork of it to audit; the runs are the same with or without."""
    kwargs = dict(days=days, seed=seed)
    n = min(max(workers, 1), runs)
    jobs = [
        (dataset, range(runs * k // n, runs * (k + 1) // n), audit, kwargs)
        for k in range(n)
    ]
    if n > 1:
        import multiprocessing  # only a pool needs it, and it costs 1 MB

        with multiprocessing.Pool(n) as pool:
            chunks = pool.map(_run_chunk, jobs)
    else:
        chunks = [_run_chunk(j) for j in jobs]
    return [r for chunk in chunks for r in chunk]


# --- aggregation and reporting ----------------------------------------------------


def per_revocation_units(
    result: RunResult, profile: str
) -> Optional[Fraction]:
    n = result.applied["revokeU"]
    if n == 0:
        return None
    return result.units(profile, "revokeU") / n


def _per_run_units(results: Sequence[RunResult], profile: str) -> list[float]:
    """Units per user revocation of each run that revoked a user."""
    per_run = (per_revocation_units(r, profile) for r in results)
    return [float(u) for u in per_run if u is not None]


def user_revocation_summary(
    results: Sequence[RunResult], profile: str = "BF+CC"
) -> dict[str, float]:
    """Experiment-level revocation costs: mean encryptions per user revoked
    (over all revocations in all runs) and the median over runs of
    multiplication units per user revoked."""
    total_enc = sum(r.by_kind["revokeU"].get("ibe_enc") for r in results)
    total_rev = sum(r.applied["revokeU"] for r in results)
    per_run = _per_run_units(results, profile)
    return {
        "user_revocations": total_rev,
        "mean_enc_per_user_revocation": (
            total_enc / total_rev if total_rev else 0.0
        ),
        "median_units_per_user_revocation": (
            statistics.median(per_run) if per_run else 0.0
        ),
    }


def _fmt_units(x: Fraction) -> str:
    return f"{float(x):.1f}"


def _write_csv(
    path: str, header: list[str], rows: list[tuple[str, list]],
    variants: Sequence[str],
) -> None:
    """Write ``header``, then the row of each ``(dataset, row)`` pair once
    under every name in ``variants``, led by its dataset and that name: in
    (dataset, variant) order, each row computed once."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for ds, group in itertools.groupby(rows, key=lambda x: x[0]):
            group = [row for _, row in group]
            for v in sorted(variants):
                w.writerows([ds, v, *row] for row in group)


def write_runs_csv(
    path: str,
    results: Sequence[RunResult],
    variants: Sequence[str],
    profiles: Sequence[str] = HEADLINE_PROFILES,
    window: Optional[float] = None,
) -> None:
    """One row per run and variant; with ``window`` (days), a last column
    holds each run's ``max_revocations_per_window(window)``."""
    header = (
        ["dataset", "variant", "run", "seed", "days",
         "admin_rate", "add_bias", "ur_bias",
         "arrivals", "applied", "skipped"]
        + [f"applied_{k}" for k in EVENT_KINDS]
        + list(MODEL_OPS)
        + [f"units_{p}" for p in profiles]
        + ["rekeys_revokeU", "rekeys_per_user_revocation"]
        + [f"units_per_user_revocation_{p}" for p in profiles]
        + (["max_revocations_per_window"] if window is not None else [])
    )
    rows = []
    for r in sorted(results, key=lambda r: (r.dataset, r.run_index)):
        totals = r.totals.totals()
        n_rev = r.applied["revokeU"]
        row = [
            r.run_index, r.seed,
            f"{r.days:.6f}",
            f"{r.rates.admin_rate:.6f}",
            f"{r.rates.add_bias:.6f}",
            f"{r.rates.ur_bias:.6f}",
            sum(r.arrivals.values()),
            sum(r.applied.values()),
            sum(r.skipped.values()),
        ]
        row += [r.applied[k] for k in EVENT_KINDS]
        row += [totals.get(op, 0) for op in MODEL_OPS]
        row += [_fmt_units(r.units(p)) for p in profiles]
        row += [
            r.rekeys_by_kind["revokeU"],
            f"{r.rekeys_by_kind['revokeU'] / n_rev:.1f}" if n_rev else "",
        ]
        row += [
            _fmt_units(per_revocation_units(r, p)) if n_rev else ""
            for p in profiles
        ]
        if window is not None:
            row += [r.max_revocations_per_window(window)]
        rows.append((r.dataset, row))
    _write_csv(path, header, rows, variants)


def write_events_csv(
    path: str, results: Sequence[RunResult], variants: Sequence[str]
) -> None:
    header = (
        ["dataset", "variant", "run", "index", "t_days", "kind",
         "target", "applied"]
        + list(MODEL_OPS)
    )
    rows = []
    for r in sorted(results, key=lambda r: (r.dataset, r.run_index)):
        for i, (ev, cost) in enumerate(zip(r.events, r.costs)):
            totals = cost.totals()
            rows.append((r.dataset, [
                r.run_index, i, f"{ev.t:.6f}",
                ev.kind, "-" if ev.label is None else str(ev.label),
                int(ev.label is not None),
                *(totals.get(op, 0) for op in MODEL_OPS),
            ]))
    _write_csv(path, header, rows, variants)


def _quartiles(vals: list[float]) -> tuple[float, float, float]:
    if not vals:
        return (0.0, 0.0, 0.0)
    if len(vals) == 1:
        return (vals[0], vals[0], vals[0])
    return tuple(statistics.quantiles(vals, n=4, method="inclusive"))


def write_summary_csv(
    path: str,
    results: Sequence[RunResult],
    variants: Sequence[str],
    profiles: Sequence[str] = HEADLINE_PROFILES,
) -> None:
    """Per-dataset aggregates over runs, one row per variant."""
    header = [
        "dataset", "variant", "runs",
        "mean_arrivals", "mean_applied",
        "user_revocations", "mean_enc_per_user_revocation",
    ]
    for p in profiles:
        header += [
            f"units_per_user_revocation_{p}_q1",
            f"units_per_user_revocation_{p}_median",
            f"units_per_user_revocation_{p}_q3",
        ]
    rows = []
    by_dataset = sorted(results, key=lambda r: r.dataset)
    for ds, rs in itertools.groupby(by_dataset, key=lambda r: r.dataset):
        rs = list(rs)
        summ = user_revocation_summary(rs)
        row = [
            len(rs),
            f"{statistics.fmean(sum(r.arrivals.values()) for r in rs):.6f}",
            f"{statistics.fmean(sum(r.applied.values()) for r in rs):.6f}",
            summ["user_revocations"],
            f"{summ['mean_enc_per_user_revocation']:.1f}",
        ]
        for p in profiles:
            q1, q2, q3 = _quartiles(_per_run_units(rs, p))
            row += [f"{q1:.1f}", f"{q2:.1f}", f"{q3:.1f}"]
        rows.append((ds, row))
    _write_csv(path, header, rows, variants)
