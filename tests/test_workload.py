"""Dataset synthesis, the administrator actor, and simulation plumbing."""

import csv
import dataclasses
import hashlib
import json
import math
import pickle
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
import rolecrypt.equivalence as eqv
from rolecrypt.costmodel import algebraic_cost, reconcile
from rolecrypt.crypto import (
    MODEL_OPS, CostVector, UnauthorizedDecrypt, role_identity,
)
from rolecrypt.engine import Engine, measure_label
from rolecrypt.rbac import (
    Label, RW, apply_label, theory, utf8_encodable,
)
from rolecrypt.workload import (
    ActorRates,
    Dataset,
    EVENT_KINDS,
    IndexedSet,
    admin_rate,
    derive_seed,
    load_dataset,
    load_marginals,
    monte_carlo,
    per_revocation_units,
    run_simulation,
    sample_events,
    save_dataset,
    seed_engine,
    synthesize_dataset,
    user_revocation_summary,
    write_events_csv,
    write_runs_csv,
    write_summary_csv,
)
from test_equivalence import _FlickerEngine, _StaleRewrapEngine
from test_rbac import check_invariants


TOY = Dataset(
    name="toy",
    users=("u1", "u2", "u3", "u4"),
    roles=("r1", "r2"),
    perms=("p1", "p2", "p3"),
    ur=(("u1", "r1"), ("u2", "r1"), ("u3", "r2")),
    pa=(("r1", "p1"), ("r2", "p2")),
)


# -- published dataset statistics


PUBLISHED = {
    "domino": (79, 231, 20, 75, 629),
    "emea": (35, 3046, 34, 35, 7211),
    "firewall1": (365, 709, 60, 1130, 3455),
    "firewall2": (325, 590, 10, 325, 1136),
    "healthcare": (46, 46, 13, 55, 359),
    "university": (493, 56, 16, 495, 202),
}


def test_bundled_marginals_match_published_sizes():
    rows = load_marginals()
    assert set(rows) == set(PUBLISHED)
    for name, (u, p, r, ur, pa) in PUBLISHED.items():
        row = rows[name]
        got = (row["users"], row["perms"], row["roles"], row["ur"], row["pa"])
        assert got == (u, p, r, ur, pa), name


@pytest.mark.parametrize("name", ["healthcare", "domino"])
def test_synthesis_reproduces_counts_and_degree_ranges(name):
    row = load_marginals()[name]
    ds = synthesize_dataset(name, random.Random(11))
    m = ds.marginals()
    assert (m["users"], m["perms"], m["roles"], m["ur"], m["pa"]) == PUBLISHED[name]
    assert len(set(ds.ur)) == len(ds.ur)  # no duplicate edges
    assert len(set(ds.pa)) == len(ds.pa)

    def degree_ok(pairs, names, side, lo, hi):
        degs = Counter(p[side] for p in pairs)
        for n in names:
            assert lo <= degs.get(n, 0) <= hi, (n, degs.get(n, 0), lo, hi)

    degree_ok(ds.ur, ds.users, 0, *row["roles_per_user"])
    degree_ok(ds.ur, ds.roles, 1, *row["users_per_role"])
    degree_ok(ds.pa, ds.roles, 0, *row["perms_per_role"])
    degree_ok(ds.pa, ds.perms, 1, *row["roles_per_perm"])


def test_synthesis_unknown_name():
    with pytest.raises(KeyError):
        synthesize_dataset("mystery", random.Random(0))


def test_dataset_save_load_round_trip(tmp_path):
    path = tmp_path / "toy.json"
    save_dataset(TOY, str(path))
    assert load_dataset(str(path)) == TOY


@pytest.mark.parametrize("change, message", [
    ({"users": ["u1", "u1", "u3", "u4"]}, "duplicate users entry 'u1'"),
    ({"pa": [["r1", "p1"], ["r1", "p1"]]}, "duplicate pa entry ('r1', 'p1')"),
    ({"ur": [["u1", "r9"]]}, "ur pair ('u1', 'r9') names unknown role 'r9'"),
    ({"pa": [["r1", "p9"]]}, "pa pair ('r1', 'p9') names unknown file 'p9'"),
    ({"ur": [["u1", "r1", "x"]]}, "'ur' must be a list of [name, name] pairs"),
    ({"roles": "r1"}, "'roles' must be a list of names"),
    ({"users": ["SU"], "ur": []}, "user name 'SU' is reserved"),
    ({"roles": ["r1", "SU"]}, "role name 'SU' is reserved"),
    ({"name": ["x"]}, "'name' must be a string"),
    ({"name": 5}, "'name' must be a string"),
    ({"name": "\ud800"}, "'name' holds '\\ud800', which UTF-8 cannot encode"),
    ({"roles": ["r1", "r2", "r\udfff"]},
     "'roles' holds 'r\\udfff', which UTF-8 cannot encode"),
    ({"perms": ["p1", "p2", "p3", "\udc80"]},
     "'perms' holds '\\udc80', which UTF-8 cannot encode"),
    # the first offender in file order, and each type shape
    ({"users": ["u1", 5]}, "'users' must be a list of names"),
    ({"ur": ["u1"]}, "'ur' must be a list of [name, name] pairs"),
    ({"ur": [["u1"]]}, "'ur' must be a list of [name, name] pairs"),
    ({"pa": [["r1", 5]]}, "'pa' must be a list of [name, name] pairs"),
    ({"ur": [["u1", "r8"], ["u2", "r9"]]},
     "ur pair ('u1', 'r8') names unknown role 'r8'"),
    ({"ur": [["u2", "r9"]], "users": ["u1", "u1", "u2"]},
     "duplicate users entry 'u1'"),
])
def test_load_dataset_rejects_malformed_files(tmp_path, change, message):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({**TOY.to_dict(), **change}), encoding="utf-8"
    )
    with pytest.raises(ValueError) as exc:
        load_dataset(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_load_dataset_accepts_non_ascii_names(tmp_path):
    path = tmp_path / "toy.json"
    ds = dataclasses.replace(
        TOY, name="café", users=("ü1",) + TOY.users[1:],
        ur=(("ü1", "r1"),) + TOY.ur[1:],
    )
    save_dataset(ds, str(path))
    assert load_dataset(str(path)) == ds


def _first_fault(d):
    """The message the dataset check gives for ``d``, or None: each check
    walks its entries one by one, in file order."""
    if not isinstance(d, dict):
        return "not a JSON object"
    for key in ("name", "users", "roles", "perms", "ur", "pa"):
        if key not in d:
            return f"missing key {key!r}"
    if not isinstance(d["name"], str):
        return "'name' must be a string"
    for key in ("users", "roles", "perms"):
        if not isinstance(d[key], list) or any(not isinstance(x, str) for x in d[key]):
            return f"{key!r} must be a list of names"
    for key in ("ur", "pa"):
        v = d[key]
        if not isinstance(v, list) or any(
            not isinstance(p, list) or len(p) != 2
            or any(not isinstance(x, str) for x in p)
            for p in v
        ):
            return f"{key!r} must be a list of [name, name] pairs"
    d = {**d, "ur": [tuple(p) for p in d["ur"]], "pa": [tuple(p) for p in d["pa"]]}
    for key in ("name", "users", "roles", "perms"):
        for x in [d["name"]] if key == "name" else d[key]:
            if not utf8_encodable(x):
                return f"{key!r} holds {x!r}, which UTF-8 cannot encode"
    for key, kind in (("users", "user"), ("roles", "role")):
        if "SU" in d[key]:
            return f"{kind} name 'SU' is reserved"
    for key in ("users", "roles", "perms", "ur", "pa"):
        for i, x in enumerate(d[key]):
            if x in d[key][:i]:
                return f"duplicate {key} entry {x!r}"
    known = {"user": d["users"], "role": d["roles"], "file": d["perms"]}
    for key, kinds in (("ur", ("user", "role")), ("pa", ("role", "file"))):
        for pair in d[key]:
            for kind, name in zip(kinds, pair):
                if name not in known[kind]:
                    return f"{key} pair {pair!r} names unknown {kind} {name!r}"
    return None


# names that are known, unknown, reserved, unencodable or of the wrong type
_NAME = st.one_of(
    st.sampled_from(["u1", "u2", "r1", "r2", "p1", "p2", "x", "é"]),
    st.sampled_from(["SU", "\ud800", "x\udfff"]),
    st.integers(-1, 1),
    st.lists(st.sampled_from(["u1", "r1"]), max_size=2),
)


@st.composite
def _dataset_shapes(draw):
    """A valid dataset, then up to two faults: a key dropped, a value
    replaced by a name or list of names, or an entry appended (a duplicate,
    an unknown or odd name, a pair of 0 to 3 names)."""

    def subset(names):
        return draw(st.lists(st.sampled_from(names), unique=True)) if names else []

    users = subset(["u1", "u2", "é"])
    roles, perms = subset(["r1", "r2"]), subset(["p1", "p2"])
    d = {
        "name": draw(st.sampled_from(["shape", "ü"])),
        "users": users, "roles": roles, "perms": perms,
        "ur": [[u, r] for u, r in subset([(u, r) for u in users for r in roles])],
        "pa": [[r, f] for r, f in subset([(r, f) for r in roles for f in perms])],
    }
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(d) or ["name"]))
        fault = draw(st.sampled_from(["drop", "replace", "append", "append"]))
        if fault == "drop":
            d.pop(key, None)
        elif fault == "replace" or not isinstance(d.get(key), list):
            d[key] = draw(st.one_of(_NAME, st.lists(_NAME, max_size=3)))
        elif key in ("ur", "pa"):
            known = st.sampled_from(["u1", "r1", "r2", "p1", "x"])
            pair = st.one_of(st.lists(known, min_size=2, max_size=2),
                             st.lists(_NAME, max_size=3))
            d[key] = d[key] + [draw(pair)]
        else:
            d[key] = d[key] + [draw(st.sampled_from(d[key] or ["u1"]) | _NAME)]
    return d


_DATASET_SHAPES = st.one_of(_dataset_shapes(), _NAME)


def test_dataset_shapes_load_or_raise_value_error(tmp_path):
    # any JSON shape either loads as a dataset whose state is sound or raises
    # ValueError with the message the entry-by-entry check gives, naming the
    # file through load_dataset
    path = tmp_path / "shape.json"
    outcomes = Counter()

    @settings(max_examples=200, deadline=None, database=None)
    @given(_DATASET_SHAPES)
    def check(d):
        path.write_text(json.dumps(d), encoding="utf-8")
        want = _first_fault(d)
        try:
            ds = Dataset.from_dict(d)
        except ValueError as e:
            assert str(e) == want
            with pytest.raises(ValueError) as exc:
                load_dataset(str(path))
            assert str(exc.value) == f"{path}: {want}"
            outcomes["rejected"] += 1
        else:
            assert want is None
            check_invariants(ds.state())
            assert load_dataset(str(path)) == ds
            outcomes["loaded"] += 1

    check()
    assert outcomes["loaded"] and outcomes["rejected"], outcomes


def test_load_dataset_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.json: "):
        load_dataset(str(path))


# -- the actor


def test_admin_rate_calibration():
    assert abs(admin_rate(35) - 0.59) < 0.01
    assert abs(admin_rate(493) - 2.22) < 0.01
    assert admin_rate(100) == pytest.approx(1.0)


def test_actor_rates_partition_the_total():
    for seed in range(20):
        rates = ActorRates.sample(random.Random(seed), 49)
        kr = rates.kind_rates()
        assert set(kr) == set(EVENT_KINDS)
        assert sum(kr.values()) == pytest.approx(rates.admin_rate)
        assert 0.7 <= rates.add_bias <= 1.0
        assert 0.3 <= rates.ur_bias <= 0.7
        assert rates.admin_rate == pytest.approx(0.7)


def test_sample_events_times_and_eligibility():
    rng = random.Random(3)
    rates = ActorRates(admin_rate=2.0, add_bias=0.8, ur_bias=0.5)
    events = sample_events(rng, TOY, rates, days=30.0)
    assert events, "thirty days at rate 2/day cannot plausibly be empty"
    times = [e.t for e in events]
    assert times == sorted(times)
    assert all(0 < t <= 30.0 for t in times)
    assert all(e.kind in EVENT_KINDS for e in events)
    # replaying the labels keeps relations consistent: no duplicate grants
    ur, pa = set(TOY.ur), set(TOY.pa)
    for e in events:
        if e.label is None:
            continue
        if e.kind == "assignU":
            pair = (e.label.user, e.label.role)
            assert pair not in ur
            ur.add(pair)
        elif e.kind == "revokeU":
            pair = (e.label.user, e.label.role)
            assert pair in ur
            ur.discard(pair)
        elif e.kind == "assignP":
            pair = (e.label.role, e.label.file)
            assert pair not in pa
            pa.add(pair)
            assert e.label.op == RW
        else:
            pair = (e.label.role, e.label.file)
            assert pair in pa
            pa.discard(pair)


def test_sample_events_skips_when_saturated():
    tiny = Dataset("tiny", ("u1",), ("r1",), ("p1",),
                   (("u1", "r1"),), (("r1", "p1"),))
    rng = random.Random(5)
    rates = ActorRates(admin_rate=30.0, add_bias=0.95, ur_bias=0.5)
    events = sample_events(rng, tiny, rates, days=10.0)
    skipped = [e for e in events if e.label is None]
    assert skipped, "a saturated one-pair state must skip assignment arrivals"


def test_indexed_set():
    s = IndexedSet(["a", "b", "c"])
    assert len(s) == 3 and "b" in s
    s.discard("b")
    assert "b" not in s and len(s) == 2
    s.discard("zz")  # absent discard is a no-op
    s.add("d")
    rng = random.Random(0)
    picks = {s.choose(rng) for _ in range(50)}
    assert picks <= {"a", "c", "d"}
    assert len(picks) == 3


@pytest.mark.parametrize("items", [
    [], ["a"], ["c", "a", "c", "b", "a", "d", "b"],
    [("u1", "r1"), ("u2", "r1"), ("u1", "r1")],
])
def test_indexed_set_built_at_once_equals_adding_one_at_a_time(items):
    at_once = IndexedSet(items)
    one_by_one = IndexedSet()
    for x in items:
        one_by_one.add(x)
    assert at_once._list == one_by_one._list
    assert at_once._pos == one_by_one._pos
    if items:
        assert [at_once.choose(random.Random(i)) for i in range(20)] == [
            one_by_one.choose(random.Random(i)) for i in range(20)
        ]


def test_indexed_set_copy_is_independent_and_keeps_choose_order():
    s = IndexedSet(["a", "b", "c", "d"])
    s.discard("b")
    c = s.copy()
    assert [c.choose(random.Random(i)) for i in range(20)] == [
        s.choose(random.Random(i)) for i in range(20)
    ]
    c.discard("a")
    c.add("e")
    assert "a" in s and "e" not in s and len(s) == 3
    assert "a" not in c and "e" in c and len(c) == 3
    s.discard("c")
    assert "c" in c


def _shared_sets(ds):
    return [(list(x._list), dict(x._pos)) for x in ds._pair_sets]


def test_sample_events_draws_from_the_datasets_sets_without_editing_them():
    ds = synthesize_dataset("healthcare", random.Random(2))
    rates = ActorRates(admin_rate=3.0, add_bias=0.8, ur_bias=0.5)

    def events(d):
        return sample_events(random.Random(7), d, rates, days=30.0)

    first = events(ds)
    before = _shared_sets(ds)
    assert events(ds) == first
    assert _shared_sets(ds) == before
    assert any(e.kind.startswith("revoke") and e.label for e in first)
    # a freshly loaded copy, and one that crossed a process boundary
    # carrying the built sets, draw the same events
    assert events(Dataset.from_dict(ds.to_dict())) == first
    moved = pickle.loads(pickle.dumps(ds))
    assert "_pair_sets" in vars(moved)
    assert events(moved) == first
    # an unread successor of its state crosses with its indexes, and
    # derives its relations from them on the other side
    label = next(
        e.label for e in first if e.kind.startswith("revoke") and e.label
    )
    after = apply_label(ds.state(), label)
    loaded = pickle.loads(pickle.dumps(after))
    assert "ur" not in vars(after) and "ur" not in vars(loaded)
    assert loaded._index == after._index
    assert (loaded.ur, loaded.pa) == (after.ur, after.pa)
    assert loaded == after


def test_derive_seed_matches_direct_hash():
    want = int.from_bytes(hashlib.sha256(b"42/7").digest()[:8], "big")
    assert derive_seed(42, 7) == want
    assert derive_seed(42, 8) != want


# -- running simulations


def test_seed_engine_builds_dataset_state():
    eng = seed_engine(TOY, "ibe")
    facts = theory(eng.state())
    assert ("UR", "u1", "r1") in facts
    assert ("PA", "r1", "p1", RW) in facts
    assert len(eng.users) == 4 and len(eng.roles) == 2 and len(eng.files) == 3


def test_run_simulation_accounting():
    res = run_simulation(TOY, days=60.0, seed=9, engine=seed_engine(TOY, "ibe"))
    assert res.dataset == "toy"
    for k in EVENT_KINDS:
        assert res.arrivals[k] == res.applied[k] + res.skipped[k]
    assert len(res.events) == len(res.costs) == sum(res.arrivals.values())
    assert sum(res.skipped.values()) > 0  # the empty-cost branch is exercised
    for ev, cost in zip(res.events, res.costs):
        if ev.label is None:
            assert cost == CostVector()
    for k in EVENT_KINDS:
        summed = Counter()
        for ev, cost in zip(res.events, res.costs):
            if ev.kind == k:
                summed.update(dict(cost.items()))
        assert dict(res.by_kind[k].items()) == dict(summed)
    assert list(res.applied) == list(res.by_kind) == list(EVENT_KINDS)
    # every revocation that re-keyed shows up in the sym_gen tally
    assert res.rekeys_by_kind["revokeU"] == res.by_kind["revokeU"].get("sym_gen")
    assert res.units("BF+CC") >= 0
    # every derived number is computed once
    assert res.by_kind is res.by_kind and res.units("BF+CC") is res.units("BF+CC")
    assert res.units("LW+PS", "revokeU") is res.units("LW+PS", "revokeU")


class _ForgetfulEngine(Engine):
    """Deliberately broken: assignU issues the member's RK tuple but leaves
    the member out of the record, so a later revocation of the member warns
    instead of re-keying.  The engine's own record agrees with what it
    spent, so only a check priced from the model's state sees the drift."""

    def assign_user(self, u, r):
        super().assign_user(u, r)
        self.members[r].discard(u)


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_check_costs_catches_engine_drift(monkeypatch, variant):
    # without memberships, seeding never calls the broken assign_user
    ds = dataclasses.replace(TOY, ur=())
    monkeypatch.setattr(eqv, "Engine", _ForgetfulEngine)
    eng = seed_engine(ds, variant)
    assert type(eng) is _ForgetfulEngine
    with pytest.raises(AssertionError, match=r"^cost mismatch at revokeU"):
        run_simulation(ds, days=60.0, seed=7, engine=eng)
    # an audited batch seeds the broken engine too
    with pytest.raises(AssertionError, match=r"^cost mismatch at revokeU"):
        monte_carlo(ds, runs=1, days=60.0, seed=7, audit=variant)


class _QuietStaleRewrapEngine(_StaleRewrapEngine):
    """Deliberately broken: the stale re-wrap of its parent, but a
    revocation that cannot open a key gives up without raising."""

    def revoke_user(self, u, r):
        try:
            super().revoke_user(u, r)
        except UnauthorizedDecrypt:
            pass


class _LingeringMemberEngine(Engine):
    """Deliberately broken: a revocation spends what an honest one spends,
    then puts the revoked member's RK tuple back at the role's new version.
    The engine's record and its costs say the member left, but its UR does
    not."""

    def _revoke_user_inner(self, u, r):
        old = self.fs.rk[(u, r, self.roles[r].version)]
        super()._revoke_user_inner(u, r)
        role = role_identity(r, self.roles[r].version)
        self.fs.put_rk(faults.altered(old, "role", role))


@pytest.mark.parametrize("variant", ["ibe", "pki"])
@pytest.mark.parametrize("engine, message", [
    (
        _StaleRewrapEngine,
        "engine failed at revokeU(u2, r9): UnauthorizedDecrypt(",
    ),
    (_QuietStaleRewrapEngine, "unauthorized decryption at revokeU(u2, r9)"),
    (
        _LingeringMemberEngine,
        "theory mismatch at revokeU(u23, r1): +[('UR', 'u23', 'r1'), ",
    ),
    # UR, PA and the costs stay the model's; only the envelope, checked
    # after every change in the stream, sees the moment's memberships
    (
        _FlickerEngine,
        "envelope violation at assignU(u41, r8): outside envelope +[",
    ),
], ids=["raises", "quiet", "lingering", "flicker"])
def test_audit_names_the_event_an_engine_fails(
    monkeypatch, variant, engine, message
):
    # the audit stops at the first failing event and names its label;
    # revokeU(u23, r1) is the run's first revocation
    ds = synthesize_dataset("healthcare", random.Random(derive_seed(0, -1)))
    monkeypatch.setattr(eqv, "Engine", engine)
    eng = seed_engine(ds, variant)
    assert type(eng) is engine
    with pytest.raises(AssertionError) as exc:
        run_simulation(ds, days=60.0, seed=1, engine=eng)
    assert str(exc.value).startswith(message)


class _HiddenMemberEngine(Engine):
    """Deliberately broken as ``_LingeringMemberEngine``, but the RK tuple
    goes back straight into the store's map, around ``FileStore``'s put, so
    no change in the stream shows it."""

    def _revoke_user_inner(self, u, r):
        old = self.fs.rk[(u, r, self.roles[r].version)]
        super()._revoke_user_inner(u, r)
        v = self.roles[r].version
        self.fs.rk[(u, r, v)] = faults.altered(
            old, "role", role_identity(r, v)
        )


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_audit_compares_the_whole_state_after_the_last_event(
    monkeypatch, variant
):
    # the steps pass, since the stream never carried the put-back tuple;
    # the one whole-state comparison of the run finds it
    ds = synthesize_dataset("healthcare", random.Random(derive_seed(0, -1)))
    monkeypatch.setattr(eqv, "Engine", _HiddenMemberEngine)
    eng = seed_engine(ds, variant)
    with pytest.raises(AssertionError) as exc:
        run_simulation(ds, days=60.0, seed=1, engine=eng)
    message = str(exc.value)
    assert message.startswith("theory mismatch at the end of the run: +[")
    assert "('UR', 'u23', 'r1')" in message  # the first revocation's


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_audit_reads_whole_state_once_per_run(monkeypatch, variant):
    # every change of the run reaches the stepper's hook, and the whole
    # state is read once: to compare it with the model's after the last
    # event
    eng, reads, hooked = seed_engine(TOY, variant), [], []
    state, fire = eng.state, eng.fs._fire

    def counting_fire(store, key):
        hooked.append(eng.fs.on_mutation is not None)
        fire(store, key)

    monkeypatch.setattr(eng, "state", lambda: reads.append(1) or state())
    monkeypatch.setattr(eng.fs, "_fire", counting_fire)
    res = run_simulation(TOY, days=60.0, seed=4, engine=eng)
    assert sum(res.applied.values()) > 0
    assert hooked and all(hooked)
    assert len(reads) == 1


def test_run_simulation_is_deterministic():
    def run(i):
        return run_simulation(TOY, days=30.0, seed=4, run_index=i)

    a, b, c = run(2), run(2), run(3)
    assert a.totals == b.totals and a.arrivals == b.arrivals
    assert (a.totals, a.arrivals) != (c.totals, c.arrivals)


def _run_key(r):
    return (
        r.run_index, r.seed, r.by_kind, r.arrivals, r.applied, r.rates,
        r.events, r.costs,
    )


def test_monte_carlo_worker_count_invariance():
    # each worker runs one contiguous chunk of indices; uneven, oversized
    # and empty splits must not show
    key = _run_key
    for runs, workers in [(6, 3), (5, 2), (2, 4), (0, 2)]:
        serial = monte_carlo(TOY, runs=runs, seed=2, days=20.0)
        parallel = monte_carlo(
            TOY, runs=runs, seed=2, days=20.0, workers=workers
        )
        assert [key(r) for r in serial] == [key(r) for r in parallel]
        assert [r.run_index for r in parallel] == list(range(runs))


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_audited_monte_carlo_worker_count_invariance(variant):
    # each pool worker seeds its own start engine, and so its own provider
    # of the variant's family, and audits its chunk's runs on forks of it
    key = _run_key
    serial = monte_carlo(TOY, runs=4, seed=4, days=40.0, audit=variant)
    parallel = monte_carlo(
        TOY, runs=4, seed=4, days=40.0, audit=variant, workers=2
    )
    assert [key(r) for r in serial] == [key(r) for r in parallel]
    assert [r.run_index for r in parallel] == list(range(4))


def test_monte_carlo_runs_equal_fresh_simulations():
    # an audited batch audits every run on a fork of one seeded engine
    batch = monte_carlo(TOY, runs=3, seed=4, days=40.0, audit="pki")
    for i, r in enumerate(batch):
        fresh = run_simulation(
            TOY, seed=4, days=40.0, run_index=i,
            engine=seed_engine(TOY, "pki"),
        )
        assert (r.by_kind, r.applied, r.rates) == (
            fresh.by_kind, fresh.applied, fresh.rates
        )
    # so `simulate --check-costs` writes the rows of the metered runs: an
    # audited batch of either variant equals the metered one, run by run
    metered = monte_carlo(TOY, runs=3, seed=4, days=40.0)
    assert len(metered) == 3
    for variant in ("ibe", "pki"):
        audited = monte_carlo(TOY, runs=3, seed=4, days=40.0, audit=variant)
        assert audited == metered


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_closed_forms_hold_at_dataset_scale(variant):
    # the `gen-dataset --name firewall1 --seed 0` instance: 365 users, 60
    # roles, 709 files; run_simulation raises on the first cost mismatch
    ds = synthesize_dataset("firewall1", random.Random(derive_seed(0, -1)))
    t0 = time.monotonic()
    results = monte_carlo(ds, runs=3, audit=variant)
    elapsed = time.monotonic() - t0
    assert sum(sum(r.applied.values()) for r in results) >= 100
    assert sum(r.applied["revokeU"] for r in results) >= 10
    assert elapsed < 10.0


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_cost_model_meters_what_the_engine_spends(variant):
    # every bundled dataset: each run priced by the cost model alone must
    # match, event by event, the same run audited on a seeded engine
    revocations = 0
    for name in sorted(load_marginals()):
        ds = synthesize_dataset(name, random.Random(derive_seed(0, -1)))
        start = seed_engine(ds, variant)
        for i in range(3):
            eng = start.fork()
            audited = run_simulation(ds, seed=3, run_index=i, engine=eng)
            metered = run_simulation(ds, seed=3, run_index=i)
            assert metered.events == audited.events
            assert metered.costs == audited.costs
            assert not eng.provider.unauthorized_events
            revocations += metered.applied["revokeU"]
            revocations += metered.applied["revokeP"]
    assert revocations >= 20


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_composite_labels_reconcile_at_dataset_scale(variant):
    # the actor issues no delU or delR, so price the largest of each on the
    # `gen-dataset --name firewall1 --seed 0` instance: the user with the
    # most roles and the role with the most files (ties to the least name)
    ds = synthesize_dataset("firewall1", random.Random(derive_seed(0, -1)))
    state = ds.state()
    n_roles = Counter(u for u, _ in state.ur)
    n_files = Counter(r for r, _, _ in state.pa)
    u = min(n_roles, key=lambda x: (-n_roles[x], x))
    r = min(n_files, key=lambda x: (-n_files[x], x))
    assert (u, n_roles[u], r, n_files[r]) == ("u1", 14, "r43", 617)
    start = seed_engine(ds, variant)
    versions = dict(start.files)
    for label, primitives in [
        (Label("delU", user=u), 27_240),
        (Label("delR", role=r), 10_565),
    ]:
        measured = measure_label(start.fork(), label)
        assert sum(measured.totals().values()) == primitives
        t0 = time.monotonic()
        predicted = algebraic_cost(label, state, dict(versions))
        assert time.monotonic() - t0 < 0.05
        assert not reconcile(measured, predicted, variant)


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_lockstep_holds_at_dataset_scale(variant):
    # a cost-checked Lockstep on the `gen-dataset --name firewall1 --seed 0`
    # instance: sampled arrivals, then delU of the user with the most roles
    # and delR of the role with the most files, a delP, fresh entities and
    # grants, and revocations after the delU, which price the versions it
    # rolled again
    ds = synthesize_dataset("firewall1", random.Random(derive_seed(0, -1)))
    state = ds.state()
    assert (len(state.roles_of("u1")), len(state.files_of("r43"))) == (14, 617)
    eng = seed_engine(ds, variant)
    lock = eqv.Lockstep(eng, state)
    rng = random.Random(11)
    rates = ActorRates(admin_rate(len(ds.users)), 0.5, 0.5)

    def arrivals(dataset):
        events = sample_events(rng, dataset, rates, 46.0)
        return [ev.label for ev in events if ev.label is not None]

    def run(labels):
        for label in labels:
            assert lock.step(label) is None, label
            assert lock.price is not None, label
        return len(labels)

    steps = run(arrivals(ds))
    state = lock.state
    u1_roles = sorted(state.roles_of("u1"))
    r, fn = u1_roles[0], min(state.files_of(u1_roles[1]))
    member = min(state.members_of(r) - {"u1"})
    steps += run([
        Label("delU", user="u1"),
        Label("delR", role="r43"),
        Label("delP", file=fn),
        Label("addU", user="x1"),
        Label("addR", role="xr1"),
        Label("addP", file="xf1"),
        Label("assignU", user="x1", role="xr1"),
        Label("assignU", user="x1", role=r),
        Label("assignP", role="xr1", file="xf1", op=RW),
        Label("assignP", role="xr1", file=min(state.files_of(r)), op=RW),
        Label("revokeU", user=member, role=r),
        Label("revokeU", user="x1", role="xr1"),
    ])
    state = lock.state
    rolled = {fn for fn, v in lock.versions.items() if v > 1}
    assert max(lock.versions.values()) >= 3
    after = arrivals(Dataset(
        "after", tuple(sorted(state.users)), tuple(sorted(state.roles)),
        tuple(sorted(state.perms)), tuple(sorted(state.ur)),
        tuple(sorted((r, fn) for r, fn, _ in state.pa)),
    ))
    assert any(lbl.kind == "revokeU" and lbl.role in u1_roles for lbl in after)
    assert any(lbl.kind == "revokeP" and lbl.file in rolled for lbl in after)
    steps += run(after)
    assert 180 <= steps <= 220
    assert lock.versions == eng.files
    assert lock.check_whole_state() is None
    assert eqv.congruent(eng, eqv.sigma(lock.state, variant))


def test_revocation_window_tracking():
    res = run_simulation(TOY, days=90.0, seed=1)
    revs = res.applied["revokeU"] + res.applied["revokeP"]
    assert 0 < res.max_revocations_per_window(7.0) <= revs
    # one window spanning the run holds every applied revocation
    assert res.max_revocations_per_window(90.0) == revs
    none = run_simulation(TOY, days=0.01, seed=3)
    assert none.max_revocations_per_window(7.0) == 0


@pytest.mark.parametrize("window", [1e-320, 0])
def test_uncountable_revocation_window_is_a_value_error(tmp_path, window):
    # 90 days over 1e-320 is more windows than a float can count, and a
    # window of 0 divides by zero: each is refused before runs.csv is opened
    results = [run_simulation(TOY, days=90.0, seed=1)]
    assert results[0].applied["revokeU"] + results[0].applied["revokeP"]
    path = tmp_path / "runs.csv"
    with pytest.raises(ValueError, match=f"revocation window {window!r} "):
        write_runs_csv(str(path), results, ["ibe"], ["BF+CC"], window)
    assert not path.exists()


def test_per_revocation_units_empty_case():
    res = run_simulation(TOY, days=0.01, seed=3)
    assert res.applied["revokeU"] == 0
    assert per_revocation_units(res, "BF+CC") is None
    summ = user_revocation_summary([res])
    assert summ["user_revocations"] == 0
    assert summ["mean_enc_per_user_revocation"] == 0.0
    assert summ["median_units_per_user_revocation"] == 0.0


def test_user_revocation_summary_counts():
    results = monte_carlo(TOY, runs=4, seed=8, days=120.0)
    summ = user_revocation_summary(results, "BF+CC")
    total = sum(r.applied["revokeU"] for r in results)
    assert summ["user_revocations"] == total
    if total:
        assert summ["mean_enc_per_user_revocation"] > 0


# -- report files


def test_runs_csv_counter_columns_are_pinned():
    # the identity-based names and the symmetric ones, in OP_NAMES order
    assert MODEL_OPS == (
        "ibe_keygen", "ibe_enc", "ibe_dec", "ibs_keygen", "ibs_sign", "ibs_ver",
        "sym_gen", "sym_enc", "sym_dec",
    )


def test_runs_csv_is_deterministic_and_order_insensitive(tmp_path):
    results = monte_carlo(TOY, runs=3, seed=5, days=40.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_runs_csv(str(p1), results, ["ibe"])
    write_runs_csv(str(p2), list(reversed(results)), ["ibe"])
    assert p1.read_bytes() == p2.read_bytes()
    rows = list(csv.DictReader(p1.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 3
    assert rows[0]["dataset"] == "toy"
    assert int(rows[0]["arrivals"]) >= int(rows[0]["applied"])


def test_summary_csv_contents(tmp_path):
    results = monte_carlo(TOY, runs=3, seed=5, days=40.0)
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), results, ["pki", "ibe"])
    rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
    assert [(r["dataset"], r["variant"], int(r["runs"])) for r in rows] == [
        ("toy", "ibe", 3), ("toy", "pki", 3),
    ]


def test_events_csv_row_counts(tmp_path):
    results = monte_carlo(TOY, runs=2, seed=6, days=30.0)
    path = tmp_path / "events.csv"
    write_events_csv(str(path), results, ["ibe"])
    rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == sum(sum(r.arrivals.values()) for r in results)
    applied = [r for r in rows if r["applied"] == "1"]
    assert all(r["target"] != "-" for r in applied)


# Output bytes of a fixed-seed batch, recorded before the seeding and
# measurement paths were folded together.  A refactor or optimisation of the
# engine, the runner or the writers must leave all three files byte-identical.
PINNED_SHA256 = {
    "runs.csv": "8ad9ac258988003a542ebcdcdb9327725797a471a605ff8301297b3cf4c0c502",
    "summary.csv": "aa8b4eae1c3137099b8d9ce275eea5270b70688452f5b16e8667e7da00611166",
    "events.csv": "133373d0e9a87ba3cd9481b56ba4ff7441c99ffa4f1d335c20024797421808aa",
}


def test_output_bytes_are_pinned(tmp_path):
    ds = synthesize_dataset("healthcare", random.Random(derive_seed(0, -1)))
    results = monte_carlo(ds, runs=3, seed=5)
    writers = {
        "runs.csv": write_runs_csv,
        "summary.csv": write_summary_csv,
        "events.csv": write_events_csv,
    }
    got = {}
    for name, write in writers.items():
        write(str(tmp_path / name), results, ["ibe", "pki"])
        got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == PINNED_SHA256
