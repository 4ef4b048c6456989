"""State mapping, canonical forms, and the differential harness."""

import hashlib
import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faults
import rolecrypt.equivalence as eqv
import whole_state
from rolecrypt.crypto import CostVector, role_identity
from rolecrypt.engine import Engine, FileStore
from rolecrypt.equivalence import (
    TraceBuilder,
    _draw,
    canonicalize,
    congruent,
    minimize_counterexample,
    run_differential,
    sigma,
)
from rolecrypt.rbac import (
    Label,
    RbacState,
    READ,
    RW,
    SUPERUSER,
    apply_label,
)
from rolecrypt.workload import derive_seed


def state_with(users=(), roles=(), perms=(), ur=(), pa=()):
    return RbacState(
        users=frozenset(users), roles=frozenset(roles),
        perms=frozenset(perms), ur=frozenset(ur), pa=frozenset(pa),
    )


SMALL = state_with(
    users=["u1"], roles=["r1"], perms=["f1"],
    ur=[("u1", "r1")], pa=[("r1", "f1", RW)],
)


# -- the state mapping


def test_sigma_empty_state_is_empty_store():
    eng = sigma(RbacState())
    assert eng.dump() == (frozenset(), (), (), frozenset(), frozenset(), frozenset())
    assert canonicalize(eng) == ()


def test_sigma_census_one_of_each():
    eng = sigma(SMALL)
    tags = Counter(e[0] for e in canonicalize(eng))
    # one user, role, file; role keys wrapped for SU and the member;
    # file key wrapped for SU and the role; one encrypted body
    assert tags == {"U": 1, "R": 1, "P": 1, "RK": 2, "FK": 2, "F": 1}
    assert eng.files == {"f1": 1}
    assert eng.roles["r1"].version == 1


def test_sigma_is_deterministic():
    assert sigma(SMALL).dump() == sigma(SMALL).dump()


def test_sigma_theory_round_trip():
    from rolecrypt.rbac import theory

    assert theory(sigma(SMALL).state()) == theory(SMALL)


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_state_inverts_sigma(binding):
    for seed in range(20):
        state = RbacState()
        for lbl in TraceBuilder(random.Random(seed)).build(40):
            state = apply_label(state, lbl)
            assert sigma(state, binding).state() == state, lbl


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_state_tracks_model_and_ignores_stale_tuples(binding):
    # after every label the engine reads back as the model's state, also from
    # a store that replays every tuple it was told to delete: an honest
    # engine deletes only tuples at a superseded version or of a deleted
    # user, role or file, and state() must not count those
    for seed in range(100):
        oracle, eng, history = RbacState(), Engine(binding), faults.History()
        for lbl in TraceBuilder(random.Random(500 + seed)).build(30):
            oracle = apply_label(oracle, lbl)
            eng.apply_label(lbl)
            assert eng.state() == oracle, lbl
            history.record(eng)
            replaying = eng.fork()
            for tag, _, t in history.replays(eng):
                faults.replay(replaying, tag, t)
            assert replaying.state() == oracle, lbl


# -- canonical form and congruence


def test_congruent_across_fresh_providers():
    assert congruent(sigma(SMALL), sigma(SMALL))


def test_congruent_ignores_serial_history():
    # burn a few serial numbers in one engine before building the same state
    a = sigma(SMALL)
    b = Engine()
    for _ in range(5):
        b.provider.sym_gen()
    b.add_user("u1")
    b.add_file("SU", "f1", b"file:f1")
    b.add_role("r1")
    b.assign_user("u1", "r1")
    b.assign_perm("r1", "f1", RW)
    assert a.dump() != b.dump()  # raw key handles differ
    assert congruent(a, b)


def test_congruence_is_content_sensitive():
    a = sigma(SMALL)
    b = sigma(SMALL)
    b.write_file("u1", "f1", b"edited")
    assert not congruent(a, b)
    a.write_file("u1", "f1", b"edited")
    assert congruent(a, b)


def test_congruence_detects_structural_differences():
    assert not congruent(sigma(SMALL), sigma(RbacState()))
    bigger = state_with(
        users=["u1", "u2"], roles=["r1"], perms=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)],
    )
    assert not congruent(sigma(SMALL), sigma(bigger))
    read_only = state_with(
        users=["u1"], roles=["r1"], perms=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", READ)],
    )
    assert not congruent(sigma(SMALL), sigma(read_only))


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_congruence_sees_shared_keys(binding):
    # the role's FK for f1 re-wrapped around a fresh symmetric key has the
    # same projection; only the key it no longer shares with SU's FK differs
    a, b = sigma(SMALL, binding), sigma(SMALL, binding)
    t = b.fs.fk[("r1", "f1", 1)]
    ct = b.provider.enc(b.roles["r1"].keys.enc_ref, b.provider.sym_gen())
    b._issue_fk(
        t.fields.holder, t.fields.fn, t.fields.op, t.fields.version, ct
    )
    assert congruent(a, sigma(SMALL, binding))
    assert not congruent(a, b)


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_canonical_form_ignores_insertion_order(binding):
    for seed in range(10):
        eng = Engine(binding)
        for lbl in TraceBuilder(random.Random(seed)).build(40):
            eng.apply_label(lbl)
        rev = eng.fork()
        for obj, name in (
            (rev, "users"), (rev, "roles"), (rev, "files"),
            (rev.fs, "rk"), (rev.fs, "fk"), (rev.fs, "f"),
        ):
            setattr(obj, name, dict(reversed(getattr(obj, name).items())))
        assert list(rev.fs.fk) == list(reversed(eng.fs.fk))
        assert canonicalize(rev) == canonicalize(eng)


def test_membership_round_trip_congruent_not_equal():
    base = state_with(users=["u1", "u2"], roles=["r1"], perms=["f1"],
                      ur=[("u1", "r1")], pa=[("r1", "f1", RW)])
    eng = sigma(base)
    before_dump, before_canon = eng.dump(), canonicalize(eng)
    eng.assign_user("u2", "r1")
    eng.revoke_user("u2", "r1")
    assert eng.dump() != before_dump  # keys rolled, versions moved
    assert canonicalize(eng) == before_canon


def test_grant_round_trip_congruent_not_equal():
    base = state_with(roles=["r1", "r2"], perms=["f1"],
                      pa=[("r1", "f1", RW)])
    eng = sigma(base)
    before_dump, before_canon = eng.dump(), canonicalize(eng)
    eng.assign_perm("r2", "f1", RW)
    eng.revoke_perm("r2", "f1", RW)
    assert eng.dump() != before_dump
    assert canonicalize(eng) == before_canon


def test_canonicalize_idempotent_on_canonical_input():
    c = canonicalize(sigma(SMALL))
    assert canonicalize(c) == c


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**9), st.integers(5, 35))
def test_canonicalize_idempotent_on_random_states(seed, n):
    labels = TraceBuilder(random.Random(seed)).build(n)
    eng = Engine()
    for lbl in labels:
        eng.apply_label(lbl)
    c = canonicalize(eng)
    assert canonicalize(c) == c


def _by_full_repr(obj):
    """The reference canonical form: entries sorted by the ``repr`` of their
    whole projection, then serials renumbered in that order."""
    if isinstance(obj, Engine):
        entries = eqv._entries(obj)
    else:
        entries = [(e[:-1], e[-1]) for e in obj]
    entries.sort(key=lambda e: repr(e[0]))
    numbers = {}
    return tuple(
        proj + (tuple([numbers.setdefault(n, len(numbers)) for n in s]),)
        for proj, s in entries
    )


def _canonical_order(monkeypatch, obj):
    """``canonicalize(obj)``, and whether it sorted by whole projections:
    its ``repr`` calls see only the tag and store names otherwise."""
    seen = []

    def spy(v):
        seen.append(len(v) > eqv._NAMES[v[0]])
        return repr(v)

    monkeypatch.setattr(eqv, "repr", spy, raising=False)
    try:
        out = canonicalize(obj)
    finally:
        monkeypatch.undo()
    return out, any(seen)


def _names_order_agrees(monkeypatch, obj):
    got, fell_back = _canonical_order(monkeypatch, obj)
    want = _by_full_repr(obj)
    assert got == want and repr(got) == repr(want)
    return fell_back


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_names_order_is_the_full_repr_order_on_criterion_3(
    monkeypatch, binding
):
    # the first 200 traces of criterion 3's corpus: each final engine, the
    # image of its state and its canonical form
    rng = random.Random(1234)
    for _ in range(200):
        eng = Engine(binding)
        for lbl in TraceBuilder(rng).build(rng.randint(1, 50)):
            eng.apply_label(lbl)
        for obj in (eng, sigma(eng.state(), binding), canonicalize(eng)):
            assert not _names_order_agrees(monkeypatch, obj)


# quotes, spaces, a backslash, non-ASCII text, and names that prefix others
ODD = [
    "u1", "u10", "a", "a b", "o'b", 'q"t', "'\"", "b\\s", "ü", "日本", "u1'",
]


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_names_order_holds_for_quotes_spaces_and_prefixes(
    monkeypatch, binding
):
    roles, files = ["r", "r 1", "r'", "r1", "ŕ"], ["f", "f b", "f'", "f\\"]
    eng = Engine(binding)
    for u in ODD:
        eng.add_user(u)
    for fn in files + ["fé"]:
        eng.add_file(SUPERUSER, fn, b"x")
    for r in roles:
        eng.add_role(r)
    for i, u in enumerate(ODD):
        eng.assign_user(u, roles[i % len(roles)])
        eng.assign_user(u, roles[(i + 2) % len(roles)])
    for i, r in enumerate(roles):
        eng.assign_perm(r, files[i % len(files)], RW if i % 2 else READ)
    eng.assign_perm("r1", "fé", READ)
    eng.revoke_user("u1", roles[0])
    # the names order differs from the strings' own order here
    assert sorted(map(repr, ODD)) != [repr(u) for u in sorted(ODD)]
    for obj in (eng, sigma(eng.state(), binding), canonicalize(eng)):
        assert not _names_order_agrees(monkeypatch, obj)


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_two_rk_versions_of_one_member_take_the_full_repr_order(
    monkeypatch, binding
):
    # a store that kept u1's RK tuple of r1 at version 1 after the re-key
    eng = sigma(state_with(
        users=["u1", "u2"], roles=["r1"], perms=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
    ), binding)
    kept = eng.fs.rk[("u1", "r1", 1)]
    eng.revoke_user("u2", "r1")
    eng.fs.put_rk(kept, ("u1", "r1", 1))
    assert _names_order_agrees(monkeypatch, eng)
    assert _names_order_agrees(monkeypatch, canonicalize(eng))


def test_a_name_that_is_not_a_string_takes_the_full_repr_order(monkeypatch):
    canonical = (("U", 10, ("id", "user", "x"), ()), ("U", 1, "y", ()))
    assert _names_order_agrees(monkeypatch, canonical)


# -- trace generation


def test_trace_builder_respects_caps():
    rng = random.Random(7)
    tb = TraceBuilder(rng, max_users=4, max_roles=3, max_files=5, version_cap=2)
    labels = tb.build(300)
    eng = Engine()
    for lbl in labels:
        eng.apply_label(lbl)
        assert len(eng.users) <= 4
        assert len(eng.roles) <= 3
        assert len(eng.files) <= 5
        assert all(v <= 2 for v in eng.files.values())
    # shadow bookkeeping agrees with the engine it predicted
    assert set(eng.users) == tb.users
    assert set(eng.roles) == tb.roles
    assert dict(eng.files) == tb.versions


# sha256 of repr of fifty default 40-label traces plus one capped 200-label
# trace.  These traces are the differential corpora and what `rolecrypt
# check` runs, so a change to TraceBuilder must leave them byte-identical.
TRACES_SHA256 = (
    "b7b1fd0c47706bd5962a4b141fb681090f13ca0ca918cc7eedd392fbc1d73dce"
)


def test_traces_are_pinned():
    traces = [
        TraceBuilder(random.Random(derive_seed(1, i))).build(40)
        for i in range(50)
    ]
    traces.append(TraceBuilder(
        random.Random(derive_seed(1, 50)),
        max_users=4, max_roles=3, max_files=5, version_cap=2,
    ).build(200))
    digest = hashlib.sha256(repr(traces).encode()).hexdigest()
    assert digest == TRACES_SHA256


# sha256 of repr of criterion 3's corpus, 25,241 labels.  One rng draws
# every trace's length and labels in turn, so this also pins how many draws
# each trace takes.
CRITERION_3_SHA256 = (
    "eacc0cf57c1a14856cbfaee552d62bafccdc423d089b6b57d77c0cbc12730d5f"
)


def test_criterion_3_corpus_is_pinned():
    rng = random.Random(1234)
    traces = [
        TraceBuilder(rng).build(rng.randint(1, 50)) for _ in range(1000)
    ]
    assert sum(map(len, traces)) == 25_241
    digest = hashlib.sha256(repr(traces).encode()).hexdigest()
    assert digest == CRITERION_3_SHA256


def test_kind_draw_is_the_draw_of_random_choices():
    # the fallback drops an unavailable kind and keeps the others in order,
    # so it can reach every non-empty subsequence of the kinds
    weights = TraceBuilder._WEIGHTS
    assert len(weights) == len(TraceBuilder._MOVES)
    n = len(weights)
    for mask in range(1, 2 ** n):
        kinds = [i for i in range(n) if mask >> i & 1]
        ws = [weights[i] for i in kinds]
        cum = list(accumulate(ws))
        want, got = random.Random(mask), random.Random(mask)
        for _ in range(3):
            assert kinds[_draw(got.random, cum)] == want.choices(
                kinds, weights=ws
            )[0]
        assert got.getstate() == want.getstate()


def test_traces_apply_cleanly_to_the_model():
    for seed in range(50):
        state = RbacState()
        for lbl in TraceBuilder(random.Random(seed)).build(40):
            state = apply_label(state, lbl)  # must not raise


def test_traces_include_deliberate_noops():
    warned = []
    for seed in range(40):
        state = RbacState()
        for lbl in TraceBuilder(random.Random(seed)).build(40):
            state = apply_label(state, lbl, on_warning=warned.append)
    assert warned  # the builder injects redundant labels on purpose


# -- the differential harness


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_differential_random_traces(binding):
    for seed in range(15):
        labels = TraceBuilder(random.Random(1000 + seed)).build(40)
        rep = run_differential(
            labels, binding=binding, check_costs=True, step_congruence=True,
        )
        assert rep.ok, rep.detail
        assert rep.steps == len(labels)
        assert bool(rep)


def test_differential_empty_trace():
    assert run_differential([]).ok


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_lockstep_holds_no_versions_without_costs(binding):
    # nothing prices the labels, so no file-key version is kept to drift
    # from the engine's
    eng = Engine(binding)
    lock = eqv.Lockstep(eng, costs=False)
    for lbl in [
        Label("addU", user="u"),
        Label("addR", role="r"),
        Label("addP", file="f"),
        Label("assignU", user="u", role="r"),
        Label("assignP", role="r", file="f", op=RW),
        Label("revokeU", user="u", role="r"),
    ]:
        assert lock.step(lbl) is None
    assert eng.files == {"f": 2}
    assert lock.versions is None


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_lockstep_duplicate_assign_user_is_a_free_no_op(binding):
    # the model's duplicate-assignU branch: the step passes, each side warns
    # once, nothing is spent or priced, and the engine's user -> roles
    # record is as it was
    eng = Engine(binding)
    lock = eqv.Lockstep(eng)
    twice = Label("assignU", user="u", role="r")
    for lbl in [Label("addU", user="u"), Label("addR", role="r"), twice]:
        assert lock.step(lbl) is None
    said = []
    assert apply_label(lock.state, twice, on_warning=said.append) is (
        lock.state
    )
    warnings, spent = eng.warnings, eng.provider.snapshot()
    assert lock.step(twice) is None
    assert said == ["assignU: 'u' already in 'r'"]
    assert eng.warnings == warnings + 1
    assert eng.provider.snapshot() == spent
    assert lock.price == CostVector()
    assert eng.roles_of == {"u": {"r"}}


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_differential_rejects_superuser_as_role(binding):
    # the engine keys a role's tuples by the name the superuser's use
    labels = [
        Label("addR", role=SUPERUSER),
        Label("addP", file="f"),
        Label("assignP", role=SUPERUSER, file="f", op=READ),
    ]
    rep = run_differential(labels, binding=binding, check_costs=True)
    assert rep.ok, rep.detail


class _LeakyEngine(Engine):
    """Deliberately broken: revocation deletes the member's wrapped role keys
    but never re-keys, so derivable facts stay correct while the engine skips
    the work an honest revocation performs."""

    def _revoke_user_inner(self, u, r):
        self.fs.del_rk(u, r, self.roles[r].version)


BREAKING_TRACE = [
    Label("addU", user="u1"),
    Label("addU", user="u2"),
    Label("addR", role="r1"),
    Label("addP", file="f1"),
    Label("assignU", user="u1", role="r1"),
    Label("assignU", user="u2", role="r1"),
    Label("assignP", role="r1", file="f1", op=RW),
    Label("revokeU", user="u2", role="r1"),
]


def test_differential_catches_missing_rekey(monkeypatch):
    monkeypatch.setattr(eqv, "Engine", _LeakyEngine)
    rep = run_differential(BREAKING_TRACE, check_costs=True)
    assert not rep.ok
    assert rep.failure_kind == "cost"
    assert rep.failure_index == 7


class _SloppyEngine(Engine):
    """Deliberately broken differently: revocation leaves the membership
    tuple in place entirely."""

    def _revoke_user_inner(self, u, r):
        pass


def test_differential_catches_stale_membership(monkeypatch):
    monkeypatch.setattr(eqv, "Engine", _SloppyEngine)
    rep = run_differential(BREAKING_TRACE)
    assert (rep.ok, rep.failure_kind, rep.failure_index) == (
        False, "theory", 7,
    )
    assert rep.detail == (
        "label 7 revokeU(u2, r1): +[('UR', 'u2', 'r1'), "
        "('auth', 'u2', 'f1', 'RW'), ('auth', 'u2', 'f1', 'Read')] -[]"
    )


class _DeafEngine(Engine):
    """Deliberately broken: a grant does nothing, so no store mutation fires
    the envelope hook and only the theory check can see it."""

    def assign_perm(self, r, fn, op):
        pass


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_differential_words_theory_mismatch(monkeypatch, binding):
    monkeypatch.setattr(eqv, "Engine", _DeafEngine)
    labels = [
        Label("addU", user="u1"),
        Label("addR", role="r1"),
        Label("addP", file="f1"),
        Label("assignU", user="u1", role="r1"),
        Label("assignP", role="r1", file="f1", op=RW),
    ]
    rep = run_differential(labels, binding=binding)
    assert (rep.ok, rep.steps, rep.failure_kind, rep.failure_index) == (
        False, 4, "theory", 4,
    )
    assert rep.detail == (
        "label 4 assignP(r1, f1, RW): +[] -[('PA', 'r1', 'f1', 'RW'), "
        "('auth', 'u1', 'f1', 'RW'), ('auth', 'u1', 'f1', 'Read')]"
    )


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_differential_reads_no_whole_state_inside_a_step(
    monkeypatch, binding
):
    # the steps follow the change stream: the stepper's view starts from the
    # store's keys, and the whole state is compared once, by the final
    # congruence
    calls = Counter()

    class CountingEngine(Engine):
        def state(self):
            calls["state"] += 1
            return super().state()

    fire, congruent_ = FileStore._fire, eqv.congruent

    def counting_fire(fs, store, key):
        if fs.on_mutation is not None:
            calls["mutation"] += 1
        fire(fs, store, key)

    def counting_congruent(a, b):
        calls["congruent"] += 1
        return congruent_(a, b)

    monkeypatch.setattr(eqv, "Engine", CountingEngine)
    monkeypatch.setattr(eqv, "congruent", counting_congruent)
    monkeypatch.setattr(FileStore, "_fire", counting_fire)
    labels = TraceBuilder(random.Random(2024)).build(40)
    assert run_differential(labels, binding=binding, check_costs=True).ok
    assert calls["mutation"] > 0
    assert (calls["state"], calls["congruent"]) == (0, 1)


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_hook_reports_every_put_delete_and_record_edit(binding):
    # a mirror of the six maps, edited only at the key each report names,
    # equals the maps at every report and at the end
    eng = Engine(binding)
    maps = {
        "rk": eng.fs.rk, "fk": eng.fs.fk, "f": eng.fs.f,
        "users": eng.users, "roles": eng.roles, "files": eng.files,
    }
    names = {id(m): name for name, m in maps.items()}
    mirror = {name: dict(m) for name, m in maps.items()}
    seen = Counter()

    def hook(store, key):
        name = names[id(store)]
        seen[name, key in store] += 1
        if key in store:
            mirror[name][key] = store[key]
        else:
            del mirror[name][key]
        assert mirror == maps

    eng.fs.on_mutation = hook
    for lbl in TraceBuilder(random.Random(7)).build(80):
        eng.apply_label(lbl)
        for u in sorted(eng.users):
            for fn in sorted(eng.files):
                if eng.query_auth(u, fn, RW):
                    eng.write_file(u, fn, b"by " + u.encode())
    assert mirror == maps
    # the corpus writes and deletes in every map
    assert set(seen) == {(name, b) for name in maps for b in (True, False)}


class _BumpingEngine(Engine):
    """Deliberately broken: a roll bumps the file's version through the
    record but issues no key at it, so every holder of the file loses it.
    No store write shows the loss; the record edit does."""

    def _issue_new_file_key(self, fn):
        self._edit(self.files, fn, self.files[fn] + 1)


SHARED_GRANT = [
    Label("addU", user="u1"),
    Label("addR", role="r1"),
    Label("addR", role="r2"),
    Label("addP", file="f1"),
    Label("assignU", user="u1", role="r1"),
    Label("assignP", role="r1", file="f1", op=READ),
    Label("assignP", role="r2", file="f1", op=READ),
    Label("revokeP", role="r2", file="f1", op=RW),
]


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_differential_sees_a_version_bump_without_a_store_write(
    monkeypatch, binding
):
    # r2's keys go, then f1 rolls with no key for r1: u1 loses a read that
    # both the pre- and the post-state grant
    monkeypatch.setattr(eqv, "Engine", _BumpingEngine)
    rep = run_differential(SHARED_GRANT, binding=binding)
    assert (rep.ok, rep.failure_kind, rep.failure_index) == (
        False, "safety", 7,
    )
    assert rep.detail.endswith(
        "outside envelope +[] -[('auth', 'u1', 'f1', 'Read')]"
    )


class _StaleRewrapEngine(Engine):
    """Deliberately broken: a revocation re-wraps the role's file keys for
    the role version it leaves, at the honest cost, so the role's next
    revocation cannot open them."""

    def _rewrap_fks(self, src, dec_key, fn, dst, op):
        if src != dst:  # a grant copies SU's keys honestly
            return super()._rewrap_fks(src, dec_key, fn, dst, op)
        ident = self._wrap_target(dst)[0]
        for key, old in self._fks(src, fn):
            self._verify(old, key, dec_key.owner)
            k = self.provider.dec(dec_key, old.fields.ct)
            ct = self.provider.enc(old.fields.ct.recipient, k)
            self._issue_fk(ident, fn, op, key[2], ct)


# u1 and u2 leave r1 in turn; the second revocation reads r1's file keys
TWO_REVOCATIONS = BREAKING_TRACE + [Label("revokeU", user="u1", role="r1")]


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_differential_reports_unauthorized_decryption(monkeypatch, binding):
    monkeypatch.setattr(eqv, "Engine", _StaleRewrapEngine)
    rep = run_differential(TWO_REVOCATIONS, binding=binding, check_costs=True)
    assert (rep.ok, rep.failure_kind, rep.failure_index) == (
        False, "unauthorized", 8,
    )
    padded = [Label("addU", user="u3")] + TWO_REVOCATIONS + [
        Label("addP", file="f2"),
    ]
    minimal = minimize_counterexample(padded, binding=binding)
    assert len(minimal) < len(padded)
    assert run_differential(minimal, binding=binding).failure_kind == (
        "unauthorized"
    )


class _FlickerEngine(Engine):
    """Deliberately broken: assignU makes the user a member of every other
    role for a moment, then takes it back; only the envelope sees it."""

    def assign_user(self, u, r):
        super().assign_user(u, r)
        t = self.fs.rk[(u, r, self.roles[r].version)]
        for other, rec in sorted(self.roles.items()):
            if other != r and (u, other, rec.version) not in self.fs.rk:
                role = role_identity(other, rec.version)
                self.fs.put_rk(faults.altered(t, "role", role))
                self.fs.del_rk(u, other, rec.version)


class _BalkingEngine(Engine):
    """Deliberately broken: deleting a file or revoking a member fails with
    a KeyError."""

    def del_file(self, fn):
        raise KeyError(fn)

    def revoke_user(self, u, r):
        raise KeyError(u)


class _SplitKeyEngine(Engine):
    """Deliberately broken: a roll wraps one fresh file key for SU and a
    second one for every role holder."""

    def _issue_new_file_key(self, fn):
        super()._issue_new_file_key(fn)
        v, k = self.files[fn], self.provider.sym_gen()
        for h in sorted(self.holders[fn]):
            ident, ref = self._wrap_target(h)
            ct = self.provider.enc(ref, k)
            self._issue_fk(ident, fn, self.ops[h][fn], v, ct)


class _RefilingEngine(Engine):
    """Deliberately broken: a fresh grant wraps SU's keys for the next role
    by name and files them there, while the record says the granted role
    holds them.  PA keeps its size, and with the next role memberless no
    grant moves, so only the comparison of the PA entries the changes and
    the edits touched sees it."""

    def _rewrap_fks(self, src, dec_key, fn, dst, op):
        if src == SUPERUSER:  # a fresh grant
            dst = min((x for x in self.roles if x > dst), default=dst)
        super()._rewrap_fks(src, dec_key, fn, dst, op)


REFILE = [
    Label("addU", user="u1"),
    Label("addR", role="r1"),
    Label("addR", role="r2"),
    Label("addP", file="f1"),
    Label("assignU", user="u1", role="r1"),
    Label("assignP", role="r1", file="f1", op=RW),
]


GRANTS = [
    Label("addU", user="u1"),
    Label("addR", role="r1"),
    Label("addR", role="r2"),
    Label("addP", file="f1"),
    Label("assignP", role="r2", file="f1", op=READ),
    Label("assignU", user="u1", role="r1"),
    Label("delP", file="f1"),
]


@pytest.mark.parametrize("binding", ["ibe", "pki"])
@pytest.mark.parametrize("engine, labels, kind, index, step", [
    (_FlickerEngine, GRANTS, "safety", 5, False),
    (_BalkingEngine, GRANTS, "error-mismatch", 6, False),
    (_SplitKeyEngine, BREAKING_TRACE + [Label("addU", user="u3")],
     "congruence", 8, False),
    (_SplitKeyEngine, BREAKING_TRACE + [Label("addU", user="u3")],
     "congruence", 7, True),
    (_RefilingEngine, REFILE, "theory", 5, False),
])
def test_differential_failure_kinds(
    monkeypatch, binding, engine, labels, kind, index, step
):
    monkeypatch.setattr(eqv, "Engine", engine)
    rep = run_differential(labels, binding=binding, step_congruence=step)
    assert (rep.ok, rep.failure_kind, rep.failure_index) == (
        False, kind, index,
    )


class _RoleDroppingEngine(Engine):
    """Deliberately broken: deleting a user also drops the record of the
    first role the user is not in, around ``Engine._edit``.  No change
    reports it and the label names no role, so only the number of roles
    shows it."""

    def del_user(self, u):
        others = sorted(set(self.roles) - self.roles_of.get(u, set()))
        super().del_user(u)
        if others:
            del self.roles[others[0]]


class _MisfilingEngine(Engine):
    """Deliberately broken: adding a role files its record under another
    name, around ``Engine._edit``.  The number of roles agrees and no change
    reports a role, so only the label's own role shows it."""

    def _edit(self, record, name, value=None):
        if record is self.roles and name not in record and value is not None:
            record[name + "x"] = value
            return
        super()._edit(record, name, value)


class _SwappingEngine(Engine):
    """Deliberately broken: deleting a user also moves the record of the
    user's first role to a new name.  The number of roles agrees and the
    label names no role, so only the roles the changes touched show it."""

    def del_user(self, u):
        roles = sorted(self.roles_of.get(u, ()))
        super().del_user(u)
        if roles:
            rec = self.roles[roles[0]]
            self._edit(self.roles, roles[0])
            self._edit(self.roles, roles[0] + "x", rec)


ROLE_LIFE = [
    Label("addU", user="u1"),
    Label("addR", role="r1"),
    Label("addR", role="r2"),
    Label("assignU", user="u1", role="r1"),
    Label("delU", user="u1"),
]


@pytest.mark.parametrize("binding", ["ibe", "pki"])
@pytest.mark.parametrize("check_costs", [False, True])
@pytest.mark.parametrize("engine, index, detail", [
    # only the number of roles differs
    (_RoleDroppingEngine, 4, "delU(u1): +[] -[('R', 'r2')]"),
    # only the label's role exists on one side and not the other
    (_MisfilingEngine, 1, "addR(r1): +[('R', 'r1x')] -[('R', 'r1')]"),
    # only roles the changes touched exist on one side and not the other
    (_SwappingEngine, 4, "delU(u1): +[('R', 'r1x')] -[('R', 'r1')]"),
], ids=["count", "label", "touched"])
def test_theory_check_sees_each_wrong_role(
    monkeypatch, binding, check_costs, engine, index, detail
):
    # each engine passes every check before the theory check, with or
    # without costs, and only one of the theory check's role comparisons
    # sees it: without that comparison, the trace fails later
    monkeypatch.setattr(eqv, "Engine", engine)
    rep = run_differential(ROLE_LIFE, binding=binding, check_costs=check_costs)
    assert (rep.ok, rep.failure_kind, rep.failure_index) == (
        False, "theory", index,
    )
    assert rep.detail == f"label {index} {detail}"


def test_differential_names_both_sides_of_an_error_mismatch(monkeypatch):
    monkeypatch.setattr(eqv, "Engine", _BalkingEngine)
    rep = run_differential(GRANTS)
    assert rep.detail == (
        "label 6 delP(f1): model None vs engine KeyError('f1')"
    )
    # both refuse a revocation of a missing user, but the engine's error is
    # no RbacError
    rep = run_differential([Label("revokeU", user="u1", role="r1")])
    assert (rep.failure_kind, rep.failure_index) == ("error-mismatch", 0)
    assert rep.detail == (
        "label 0 revokeU(u1, r1): model RbacError(\"revokeU: no user 'u1'\")"
        " vs engine KeyError('u1')"
    )


def test_minimizer_shrinks_failing_trace(monkeypatch):
    monkeypatch.setattr(eqv, "Engine", _SloppyEngine)
    padded = BREAKING_TRACE + [
        Label("addU", user="u3"),
        Label("addP", file="f2"),
    ]
    minimal = minimize_counterexample(padded)
    assert len(minimal) <= len(BREAKING_TRACE)
    assert not run_differential(minimal).ok
    # dropping any single label makes it pass: local minimality
    for i in range(len(minimal)):
        assert run_differential(minimal[:i] + minimal[i + 1:]).ok


def test_minimizer_rejects_passing_trace():
    with pytest.raises(ValueError):
        minimize_counterexample([Label("addU", user="u1")])


# -- the stream-fed checks against the whole-state reference


def _both_verdicts(labels, binding, check_costs):
    rep = run_differential(labels, binding=binding, check_costs=check_costs)
    ref = whole_state.differential(
        labels, eqv.Engine, binding, check_costs=check_costs
    )
    return (rep.failure_kind, rep.failure_index, rep.detail), ref


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_stream_checks_agree_with_whole_state_on_criterion_3(binding):
    # the first 200 traces of criterion 3's corpus
    rng = random.Random(1234)
    traces = [
        TraceBuilder(rng).build(rng.randint(1, 50)) for _ in range(200)
    ]
    for trace in traces:
        got, want = _both_verdicts(trace, binding, check_costs=False)
        assert got == want == (None, None, ""), trace


class _DriftingEngine(Engine):
    """Deliberately broken: assigning a member moves the role's other
    members to the next role by name, re-filing their RK tuples at its
    version.  UR keeps its size, and with no file held no grant moves, so
    only the comparison of the UR pairs the changes touched sees it."""

    def assign_user(self, u, r):
        super().assign_user(u, r)
        nxt = min((x for x in self.roles if x > r), default=None)
        if nxt is None:
            return
        v, w = self.roles[r].version, self.roles[nxt].version
        for m in sorted(self.members[r] - {u}):
            t = self.fs.rk[(m, r, v)]
            self.fs.del_rk(m, r, v)
            self.fs.put_rk(faults.altered(t, "role", role_identity(nxt, w)))


DRIFT = [
    Label("addU", user="u1"),
    Label("addU", user="u2"),
    Label("addR", role="r1"),
    Label("addR", role="r2"),
    Label("assignU", user="u1", role="r1"),
    Label("assignU", user="u2", role="r1"),
]


PLANTED = [
    (_LeakyEngine, BREAKING_TRACE),
    (_SloppyEngine, BREAKING_TRACE),
    (_DeafEngine, BREAKING_TRACE),
    (_StaleRewrapEngine, TWO_REVOCATIONS),
    (_FlickerEngine, GRANTS),
    (_BalkingEngine, GRANTS),
    (_SplitKeyEngine, BREAKING_TRACE + [Label("addU", user="u3")]),
    (_BumpingEngine, SHARED_GRANT),
    (_DriftingEngine, DRIFT),
    (_RefilingEngine, REFILE),
    (_RoleDroppingEngine, ROLE_LIFE),
    (_MisfilingEngine, ROLE_LIFE),
    (_SwappingEngine, ROLE_LIFE),
]


@pytest.mark.parametrize("binding", ["ibe", "pki"])
@pytest.mark.parametrize("engine, labels", PLANTED, ids=[
    e.__name__ for e, _ in PLANTED
])
def test_stream_checks_agree_with_whole_state_on_planted_engines(
    monkeypatch, binding, engine, labels
):
    # on each engine's own trace, which it fails at least with the costs
    # checked, and on random ones
    monkeypatch.setattr(eqv, "Engine", engine)
    for check_costs in (False, True):
        got, want = _both_verdicts(labels, binding, check_costs)
        assert got == want, (check_costs, got, want)
    assert got[0] is not None
    for seed in range(8):
        trace = TraceBuilder(random.Random(seed)).build(40)
        got, want = _both_verdicts(trace, binding, check_costs=True)
        assert got == want, (seed, got, want)
