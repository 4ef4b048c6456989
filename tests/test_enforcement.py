"""Enforcement engine: hand-traced operation costs, data path, attacks.

Every pinned cost below was derived by hand-walking the operation's code
path first; the tests then hold the engine to it.  Principals: admin labels
count under ``invoker``, upload validation under ``reference_monitor``.
"""

import copy
import dataclasses
import inspect
import pickle
import random

import pytest

from rolecrypt.costmodel import algebraic_cost, data_op_cost
import faults
from rolecrypt import crypto
from rolecrypt.crypto import (
    IBE_TO_PKI,
    INVOKER,
    REFERENCE_MONITOR,
    SU_IDENTITY,
    CostVector,
    Identity,
    SymbolicKey,
    UnauthorizedDecrypt,
    canonical_bytes,
    role_identity,
    user_identity,
)
from rolecrypt.engine import (
    _SIGNED,
    BINDINGS,
    AuthorizationError,
    Engine,
    IntegrityError,
    measure_label,
)
from rolecrypt.equivalence import TraceBuilder
from rolecrypt.rbac import (
    LABEL_KINDS,
    READ,
    RW,
    SUPERUSER,
    WRITE,
    Label,
    RbacError,
    RbacState,
    eval_query,
    grants,
)
from rolecrypt.rbac import apply_label as oracle_apply
from rolecrypt.rbac import theory as oracle_theory
from rolecrypt.workload import (
    Dataset, derive_seed, seed_engine, synthesize_dataset,
)
from test_equivalence import _SplitKeyEngine


def engine_with(
    users=(), roles=(), files=(), ur=(), pa=(), cls=Engine, **kw
):
    eng = cls(**kw)
    for u in users:
        eng.add_user(u)
    for fn in files:
        eng.add_file(SUPERUSER, fn, b"body:" + fn.encode())
    for r in roles:
        eng.add_role(r)
    for u, r in ur:
        eng.assign_user(u, r)
    for r, fn, op in pa:
        eng.assign_perm(r, fn, op)
    return eng


def measure(eng, call, *args):
    return eng.provider.measure(call, *args)


def fk_versions(eng, holder, fn):
    """The versions at which the store holds ``holder``'s key for ``fn``."""
    return sorted(v for h, f, v in eng.fs.fk if (h, f) == (holder, fn))


# -- constant-cost operations


def test_add_user_cost():
    eng = Engine()
    cost = measure_label(eng, Label("addU", user="u1"))
    assert cost.totals() == {"ibe_keygen": 1, "ibs_keygen": 1}
    assert cost.by_principal(REFERENCE_MONITOR) == {}


def test_add_role_cost():
    eng = Engine()
    cost = measure_label(eng, Label("addR", role="r1"))
    assert cost.totals() == {
        "ibe_keygen": 1, "ibs_keygen": 1, "ibe_enc": 1, "ibs_sign": 1,
    }


def test_add_file_cost_split():
    eng = Engine()
    cost = measure_label(eng, Label("addP", file="f1"))
    assert cost.by_principal(INVOKER) == {
        "ibe_enc": 1, "ibs_sign": 2, "sym_enc": 1, "sym_gen": 1,
    }
    assert cost.by_principal(REFERENCE_MONITOR) == {"ibs_ver": 2}


def test_assign_user_cost():
    eng = engine_with(users=["u1"], roles=["r1"])
    cost = measure_label(eng, Label("assignU", user="u1", role="r1"))
    assert cost.totals() == {
        "ibs_ver": 1, "ibe_dec": 1, "ibe_enc": 1, "ibs_sign": 1,
    }


def test_delete_file_is_free_and_total():
    eng = engine_with(users=["u1"], roles=["r1"], files=["f1"],
                      ur=[("u1", "r1")], pa=[("r1", "f1", RW)])
    cost = measure_label(eng, Label("delP", file="f1"))
    assert not cost
    assert "f1" not in eng.files
    assert "f1" not in eng.fs.f
    assert all(key[1] != "f1" for key in eng.fs.fk)


# -- revocation re-keying


def test_revoke_user_no_files_one_remaining_member():
    eng = engine_with(users=["u1", "u2"], roles=["r1"],
                      ur=[("u1", "r1"), ("u2", "r1")])
    cost = measure_label(eng, Label("revokeU", user="u2", role="r1"))
    # new role keys, re-issued to the remaining member and the superuser
    assert cost.totals() == {
        "ibe_keygen": 1, "ibs_keygen": 1,
        "ibs_ver": 2, "ibe_enc": 2, "ibs_sign": 2,
    }
    assert eng.roles["r1"].version == 2
    assert ("u2", "r1", 1) not in eng.fs.rk
    assert ("u2", "r1", 2) not in eng.fs.rk
    assert ("u1", "r1", 2) in eng.fs.rk


def test_delete_user_one_role_three_members_one_file():
    # one revocation: 3 membership re-issues (2 members + SU), one wrapped
    # file key rolled to the new role identity, fresh file key to 2 holders
    eng = engine_with(
        users=["u1", "u2", "u3"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1"), ("u3", "r1")],
        pa=[("r1", "f1", RW)],
    )
    cost = measure_label(eng, Label("delU", user="u1"))
    assert cost.totals() == {
        "ibe_keygen": 1, "ibs_keygen": 1,
        "ibe_enc": 6, "ibs_sign": 6, "ibs_ver": 6,
        "ibe_dec": 1, "sym_gen": 1,
    }
    assert "u1" not in eng.users
    assert eng.files["f1"] == 2
    assert eng.roles["r1"].version == 2


def test_delete_user_without_roles_costs_nothing():
    eng = engine_with(users=["u1"])
    cost = measure_label(eng, Label("delU", user="u1"))
    assert not cost


def test_revoke_perm_full_three_holders():
    eng = engine_with(
        roles=["r1", "r2", "r3"], files=["f1"],
        pa=[("r1", "f1", RW), ("r2", "f1", READ), ("r3", "f1", RW)],
    )
    cost = measure_label(eng, Label("revokeP", role="r1", file="f1", op=RW))
    # fresh key wrapped for r2, r3, and the superuser
    assert cost.totals() == {
        "sym_gen": 1, "ibs_ver": 3, "ibe_enc": 3, "ibs_sign": 3,
    }
    assert eng.files["f1"] == 2
    assert not fk_versions(eng, "r1", "f1")
    assert fk_versions(eng, "r2", "f1") == [1, 2]


def test_delete_role_with_shared_file():
    eng = engine_with(
        roles=["r1", "r2"], files=["f1"],
        pa=[("r1", "f1", RW), ("r2", "f1", RW)],
    )
    cost = measure_label(eng, Label("delR", role="r1"))
    assert cost.totals() == {
        "sym_gen": 1, "ibs_ver": 2, "ibe_enc": 2, "ibs_sign": 2,
    }
    assert "r1" not in eng.roles
    assert not fk_versions(eng, "r1", "f1")
    assert fk_versions(eng, "r2", "f1") == [1, 2]


# -- permission grants across key versions


def _two_version_file(extra_pa=()):
    """f1 at key version 2: r2's full revocation forces one re-key."""
    eng = engine_with(
        roles=["r1", "r2"], files=["f1"],
        pa=[("r2", "f1", RW)] + list(extra_pa),
    )
    eng.revoke_perm("r2", "f1", RW)
    assert eng.files["f1"] == 2
    return eng


def test_assign_perm_fresh_single_version():
    eng = engine_with(roles=["r1"], files=["f1"])
    cost = measure_label(eng, Label("assignP", role="r1", file="f1", op=READ))
    assert cost.totals() == {
        "ibs_ver": 1, "ibe_dec": 1, "ibe_enc": 1, "ibs_sign": 1,
    }


def test_assign_perm_fresh_two_versions():
    eng = _two_version_file()
    cost = measure_label(eng, Label("assignP", role="r1", file="f1", op=READ))
    assert cost.totals() == {
        "ibs_ver": 2, "ibe_dec": 2, "ibe_enc": 2, "ibs_sign": 2,
    }
    assert fk_versions(eng, "r1", "f1") == [1, 2]


def test_assign_perm_upgrade_two_versions():
    eng = _two_version_file(extra_pa=[("r1", "f1", READ)])
    cost = measure_label(eng, Label("assignP", role="r1", file="f1", op=RW))
    # in-place op change: re-sign every version, no key material moves
    assert cost.totals() == {"ibs_ver": 2, "ibs_sign": 2}
    assert all(
        eng.fs.fk[("r1", "f1", v)].fields.op == RW
        for v in fk_versions(eng, "r1", "f1")
    )


def test_revoke_write_two_versions():
    eng = _two_version_file(extra_pa=[("r1", "f1", RW)])
    cost = measure_label(eng, Label("revokeP", role="r1", file="f1", op=WRITE))
    assert cost.totals() == {"ibs_ver": 2, "ibs_sign": 2}
    assert all(
        eng.fs.fk[("r1", "f1", v)].fields.op == READ
        for v in fk_versions(eng, "r1", "f1")
    )
    assert eng.files["f1"] == 2  # downgrade does not re-key


EVERY_KIND = [
    Label("addU", user="u1"),
    Label("addU", user="u2"),
    Label("addR", role="r1"),
    Label("addR", role="r2"),
    Label("addP", file="f1"),
    Label("addP", file="f2"),
    Label("assignU", user="u1", role="r1"),
    Label("assignU", user="u2", role="r1"),
    Label("assignU", user="u2", role="r2"),
    Label("assignP", role="r1", file="f1", op=RW),
    Label("assignP", role="r2", file="f2", op=READ),
    Label("revokeP", role="r1", file="f1", op=WRITE),
    Label("revokeU", user="u2", role="r1"),
    Label("revokeP", role="r2", file="f2", op=RW),
    Label("delP", file="f2"),
    Label("delR", role="r2"),
    Label("delU", user="u2"),
    Label("addU", user="u3"),
    Label("assignU", user="u3", role="r1"),
]


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_measure_label_counts_what_the_totals_gain(binding):
    # measure_label counts on fresh tallies; what it returns is what the
    # provider's totals gain, under each principal
    eng = Engine(binding)
    for lbl in EVERY_KIND:
        before = eng.provider.snapshot()
        assert measure_label(eng, lbl) == eng.provider.snapshot() - before
    assert {lbl.kind for lbl in EVERY_KIND} == set(LABEL_KINDS)
    # a revocation that raises once it has minted and wrapped: its counts
    # join the totals all the same, as a plain apply's do
    eng.fs.del_fk("r1", "f1", 1)
    revoke = Label("revokeU", user="u3", role="r1")
    plain, before = eng.fork(), eng.provider.snapshot()
    with pytest.raises(IntegrityError):
        plain.apply_label(revoke)
    spent = plain.provider.snapshot() - before
    assert spent.get("sym_gen") == 0 and spent.totals()
    with pytest.raises(IntegrityError):
        measure_label(eng, revoke)
    assert eng.provider.snapshot() - before == spent
    # the totals are back in place for the next label
    before = eng.provider.snapshot()
    cost = measure_label(eng, Label("addP", file="f3"))
    assert cost == eng.provider.snapshot() - before
    assert cost.get("sym_gen", INVOKER) == 1
    assert cost.by_principal(REFERENCE_MONITOR)


def test_every_dispatcher_refuses_an_unknown_label_kind():
    # ``Label`` refuses an unknown kind when it is built; one forced past
    # that check still reaches no branch of any of the three dispatchers
    lbl = Label("addU", user="u1")
    object.__setattr__(lbl, "kind", "bogus")
    for dispatch in (
        lambda: oracle_apply(RbacState(), lbl),
        lambda: Engine().apply_label(lbl),
        lambda: algebraic_cost(lbl, RbacState(), {}),
    ):
        with pytest.raises(AssertionError, match="^bogus$"):
            dispatch()


# -- data path


def _reader_engine(op=READ):
    return engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", op)],
    )


def test_read_cost_and_content():
    eng = _reader_engine()
    cost, body = measure(eng, eng.read_file, "u1", "f1")
    assert body == b"body:f1"
    assert cost.by_principal(INVOKER) == {
        "ibs_ver": 2, "ibe_dec": 2, "sym_dec": 1,
    }
    assert cost.by_principal(REFERENCE_MONITOR) == {}


def test_write_cost_and_round_trip():
    eng = _reader_engine(op=RW)
    cost, _ = measure(eng, eng.write_file, "u1", "f1", b"updated")
    assert cost.by_principal(INVOKER) == {
        "ibs_ver": 2, "ibe_dec": 2, "sym_enc": 1, "ibs_sign": 1,
    }
    assert cost.by_principal(REFERENCE_MONITOR) == {"ibs_ver": 2}
    assert eng.read_file("u1", "f1") == b"updated"


def test_read_write_authorization():
    eng = _reader_engine()
    with pytest.raises(AuthorizationError):
        eng.read_file("u2", "f1")  # not a member of any role
    with pytest.raises(AuthorizationError):
        eng.write_file("u1", "f1", b"x")  # read-only grant
    with pytest.raises(RbacError):
        eng.read_file("ghost", "f1")
    with pytest.raises(RbacError):
        eng.read_file("u1", "ghost")


def test_lazy_re_encryption_on_write():
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
    )
    eng.revoke_user("u2", "r1")
    assert eng.files["f1"] == 2
    assert eng.fs.f["f1"].fields.version == 1  # body untouched until the next write
    assert eng.read_file("u1", "f1") == b"body:f1"
    eng.write_file("u1", "f1", b"fresh")
    assert eng.fs.f["f1"].fields.version == 2
    assert eng.read_file("u1", "f1") == b"fresh"


def test_revoked_member_loses_old_and_new_material():
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
    )
    p = eng.provider
    # u2 legitimately extracts the role keys and the current file key
    rkt = eng.fs.rk[("u2", "r1", 1)]
    _, role_dec, _ = p.dec(eng.users["u2"].dec_key, rkt.fields.ct)
    cached_k = p.dec(role_dec, eng.fs.fk[("r1", "f1", 1)].fields.ct)

    eng.revoke_user("u2", "r1")
    eng.write_file("u1", "f1", b"after revocation")

    with pytest.raises(AuthorizationError):
        eng.read_file("u2", "f1")
    # the old role key cannot open the re-keyed file-key tuple
    with pytest.raises(UnauthorizedDecrypt):
        p.dec(role_dec, eng.fs.fk[("r1", "f1", 2)].fields.ct)
    # the cached file key cannot open the re-encrypted body
    with pytest.raises(UnauthorizedDecrypt):
        p.sym_dec(cached_k, eng.fs.f["f1"].fields.body)


class _UnversionedEngine(Engine):
    """Deliberately broken: revocation deletes the member's wrapped role keys
    but rolls neither the role keys nor the file keys."""

    def _revoke_user_inner(self, u, r):
        self.fs.del_rk(u, r, self.roles[r].version)


def test_without_versioning_cached_key_leaks_new_content():
    # the control experiment: skip re-keying and the revoked member's cached
    # symmetric key opens content written after the revocation
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
        cls=_UnversionedEngine,
    )
    p = eng.provider
    rkt = eng.fs.rk[("u2", "r1", 1)]
    _, role_dec, _ = p.dec(eng.users["u2"].dec_key, rkt.fields.ct)
    cached_k = p.dec(role_dec, eng.fs.fk[("r1", "f1", 1)].fields.ct)

    eng.revoke_user("u2", "r1")
    eng.write_file("u1", "f1", b"supposedly private")
    assert p.sym_dec(
        cached_k, eng.fs.f["f1"].fields.body
    ) == b"supposedly private"


# -- integrity


def _valid(eng, t) -> bool:
    """Whether ``t`` passes ``_verify`` at the key its own fields name: that
    is, whether its signer's signature covers its fields."""
    try:
        eng._verify(t, _SIGNED[type(t.fields)].key_of(t.fields))
    except IntegrityError:
        return False
    return True


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_signature_covers_every_field(binding):
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", READ)], binding=binding,
    )
    eng.add_file("u2", "f2", b"uploaded")  # u2 signs SU's key at version 1
    for tag, fields in faults.FIELDS.items():
        for t in faults.stored(eng, tag).values():
            assert _valid(eng, t)
            # a body equal to the one signed but not the same object
            twin = type(t)(dataclasses.replace(t.fields), t.sig)
            assert twin.fields is not t.sig.fields and _valid(eng, twin)
            for field in fields:
                value = getattr(t.fields, field)
                for other in faults.others(value):
                    assert type(other) is type(value) and other != value
                    forged = faults.altered(t, field, other)
                    signer = _SIGNED[type(t.fields)].signer_of(forged.fields)
                    with pytest.raises(IntegrityError) as exc:
                        eng._verify(
                            forged, _SIGNED[type(t.fields)].key_of(forged.fields)
                        )
                    assert str(exc.value) == f"bad signature by {signer} on {tag}"
    # a read checks both tuples it opens, and so do the queries
    for tag, key in (("RK", ("u1", "r1", 1)), ("FK", ("r1", "f1", 1))):
        fork = eng.fork()
        ct = faults.stored(fork, tag)[key].fields.ct
        faults.tamper(fork, tag, key, "ct", faults.others(ct)[0])
        assert not fork.query_auth("u1", "f1", READ)
        with pytest.raises(IntegrityError, match=f"by SU on {tag}"):
            fork.read_file("u1", "f1")
    # the escalation that matters most: a Read key relabelled RW.  The
    # record says r1 reads, so the write is refused before any key opens
    faults.tamper(eng, "FK", ("r1", "f1", 1), "op", RW)
    assert not eng.query_holds("r1", "f1", RW)
    body, before = eng.fs.f["f1"], eng.provider.snapshot()
    with pytest.raises(AuthorizationError):
        eng.write_file("u1", "f1", b"escalated")
    assert eng.fs.f["f1"] is body
    assert eng.provider.snapshot() == before


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_unknown_signer_is_a_bad_signature(binding):
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", READ)], binding=binding,
    )
    key = ("r1", "f1", 1)
    forged = faults.altered(eng.fs.fk[key], "issuer", faults.GHOST)
    before = eng.provider.snapshot()
    assert not _valid(eng, forged)
    assert eng.provider.snapshot() == before  # rejected before any primitive
    faults.tamper(eng, "FK", key, "issuer", faults.GHOST)
    with pytest.raises(IntegrityError) as exc:
        eng.read_file("u1", "f1")
    assert str(exc.value) == "bad signature by ghost on FK"


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("forger", ["mallory", "u2", "r2"])
def test_fk_tuple_signed_by_anyone_but_su_is_refused(binding, forger):
    # a user with no role, a member of another role, or a role signs an FK
    # tuple for r1 wrapping a key of its choosing, and an F tuple under it
    eng = engine_with(
        users=["u1", "u2", "mallory"], roles=["r1", "r2"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r2")], pa=[("r1", "f1", RW)],
        binding=binding,
    )
    signer = role_identity(forger, 1) if forger == "r2" else (
        user_identity(forger)
    )
    k = faults.forge(eng, ("r1", "f1", 1), signer)
    p = eng.provider
    body = p.sym_enc(k, b"forged by " + forger.encode())
    forged_f = faults.altered(eng.fs.f["f1"], "body", body)
    eng.fs.put_f(faults.altered(forged_f, "writer", signer))
    before, unauthorized = eng.dump(), list(p.unauthorized_events)
    # the read returns no body, and the write stores nothing under k
    for call in (
        lambda: eng.read_file("u1", "f1"),
        lambda: eng.write_file("u1", "f1", b"secret written by u1"),
    ):
        with pytest.raises(IntegrityError) as exc:
            call()
        assert str(exc.value) == f"bad signature by {signer} on FK"
    assert eng.dump() == before and p.unauthorized_events == unauthorized
    assert not eng.query_auth("u1", "f1", READ)
    assert not eng.query_holds("r1", "f1", RW)


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_su_key_at_version_1_is_signed_by_its_uploader(binding):
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], ur=[("u1", "r1")], binding=binding,
    )
    eng.add_file("u2", "f1", b"uploaded")
    assert eng.uploads == {
        "f1": (user_identity("u2"), eng.users["u2"].ver_ref)
    }
    eng.assign_perm("r1", "f1", RW)  # opens SU's key at 1, signed by u2
    eng.revoke_perm("r1", "f1", RW)  # SU signs SU's key at 2
    assert [eng.fs.fk[("SU", "f1", v)].fields.issuer for v in (1, 2)] == [
        user_identity("u2"), SU_IDENTITY,
    ]
    # anyone else at version 1, and the uploader past it, is refused
    for key, forger in ((("SU", "f1", 1), "u1"), (("SU", "f1", 2), "u2")):
        fork = eng.fork()
        faults.forge(fork, key, user_identity(forger))
        with pytest.raises(IntegrityError, match=f"by {forger} on FK$"):
            fork.assign_perm("r1", "f1", READ)
    # a file deleted and added again by SU no longer has a user uploader
    eng.del_file("f1")
    assert eng.uploads == {}
    eng.add_file(SUPERUSER, "f1", b"again")
    faults.forge(eng, ("SU", "f1", 1), user_identity("u2"))
    with pytest.raises(IntegrityError, match="by u2 on FK$"):
        eng.assign_perm("r1", "f1", READ)


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_only_known_signers_have_a_verify_ref(binding):
    # SU, by its interned identity or an equal one, the uploader of the
    # body's file and a role's current version verify; a superuser-kind
    # identity that is not SU, or a user the record never saw upload, has
    # nothing to verify against, so ``_verify`` refuses its tuple with no
    # primitive run
    eng = engine_with(users=["u1", "u2"], roles=["r1"], binding=binding)
    eng.add_file("u1", "f1", b"uploaded")
    t = eng.fs.f["f1"]
    ref = eng._ver_ref_of
    assert ref(SU_IDENTITY, t.fields) is eng.su.ver_ref
    assert ref(Identity("superuser", "SU"), t.fields) is eng.su.ver_ref
    assert ref(user_identity("u1"), t.fields) is eng.users["u1"].ver_ref
    assert ref(role_identity("r1", 1), t.fields) is (
        eng.roles["r1"].keys.ver_ref
    )
    for stranger in (
        Identity("superuser", "X"), user_identity("u2"), faults.GHOST,
        role_identity("r9", 1),
    ):
        assert ref(stranger, t.fields) is None
        forged = faults.altered(t, "writer", stranger)
        before = eng.provider.snapshot()
        with pytest.raises(IntegrityError) as exc:
            eng._verify(forged, "f1")
        assert str(exc.value) == f"bad signature by {stranger} on F"
        assert eng.provider.snapshot() == before


def _stored_tuples(eng):
    return [t for tag in faults.FIELDS for t in faults.stored(eng, tag).values()]


def _firewall1(binding):
    """The seeded firewall1 engine, a role with members and few files, its
    least file and its least member."""
    ds = synthesize_dataset("firewall1", random.Random(derive_seed(0, -1)))
    eng = seed_engine(ds, binding)
    r = min(
        (r for r in eng.roles if eng.members[r] and eng.ops[r]),
        key=lambda r: (len(eng.ops[r]), r),
    )
    return eng, r, min(eng.ops[r]), min(eng.members[r])


def _rw_pair(eng, r):
    """The least (member, file) pair through which ``r`` grants a write."""
    return next(
        (m, f) for f, op in sorted(eng.ops[r].items()) if op == RW
        for m in sorted(eng.members[r])
    )


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_every_stored_tuple_is_signed_over_its_own_body(binding):
    # the firewall1 seed, then a revokeU, a revokeP and a write on a role
    # with few files: each tuple's signature holds the very body it shows
    eng, r, fn, u = _firewall1(binding)
    for step in (
        lambda: None,
        lambda: eng.revoke_user(u, r),
        lambda: eng.revoke_perm(r, fn, RW),
        lambda: eng.write_file(*_rw_pair(eng, r), b"written"),
    ):
        step()
        ts = _stored_tuples(eng)
        assert len(ts) > 5000
        assert all(t.sig.fields is t.fields for t in ts)


def _work(invoker, monitor=None):
    return CostVector({
        **{(INVOKER, op): n for op, n in invoker.items()},
        **{(REFERENCE_MONITOR, op): n for op, n in (monitor or {}).items()},
    })


#: The primitives of the firewall1 seed, then of one revokeU, one revokeP,
#: one read and one write on it, chosen as in the test above, in the
#: identity-based names.  An engine change that leaves them must add or drop
#: no primitive.
FIREWALL1_WORK = {
    "seed": _work(dict(
        ibe_dec=4585, ibe_enc=5354, ibe_keygen=426, ibs_keygen=426,
        ibs_sign=6063, ibs_ver=4585, sym_enc=709, sym_gen=709,
    ), dict(ibs_ver=1418)),
    "revokeU": _work(dict(
        ibe_dec=8, ibe_enc=147, ibe_keygen=1, ibs_keygen=1, ibs_sign=147,
        ibs_ver=147, sym_gen=8,
    )),
    "revokeP": _work(dict(ibe_enc=8, ibs_sign=8, ibs_ver=8, sym_gen=1)),
    "read": _work(dict(ibe_dec=2, ibs_ver=2, sym_dec=1)),
    "write": _work(
        dict(ibe_dec=2, ibs_sign=1, ibs_ver=2, sym_enc=1), dict(ibs_ver=2)
    ),
}


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_dataset_scale_work_is_pinned(binding):
    eng, r, fn, u = _firewall1(binding)
    work = {"seed": eng.provider.snapshot()}
    work["revokeU"] = measure(eng, eng.revoke_user, u, r)[0]
    work["revokeP"] = measure(eng, eng.revoke_perm, r, fn, RW)[0]
    m, f = _rw_pair(eng, r)
    work["read"] = measure(eng, eng.read_file, m, f)[0]
    work["write"] = measure(eng, eng.write_file, m, f, b"written")[0]
    names = IBE_TO_PKI if binding == "pki" else {}
    assert work == {k: v.renamed(names) for k, v in FIREWALL1_WORK.items()}


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_access_rule_matches_a_scan_of_the_holders(binding):
    # after a revokeU and a delR of the role with most members, the rule's
    # walk of each user's roles answers what a scan of every holder of the
    # file answers, for every user, file and op
    eng, r, _, u = _firewall1(binding)
    eng.revoke_user(u, r)
    eng.del_role(max(eng.roles, key=lambda h: (len(eng.members[h]), h)))
    granted = 0
    for fn in sorted(eng.files):
        for op in (READ, RW):
            scan = {}
            for h in sorted(eng.holders[fn]):
                if grants(eng.ops[h][fn], op):
                    for m in eng.members[h]:
                        scan.setdefault(m, []).append(h)
            for u in sorted(eng.users):
                roles = eng._qualifying_roles(u, fn, op)
                assert roles == scan.get(u, []), (u, fn, op)
                granted += bool(roles)
    assert granted > 10000


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_canonical_bytes_encodes_a_signature_over_each_body(binding):
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", READ)], binding=binding,
    )
    tags = set()
    for tag in faults.FIELDS:
        t = next(iter(faults.stored(eng, tag).values()))
        body = canonical_bytes(t.fields)
        tags.add(body[:1])
        sig = canonical_bytes(t.sig)
        assert sig.startswith(b"G") and sig.endswith(body)
        twin = dataclasses.replace(t.sig, fields=dataclasses.replace(t.fields))
        assert canonical_bytes(twin) == sig
    assert len(tags) == 3


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_signing_through_the_engine_walks_nothing(binding, monkeypatch):
    eng = engine_with(users=["u1", "u2"], roles=["r1", "r2"], binding=binding)
    real_frozen, real_signed = crypto._frozen, eng._signed
    signing, signed, walked = [False], [], []

    def frozen(v):
        if signing[0]:
            walked.append(v)
        return real_frozen(v)

    def sign_once(cls, *args):
        signing[0] = True
        try:
            t = real_signed(cls, *args)
        finally:
            signing[0] = False
        signed.append(t)
        return t

    monkeypatch.setattr(crypto, "_frozen", frozen)
    monkeypatch.setattr(eng, "_signed", sign_once)
    eng.add_file("u1", "f1", b"uploaded")
    eng.add_file(SUPERUSER, "f2", b"seeded")
    for u, r in (("u1", "r1"), ("u2", "r1"), ("u2", "r2")):
        eng.assign_user(u, r)
    eng.assign_perm("r1", "f1", READ)
    eng.assign_perm("r1", "f1", RW)
    eng.assign_perm("r2", "f2", RW)
    eng.write_file("u1", "f1", b"written")
    eng.revoke_user("u2", "r1")
    eng.revoke_perm("r1", "f1", WRITE)
    eng.del_user("u2")
    assert {type(t.fields) for t in signed} == set(_SIGNED)
    assert walked == []


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_reader_forged_body_is_returned(binding):
    # pins the limitation README "Limitations of the store" documents:
    # read_file does not verify the F tuple's signature, so a body that a
    # read-only member encrypted under the current file key reads as content
    eng = engine_with(
        users=["u1", "u2"], roles=["r1", "r2"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r2")],
        pa=[("r1", "f1", RW), ("r2", "f1", READ)], binding=binding,
    )
    p = eng.provider
    rkt = eng.fs.rk[("u2", "r2", 1)]
    _, role_dec, _ = p.dec(eng.users["u2"].dec_key, rkt.fields.ct)
    k = p.dec(role_dec, eng.fs.fk[("r2", "f1", 1)].fields.ct)
    stored = eng.fs.f["f1"]
    eng.fs.put_f(faults.altered(stored, "body", p.sym_enc(k, b"forged")))
    assert eng.read_file("u1", "f1") == b"forged"


DROPPED_TUPLES = {  # case: (dropped tuple, operation, its error message)
    "F": (
        ("F", "f1"),
        lambda eng: eng.read_file("u1", "f1"),
        "missing F tuple at 'f1'",
    ),
    "RK": (
        ("RK", (SUPERUSER, "r2", 1)),
        lambda eng: eng.assign_user("u1", "r2"),
        "missing RK tuple at ('SU', 'r2', 1)",
    ),
    "RK-revokeU": (
        ("RK", (SUPERUSER, "r1", 2)),
        lambda eng: eng.revoke_user("u1", "r1"),
        "missing RK tuple at ('SU', 'r1', 2)",
    ),
    "FK": (
        ("FK", (SUPERUSER, "f1", 2)),
        lambda eng: eng.assign_perm("r2", "f1", RW),
        "missing FK tuple at ('SU', 'f1', 2)",
    ),
    "FK-older-version": (
        ("FK", (SUPERUSER, "f1", 1)),
        lambda eng: eng.assign_perm("r2", "f1", READ),
        "missing FK tuple at ('SU', 'f1', 1)",
    ),
}


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("case", sorted(DROPPED_TUPLES))
def test_dropped_tuple_raises_integrity_error(binding, case):
    # a store that withholds a tuple the operation must open or verify is
    # caught before any primitive runs, not left to a KeyError or a silent
    # no-op
    eng = engine_with(
        users=["u1", "u2"], roles=["r1", "r2"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
        binding=binding,
    )
    eng.revoke_user("u2", "r1")  # f1 moves to file-key version 2
    dropped, operation, message = DROPPED_TUPLES[case]
    faults.drop(eng, *dropped)
    before = eng.provider.snapshot()
    with pytest.raises(IntegrityError) as exc:
        operation(eng)
    assert str(exc.value) == message
    assert eng.provider.snapshot() == before
    assert not fk_versions(eng, "r2", "f1")
    assert ("u1", "r2", 1) not in eng.fs.rk


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_checked_fetch_reads_its_own_store(binding):
    # the fetch finds each tag's map through the store's table: a fork's
    # fetch reads the fork's maps, so a tuple withheld from the fork is
    # missing there, with the wording the transcript pins, and not from
    # the original; a tuple put into the fork only is what the fork reads
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)], binding=binding,
    )
    fetched = {
        "RK": (("u1", "r1", 1), "rk"), "FK": (("r1", "f1", 1), "fk"),
        "F": ("f1", "f"),
    }
    for tag, (key, attr) in fetched.items():
        t = getattr(eng.fs, attr)[key]
        fork = eng.fork()
        assert eng._get(tag, key) is fork._get(tag, key) is t
        faults.drop(fork, tag, key)
        with pytest.raises(IntegrityError) as exc:
            fork._get(tag, key)
        assert str(exc.value) == f"missing {tag} tuple at {key!r}"
        assert eng._get(tag, key) is t
        twin = type(t)(dataclasses.replace(t.fields), t.sig)
        faults.replay(fork, tag, twin)
        assert fork._get(tag, key) is twin and eng._get(tag, key) is t


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_replayed_stale_body_detected(binding):
    # lazy re-encryption keeps every file-key version, so the version-1 key
    # still opens a replayed version-1 body: only the monitor's record of the
    # version it last accepted exposes the replay
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
        binding=binding,
    )
    names = IBE_TO_PKI if binding == "pki" else {}
    history = faults.History()
    eng.write_file("u1", "f1", b"v1")
    history.record(eng)
    eng.revoke_user("u2", "r1")
    before_write = eng.fork()
    cost, _ = measure(eng, eng.write_file, "u1", "f1", b"v2")
    assert cost == data_op_cost("write").renamed(names)
    cost, body = measure(eng, eng.read_file, "u1", "f1")
    assert body == b"v2" and cost == data_op_cost("read").renamed(names)
    assert before_write.read_file("u1", "f1") == b"v1"  # its own record

    (stale,) = [t for tag, _, t in history.replays(eng) if tag == "F"]
    assert stale.fields.body.payload == b"v1"
    faults.replay(eng, "F", stale)
    with pytest.raises(IntegrityError, match="'f1'"):
        eng.read_file("u1", "f1")
    eng.del_file("f1")
    assert "f1" not in eng.body_versions


_U1_RK, _R1_FK = ("RK", ("u1", "r1", 1)), ("FK", ("r1", "f1", 1))
WITHHELD = {  # case: (withheld tuple, the revocation that deletes it)
    "revokeU": (_U1_RK, Label("revokeU", user="u1", role="r1")),
    "delU": (_U1_RK, Label("delU", user="u1")),
    "revokeP": (_R1_FK, Label("revokeP", role="r1", file="f1", op=RW)),
    "delR": (_R1_FK, Label("delR", role="r1")),
}


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("case", sorted(WITHHELD))
def test_withheld_tuple_does_not_stop_a_revocation(binding, case):
    # the administrator decides from its own record, so a store that
    # withholds the tuple a revocation deletes cannot turn it into a no-op:
    # the revocation rolls f1 exactly as on an honest store
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
        binding=binding,
    )
    honest = eng.fork()
    withheld, label = WITHHELD[case]
    faults.drop(eng, *withheld)
    assert measure_label(eng, label) == measure_label(honest, label)
    assert eng.warnings == honest.warnings == 0
    assert eng.dump() == honest.dump()
    assert eng.files["f1"] == 2


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("kind", ["revokeU", "delU", "delR"])
def test_replayed_key_of_a_deleted_file_is_ignored(binding, kind):
    # a replayed FK tuple gives r1 a key for a deleted file again; the record
    # lists no such file, so the revocation neither opens nor deletes it and
    # runs as on an honest store
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
        binding=binding,
    )
    replayed = eng.fs.fk[("r1", "f1", 1)]
    eng.del_file("f1")
    honest = eng.fork()
    faults.replay(eng, "FK", replayed)
    label = Label(kind, user="u1", role="r1")
    assert measure_label(eng, label) == measure_label(honest, label)
    honest.fs.put_fk(replayed)
    assert eng.dump() == honest.dump()
    assert not eng.provider.unauthorized_events


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_queries_answer_from_the_record(binding):
    # a deleted name comes back at version 1, and the store replays the old
    # name's tuples, which SU signed and which sit at current keys: the
    # queries follow the record, as the data path does
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)], binding=binding,
    )
    old_fk, old_rk = eng.fs.fk[("r1", "f1", 1)], eng.fs.rk[("u1", "r1", 1)]
    eng.apply_label(Label("delP", file="f1"))
    eng.apply_label(Label("addP", file="f1"))
    faults.replay(eng, "FK", old_fk)
    assert eng.ops == {"r1": {}}
    assert not eng.query_holds("r1", "f1", RW)
    assert not eng.query_auth("u1", "f1", READ)
    with pytest.raises(AuthorizationError):
        eng.read_file("u1", "f1")
    eng.apply_label(Label("delR", role="r1"))
    eng.apply_label(Label("addR", role="r1"))
    faults.replay(eng, "RK", old_rk)
    assert eng.members == {"r1": set()}
    assert not eng.query_member("u1", "r1")
    assert eng.warnings == 0
    assert not eng.provider.unauthorized_events
    # a write revoked in place: the old RW tuple sits at the current key
    # and names the current role version
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)], binding=binding,
    )
    old_fk = eng.fs.fk[("r1", "f1", 1)]
    eng.revoke_perm("r1", "f1", WRITE)
    faults.replay(eng, "FK", old_fk)
    assert eng.ops == {"r1": {"f1": READ}}
    assert not eng.query_holds("r1", "f1", RW)
    assert not eng.query_auth("u1", "f1", RW)
    with pytest.raises(AuthorizationError):
        eng.write_file("u1", "f1", b"escalated")


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_swapped_key_tuples_raise_integrity_error(binding):
    # r1's Read tuple and r2's RW tuple swap places: both stay validly
    # signed, so only their keys betray them.  Rolling f1 must not copy
    # r2's RW op to r1, and u1 must not write through r2's tuple.
    eng = engine_with(
        users=["u1", "u2", "u3"], roles=["r1", "r2", "r3"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r2"), ("u3", "r3")],
        pa=[("r1", "f1", READ), ("r2", "f1", RW), ("r3", "f1", RW)],
        binding=binding,
    )
    faults.swap(eng, "FK", ("r1", "f1", 1), ("r2", "f1", 1))
    with pytest.raises(IntegrityError) as exc:
        eng.revoke_perm("r3", "f1", RW)
    assert str(exc.value) == (
        "FK tuple of ('r2', 'f1', 1) stored at ('r1', 'f1', 1)"
    )
    assert ("r1", "f1", 2) not in eng.fs.fk
    # the record says r1 reads, whatever op the tuple at its key names
    body = eng.fs.f["f1"]
    with pytest.raises(AuthorizationError):
        eng.write_file("u1", "f1", b"forged by a reader")
    assert eng.fs.f["f1"] == body
    assert not eng.provider.unauthorized_events


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_replayed_key_of_a_retired_role_version_raises_integrity_error(
    binding,
):
    # after u2 leaves r1, the store puts back r1's FK tuple that names
    # (r1,v1); the read must refuse it, not open it with the v2 key
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", READ)],
        binding=binding,
    )
    replayed = eng.fs.fk[("r1", "f1", 1)]
    eng.revoke_user("u2", "r1")
    faults.replay(eng, "FK", replayed)
    with pytest.raises(IntegrityError) as exc:
        eng.read_file("u1", "f1")
    assert str(exc.value) == (
        "FK tuple stored at ('r1', 'f1', 1) is for (r1,v1), not (r1,v2)"
    )
    assert not eng.provider.unauthorized_events


PARTIAL_OPERATIONS = {
    "revokeU": Label("revokeU", user="u1", role="r1"),
    "delU": Label("delU", user="u1"),
    "revokeP": Label("revokeP", role="r1", file="f1", op=RW),
    "delR": Label("delR", role="r1"),
    "assignP": Label("assignP", role="r3", file="f1", op=READ),  # fresh
}


def _verified(eng, label):
    """The tag and key of every stored tuple whose signature ``label``
    checks."""
    fork, seen = eng.fork(), []
    verify = fork._verify

    def spy(t, *args):
        seen.append(t)
        verify(t, *args)

    fork._verify = spy
    fork.apply_label(label)
    return [
        (tag, key)
        for tag in faults.FIELDS
        for key, t in faults.stored(eng, tag).items()
        if any(t is s for s in seen)
    ]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="partial operations: ROADMAP item 3 makes them all-or-nothing",
)
@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("case", sorted(PARTIAL_OPERATIONS))
def test_operation_on_a_tampered_store_writes_nothing(binding, case):
    eng = engine_with(
        users=["u1", "u2", "u3"], roles=["r1", "r2", "r3"],
        files=["f1", "f2"],
        ur=[("u1", "r1"), ("u2", "r1"), ("u3", "r1"), ("u1", "r2")],
        pa=[("r1", "f1", RW), ("r1", "f2", READ), ("r2", "f2", RW),
            ("r3", "f1", READ)],
        binding=binding,
    )
    eng.revoke_perm("r3", "f1", RW)  # f1 moves to file-key version 2
    label = PARTIAL_OPERATIONS[case]
    read = _verified(eng, label)
    if not read:
        pytest.fail(f"{label} checks no stored tuple")
    for tag, key in read:
        fork = eng.fork()
        ct = faults.stored(fork, tag)[key].fields.ct
        faults.tamper(fork, tag, key, "ct", faults.others(ct)[0])
        before = fork.dump()
        with pytest.raises(IntegrityError):
            fork.apply_label(label)
        assert fork.dump() == before, (tag, key)


def test_failed_upload_check_leaves_invoker_charged(monkeypatch):
    # the engine opens no invoker scope: it relies on the provider charging
    # the invoker whenever no scope is open, including after a monitor check
    # raised inside its scope
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)],
    )
    p = eng.provider
    verify = p.verify

    def monitor_rejects(ver_ref, fields, sig):
        if p.principal == REFERENCE_MONITOR:
            return False
        return verify(ver_ref, fields, sig)

    monkeypatch.setattr(p, "verify", monitor_rejects)
    stored = eng.fs.f["f1"]
    with pytest.raises(IntegrityError):
        eng.write_file("u1", "f1", b"rejected")
    assert eng.fs.f["f1"] is stored
    assert eng.provider.principal == INVOKER
    cost, body = measure(eng, eng.read_file, "u1", "f1")
    assert body == b"body:f1"
    assert cost == data_op_cost("read")
    assert cost.by_principal(REFERENCE_MONITOR) == {}


# -- warnings and errors


def test_redundant_labels_warn_and_cost_nothing():
    eng = engine_with(users=["u1"], roles=["r1"], files=["f1"],
                      ur=[("u1", "r1")], pa=[("r1", "f1", RW)])
    before = eng.dump()
    redundant = [
        Label("addU", user="u1"),
        Label("addR", role="r1"),
        Label("addP", file="f1"),
        Label("assignU", user="u1", role="r1"),
        Label("assignP", role="r1", file="f1", op=READ),
        Label("assignP", role="r1", file="f1", op=RW),
        Label("delU", user="ghost"),
        Label("delR", role="ghost"),
        Label("delP", file="ghost"),
    ]
    for lbl in redundant:
        assert not measure_label(eng, lbl), lbl
    assert eng.warnings == len(redundant)
    assert eng.dump() == before


def test_revoke_nonmember_and_nonholder_warn():
    eng = engine_with(users=["u1"], roles=["r1"], files=["f1"])
    assert not measure_label(eng, Label("revokeU", user="u1", role="r1"))
    assert not measure_label(eng, Label("revokeP", role="r1", file="f1", op=RW))
    assert not measure_label(eng, Label("revokeP", role="r1", file="f1", op=WRITE))
    assert eng.warnings == 3


@pytest.mark.parametrize("binding", ["ibe", "pki"])
def test_superuser_role_name_rejected_before_any_key(binding):
    eng = Engine(binding)
    before = eng.provider.snapshot()
    with pytest.raises(RbacError, match="'SU' is reserved"):
        eng.add_role(SUPERUSER)
    assert eng.provider.snapshot() == before
    assert not eng.roles and not eng.fs.rk


def test_errors_on_unknown_names():
    eng = Engine()
    with pytest.raises(RbacError):
        eng.add_user(SUPERUSER)
    with pytest.raises(RbacError):
        eng.assign_user("ghost", "r1")
    with pytest.raises(RbacError):
        eng.revoke_user("ghost", "r1")
    with pytest.raises(RbacError):
        eng.assign_perm("ghost", "f1", READ)
    with pytest.raises(RbacError):
        eng.revoke_perm("ghost", "f1", RW)
    with pytest.raises(RbacError):
        eng.assign_perm("r1", "f1", WRITE)  # not a grantable level


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("call, args, said", [
    ("assign_perm", ("r1", "f1", WRITE), "assignP: bad op 'Write'"),
    ("revoke_perm", ("r1", "f1", READ), "revokeP: bad op 'Read'"),
    ("add_file", ("ghost", "f2", b"x"), "addP: no user 'ghost'"),
])
def test_library_guards_refuse_before_any_primitive(binding, call, args, said):
    # apply_label never reaches these guards (a Label refuses a bad op, and
    # addP uploads as SU); r1 holds Read on f1, so without its guard each
    # call would go on to re-key or upload
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"], ur=[("u1", "r1")],
        pa=[("r1", "f1", READ)], binding=binding,
    )
    before, dump = eng.provider.snapshot(), eng.dump()
    with pytest.raises(RbacError) as refused:
        getattr(eng, call)(*args)
    assert str(refused.value) == said
    assert eng.provider.snapshot() == before
    assert eng.dump() == dump


def _refusal(call, *args):
    """The message of the ``RbacError`` that ``call(*args)`` raises, or
    None if it raises none."""
    try:
        call(*args)
    except RbacError as e:
        return str(e)
    return None


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_unknown_names_are_refused_in_the_models_words(binding):
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"], binding=binding
    )
    state = eng.state()
    labels = [
        Label(kind, user=u, role=r, file=fn, op=op)
        for kind, ops in (
            ("assignU", [None]), ("revokeU", [None]),
            ("assignP", [READ, RW]), ("revokeP", [WRITE, RW]),
        )
        for u in ("u1", "x") for r in ("r1", "y") for fn in ("f1", "z")
        for op in ops
    ]
    refused = 0
    for lbl in labels:
        said = _refusal(oracle_apply, state, lbl)
        assert _refusal(eng.fork().apply_label, lbl) == said, lbl
        refused += said is not None
    assert (len(labels), refused) == (48, 36)
    # the data path names a missing user before a missing file
    for call, args, said in (
        (eng.read_file, ("x", "f1"), "read: no user 'x'"),
        (eng.read_file, ("x", "z"), "read: no user 'x'"),
        (eng.read_file, ("u1", "z"), "read: no file 'z'"),
        (eng.write_file, ("x", "z", b"w"), "write: no user 'x'"),
        (eng.write_file, ("u1", "z", b"w"), "write: no file 'z'"),
    ):
        assert _refusal(call, *args) == said


# -- queries and derived facts


def test_query_costs_and_answers():
    eng = _reader_engine()
    cost, ok = measure(eng, eng.query_member, "u1", "r1")
    assert ok and cost.totals() == {"ibs_ver": 1}
    cost, ok = measure(eng, eng.query_holds, "r1", "f1", READ)
    assert ok and cost.totals() == {"ibs_ver": 1}
    assert not eng.query_holds("r1", "f1", RW)  # exact op, no subsumption
    cost, ok = measure(eng, eng.query_auth, "u1", "f1", READ)
    assert ok and cost.totals() == {"ibs_ver": 2}
    assert not eng.query_auth("u2", "f1", READ)


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_queries_answer_as_the_model_on_reachable_states(binding):
    """After every label of a trace, each counted query answers as
    ``rbac.eval_query`` on the model's state, and ``query_auth`` costs two
    verifications when it grants and none when it refuses."""
    ver = {"ibe": "ibs_ver", "pki": IBE_TO_PKI["ibs_ver"]}[binding]
    checks = 0
    for seed in range(20):
        eng, state = Engine(binding), RbacState()
        for lbl in TraceBuilder(random.Random(seed)).build(40):
            eng.apply_label(lbl)
            state = oracle_apply(state, lbl)
            users, roles = sorted(state.users), sorted(state.roles)
            files = sorted(state.perms)
            for u in users:
                for r in roles:
                    said = eval_query(state, ("UR", u, r))
                    assert eng.query_member(u, r) == said, (lbl, u, r)
                for fn in files:
                    for op in (READ, RW, WRITE):
                        cost, ok = measure(eng, eng.query_auth, u, fn, op)
                        said = eval_query(state, ("auth", u, fn, op))
                        assert ok == said, (lbl, u, fn, op)
                        assert cost.totals() == ({ver: 2} if ok else {})
            for r in roles:
                for fn in files:
                    for op in (READ, RW):
                        said = eval_query(state, ("PA", r, fn, op))
                        assert eng.query_holds(r, fn, op) == said
            checks += len(users) * (len(roles) + 3 * len(files))
            checks += 2 * len(roles) * len(files)
    assert checks > 40000


def test_theory_matches_reference_model():
    eng = engine_with(
        users=["u1", "u2"], roles=["r1", "r2"], files=["f1", "f2"],
        ur=[("u1", "r1"), ("u2", "r2")],
        pa=[("r1", "f1", RW), ("r2", "f1", READ), ("r2", "f2", RW)],
    )
    state = RbacState(
        users=frozenset(["u1", "u2"]),
        roles=frozenset(["r1", "r2"]),
        perms=frozenset(["f1", "f2"]),
        ur=frozenset([("u1", "r1"), ("u2", "r2")]),
        pa=frozenset([("r1", "f1", RW), ("r2", "f1", READ), ("r2", "f2", RW)]),
    )
    assert oracle_theory(eng.state()) == oracle_theory(state)
    # still exact after a round of key churn
    eng.revoke_user("u2", "r2")
    state2 = dataclasses.replace(
        state, ur=frozenset([("u1", "r1")])
    )
    assert oracle_theory(eng.state()) == oracle_theory(state2)


def test_holder_completeness_and_version_monotonicity():
    eng = engine_with(
        users=["u1", "u2", "u3"], roles=["r1", "r2"], files=["f1", "f2"],
        ur=[("u1", "r1"), ("u2", "r1"), ("u3", "r2")],
        pa=[("r1", "f1", RW), ("r2", "f1", READ), ("r2", "f2", RW)],
    )
    seen = {fn: 0 for fn in eng.files}
    for lbl in [
        Label("revokeU", user="u2", role="r1"),
        Label("revokeU", user="u3", role="r2"),
        Label("assignP", role="r1", file="f2", op=READ),
        Label("revokeP", role="r2", file="f1", op=RW),
    ]:
        eng.apply_label(lbl)
        for fn, vfn in eng.files.items():
            assert vfn >= seen[fn]  # never decreases
            seen[fn] = vfn
            assert eng.fs.f[fn].fields.version <= vfn
            for h, f, v in eng.fs.fk:
                # every current holder holds an unbroken run of versions
                if (f, v) == (fn, vfn):
                    assert fk_versions(eng, h, fn) == list(range(1, vfn + 1))
    # f1 re-keyed by both user revocations and the full permission
    # revocation; f2 only by the second user revocation
    assert eng.files == {"f1": 4, "f2": 2}


def test_identical_builds_dump_identically():
    spec = dict(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)],
    )
    assert engine_with(**spec).dump() == engine_with(**spec).dump()


# -- the conventional public-key variant


def test_bindings_registry():
    assert set(BINDINGS) == {"ibe", "pki"}
    assert Engine("pki").provider.name == "pki"
    assert Engine().provider.name == "ibe"


PARITY_TRACE = [
    Label("addU", user="u1"),
    Label("addU", user="u2"),
    Label("addR", role="r1"),
    Label("addP", file="f1"),
    Label("assignU", user="u1", role="r1"),
    Label("assignU", user="u2", role="r1"),
    Label("assignP", role="r1", file="f1", op=RW),
    Label("revokeU", user="u2", role="r1"),
    Label("revokeP", role="r1", file="f1", op=WRITE),
    Label("delU", user="u1"),
    Label("delR", role="r1"),
    Label("delP", file="f1"),
]


def test_pki_variant_counts_match_under_renaming():
    ibe, pki = Engine("ibe"), Engine("pki")
    for lbl in PARITY_TRACE:
        a = measure_label(ibe, lbl)
        b = measure_label(pki, lbl)
        assert a.renamed(IBE_TO_PKI) == b, lbl
    assert oracle_theory(ibe.state()) == frozenset()
    assert oracle_theory(pki.state()) == frozenset()


def test_pki_data_path():
    eng = engine_with(
        users=["u1", "u2"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1")], pa=[("r1", "f1", RW)],
        binding="pki",
    )
    cost, body = measure(eng, eng.read_file, "u1", "f1")
    assert body == b"body:f1"
    assert cost.totals() == {"sig_ver": 2, "pke_dec": 2, "sym_dec": 1}
    eng.write_file("u1", "f1", b"pk write")
    assert eng.read_file("u1", "f1") == b"pk write"
    # revocation still locks out the departed member's cached material
    p = eng.provider
    _, role_dec, _ = p.dec(
        eng.users["u2"].dec_key, eng.fs.rk[("u2", "r1", 1)].fields.ct
    )
    eng.revoke_user("u2", "r1")
    eng.write_file("u1", "f1", b"rotated")
    with pytest.raises(UnauthorizedDecrypt):
        p.dec(role_dec, eng.fs.fk[("r1", "f1", 2)].fields.ct)


def test_pki_verification_survives_uploader_departure():
    # tuples signed by a since-deleted user must still verify: the grant
    # below checks the uploader's signature on the wrapped file key after
    # the uploader is gone
    eng = engine_with(binding="pki", users=["u1", "u2"])
    eng.add_file("u1", "f9", b"uploaded")
    eng.add_role("r1")
    eng.assign_user("u2", "r1")
    eng.del_user("u1")
    eng.assign_perm("r1", "f9", READ)
    assert eng.read_file("u2", "f9") == b"uploaded"


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_re_added_uploader_leaves_their_upload_verifiable(binding):
    # the uploader deleted and added again under the same name gets new keys
    # (pki), yet SU's key at version 1, which the old keys signed, must still
    # verify: both for a fresh grant and for a revocation that re-keys it
    eng = engine_with(
        users=["u1", "u2"], roles=["r1", "r2"],
        ur=[("u1", "r1"), ("u1", "r2")], binding=binding,
    )
    eng.add_file("u2", "f1", b"uploaded")
    eng.assign_perm("r2", "f1", READ)
    eng.del_user("u2")
    eng.add_user("u2")
    eng.assign_perm("r1", "f1", READ)
    assert eng.read_file("u1", "f1") == b"uploaded"
    eng.revoke_user("u1", "r2")  # r2 holds f1 at key version 1
    assert eng.files["f1"] == 2
    assert eng.read_file("u1", "f1") == b"uploaded"


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_re_created_role_is_closed_to_keys_cached_from_its_old_versions(
    binding,
):
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"], ur=[("u1", "r1")],
        pa=[("r1", "f1", READ)], binding=binding,
    )
    p = eng.provider
    _, role_dec, _ = p.dec(
        eng.users["u1"].dec_key, eng.fs.rk[("u1", "r1", 1)].fields.ct
    )
    eng.del_role("r1")
    eng.add_role("r1")
    eng.add_file(SUPERUSER, "f2", b"file:f2")
    eng.assign_perm("r1", "f2", READ)
    with pytest.raises(UnauthorizedDecrypt):
        p.dec(role_dec, eng.fs.fk[("r1", "f2", 1)].fields.ct)
    with pytest.raises(AuthorizationError):
        eng.read_file("u1", "f2")
    # the new role starts one past the last version of the old one
    assert eng.roles["r1"].version == 2


# -- forking a seeded engine

FORK_START = Dataset(
    name="fork",
    users=("u1", "u2", "u3"),
    roles=("r1", "r2"),
    perms=("f1", "f2"),
    ur=(("u1", "r1"), ("u2", "r1"), ("u3", "r2")),
    pa=(("r1", "f1"), ("r1", "f2"), ("r2", "f2")),
)

FORK_TRACE = [
    Label("revokeU", user="u2", role="r1"),
    Label("addU", user="u4"),
    Label("assignU", user="u4", role="r2"),
    Label("revokeP", role="r1", file="f2", op=RW),
    Label("assignP", role="r2", file="f1", op=READ),
    Label("revokeU", user="u1", role="r1"),
]


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_fork_equals_original(binding):
    eng = seed_engine(FORK_START, binding)
    fork = eng.fork()
    assert fork.dump() == eng.dump()
    assert fork.provider.snapshot() == eng.provider.snapshot()
    assert fork.provider.name == binding


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_fork_continues_like_a_fresh_seed(binding):
    # revokeU mints role key pairs, so under pki the fork must continue the
    # serials where the original left off
    fork = seed_engine(FORK_START, binding).fork()
    fresh = seed_engine(FORK_START, binding)
    for lbl in FORK_TRACE:
        assert measure_label(fork, lbl) == measure_label(fresh, lbl), lbl
    fork.write_file("u4", "f2", b"w")
    fresh.write_file("u4", "f2", b"w")
    assert fork.dump() == fresh.dump()
    assert fork.provider.snapshot() == fresh.provider.snapshot()


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_fork_is_independent_of_original(binding):
    eng = seed_engine(FORK_START, binding)
    fired = []
    eng.fs.on_mutation = lambda: fired.append(1)
    before, snap = eng.dump(), eng.provider.snapshot()
    record = copy.deepcopy(_record(eng))
    fork = eng.fork()
    for lbl in FORK_TRACE:
        fork.apply_label(lbl)
    assert fired == []  # the mutation hook is not inherited
    assert eng.dump() == before
    assert eng.provider.snapshot() == snap
    assert _record(eng) == record  # the fork shares no inner set or map
    # replaying the trace on the original reaches the fork's state
    eng.fs.on_mutation = None
    for lbl in FORK_TRACE:
        eng.apply_label(lbl)
    assert eng.dump() == fork.dump()
    assert _record(eng) == _record(fork)


def _containers(obj):
    """The ids of every dict, set and list that ``obj``'s attributes hold,
    and of every such container inside those (through tuples too)."""
    ids, todo = set(), list(vars(obj).values())
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (set, frozenset, list, tuple)):
            todo += x
        else:
            continue
        if not isinstance(x, (frozenset, tuple)):
            ids.add(id(x))
    return ids


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_fork_shares_no_container(binding):
    eng = seed_engine(FORK_START, binding)
    eng.add_file("u1", "f3", b"uploaded")
    eng.del_role("r2")
    assert eng.uploads and eng.retired
    fork = eng.fork()
    for a, b in ((eng, fork), (eng.fs, fork.fs), (eng.provider, fork.provider)):
        assert not _containers(a) & _containers(b), type(a).__name__


# -- the administrator's record


_KIND_WEIGHTS = {  # grow the state: grants outweigh deletions
    "addU": 2, "delU": 1, "addP": 2, "delP": 1, "addR": 2, "delR": 1,
    "assignU": 6, "revokeU": 4, "assignP": 6, "revokeP": 3,
}


def _random_label(rng, eng, n):
    """A label over the engine's own names, or a fresh name (always for an
    add, rarely otherwise); some are no-ops or name something missing."""
    kind = rng.choices(list(_KIND_WEIGHTS), list(_KIND_WEIGHTS.values()))[0]
    fresh = kind.startswith("add") or rng.random() < 0.05

    def pick(prefix, names):
        if fresh or not names:
            return f"{prefix}{n}"
        return rng.choice(sorted(names))

    ops = (WRITE, RW) if kind == "revokeP" else (READ, RW)
    return Label(
        kind, user=pick("u", eng.users), role=pick("r", eng.roles),
        file=pick("f", eng.files), op=rng.choice(ops),
    )


def _record(eng):
    """The engine's record of UR and PA, as plain maps."""
    return eng.members, eng.ops, eng.holders, eng.roles_of


def _assert_record_agrees(eng):
    """The record holds exactly the UR and PA of ``eng.state()``, over the
    engine's roles and files, ``holders`` inverts ``ops`` and ``roles_of``
    inverts ``members`` over every user; the store holds exactly the keys
    the record implies: an RK tuple for each member and SU at the role's
    version, an FK tuple for each holder and SU at every version of the
    file's key, and one F tuple per file.  Each tuple holds what the record
    implies: an RK tuple wraps its role's current keys; an FK tuple wraps
    SU's key at its version, with the op the record grants, its holder's
    current identity and its expected issuer; an F tuple sits at the
    version of the last body accepted."""
    state = eng.state()
    assert eng.members.keys() == eng.ops.keys() == eng.roles.keys()
    assert eng.holders.keys() == eng.files.keys()
    ur = {(m, r) for r, ms in eng.members.items() for m in ms}
    pa = {(r, fn, op) for r, ops in eng.ops.items() for fn, op in ops.items()}
    assert (ur, pa) == (state.ur, state.pa)
    assert {(r, fn) for r, fn, _ in pa} == {
        (r, fn) for fn, rs in eng.holders.items() for r in rs
    }
    assert eng.roles_of == {
        u: {r for r, ms in eng.members.items() if u in ms} for u in eng.users
    }
    su = {SUPERUSER}
    assert set(eng.fs.rk) == {
        (m, r, rec.version)
        for r, rec in eng.roles.items() for m in eng.members[r] | su
    }
    assert set(eng.fs.fk) == {
        (h, fn, v)
        for fn, n in eng.files.items() for h in eng.holders[fn] | su
        for v in range(1, n + 1)
    }
    assert set(eng.fs.f) == set(eng.files)
    for (_, r, _), t in eng.fs.rk.items():
        keys = eng.roles[r].keys
        assert t.fields.ct.payload == ("role-keys", keys.dec_key, keys.sig_key)
    for (h, fn, v), t in eng.fs.fk.items():
        fk, su_fk = t.fields, eng.fs.fk[(SUPERUSER, fn, v)].fields
        assert fk.ct.payload == su_fk.ct.payload, (h, fn, v)
        assert (fk.op, fk.holder, fk.issuer) == (
            RW if h == SUPERUSER else eng.ops[h][fn],
            eng._wrap_target(h)[0], eng._fk_signer((h, fn, v))[0],
        )
    for fn, t in eng.fs.f.items():
        assert t.fields.version == eng.body_versions[fn]


def _drive(rng, eng, steps):
    """``steps`` random labels, with the record checked after each."""
    for n in range(steps):
        try:
            eng.apply_label(_random_label(rng, eng, n))
        except RbacError:
            pass
        _assert_record_agrees(eng)


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("seed", range(4))
def test_record_agrees_with_state(binding, seed):
    rng = random.Random(seed)
    eng = seed_engine(FORK_START, binding)
    _assert_record_agrees(eng)
    _drive(rng, eng, 200)
    before, record = eng.dump(), copy.deepcopy(_record(eng))
    fork = eng.fork()
    _drive(rng, fork, 200)
    assert eng.dump() == before
    assert _record(eng) == record


class _StaleFkEngine(Engine):
    """Deliberately broken: revoking a role's grant deletes its FK tuples
    from version 2, so its key at version 1 stays in the store.  UR and PA,
    read at current versions, never show it."""

    def _revoke_perm_full(self, r, fn):
        for v in range(2, self.files[fn] + 1):
            self.fs.del_fk(r, fn, v)
        del self.ops[r][fn]
        self.holders[fn].discard(r)
        self._issue_new_file_key(fn)


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("seed", range(4))
def test_record_check_sees_a_stale_fk_tuple(monkeypatch, binding, seed):
    monkeypatch.setattr("rolecrypt.equivalence.Engine", _StaleFkEngine)
    eng = seed_engine(FORK_START, binding)
    _assert_record_agrees(eng)
    with pytest.raises(AssertionError) as exc:
        _drive(random.Random(seed), eng, 200)
    assert "eng.fs.fk" in str(exc.traceback[-1].statement)


@pytest.mark.parametrize("binding", sorted(BINDINGS))
@pytest.mark.parametrize("seed", range(4))
def test_record_check_sees_a_split_file_key(monkeypatch, binding, seed):
    # a roll that wraps one fresh key for SU and another for the roles
    # leaves every key in place; only the FK content check sees it
    monkeypatch.setattr("rolecrypt.equivalence.Engine", _SplitKeyEngine)
    eng = seed_engine(FORK_START, binding)
    _assert_record_agrees(eng)
    with pytest.raises(AssertionError) as exc:
        _drive(random.Random(seed), eng, 200)
    assert "su_fk.ct.payload" in str(exc.traceback[-1].statement)


# -- records


def _records(binding):
    """One instance of every record type, from a small engine."""
    eng = engine_with(
        users=["u1"], roles=["r1"], files=["f1"],
        ur=[("u1", "r1")], pa=[("r1", "f1", RW)], binding=binding,
    )
    rk, fk = eng.fs.rk[("u1", "r1", 1)], eng.fs.fk[("r1", "f1", 1)]
    return [
        fk.fields.holder, eng.users["u1"].dec_key, fk.fields.ct, fk.sig,
        rk, fk, eng.fs.f["f1"], eng.users["u1"], eng.roles["r1"],
        rk.fields, fk.fields, eng.fs.f["f1"].fields,
    ]


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_records_are_slotted_frozen_and_round_trip(binding):
    records = _records(binding)
    assert [type(r).__name__ for r in records] == [
        "Identity", "SymbolicKey", "SymbolicCiphertext", "SymbolicSignature",
        "Signed", "Signed", "Signed", "KeyRing", "RoleRec",
        "RkBody", "FkBody", "FBody",
    ]
    for rec in records:
        name = dataclasses.fields(rec)[0].name
        assert not hasattr(rec, "__dict__"), type(rec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            object.__setattr__(rec, "extra", 1)
        by_name = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
        for twin in (
            copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec)),
            type(rec)(**by_name), dataclasses.replace(rec),
            dataclasses.replace(rec, **{name: getattr(rec, name)}),
        ):
            assert type(twin) is type(rec)
            assert twin == rec and hash(twin) == hash(rec)
        # the constructor is the one a plain frozen, slotted dataclass has
        plain = dataclasses.make_dataclass(
            type(rec).__name__,
            [
                (f.name, f.type, dataclasses.field(default=f.default))
                for f in dataclasses.fields(rec)
            ],
            frozen=True, slots=True,
        )
        assert inspect.signature(type(rec)) == inspect.signature(plain)
    assert SymbolicKey("sym") == SymbolicKey(alg="sym", owner=None, serial=None)
    with pytest.raises(ValueError, match="bad identity kind"):
        Identity("bogus", "x")  # __post_init__ still runs


def test_file_deletion_order_is_holder_then_version():
    # the store's mutation hook sees the deletions in this order
    eng = engine_with(
        users=["u1", "u2"], roles=["r2", "r1"], files=["f1"],
        ur=[("u1", "r1"), ("u2", "r1"), ("u1", "r2")],
        pa=[("r2", "f1", READ), ("r1", "f1", RW)],
    )
    eng.revoke_user("u2", "r1")  # f1 moves to file-key version 2
    deleted = []
    real = eng.fs.del_fk

    def del_fk(holder, fn, version):
        deleted.append((holder, version))
        real(holder, fn, version)

    eng.fs.del_fk = del_fk
    eng.del_file("f1")
    assert deleted == [(h, v) for h in ("SU", "r1", "r2") for v in (1, 2)]
    assert not eng.fs.fk
