"""Reference-model semantics: labels, warnings, errors, queries."""

import copy
import dataclasses
import inspect
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolecrypt.rbac import (
    READ,
    RW,
    LABEL_KINDS,
    SUPERUSER,
    WRITE,
    Label,
    RbacError,
    RbacState,
    apply_label,
    auth_facts,
    eval_query,
    grants,
    theory,
)
from rolecrypt.rbac import _OPS
from rolecrypt.equivalence import TraceBuilder


def lab(kind, **kw):
    return Label(kind, **kw)


def run(*labels, state=None, warnings=None):
    state = state if state is not None else RbacState()
    cb = warnings.append if warnings is not None else None
    for label in labels:
        state = apply_label(state, label, on_warning=cb)
    return state


def check_invariants(state):
    """Raise AssertionError if referential integrity is broken, or if the
    indexes the state carries differ from those ``ur`` and ``pa`` give.
    It raises explicitly, so it checks under ``python -O`` too."""
    if SUPERUSER in state.users or SUPERUSER in state.roles:
        raise AssertionError
    for u, r in state.ur:
        if u not in state.users or r not in state.roles:
            raise AssertionError((u, r))
    seen = set()
    for r, f, op in state.pa:
        if r not in state.roles or f not in state.perms:
            raise AssertionError((r, f))
        if op not in (READ, RW):
            raise AssertionError(op)
        if (r, f) in seen:
            raise AssertionError(f"two ops for {(r, f)}")
        seen.add((r, f))
    if state._index != dataclasses.replace(state)._index:
        raise AssertionError("stale index")


BASE = run(
    lab("addU", user="u1"),
    lab("addU", user="u2"),
    lab("addR", role="r1"),
    lab("addR", role="r2"),
    lab("addP", file="f1"),
    lab("addP", file="f2"),
    lab("assignU", user="u1", role="r1"),
    lab("assignP", role="r1", file="f1", op=RW),
    lab("assignP", role="r2", file="f1", op=READ),
)


# -- label construction


def test_label_kinds_are_pinned():
    # bench per-layer metric names follow this order
    assert LABEL_KINDS == (
        "addU", "delU", "addP", "delP", "addR", "delR",
        "assignU", "revokeU", "assignP", "revokeP",
    )


_REQUIRED = {
    "addU": ("user",),
    "delU": ("user",),
    "addP": ("file",),
    "delP": ("file",),
    "addR": ("role",),
    "delR": ("role",),
    "assignU": ("user", "role"),
    "revokeU": ("user", "role"),
    "assignP": ("role", "file", "op"),
    "revokeP": ("role", "file", "op"),
}


@pytest.mark.parametrize(
    "kind, field",
    [(k, f) for k, fields in _REQUIRED.items() for f in fields],
)
def test_label_requires_fields(kind, field):
    op = WRITE if kind == "revokeP" else READ
    full = {"user": "u", "role": "r", "file": "f", "op": op}
    kw = {f: full[f] for f in _REQUIRED[kind]}
    Label(kind, **kw)
    kw[field] = None
    with pytest.raises(ValueError) as exc:
        Label(kind, **kw)
    assert str(exc.value) == f"label {kind} requires {field}"


def test_label_rejects_unknown_kind():
    with pytest.raises(ValueError) as exc:
        Label("frobnicate", user="u")
    assert str(exc.value) == "unknown label kind 'frobnicate'"


@pytest.mark.parametrize("field", ["user", "role", "file"])
def test_label_rejects_a_name_utf8_cannot_encode(field):
    Label("assignP", role="r\u00e9", file="f\u00e9", op=READ)  # encodable
    kind = {"user": "addU", "role": "addR", "file": "addP"}[field]
    with pytest.raises(ValueError) as exc:
        Label(kind, **{field: "\ud800"})
    assert str(exc.value) == (
        f"label {kind} {field} '\\ud800': UTF-8 cannot encode it"
    )


def test_label_op_domains():
    Label("assignP", role="r", file="f", op=READ)
    Label("assignP", role="r", file="f", op=RW)
    with pytest.raises(ValueError) as exc:
        Label("assignP", role="r", file="f", op=WRITE)
    assert str(exc.value) == "assignP op must be one of ('Read', 'RW')"
    Label("revokeP", role="r", file="f", op=WRITE)
    Label("revokeP", role="r", file="f", op=RW)
    with pytest.raises(ValueError) as exc:
        Label("revokeP", role="r", file="f", op=READ)
    assert str(exc.value) == "revokeP op must be one of ('Write', 'RW')"


def test_label_checks_in_order():
    # a missing field is named before a bad op or a name UTF-8 cannot encode
    for args, message in [
        (("assignU", "\ud800"), "label assignU requires role"),
        (("assignP", None, "\ud800", None, WRITE),
         "label assignP requires file"),
        (("revokeP", None, "\ud800", "f", READ),
         "revokeP op must be one of ('Write', 'RW')"),
        (("assignU", "\ud800", "\udc80"),
         "label assignU user '\\ud800': UTF-8 cannot encode it"),
    ]:
        with pytest.raises(ValueError) as exc:
            Label(*args)
        assert str(exc.value) == message


def test_label_is_a_slotted_frozen_record():
    lbl = Label("assignP", role="r1", file="f1", op=RW)
    assert not hasattr(lbl, "__dict__")
    assert type(lbl).__init__.__code__.co_filename == "<record Label>"
    with pytest.raises(dataclasses.FrozenInstanceError):
        lbl.op = READ
    assert repr(lbl) == (
        "Label(kind='assignP', user=None, role='r1', file='f1', op='RW')"
    )
    assert hash(lbl) == hash(("assignP", None, "r1", "f1", RW))
    for twin in (
        copy.copy(lbl), copy.deepcopy(lbl), pickle.loads(pickle.dumps(lbl)),
        dataclasses.replace(lbl), Label("assignP", None, "r1", "f1", RW),
    ):
        assert twin == lbl and hash(twin) == hash(lbl)
    assert lbl != Label("assignP", role="r1", file="f1", op=READ)
    assert dataclasses.replace(lbl, op=READ).op == READ
    with pytest.raises(ValueError, match="assignP op must be one of"):
        dataclasses.replace(lbl, op=WRITE)  # __post_init__ still runs
    plain = dataclasses.make_dataclass(
        "Label",
        [
            (f.name, f.type, dataclasses.field(default=f.default))
            for f in dataclasses.fields(Label)
        ],
        frozen=True, slots=True,
    )
    assert inspect.signature(Label) == inspect.signature(plain)


def test_label_str():
    assert str(lab("assignU", user="u1", role="r1")) == "assignU(u1, r1)"
    assert str(lab("revokeP", role="r", file="f", op=RW)) == "revokeP(r, f, RW)"


# -- add/delete semantics


def test_add_and_delete_user():
    s = run(lab("addU", user="u1"))
    assert s.users == {"u1"}
    s = apply_label(s, lab("delU", user="u1"))
    assert s.users == frozenset()


def test_superuser_name_reserved():
    with pytest.raises(RbacError):
        apply_label(RbacState(), lab("addU", user=SUPERUSER))


def test_superuser_role_name_reserved():
    with pytest.raises(RbacError, match="'SU' is reserved"):
        apply_label(RbacState(), lab("addR", role=SUPERUSER))


def test_duplicate_add_warns_and_keeps_state():
    warnings = []
    s = run(lab("addU", user="u1"), warnings=warnings)
    s2 = apply_label(s, lab("addU", user="u1"), warnings.append)
    assert s2 is s  # no-op returns the same object
    assert len(warnings) == 1


def test_delete_user_drops_memberships():
    s = apply_label(BASE, lab("delU", user="u1"))
    assert ("u1", "r1") not in s.ur
    assert s.pa == BASE.pa  # grants belong to the role, not the member


def test_delete_role_drops_memberships_and_grants():
    s = apply_label(BASE, lab("delR", role="r1"))
    assert all(r != "r1" for _, r in s.ur)
    assert all(r != "r1" for r, _, _ in s.pa)
    assert ("r2", "f1", READ) in s.pa


def test_delete_file_drops_grants():
    s = apply_label(BASE, lab("delP", file="f1"))
    assert s.pa == frozenset()
    assert s.perms == {"f2"}


def test_absent_delete_warns():
    warnings = []
    s = apply_label(RbacState(), lab("delP", file="nope"), warnings.append)
    assert s == RbacState() and warnings


# -- assignment semantics


def test_assign_user_requires_existing_names():
    with pytest.raises(RbacError):
        apply_label(BASE, lab("assignU", user="ghost", role="r1"))
    with pytest.raises(RbacError):
        apply_label(BASE, lab("assignU", user="u1", role="ghost"))
    with pytest.raises(RbacError):
        apply_label(BASE, lab("assignP", role="r1", file="ghost", op=READ))


def test_assign_perm_upgrade_replaces():
    s = apply_label(BASE, lab("assignP", role="r2", file="f1", op=RW))
    assert s.pa_op("r2", "f1") == RW
    assert ("r2", "f1", READ) not in s.pa


def test_assign_perm_redundant_warns():
    warnings = []
    # exact op already held
    s = apply_label(BASE, lab("assignP", role="r2", file="f1", op=READ), warnings.append)
    assert s is BASE
    # read when full access already held
    s = apply_label(BASE, lab("assignP", role="r1", file="f1", op=READ), warnings.append)
    assert s is BASE
    assert len(warnings) == 2


def test_revoke_write_downgrades():
    s = apply_label(BASE, lab("revokeP", role="r1", file="f1", op=WRITE))
    assert s.pa_op("r1", "f1") == READ


def test_revoke_write_without_write_warns():
    warnings = []
    s = apply_label(BASE, lab("revokeP", role="r2", file="f1", op=WRITE), warnings.append)
    assert s is BASE and warnings


def test_revoke_full_removes_grant():
    for held_op in (READ, RW):
        role = "r2" if held_op == READ else "r1"
        s = apply_label(BASE, lab("revokeP", role=role, file="f1", op=RW))
        assert s.pa_op(role, "f1") is None


def test_revoke_user_not_member_warns():
    warnings = []
    s = apply_label(BASE, lab("revokeU", user="u2", role="r1"), warnings.append)
    assert s is BASE and warnings


# -- queries


def test_grants_subsumption():
    assert grants(RW, READ)
    assert grants(RW, RW)
    assert grants(READ, READ)
    assert not grants(READ, RW)


def test_eval_query_forms():
    assert eval_query(BASE, ("UR", "u1", "r1"))
    assert not eval_query(BASE, ("UR", "u2", "r1"))
    assert eval_query(BASE, ("PA", "r1", "f1", RW))
    assert not eval_query(BASE, ("PA", "r1", "f1", READ))
    assert eval_query(BASE, ("R", "r2"))
    assert eval_query(BASE, ("auth", "u1", "f1", READ))  # via RW
    assert eval_query(BASE, ("auth", "u1", "f1", RW))
    assert not eval_query(BASE, ("auth", "u2", "f1", READ))
    with pytest.raises(ValueError):
        eval_query(BASE, ("huh", "x"))


def test_theory_census():
    want = {
        ("R", "r1"),
        ("R", "r2"),
        ("UR", "u1", "r1"),
        ("PA", "r1", "f1", RW),
        ("PA", "r2", "f1", READ),
        ("auth", "u1", "f1", READ),
        ("auth", "u1", "f1", RW),
    }
    assert theory(BASE) == want
    assert auth_facts(BASE) == {f for f in want if f[0] == "auth"}


def test_theory_matches_eval_query():
    for fact in theory(BASE):
        assert eval_query(BASE, fact)


def test_helpers():
    assert BASE.roles_of("u1") == {"r1"}
    assert BASE.members_of("r1") == {"u1"}
    assert BASE.holders_of("f1") == {"r1", "r2"}


def test_carried_indexes_equal_rebuilt_ones():
    # TraceBuilder traces cover every label kind, including the delU, delR
    # and delP that the simulate actor never issues
    kinds = set()
    for seed in range(20):
        s = RbacState()
        for lbl in TraceBuilder(random.Random(seed)).build(60):
            s = apply_label(s, lbl)
            kinds.add(lbl.kind)
            rebuilt = RbacState(s.users, s.roles, s.perms, s.ur, s.pa)
            assert s._index == rebuilt._index, lbl
            check_invariants(s)
    assert kinds == set(LABEL_KINDS)


def test_successor_shares_untouched_index_entries():
    s = apply_label(BASE, lab("assignU", user="u2", role="r1"))
    assert s.members_of("r1") == {"u1", "u2"} and s.roles_of("u2") == {"r1"}
    assert s.roles_of("u1") is BASE.roles_of("u1")
    assert s.files_of("r1") is BASE.files_of("r1")
    assert s.holders_of("f1") is BASE.holders_of("f1")


def test_check_invariants_rejects_a_stale_index():
    s = RbacState(BASE.users, BASE.roles, BASE.perms, BASE.ur, BASE.pa)
    s.__dict__["_index"] = apply_label(
        BASE, lab("revokeU", user="u1", role="r1")
    )._index
    with pytest.raises(AssertionError, match="stale index"):
        check_invariants(s)


def test_check_invariants_rejects_a_stale_op_entry():
    s = RbacState(BASE.users, BASE.roles, BASE.perms, BASE.ur, BASE.pa)
    index = list(BASE._index)
    assert index[_OPS]["r1"] == {"f1": RW}
    index[_OPS] = {**index[_OPS], "r1": {"f1": READ}}
    s.__dict__["_index"] = tuple(index)
    with pytest.raises(AssertionError, match="stale index"):
        check_invariants(s)


# -- relations: an independent oracle of each label's effect on UR and PA


def _effect(state, label):
    """The UR and PA after ``label``, as plain sets computed from
    ``state``'s relations alone."""
    ur, pa = set(state.ur), set(state.pa)
    k, u, r, f, op = label.kind, label.user, label.role, label.file, label.op
    held = {t for t in pa if t[:2] == (r, f)}
    if k == "delU":
        ur = {p for p in ur if p[0] != u}
    elif k == "delR":
        ur = {p for p in ur if p[1] != r}
        pa = {t for t in pa if t[0] != r}
    elif k == "delP":
        pa = {t for t in pa if t[1] != f}
    elif k == "assignU":
        ur.add((u, r))
    elif k == "revokeU":
        ur.discard((u, r))
    elif k == "assignP" and not held & {(r, f, RW), (r, f, op)}:
        pa = pa - held | {(r, f, op)}
    elif k == "revokeP" and op == RW:
        pa -= held
    elif k == "revokeP" and (r, f, RW) in held:
        pa = pa - held | {(r, f, READ)}
    return ur, pa


def _check_edits(label, pre, post, ur, pa):
    """``post``'s edits, none if it is ``pre``, are the oracle's change of
    UR and PA from ``pre`` to (``ur``, ``pa``): each entry listed once, and
    what is gone and what is new disjoint."""
    edits = RbacState.edits if post is pre else post.edits
    for gone, new, was, now in zip(
        edits[::2], edits[1::2], (pre.ur, pre.pa), (ur, pa)
    ):
        assert len(set(gone)) == len(gone), label
        assert len(set(new)) == len(new), label
        assert not set(gone) & set(new), label
        assert set(gone) == was - now and set(new) == now - was, label


def _oracle_walk(labels, read_at_once):
    """Apply ``labels`` from the empty state, skipping those the model
    rejects; return each successor with the relations the oracle expects of
    it.  With ``read_at_once`` every successor's relations and edits are
    checked as soon as it exists, else none is read during the walk."""
    s, out = RbacState(), []
    for lbl in labels:
        expected = _effect(s, lbl) if read_at_once else None
        try:
            nxt = apply_label(s, lbl)
        except RbacError:
            continue
        if read_at_once:
            assert (nxt.ur, nxt.pa) == expected, lbl
            _check_edits(lbl, s, nxt, *expected)
        out.append((lbl, s, nxt))
        s = nxt
    return out


def _trace_kinds_and_check(labels):
    """Every successor's relations equal the oracle's, read at once and
    read only after the whole trace, in reverse order, and its edits are
    exact; returns the kinds."""
    _oracle_walk(labels, read_at_once=True)
    walk = _oracle_walk(labels, read_at_once=False)
    for lbl, pre, s in reversed(walk):
        expected = _effect(pre, lbl)
        assert (s.ur, s.pa) == expected, lbl
        _check_edits(lbl, pre, s, *expected)
        check_invariants(s)
    return {lbl.kind for lbl, _, _ in walk}


def test_relations_equal_an_independent_oracle():
    kinds = set()
    for seed in range(20):
        kinds |= _trace_kinds_and_check(
            TraceBuilder(random.Random(seed)).build(60)
        )
    assert kinds == set(LABEL_KINDS)


def test_long_unread_chain_builds_its_relations():
    s = run(*[lab("addU", user=f"u{i}") for i in range(10)],
            lab("addR", role="r"), lab("addP", file="f"))
    want_ur, want_pa = set(), set()
    for i in range(5000):
        if i % 2:
            pair = (f"u{i % 10}", "r")
            kind = "revokeU" if pair in want_ur else "assignU"
            want_ur ^= {pair}
            s = apply_label(s, lab(kind, user=pair[0], role="r"))
        else:
            kind = "revokeP" if want_pa else "assignP"
            want_pa ^= {("r", "f", RW)}
            s = apply_label(s, lab(kind, role="r", file="f", op=RW))
    assert "ur" not in vars(s)  # nothing has read the chain's relations
    assert (s.ur, s.pa) == (want_ur, want_pa)
    check_invariants(s)


# -- property: invariants hold along any trace of well-formed labels

_USERS = st.sampled_from(["a", "b", "c"])
_ROLES = st.sampled_from(["p", "q"])
_FILES = st.sampled_from(["x", "y"])


def _labels():
    return st.one_of(
        st.builds(lambda u: lab("addU", user=u), _USERS),
        st.builds(lambda u: lab("delU", user=u), _USERS),
        st.builds(lambda r: lab("addR", role=r), _ROLES),
        st.builds(lambda r: lab("delR", role=r), _ROLES),
        st.builds(lambda f: lab("addP", file=f), _FILES),
        st.builds(lambda f: lab("delP", file=f), _FILES),
        st.builds(lambda u, r: lab("assignU", user=u, role=r), _USERS, _ROLES),
        st.builds(lambda u, r: lab("revokeU", user=u, role=r), _USERS, _ROLES),
        st.builds(
            lambda r, f, op: lab("assignP", role=r, file=f, op=op),
            _ROLES, _FILES, st.sampled_from([READ, RW]),
        ),
        st.builds(
            lambda r, f, op: lab("revokeP", role=r, file=f, op=op),
            _ROLES, _FILES, st.sampled_from([WRITE, RW]),
        ),
    )


@settings(deadline=None)
@given(st.lists(_labels(), max_size=60))
def test_trace_preserves_invariants(labels):
    s = RbacState()
    for l in labels:
        try:
            s = apply_label(s, l)
        except RbacError:
            continue
        check_invariants(s)
        # full access always implies read access
        facts = theory(s)
        for f in facts:
            if f[0] == "auth" and f[3] == RW:
                assert ("auth", f[1], f[2], READ) in facts


@settings(deadline=None)
@given(st.lists(_labels(), max_size=60))
def test_relations_equal_an_independent_oracle_on_any_trace(labels):
    _trace_kinds_and_check(labels)
