"""Reference model of flat role-based access control with two access levels.

This is the plain in-memory oracle the cryptographic engines are tested
against.  States are immutable; labels (administrative commands) produce new
states.  Permissions are files, and a role holds at most one access level per
file: ``Read`` or ``RW``.  ``RW`` subsumes ``Read`` for authorization queries
but not for exact assignment queries.

A label never copies a relation.  The successor it makes is its indexes
(user -> roles, role -> members, role -> {file: op}, file -> holders), the
predecessor's with only the touched entries edited, plus the label's edits:
the UR pairs and PA triples it removed and added.  It derives UR from the
user index and PA from the op index, in one pass each, only when something
reads them.  Every per-name query, ``pa_op`` included, answers from the
indexes, so pricing and applying a trace (as ``simulate`` does) reads
neither relation, and a lockstep checker reads a step's changes from the
edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

from .crypto import record

READ = "Read"
RW = "RW"
WRITE = "Write"

#: Reserved administrator name; never a member of ``users``.
SUPERUSER = "SU"

#: Label kind -> the fields it requires, in label-kind order.
_FIELDS = {
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

LABEL_KINDS = tuple(_FIELDS)

_ASSIGN_OPS = (READ, RW)
_REVOKE_OPS = (WRITE, RW)


def utf8_encodable(name: str) -> bool:
    """Whether UTF-8 can encode ``name``, as signed terms encode every name;
    surrogates are the only characters it cannot."""
    return name.isascii() or not any("\ud800" <= c <= "\udfff" for c in name)


@record
class Label:
    """One administrative command.

    Field usage by kind:
      addU/delU: user; addR/delR: role; addP/delP: file;
      assignU/revokeU: user, role;
      assignP: role, file, op in {Read, RW};
      revokeP: role, file, op in {Write, RW}.
    """

    kind: str
    user: Optional[str] = None
    role: Optional[str] = None
    file: Optional[str] = None
    op: Optional[str] = None

    def __post_init__(self) -> None:
        kind, op = self.kind, self.op
        need = _FIELDS.get(kind)
        if need is None:
            raise ValueError(f"unknown label kind {kind!r}")
        # ``need`` lists its fields in this order, so the first one missing
        # here is the first one missing there
        names = (("user", self.user), ("role", self.role), ("file", self.file))
        for f, v in names:
            if v is None and f in need:
                raise ValueError(f"label {kind} requires {f}")
        if op is None and "op" in need:
            raise ValueError(f"label {kind} requires op")
        if kind == "assignP" and op not in _ASSIGN_OPS:
            raise ValueError(f"assignP op must be one of {_ASSIGN_OPS}")
        if kind == "revokeP" and op not in _REVOKE_OPS:
            raise ValueError(f"revokeP op must be one of {_REVOKE_OPS}")
        for f, v in names:
            if v is not None and not v.isascii() and not utf8_encodable(v):
                raise ValueError(
                    f"label {kind} {f} {v!r}: UTF-8 cannot encode it"
                )

    def __str__(self) -> str:
        args = [
            v
            for v in (self.user, self.role, self.file, self.op)
            if v is not None
        ]
        return f"{self.kind}({', '.join(args)})"


_NONE: frozenset = frozenset()

#: Positions in ``RbacState._index`` of its four maps: role -> {file: op it
#: holds}, file -> roles holding it, role -> members, user -> roles.
_OPS, _HOLDERS, _MEMBERS, _ROLES = range(4)

_NO_OPS: dict[str, str] = {}


def _reindexed(index: tuple, ur_gone, ur_new, pa_gone, pa_new) -> tuple:
    """``index`` with the entries of the ``gone`` UR pairs and PA triples
    removed, then those of the ``new`` ones added, as the counting algorithm
    keeps an incremental view (Gupta, Mumick & Subrahmanian, SIGMOD 1993).
    Copy on write: a map or entry that changes is copied, and every other
    map and entry is shared."""
    if not (ur_gone or ur_new or pa_gone or pa_new):
        return index
    edits: dict = {}  # (map, key) -> that entry of index, copied

    def edit(i: int, key: str) -> set | dict:
        e = edits.get((i, key))
        if e is None:  # first touch
            held = index[i].get(key, ())
            e = edits[i, key] = dict(held) if i == _OPS else set(held)
        return e

    for u, r in ur_gone:
        edit(_ROLES, u).discard(r)
        edit(_MEMBERS, r).discard(u)
    for r, f, _ in pa_gone:
        del edit(_OPS, r)[f]
        edit(_HOLDERS, f).discard(r)
    for u, r in ur_new:
        edit(_ROLES, u).add(r)
        edit(_MEMBERS, r).add(u)
    for r, f, op in pa_new:
        edit(_OPS, r)[f] = op
        edit(_HOLDERS, f).add(r)
    out = list(index)
    for (i, key), e in edits.items():
        if out[i] is index[i]:
            out[i] = dict(index[i])
        if not e:
            out[i].pop(key, None)
        else:
            out[i][key] = e if i == _OPS else frozenset(e)
    return tuple(out)


def _ur_of(index: tuple) -> frozenset[tuple[str, str]]:
    return frozenset(
        [(u, r) for u, roles in index[_ROLES].items() for r in roles]
    )


def _pa_of(index: tuple) -> frozenset[tuple[str, str, str]]:
    return frozenset(
        [(r, f, op) for r, ops in index[_OPS].items() for f, op in ops.items()]
    )


class _Relation:
    """A relation field of ``RbacState``: its default is the empty set, and
    on a successor that has not yet been read it derives the relation from
    the successor's indexes, in one pass, on first access.  After that, or
    on a state built with its relations, the value sits in the instance and
    this descriptor is never consulted."""

    def __init__(self, derive: Callable[[tuple], frozenset]) -> None:
        self.derive = derive

    def __get__(self, state, owner=None):
        if state is None:
            return _NONE
        value = state.__dict__[self.name] = self.derive(state._index)
        return value

    def __set_name__(self, owner, name: str) -> None:
        self.name = name


@dataclass(frozen=True)
class RbacState:
    """Immutable snapshot: users, roles, permission objects, UR and PA relations.

    ``perms`` holds permission object names (files); each object induces the
    two ground query permissions (fn, Read) and (fn, RW).  ``pa`` entries are
    (role, file, op) with op in {Read, RW}, at most one per (role, file).

    The per-name accessors and ``pa_op`` answer from indexes of ``ur`` and
    ``pa``, built on first use and carried by ``apply_label`` to the
    successor state with only the touched entries edited.  A successor
    holds only those indexes and its ``edits``, the lists ``(ur_gone,
    ur_new, pa_gone, pa_new)`` that made it from its predecessor, and
    derives ``ur`` and ``pa`` from the indexes when something reads them,
    so applying a label copies neither relation.  A state built from its
    relations has no edits.  Equality, hashing, ``repr`` and ``replace``
    read the relations; a pickled successor carries its indexes.
    """

    users: frozenset[str] = frozenset()
    roles: frozenset[str] = frozenset()
    perms: frozenset[str] = frozenset()
    ur: frozenset[tuple[str, str]] = _Relation(_ur_of)
    pa: frozenset[tuple[str, str, str]] = _Relation(_pa_of)
    edits = ((), (), (), ())

    @cached_property
    def _index(self) -> tuple[dict, ...]:
        return _reindexed(({}, {}, {}, {}), (), self.ur, (), self.pa)

    def pa_op(self, role: str, fn: str) -> Optional[str]:
        """The op the role holds for the file, or None."""
        return self._index[_OPS].get(role, _NO_OPS).get(fn)

    def roles_of(self, user: str) -> frozenset[str]:
        return self._index[_ROLES].get(user, _NONE)

    def members_of(self, role: str) -> frozenset[str]:
        return self._index[_MEMBERS].get(role, _NONE)

    def holders_of(self, fn: str) -> frozenset[str]:
        return self._index[_HOLDERS].get(fn, _NONE)

    def files_of(self, role: str) -> Mapping[str, str]:
        """The files the role holds, each mapped to the op it holds."""
        return self._index[_OPS].get(role, _NO_OPS)


def _moved(
    state: RbacState, ur_gone=(), ur_new=(), pa_gone=(), pa_new=(), **fields
) -> RbacState:
    """The successor of ``state`` with the given lists of UR pairs and PA
    triples removed and added and ``fields`` replaced.  It holds
    ``state``'s indexes with only the entries those pairs and triples touch
    edited, and the lists themselves as its ``edits``."""
    edits = (ur_gone, ur_new, pa_gone, pa_new)
    new = object.__new__(RbacState)
    new.__dict__.update(
        users=fields.get("users", state.users),
        roles=fields.get("roles", state.roles),
        perms=fields.get("perms", state.perms),
        edits=edits,
        _index=_reindexed(state._index, *edits),
    )
    return new


def indexed_state(
    users: frozenset[str],
    roles: frozenset[str],
    perms: frozenset[str],
    ur: Iterable[tuple[str, str]],
    pa: Iterable[tuple[str, str, str]],
) -> RbacState:
    """``RbacState(users, roles, perms, ur, pa)``, with its four indexes
    built in one pass over the pairs and triples.  Like a successor, it
    derives UR and PA from them on first read, and it has no edits."""
    ops: dict[str, dict[str, str]] = {}
    holders: dict[str, set[str]] = {}
    members: dict[str, set[str]] = {}
    roles_of: dict[str, set[str]] = {}
    for u, r in ur:
        roles_of.setdefault(u, set()).add(r)
        members.setdefault(r, set()).add(u)
    for r, fn, op in pa:
        ops.setdefault(r, {})[fn] = op
        holders.setdefault(fn, set()).add(r)
    index = [ops]
    for m in (holders, members, roles_of):
        index.append({k: frozenset(v) for k, v in m.items()})
    new = object.__new__(RbacState)
    new.__dict__.update(
        users=users, roles=roles, perms=perms, _index=tuple(index)
    )
    return new


class RbacError(ValueError):
    """A label referenced a principal or object that does not exist."""


def _warn(on_warning: Optional[Callable[[str], None]], message: str) -> None:
    if on_warning is not None:
        on_warning(message)


def apply_label(
    state: RbacState,
    label: Label,
    on_warning: Optional[Callable[[str], None]] = None,
) -> RbacState:
    """Apply one administrative label, returning the successor state.

    Duplicate adds, absent deletes, already-satisfied assigns and not-held
    revokes return the state unchanged and report through ``on_warning``.
    Labels that name a nonexistent user/role/file raise :class:`RbacError`.
    """
    k = label.kind
    if k == "addU":
        u = label.user
        if u == SUPERUSER:
            raise RbacError(f"{SUPERUSER!r} is reserved")
        if u in state.users:
            _warn(on_warning, f"addU: {u!r} already exists")
            return state
        return _moved(state, users=state.users | {u})

    if k == "delU":
        u = label.user
        if u not in state.users:
            _warn(on_warning, f"delU: {u!r} does not exist")
            return state
        return _moved(
            state,
            ur_gone=[(u, r) for r in state.roles_of(u)],
            users=state.users - {u},
        )

    if k == "addR":
        r = label.role
        if r == SUPERUSER:
            raise RbacError(f"{SUPERUSER!r} is reserved")
        if r in state.roles:
            _warn(on_warning, f"addR: {r!r} already exists")
            return state
        return _moved(state, roles=state.roles | {r})

    if k == "delR":
        r = label.role
        if r not in state.roles:
            _warn(on_warning, f"delR: {r!r} does not exist")
            return state
        return _moved(
            state,
            ur_gone=[(u, r) for u in state.members_of(r)],
            pa_gone=[(r, fn, op) for fn, op in state.files_of(r).items()],
            roles=state.roles - {r},
        )

    if k == "addP":
        fn = label.file
        if fn in state.perms:
            _warn(on_warning, f"addP: {fn!r} already exists")
            return state
        return _moved(state, perms=state.perms | {fn})

    if k == "delP":
        fn = label.file
        if fn not in state.perms:
            _warn(on_warning, f"delP: {fn!r} does not exist")
            return state
        return _moved(
            state,
            pa_gone=[(r, fn, state.pa_op(r, fn)) for r in state.holders_of(fn)],
            perms=state.perms - {fn},
        )

    if k == "assignU":
        u, r = label.user, label.role
        if u not in state.users:
            raise RbacError(f"assignU: no user {u!r}")
        if r not in state.roles:
            raise RbacError(f"assignU: no role {r!r}")
        if r in state.roles_of(u):
            _warn(on_warning, f"assignU: {u!r} already in {r!r}")
            return state
        return _moved(state, ur_new=[(u, r)])

    if k == "revokeU":
        u, r = label.user, label.role
        if u not in state.users:
            raise RbacError(f"revokeU: no user {u!r}")
        if r not in state.roles:
            raise RbacError(f"revokeU: no role {r!r}")
        if r not in state.roles_of(u):
            _warn(on_warning, f"revokeU: {u!r} not in {r!r}")
            return state
        return _moved(state, ur_gone=[(u, r)])

    if k == "assignP":
        r, fn, op = label.role, label.file, label.op
        if r not in state.roles:
            raise RbacError(f"assignP: no role {r!r}")
        if fn not in state.perms:
            raise RbacError(f"assignP: no file {fn!r}")
        held = state.pa_op(r, fn)
        if held == RW or held == op:
            _warn(on_warning, f"assignP: {r!r} already holds {held} on {fn!r}")
            return state
        gone = [] if held is None else [(r, fn, held)]
        return _moved(state, pa_gone=gone, pa_new=[(r, fn, op)])

    if k == "revokeP":
        r, fn, op = label.role, label.file, label.op
        if r not in state.roles:
            raise RbacError(f"revokeP: no role {r!r}")
        if fn not in state.perms:
            raise RbacError(f"revokeP: no file {fn!r}")
        held = state.pa_op(r, fn)
        if held is None:
            _warn(on_warning, f"revokeP: {r!r} holds nothing on {fn!r}")
            return state
        if op == WRITE:
            if held != RW:
                _warn(on_warning, f"revokeP: {r!r} holds no write on {fn!r}")
                return state
            return _moved(
                state, pa_gone=[(r, fn, RW)], pa_new=[(r, fn, READ)]
            )
        return _moved(state, pa_gone=[(r, fn, held)])

    raise AssertionError(k)


# --- queries ----------------------------------------------------------------
#
# Ground query facts are tuples:
#   ("UR", u, r)        u is a member of r
#   ("PA", r, fn, op)   r holds exactly op on fn
#   ("R", r)            r exists
#   ("auth", u, fn, op) some role of u grants op on fn (RW grants Read)

def grants(held: str, requested: str) -> bool:
    """Does an assigned access level satisfy a requested one?"""
    return held == requested or (held == RW and requested == READ)


#: The ops of the auth facts a grant level holds: level n holds the first n.
_LEVEL_OPS = (READ, RW)


def _granted(s, u: str, fn: str) -> int:
    """The level ``s`` grants ``u`` on ``fn`` through its roles: 0 nothing,
    1 Read, 2 RW and Read.  ``s`` is an ``RbacState`` or a view with the
    same ``roles_of`` and ``files_of``, such as the lockstep's of an
    engine."""
    level = 0
    for r in s.roles_of(u):
        op = s.files_of(r).get(fn)
        if op == RW:
            return 2
        if op is not None:
            level = 1
    return level


def eval_query(state: RbacState, query: tuple) -> bool:
    kind = query[0]
    if kind == "UR":
        return (query[1], query[2]) in state.ur
    if kind == "PA":
        return (query[1], query[2], query[3]) in state.pa
    if kind == "R":
        return query[1] in state.roles
    if kind == "auth":
        _, u, fn, op = query
        return op in _LEVEL_OPS[:_granted(state, u, fn)]
    raise ValueError(f"unknown query kind {kind!r}")


def theory(state: RbacState) -> frozenset[tuple]:
    """All true ground query facts over the state's own names.

    Brute-force enumerable by construction: R over roles, UR over users x
    roles, PA over roles x files x {Read, RW}, auth over users x files x
    {Read, RW}.
    """
    facts: set[tuple] = {("R", r) for r in state.roles}
    facts.update(("UR", u, r) for u, r in state.ur)
    facts.update(("PA", r, f, op) for r, f, op in state.pa)
    return frozenset(facts) | auth_facts(state)


def auth_facts(state: RbacState) -> frozenset[tuple]:
    """Just the auth subset of :func:`theory` (the granted requests): the
    join of UR and PA, with RW subsuming Read."""
    role_grant: dict[str, list[tuple[str, str]]] = {}
    for r, f, op in state.pa:
        grant = role_grant.setdefault(r, [])
        grant.append((f, READ))
        if op == RW:
            grant.append((f, RW))
    return frozenset(
        ("auth", u, f, op)
        for u, r in state.ur
        for f, op in role_grant.get(r, ())
    )
