"""Cryptographic enforcement of role-based access control on an untrusted store.

The filestore holds three kinds of signed tuples:

* ``RK`` — role-key tuples: the role's private keys, wrapped for one member
  (or for SU), bound to a role version.
* ``FK`` — file-key tuples: a file's symmetric key, wrapped for one holder
  (a role version or SU), bound to a file-key version.
* ``F``  — the file body, encrypted under the symmetric key of the version it
  was last written at (exactly one per file).

Revocation re-keys: revoking a member mints new role keys at v_r+1, re-issues
RK tuples to the remaining members and SU, re-encrypts the role's FK tuples to
the new role identity, and rolls every reachable file key forward to v_fn+1
for all current holders (including SU).  File bodies are re-encrypted lazily,
on the next write.  A minimal reference monitor verifies signatures on user
uploads (new files and writes); administrative traffic is signed but not
re-verified server-side.

The administrator keeps UR and PA as it issued them, and takes every
decision and every list of tuples to re-key, open or delete from that
record, never from what the store lists.  So a tuple the store withholds
raises ``IntegrityError`` where the record says it must be opened or
verified, and is no matter where it would only be deleted; a tuple the
record does not list is never read.

Every stored tuple is one ``Signed`` record: a body record, the term of
every field its signer's signature covers, and that signature, made over
the very body it holds (``t.sig.fields is t.fields``), so an honest verify
ends at an identity check.  The body's type names the tuple's kind: the
one table ``_SIGNED`` maps it to the tuple's tag, its signer and the store
key it belongs at, which its fields name.  A tuple read from the store
must name the key it was read from (``_placed``, inline in ``_verify``),
and an FK tuple the holder identity and the signer the engine expects,
before its signature is checked: a validly signed tuple moved to another
key (a swap), one naming a retired role version (a replay) or one signed
by anyone but SU or, at version 1 of SU's key, the file's uploader (a
forgery) raises ``IntegrityError`` instead of opening with the wrong key.

One engine serves both crypto bindings.  The identity-based binding encrypts
and verifies directly against identities; the conventional public-key binding
generates key pairs, publishes the public halves in the USERS/ROLES metadata
records, and replaces a role's record wholesale when it is re-keyed.  Each
binding is a provider class, ``crypto.IbeProvider`` or
``crypto.PkiProvider``, that names its family's primitives as the six the
engine calls (``enc_keys``, ``sig_keys``, ``enc``, ``dec``, ``sign`` and
``verify``); the operation logic is shared.

Mutation ordering is deliberate: new tuples are written at not-yet-current
versions, then the ROLES/FILES version counters are bumped, then stale tuples
are deleted, so the set of granted requests never transiently leaves the
envelope of the pre- and post-states.  A revocation issues the RK tuples at
v_r+1, then installs the role's new record, then for each file the role
holds issues its FK tuples and bumps its version, then deletes the stale RK
tuples; every FK tuple is wrapped for its holder's current record.

Change stream: ``FileStore.on_mutation``, when set, is called once after
each change, with the map that changed and its key.  The store calls it with
``(fs.rk, (member, role, version))``, ``(fs.fk, (holder, fn, version))`` or
``(fs.f, fn)`` after each put and each delete of a stored tuple; the engine
calls it with ``(users, u)``, ``(roles, r)`` or ``(files, fn)`` after each
user added or deleted, role added, deleted or re-keyed, and file added,
deleted or rolled to its next key version.  The hook reads the new value
from the map.  So a checker can follow every change ``state()`` can see
without re-reading the store (``equivalence.Lockstep`` does).

Cost attribution: every primitive is charged to the invoker, the provider's
default principal, except the reference monitor's checks of an upload in
``add_file`` and ``write_file``, which run in a ``REFERENCE_MONITOR`` scope.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from operator import attrgetter
from typing import Callable, Optional

from .crypto import (
    CostVector,
    IbeProvider,
    Identity,
    PkiProvider,
    REFERENCE_MONITOR,
    SU_IDENTITY,
    SymbolicCiphertext,
    SymbolicKey,
    SymbolicSignature,
    record,
    role_identity,
    term,
    user_identity,
)
from .rbac import (
    Label, RbacError, RbacState, READ, RW, SUPERUSER, WRITE, grants, refuse,
)


class AuthorizationError(Exception):
    """No role of the requesting user qualifies for the operation."""


class IntegrityError(Exception):
    """A signature check failed or a stale version was presented."""


@term(b"R")
class RkBody:
    member: Identity
    role: Identity  # versioned role identity
    ct: SymbolicCiphertext  # role private keys wrapped for the member


@term(b"P")
class FkBody:
    holder: Identity  # versioned role identity or SU
    fn: str
    op: str  # Read | RW
    version: int  # file-key version
    ct: SymbolicCiphertext  # symmetric file key wrapped for the holder
    issuer: Identity  # the signer


@term(b"F")
class FBody:
    fn: str
    version: int  # file-key version the body is encrypted under
    body: SymbolicCiphertext  # symmetric encryption of the contents
    writer: Identity  # the signer


@record
class Signed:
    """A stored tuple: its body record and ``sig``, the signature over that
    very record.  The body's type names the tuple's kind."""

    fields: object  # an RkBody, FkBody or FBody
    sig: SymbolicSignature


_Layout = namedtuple("_Layout", ("tag", "signer_of", "key_of"))

#: Each body type's tag, and the getters of its signer and of the store key
#: its tuple belongs at, both of which read the body.
_SIGNED = {
    RkBody: _Layout("RK", lambda b: SU_IDENTITY,
                    lambda b: (b.member.name, b.role.name, b.role.version)),
    FkBody: _Layout("FK", attrgetter("issuer"),
                    lambda b: (b.holder.name, b.fn, b.version)),
    FBody: _Layout("F", attrgetter("writer"), attrgetter("fn")),
}


def _placed(t: Signed, key) -> _Layout:
    """``t``'s layout; raise unless ``t`` names the store ``key`` it was
    read from.  ``Engine._verify`` repeats this inline, once per tuple."""
    layout = _SIGNED[type(t.fields)]
    named = layout.key_of(t.fields)
    if named != key:
        raise IntegrityError(
            f"{layout.tag} tuple of {named!r} stored at {key!r}"
        )
    return layout


class FileStore:
    """The untrusted tuple store: the RK, FK and F maps of ``Signed``
    tuples, each at the key ``_SIGNED`` gives its body, and ``maps`` from
    each tag to its map.  It keeps no index; the engine finds every tuple it
    needs from its own record.  Every put, and every delete of a stored
    tuple, fires ``on_mutation(map, key)`` once, after the write (a
    replacement counts once); deleting an absent tuple is a no-op.  The
    engine fires the same hook for each edit of its record (see
    ``Engine``)."""

    def __init__(self) -> None:
        self.rk: dict[tuple[str, str, int], Signed] = {}
        self.fk: dict[tuple[str, str, int], Signed] = {}
        self.f: dict[str, Signed] = {}
        self.maps = {"RK": self.rk, "FK": self.fk, "F": self.f}
        self.on_mutation: Optional[Callable[[dict, object], None]] = None

    def fork(self) -> "FileStore":
        """An independent store holding the same (shared, immutable) tuples:
        the maps are copied into its own table; ``on_mutation`` is not."""
        fs = FileStore()
        for tag, store in self.maps.items():
            fs.maps[tag].update(store)
        return fs

    def _fire(self, store: dict, key) -> None:
        if self.on_mutation is not None:
            self.on_mutation(store, key)

    def _del(self, store: dict, key) -> None:
        if store.pop(key, None) is not None:
            self._fire(store, key)

    def put_rk(self, t: Signed, key=None) -> None:
        if key is None:  # the caller did not know it: the body names it
            key = _SIGNED[type(t.fields)].key_of(t.fields)
        self.rk[key] = t
        if self.on_mutation is not None:
            self.on_mutation(self.rk, key)

    def del_rk(self, member: str, role: str, version: int) -> None:
        self._del(self.rk, (member, role, version))

    def put_fk(self, t: Signed, key=None) -> None:
        if key is None:
            key = _SIGNED[type(t.fields)].key_of(t.fields)
        self.fk[key] = t
        if self.on_mutation is not None:
            self.on_mutation(self.fk, key)

    def del_fk(self, holder: str, fn: str, version: int) -> None:
        self._del(self.fk, (holder, fn, version))

    def put_f(self, t: Signed) -> None:
        key = _SIGNED[type(t.fields)].key_of(t.fields)
        self.f[key] = t
        if self.on_mutation is not None:
            self.on_mutation(self.f, key)

    def del_f(self, fn: str) -> None:
        self._del(self.f, fn)


@record
class KeyRing:
    enc_ref: object  # what others encrypt to (identity or public key)
    dec_key: SymbolicKey
    ver_ref: object  # what others verify against (identity or public key)
    sig_key: SymbolicKey


@record
class RoleRec:
    version: int
    keys: KeyRing  # replaced wholesale on re-key


BINDINGS = {"ibe": IbeProvider, "pki": PkiProvider}


def default_content(fn: str) -> bytes:
    return b"file:" + fn.encode()


class Engine:
    """One mutable enforcement state driven by a single logical thread.

    The administrator keeps UR and PA as it issued them: ``members`` (role ->
    users), ``ops`` (role -> file -> op) and ``holders`` (file -> roles),
    with ``roles_of`` (user -> roles), the inverse of ``members`` over every
    user, kept beside them for the access rule.  Every decision, and every
    tuple an operation re-keys, opens or deletes, comes from that record,
    walked in sorted order, never from what the store lists.  SU holds an
    RK tuple of every role and an RW key of every file, and a holder of a
    file holds its key at every version from 1 to ``files[fn]``.

    Each edit of ``users`` (a user added or deleted), ``roles`` (a role
    added, deleted or re-keyed to its next version) or ``files`` (a file
    added, deleted or rolled to its next key version) goes through ``_edit``,
    which fires the store's ``on_mutation(record, name)`` once, after the
    edit.

    ``fork`` relies on one invariant: besides its provider and its store,
    what the engine may change in place is its dicts and the sets and dicts
    inside them.  Anything else the engine holds (key rings, role records,
    identities, upload pairs, counts) is immutable and may be shared, so a
    map added later is forked with no edit to ``fork``."""

    def __init__(self, binding: str = "ibe") -> None:
        self.provider = BINDINGS[binding]()
        self.fs = FileStore()
        self.users: dict[str, KeyRing] = {}
        self.roles: dict[str, RoleRec] = {}
        self.files: dict[str, int] = {}
        self.members: dict[str, set[str]] = {}
        self.ops: dict[str, dict[str, str]] = {}
        self.holders: dict[str, set[str]] = {}
        self.roles_of: dict[str, set[str]] = {}
        # file -> version of the last body the reference monitor accepted
        self.body_versions: dict[str, int] = {}
        # file -> (who signed its v1 key, what their signature verifies against)
        self.uploads: dict[str, tuple[Identity, object]] = {}
        self.retired: dict[str, int] = {}  # deleted role -> its last version
        self.warnings = 0
        self.su = self._mint_keyring(SU_IDENTITY)

    def fork(self) -> "Engine":
        """An independent engine in the same state, with the same counts and
        next serial.  One rule, which names no record map: fork the provider
        and the store, and copy every dict the engine holds together with
        each set or dict inside it; all else is immutable and shared."""
        eng = copy.copy(self)
        eng.provider, eng.fs = self.provider.fork(), self.fs.fork()
        for name, value in vars(self).items():
            if isinstance(value, dict):
                setattr(eng, name, {
                    k: v.copy() if isinstance(v, (set, dict)) else v
                    for k, v in value.items()
                })
        return eng

    # -- key plumbing

    def _mint_keyring(self, ident: Identity) -> KeyRing:
        enc_ref, dec_key = self.provider.enc_keys(ident)
        ver_ref, sig_key = self.provider.sig_keys(ident)
        return KeyRing(enc_ref, dec_key, ver_ref, sig_key)

    def _keyring_of(self, name: str) -> KeyRing:
        return self.su if name == SUPERUSER else self.users[name]

    def _ver_ref_of(self, ident: Identity, body) -> object:
        """What ``ident``'s signature over ``body`` verifies against, or None
        for a signer the engine does not know: a role's current record's,
        the ref a user uploaded ``body``'s file under, or SU's."""
        if ident.kind == "role":
            rec = self.roles.get(ident.name)
            return None if rec is None else rec.keys.ver_ref
        if ident.kind == "user":
            who, ref = self.uploads.get(body.fn, (None, None))
            return ref if who == ident else None
        return self.su.ver_ref if ident == SU_IDENTITY else None

    def _signed(self, body, sig_key: SymbolicKey) -> Signed:
        """The tuple of ``body``, signed under ``sig_key``: the signature
        covers that very body."""
        return Signed(body, self.provider.sign(sig_key, body))

    def _verify(self, t, key, holder: Optional[Identity] = None) -> None:
        """Raise unless ``t`` names the store ``key`` it was read from, names
        ``holder`` as its (FK) holder when one is given, and carries the
        signature of the signer the record expects over its body.  An
        unknown or unexpected signer makes a bad signature, with no
        primitive run."""
        body = t.fields
        tag, signer_of, key_of = _SIGNED[type(body)]
        named = key_of(body)
        if named != key:
            raise IntegrityError(f"{tag} tuple of {named!r} stored at {key!r}")
        if holder is not None and (
            body.holder is not holder and body.holder != holder
        ):
            raise IntegrityError(
                f"FK tuple stored at {key!r} is for {body.holder}, not {holder}"
            )
        signer = signer_of(body)
        if tag == "FK":
            expected, ref = self._fk_signer(key)
            if signer is not expected and signer != expected:
                ref = None
        elif signer is SU_IDENTITY:
            ref = self.su.ver_ref
        else:
            ref = self._ver_ref_of(signer, body)
        if ref is None or not self.provider.verify(ref, body, t.sig):
            raise IntegrityError(f"bad signature by {signer} on {tag}")

    def _fk_signer(self, key) -> tuple[Identity, object]:
        """Who issues the FK tuple at ``key``, and what their signature
        verifies against: SU, but the uploader at version 1 of SU's own key
        of a file a user uploaded."""
        h, fn, v = key
        up = h == SUPERUSER and v == 1 and self.uploads.get(fn)
        return up or (SU_IDENTITY, self.su.ver_ref)

    def _get(self, tag: str, key):
        """The stored ``tag`` tuple at ``key``, which the record says was
        issued; a store that withholds it raises ``IntegrityError``."""
        t = self.fs.maps[tag].get(key)
        if t is None:
            raise IntegrityError(f"missing {tag} tuple at {key!r}")
        return t

    def _sound(self, tag: str, key, holder: Optional[Identity] = None):
        """The ``tag`` tuple at ``key`` if ``_get`` finds it and it passes
        ``_verify``, else None: the queries' form of the checked fetch."""
        try:
            t = self._get(tag, key)
            self._verify(t, key, holder)
        except IntegrityError:
            return None
        return t

    def _rk_holders(self, r: str) -> list[str]:
        return sorted({SUPERUSER, *self.members[r]})

    def _fk_holders(self, fn: str) -> list[str]:
        return sorted({SUPERUSER, *self.holders[fn]})

    def _fks(self, h: str, fn: str) -> list:
        """Holder ``h``'s FK tuples of ``fn`` at every version, each with its
        key, all fetched before the caller opens any."""
        keys = [(h, fn, v) for v in range(1, self.files[fn] + 1)]
        return [(key, self._get("FK", key)) for key in keys]

    def _issue_rk(self, member: Identity, role: Identity, ct) -> None:
        t = self._signed(RkBody(member, role, ct), self.su.sig_key)
        self.fs.put_rk(t, (member.name, role.name, role.version))

    def _issue_fk(
        self, holder: Identity, fn: str, op: str, version: int, ct
    ) -> None:
        body = FkBody(holder, fn, op, version, ct, SU_IDENTITY)
        t = self._signed(body, self.su.sig_key)
        self.fs.put_fk(t, (holder.name, fn, version))

    def _edit(self, record: dict, name: str, value: object = None) -> None:
        """Set ``record[name]`` to ``value``, or delete it when ``value`` is
        None, then fire the store's hook: the one path of every edit of
        ``users``, ``roles`` and ``files``."""
        if value is None:
            del record[name]
        else:
            record[name] = value
        self.fs._fire(record, name)

    def _warn(self, message: str) -> None:
        self.warnings += 1

    # -- label dispatch

    def apply_label(self, label: Label) -> None:
        k = label.kind
        if k == "addU":
            self.add_user(label.user)
        elif k == "delU":
            self.del_user(label.user)
        elif k == "addR":
            self.add_role(label.role)
        elif k == "delR":
            self.del_role(label.role)
        elif k == "addP":
            self.add_file(SUPERUSER, label.file, default_content(label.file))
        elif k == "delP":
            self.del_file(label.file)
        elif k == "assignU":
            self.assign_user(label.user, label.role)
        elif k == "revokeU":
            self.revoke_user(label.user, label.role)
        elif k == "assignP":
            self.assign_perm(label.role, label.file, label.op)
        elif k == "revokeP":
            self.revoke_perm(label.role, label.file, label.op)
        else:
            raise AssertionError(k)

    # -- administrative operations

    def add_user(self, u: str) -> None:
        refuse("addU", self.users, self.roles, self.files, user=u)
        if u in self.users:
            self._warn(f"addU: {u!r} exists")
            return
        self._edit(self.users, u, self._mint_keyring(user_identity(u)))
        self.roles_of[u] = set()

    def del_user(self, u: str) -> None:
        if u not in self.users:
            self._warn(f"delU: {u!r} missing")
            return
        for r in sorted(self.roles_of[u]):
            self._revoke_user_inner(u, r)
        del self.roles_of[u]
        self._edit(self.users, u)

    def add_role(self, r: str) -> None:
        refuse("addR", self.users, self.roles, self.files, role=r)
        if r in self.roles:
            self._warn(f"addR: {r!r} exists")
            return
        v = self.retired.pop(r, 0) + 1  # past any old version a member cached
        ident = role_identity(r, v)
        ring = self._mint_keyring(ident)
        self._edit(self.roles, r, RoleRec(v, ring))
        self.members[r], self.ops[r] = set(), {}
        ct = self.provider.enc(
            self.su.enc_ref, ("role-keys", ring.dec_key, ring.sig_key)
        )
        self._issue_rk(SU_IDENTITY, ident, ct)

    def del_role(self, r: str) -> None:
        if r not in self.roles:
            self._warn(f"delR: {r!r} missing")
            return
        v = self.retired[r] = self.roles[r].version
        self._edit(self.roles, r)
        for m in self._rk_holders(r):
            self.fs.del_rk(m, r, v)
        for m in self.members.pop(r):
            self.roles_of[m].discard(r)
        for fn in sorted(self.ops[r]):
            self._revoke_perm_full(r, fn)
        del self.ops[r]

    def add_file(self, uploader: str, fn: str, body: bytes) -> None:
        if fn in self.files:
            self._warn(f"addP: {fn!r} exists")
            return
        if uploader != SUPERUSER:
            refuse("addP", self.users, self.roles, self.files, user=uploader)
        ring = self._keyring_of(uploader)
        wident = user_identity(uploader)
        k = self.provider.sym_gen()
        body_ct = self.provider.sym_enc(k, body)
        ftup = self._signed(FBody(fn, 1, body_ct, wident), ring.sig_key)
        kct = self.provider.enc(self.su.enc_ref, k)
        fkb = FkBody(SU_IDENTITY, fn, RW, 1, kct, wident)
        fktup = self._signed(fkb, ring.sig_key)
        self.uploads[fn] = wident, ring.ver_ref
        with self.provider.scope(REFERENCE_MONITOR):
            self._verify(ftup, fn)
            self._verify(fktup, (SUPERUSER, fn, 1), SU_IDENTITY)
        self._edit(self.files, fn, 1)
        self.holders[fn] = set()
        self.body_versions[fn] = 1
        self.fs.put_f(ftup)
        self.fs.put_fk(fktup, (SUPERUSER, fn, 1))

    def del_file(self, fn: str) -> None:
        """Delete ``fn``, then every FK tuple of it, in (holder, version)
        order."""
        if fn not in self.files:
            self._warn(f"delP: {fn!r} missing")
            return
        del self.body_versions[fn], self.uploads[fn]
        self.fs.del_f(fn)
        for h in self._fk_holders(fn):
            for v in range(1, self.files[fn] + 1):
                self.fs.del_fk(h, fn, v)
        for r in self.holders.pop(fn):
            del self.ops[r][fn]
        self._edit(self.files, fn)

    def assign_user(self, u: str, r: str) -> None:
        refuse("assignU", self.users, self.roles, self.files, user=u, role=r)
        if u in self.members[r]:
            self._warn(f"assignU: {u!r} already in {r!r}")
            return
        v = self.roles[r].version
        key = (SUPERUSER, r, v)
        sut = self._get("RK", key)
        self._verify(sut, key)
        payload = self.provider.dec(self.su.dec_key, sut.fields.ct)
        ct = self.provider.enc(self.users[u].enc_ref, payload)
        self._issue_rk(user_identity(u), role_identity(r, v), ct)
        self.members[r].add(u)
        self.roles_of[u].add(r)

    def revoke_user(self, u: str, r: str) -> None:
        refuse("revokeU", self.users, self.roles, self.files, user=u, role=r)
        if u not in self.members[r]:
            self._warn(f"revokeU: {u!r} not in {r!r}")
            return
        self._revoke_user_inner(u, r)

    def _revoke_user_inner(self, u: str, r: str) -> None:
        rec = self.roles[r]
        v = rec.version
        holders = self._rk_holders(r)
        stay = [(m, self._get("RK", (m, r, v))) for m in holders if m != u]
        new_ident = role_identity(r, v + 1)
        new_ring = self._mint_keyring(new_ident)
        payload = ("role-keys", new_ring.dec_key, new_ring.sig_key)
        for m, t in stay:
            self._verify(t, (m, r, v))
            ct = self.provider.enc(self._keyring_of(m).enc_ref, payload)
            self._issue_rk(user_identity(m), new_ident, ct)
        self._edit(self.roles, r, RoleRec(v + 1, new_ring))
        for fn, op in sorted(self.ops[r].items()):
            # roll the role's own wrapped file keys onto the new role keys
            self._rewrap_fks(r, rec.keys.dec_key, fn, r, op)
            self._issue_new_file_key(fn)
        for m in holders:
            self.fs.del_rk(m, r, v)
        self.members[r].discard(u)
        self.roles_of[u].discard(r)

    def _wrap_target(self, h: str) -> tuple[Identity, object]:
        """The identity an FK tuple for holder ``h`` names and the reference
        its key is encrypted under: SU's, or role ``h``'s current record's."""
        if h == SUPERUSER:
            return SU_IDENTITY, self.su.enc_ref
        rec = self.roles[h]
        return role_identity(h, rec.version), rec.keys.enc_ref

    def _issue_new_file_key(self, fn: str) -> None:
        """Mint a fresh file key and wrap it for every current holder, at the
        next file-key version; then make that version current."""
        vfn = self.files[fn]
        olds = [
            (h, self._get("FK", (h, fn, vfn))) for h in self._fk_holders(fn)
        ]
        k2 = self.provider.sym_gen()
        for h, old in olds:
            ident, ref = self._wrap_target(h)
            self._verify(old, (h, fn, vfn), ident)
            ct = self.provider.enc(ref, k2)
            op = RW if h == SUPERUSER else self.ops[h][fn]
            self._issue_fk(ident, fn, op, vfn + 1, ct)
        self._edit(self.files, fn, vfn + 1)

    def _rewrap_fks(self, src: str, dec_key, fn: str, dst: str, op) -> None:
        """Open ``src``'s key for ``fn`` at every version with ``dec_key``,
        whose owner each tuple must name, and issue it to holder ``dst`` with
        ``op``."""
        ident, ref = self._wrap_target(dst)
        for key, old in self._fks(src, fn):
            self._verify(old, key, dec_key.owner)
            k = self.provider.dec(dec_key, old.fields.ct)
            ct = self.provider.enc(ref, k)
            self._issue_fk(ident, fn, op, key[2], ct)

    def _set_fk_op(self, r: str, fn: str, op: str) -> None:
        """Re-sign role ``r``'s key for ``fn`` at every version with ``op``."""
        ident = self._wrap_target(r)[0]
        for key, old in self._fks(r, fn):
            self._verify(old, key, ident)
            self._issue_fk(ident, fn, op, key[2], old.fields.ct)
        self.ops[r][fn] = op

    def assign_perm(self, r: str, fn: str, op: str) -> None:
        if op not in (READ, RW):
            raise RbacError(f"assignP: bad op {op!r}")
        refuse("assignP", self.users, self.roles, self.files, role=r, file=fn)
        held = self.ops[r].get(fn)
        if held == RW or held == op:
            self._warn(f"assignP: {r!r} already holds {held} on {fn!r}")
            return
        if held == READ:
            # add write to existing read: re-sign each version in place
            self._set_fk_op(r, fn, RW)
            return
        # fresh grant: copy SU's wrapped key at every version
        self._rewrap_fks(SUPERUSER, self.su.dec_key, fn, r, op)
        self.ops[r][fn] = op
        self.holders[fn].add(r)

    def revoke_perm(self, r: str, fn: str, op: str) -> None:
        if op not in (WRITE, RW):
            raise RbacError(f"revokeP: bad op {op!r}")
        refuse("revokeP", self.users, self.roles, self.files, role=r, file=fn)
        held = self.ops[r].get(fn)
        if held is None:
            self._warn(f"revokeP: {r!r} holds nothing on {fn!r}")
            return
        if op == WRITE:
            if held != RW:
                self._warn(f"revokeP: {r!r} holds no write on {fn!r}")
                return
            self._set_fk_op(r, fn, READ)
            return
        self._revoke_perm_full(r, fn)

    def _revoke_perm_full(self, r: str, fn: str) -> None:
        for v in range(1, self.files[fn] + 1):
            self.fs.del_fk(r, fn, v)
        del self.ops[r][fn]
        self.holders[fn].discard(r)
        self._issue_new_file_key(fn)

    # -- data path

    def _qualifying_roles(self, u: str, fn: str, op: str) -> list[str]:
        """The roles, in sorted order, through which the record grants ``u``
        ``op`` on ``fn``: the engine's one access rule."""
        return sorted(
            r for r in self.holders[fn].intersection(self.roles_of.get(u, ()))
            if grants(self.ops[r][fn], op)
        )

    def _open_file_key(self, verb: str, u: str, fn: str):
        """The data path up to the file key: check the request (``verb`` is
        "read" or "write"), take the lexicographically least qualifying role,
        and unwrap its role keys and its key for ``fn``.  Returns the role,
        the role's signing key, the FK tuple, the file key and, for a read,
        the F tuple."""
        refuse(verb, self.users, self.roles, self.files, user=u, file=fn)
        write = verb == "write"
        ft = None
        if write:
            version = self.files[fn]
        else:
            ft = self._get("F", fn)
            _placed(ft, fn)
            version = ft.fields.version
            if version != self.body_versions[fn]:
                raise IntegrityError(f"replayed stale body of {fn!r}")
        roles = self._qualifying_roles(u, fn, RW if write else READ)
        if not roles:
            raise AuthorizationError(f"{u!r} may not {verb} {fn!r}")
        r = roles[0]
        rk_key = (u, r, self.roles[r].version)
        rkt = self._get("RK", rk_key)
        self._verify(rkt, rk_key)
        _, role_dec, role_sig = self.provider.dec(
            self.users[u].dec_key, rkt.fields.ct
        )
        fk_key = (r, fn, version)
        fkt = self._get("FK", fk_key)
        self._verify(fkt, fk_key, role_dec.owner)
        k = self.provider.dec(role_dec, fkt.fields.ct)
        return r, role_sig, fkt, k, ft

    def read_file(self, u: str, fn: str) -> bytes:
        *_, k, ft = self._open_file_key("read", u, fn)
        return self.provider.sym_dec(k, ft.fields.body)

    def write_file(self, u: str, fn: str, body: bytes) -> None:
        r, role_sig, fkt, k, _ = self._open_file_key("write", u, fn)
        vfn = self.files[fn]
        body_ct = self.provider.sym_enc(k, body)
        wident = self._wrap_target(r)[0]
        ftup = self._signed(FBody(fn, vfn, body_ct, wident), role_sig)
        with self.provider.scope(REFERENCE_MONITOR):
            self._verify(ftup, fn)
            self._verify(fkt, (r, fn, vfn), wident)
        self.body_versions[fn] = vfn
        self.fs.put_f(ftup)

    # -- counted query forms
    #
    # Each query answers from the record first: no membership or grant there
    # is False, whatever the store holds.  Only a recorded fact is checked
    # against its tuple, which must be present and sound.  ``query_auth`` is
    # the data path's rule: a qualifying role that holds both tuples.

    def query_member(self, u: str, r: str) -> bool:
        if u not in self.members.get(r, ()):
            return False
        return self._sound("RK", (u, r, self.roles[r].version)) is not None

    def query_holds(self, r: str, fn: str, op: str) -> bool:
        if self.ops.get(r, {}).get(fn) != op:
            return False
        t = self._sound("FK", (r, fn, self.files[fn]), self._wrap_target(r)[0])
        return t is not None and t.fields.op == op

    def query_auth(self, u: str, fn: str, op: str) -> bool:
        return fn in self.files and any(
            self.query_member(u, r) and self.query_holds(r, fn, self.ops[r][fn])
            for r in self._qualifying_roles(u, fn, op)
        )

    # -- instrumentation (uncounted store walks)

    def state(self) -> RbacState:
        """The abstract state this engine enforces, the inverse of
        ``equivalence.sigma``: UR from the RK tuples at each role's current
        version and PA from the FK tuples at each file's current key version,
        leaving out the superuser and any tuple at a stale version."""
        roles, files = self.roles, self.files
        ur = frozenset(
            (m, r)
            for m, r, v in self.fs.rk
            if m in self.users and r in roles and roles[r].version == v
        )
        pa = frozenset(
            (h, fn, t.fields.op)
            for (h, fn, v), t in self.fs.fk.items()
            if h != SUPERUSER and h in roles and files.get(fn) == v
        )
        return RbacState(
            frozenset(self.users), frozenset(roles), frozenset(files), ur, pa
        )

    def dump(self) -> tuple:
        """Raw state for exact-equality comparisons."""
        return (
            frozenset(self.users),
            tuple(sorted((r, rec.version) for r, rec in self.roles.items())),
            tuple(sorted(self.files.items())),
            frozenset(self.fs.rk.items()),
            frozenset(self.fs.fk.items()),
            frozenset(self.fs.f.items()),
        )


def measure_label(engine: Engine, label: Label) -> CostVector:
    """Apply one label and return the primitives it ran, which join the
    provider's totals even when the label raises."""
    return engine.provider.measure(engine.apply_label, label)[0]
