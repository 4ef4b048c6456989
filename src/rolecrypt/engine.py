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

The signed layout lives in one table, ``_SIGNED``: each tuple is signed by
its signer over its tag and every field but ``sig``, and its fields name the
store key it belongs at.  A tuple an operation needs that the store dropped
raises ``IntegrityError`` before any primitive.  A tuple read from the store
must name the key it was read from, and an FK tuple the holder identity the
engine expects, before its signature is checked: a validly signed tuple moved
to another key (a swap) or one naming a retired role version (a replay)
raises ``IntegrityError`` instead of opening with the wrong key.

One engine serves both crypto bindings.  The identity-based binding encrypts
and verifies directly against identities; the conventional public-key binding
generates key pairs, publishes the public halves in the USERS/ROLES metadata
records, and replaces a role's record wholesale when it is re-keyed.  The
bindings differ only in their six primitives (``make_enc_keys``,
``make_sig_keys``, ``enc``, ``dec``, ``sign`` and ``verify``); the operation
logic is shared.

Mutation ordering is deliberate: new tuples are written at not-yet-current
versions, then the ROLES/FILES version counters are bumped, then stale tuples
are deleted, so the set of granted requests never transiently leaves the
envelope of the pre- and post-states.  A revocation issues the RK tuples at
v_r+1, then installs the role's new record, then for each file the role
holds issues its FK tuples and bumps its version, then deletes the stale RK
tuples; every FK tuple is wrapped for its holder's current record.

Cost attribution: every primitive is charged to the invoker, the provider's
default principal, except the reference monitor's checks of an upload in
``add_file`` and ``write_file``, which run in a ``REFERENCE_MONITOR`` scope.
"""

from __future__ import annotations

import copy
from collections import defaultdict, namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Optional

from .crypto import (
    CostVector,
    CryptoProvider,
    Identity,
    REFERENCE_MONITOR,
    SU_IDENTITY,
    SymbolicCiphertext,
    SymbolicKey,
    SymbolicSignature,
    role_identity,
    user_identity,
)
from . import rbac
from .rbac import (
    Label, RbacError, RbacState, READ, RW, SUPERUSER, WRITE, grants,
)


class AuthorizationError(Exception):
    """No role of the requesting user qualifies for the operation."""


class IntegrityError(Exception):
    """A signature check failed or a stale version was presented."""


@dataclass(frozen=True, slots=True)
class RkTuple:
    member: Identity
    role: Identity  # versioned role identity
    ct: SymbolicCiphertext  # role private keys wrapped for the member
    sig: SymbolicSignature  # by SU


@dataclass(frozen=True, slots=True)
class FkTuple:
    holder: Identity  # versioned role identity or SU
    fn: str
    op: str  # Read | RW
    version: int  # file-key version
    ct: SymbolicCiphertext  # symmetric file key wrapped for the holder
    issuer: Identity
    sig: SymbolicSignature  # by the issuer


@dataclass(frozen=True, slots=True)
class FTuple:
    fn: str
    version: int  # file-key version the body is encrypted under
    body: SymbolicCiphertext  # symmetric encryption of the contents
    writer: Identity
    sig: SymbolicSignature  # by the writer


_Layout = namedtuple("_Layout", ("tag", "fields_of", "signer_of", "key_of"))

#: Each store tuple's tag, the getter of the fields its signature covers
#: (every field but the trailing ``sig``, in constructor order), its signer,
#: and the getter of the store key it belongs at.
_SIGNED = {
    cls: _Layout(tag, attrgetter(*[f.name for f in fields(cls)][:-1]),
                 signer_of, key_of)
    for cls, tag, signer_of, key_of in (
        (RkTuple, "RK", lambda t: SU_IDENTITY,
         lambda t: (t.member.name, t.role.name, t.role.version)),
        (FkTuple, "FK", attrgetter("issuer"),
         lambda t: (t.holder.name, t.fn, t.version)),
        (FTuple, "F", attrgetter("writer"), attrgetter("fn")),
    )
}


def _discard(index: dict, outer, inner, item) -> None:
    """Remove ``item`` from the list ``index[outer][inner]``; a list or an
    inner map left empty goes with it."""
    by_inner = index[outer]
    items = by_inner[inner]
    items.remove(item)
    if not items:
        del by_inner[inner]
        if not by_inner:
            del index[outer]


class FileStore:
    """Tuple store keyed by (kind, subject, object, version), with the
    secondary indexes the operations' wildcard scans and deletes need.
    Every put/delete fires ``on_mutation`` once (replacement counts once).

    All four indexes share one layout: object -> version -> list of names,
    and name -> object -> list of versions.

    * ``_rk_by_role``: role -> version -> list of members;
    * ``_rk_by_member``: member -> role -> list of versions;
    * ``_fk_by_file``: file -> version -> list of holders;
    * ``_fk_by_holder``: holder -> file -> list of versions.

    The indexes hold one name or version per tuple and no tuple of their
    own: lazy revocation keeps every old file-key version, so the FK
    indexes grow with the store.  Their leaves are unsorted lists, smaller
    than sets (on CPython 3.11, 184 bytes against 728 at 11 entries).  A put
    indexes only a key that is new to its map (a replacement is listed
    already), so no list holds a duplicate; the queries sort.  In every
    index, an entry (list or inner map) goes with its last item, so retired
    role versions and departed members or holders leave nothing behind."""

    def __init__(self) -> None:
        self.rk: dict[tuple[str, str, int], RkTuple] = {}
        self.fk: dict[tuple[str, str, int], FkTuple] = {}
        self.f: dict[str, FTuple] = {}
        self._rk_by_role: dict[str, dict[int, list[str]]] = defaultdict(dict)
        self._rk_by_member: dict[str, dict[str, list[int]]] = defaultdict(dict)
        self._fk_by_file: dict[str, dict[int, list[str]]] = defaultdict(dict)
        self._fk_by_holder: dict[str, dict[str, list[int]]] = defaultdict(dict)
        self.on_mutation: Optional[Callable[[], None]] = None

    def fork(self) -> "FileStore":
        """An independent store holding the same (shared, immutable) tuples:
        the maps and every index map and list are copied; ``on_mutation``
        is not."""
        fs = FileStore()
        fs.rk, fs.fk, fs.f = dict(self.rk), dict(self.fk), dict(self.f)
        for name in ("_rk_by_role", "_rk_by_member", "_fk_by_file",
                     "_fk_by_holder"):
            index = getattr(fs, name)
            for k, inner in getattr(self, name).items():
                index[k] = {k2: v.copy() for k2, v in inner.items()}
        return fs

    def _fire(self) -> None:
        if self.on_mutation is not None:
            self.on_mutation()

    def _put(self, store, by_obj, by_name, key, t) -> None:
        """Store ``t`` at ``key`` = (name, object, version) and index it."""
        if key not in store:  # a replacement is indexed already
            name, obj, version = key
            by_obj[obj].setdefault(version, []).append(name)
            by_name[name].setdefault(obj, []).append(version)
        store[key] = t
        self._fire()

    def _del(self, store, by_obj, by_name, key) -> None:
        del store[key]
        name, obj, version = key
        _discard(by_obj, obj, version, name)
        _discard(by_name, name, obj, version)
        self._fire()

    # -- RK

    def put_rk(self, t: RkTuple) -> None:
        key = _SIGNED[RkTuple].key_of(t)
        self._put(self.rk, self._rk_by_role, self._rk_by_member, key, t)

    def del_rk(self, member: str, role: str, version: int) -> None:
        key = (member, role, version)
        self._del(self.rk, self._rk_by_role, self._rk_by_member, key)

    def rk_members(self, role: str, version: int) -> list[str]:
        return sorted(self._rk_by_role.get(role, {}).get(version, ()))

    def delete_rk_role_version(self, role: str, version: int) -> None:
        for m in self.rk_members(role, version):
            self.del_rk(m, role, version)

    def member_roles(self, member: str) -> list[str]:
        return sorted(self._rk_by_member.get(member, ()))

    # -- FK

    def put_fk(self, t: FkTuple) -> None:
        key = _SIGNED[FkTuple].key_of(t)
        self._put(self.fk, self._fk_by_file, self._fk_by_holder, key, t)

    def del_fk(self, holder: str, fn: str, version: int) -> None:
        key = (holder, fn, version)
        self._del(self.fk, self._fk_by_file, self._fk_by_holder, key)

    def fk_versions(self, holder: str, fn: str) -> list[int]:
        return sorted(self._fk_by_holder.get(holder, {}).get(fn, ()))

    def fk_holders_at(self, fn: str, version: int) -> list[str]:
        return sorted(self._fk_by_file.get(fn, {}).get(version, ()))

    def holder_files(self, holder: str) -> list[str]:
        return sorted(self._fk_by_holder.get(holder, ()))

    def delete_fk_holder_file(self, holder: str, fn: str) -> None:
        for v in self.fk_versions(holder, fn):
            self.del_fk(holder, fn, v)

    def delete_fk_file(self, fn: str) -> None:
        """Delete every FK tuple of ``fn``, in (holder, version) order."""
        holders = set().union(*self._fk_by_file.get(fn, {}).values())
        for h in sorted(holders):
            self.delete_fk_holder_file(h, fn)

    # -- F

    def put_f(self, t: FTuple) -> None:
        self.f[t.fn] = t
        self._fire()

    def del_f(self, fn: str) -> None:
        del self.f[fn]
        self._fire()


@dataclass(frozen=True, slots=True)
class KeyRing:
    enc_ref: object  # what others encrypt to (identity or public key)
    dec_key: SymbolicKey
    ver_ref: object  # what others verify against (identity or public key)
    sig_key: SymbolicKey


@dataclass(frozen=True, slots=True)
class RoleRec:
    version: int
    keys: KeyRing  # replaced wholesale on re-key


class IbeBinding:
    """Identity-based keys: encryption/verification address identities
    directly; private keys are derived by the administrator (who holds the
    master secret, the escrow the scheme is chosen for)."""

    name = "ibe"

    def make_enc_keys(self, p: CryptoProvider, ident: Identity):
        return ident, p.ibe_keygen(ident)

    def make_sig_keys(self, p: CryptoProvider, ident: Identity):
        return ident, p.ibs_keygen(ident)

    def enc(self, p, enc_ref, payload):
        return p.ibe_enc(enc_ref, payload)

    def dec(self, p, dec_key, ct):
        return p.ibe_dec(dec_key, ct)

    def sign(self, p, sig_key, fields):
        return p.ibs_sign(sig_key, fields)

    def verify(self, p, ver_ref, fields, sig):
        return p.ibs_ver(ver_ref, fields, sig)


class PkiBinding:
    """Conventional key pairs: fresh pairs per principal and per role version,
    public halves published in the metadata records.  In add_user the pair is
    generated client-side by the joining user; the counters are charged to the
    invoker either way."""

    name = "pki"

    def make_enc_keys(self, p: CryptoProvider, ident: Identity):
        return p.pke_gen(ident)

    def make_sig_keys(self, p: CryptoProvider, ident: Identity):
        return p.sig_gen(ident)

    def enc(self, p, enc_ref, payload):
        return p.pke_enc(enc_ref, payload)

    def dec(self, p, dec_key, ct):
        return p.pke_dec(dec_key, ct)

    def sign(self, p, sig_key, fields):
        return p.sig_sign(sig_key, fields)

    def verify(self, p, ver_ref, fields, sig):
        return p.sig_ver(ver_ref, fields, sig)


BINDINGS = {"ibe": IbeBinding, "pki": PkiBinding}


def default_content(fn: str) -> bytes:
    return b"file:" + fn.encode()


class Engine:
    """One mutable enforcement state driven by a single logical thread."""

    def __init__(self, binding: str = "ibe") -> None:
        self.binding = BINDINGS[binding]()
        self.provider = CryptoProvider()
        self.fs = FileStore()
        self.users: dict[str, KeyRing] = {}
        self.roles: dict[str, RoleRec] = {}
        self.files: dict[str, int] = {}
        # file -> version of the last body the reference monitor accepted
        self.body_versions: dict[str, int] = {}
        self.warnings = 0
        self._ver_refs: dict[str, object] = {}  # retained past deletion
        self.su = self._mint_keyring(SU_IDENTITY)
        self._ver_refs[SUPERUSER] = self.su.ver_ref

    def fork(self) -> "Engine":
        """An independent engine in the same state, with the same counts and
        next serial.  Records (tuples, key rings, role records) are immutable
        and shared; every dict and index list is copied."""
        eng = copy.copy(self)
        eng.provider = self.provider.fork()
        eng.fs = self.fs.fork()
        eng.users = dict(self.users)
        eng.roles = dict(self.roles)
        eng.files = dict(self.files)
        eng.body_versions = dict(self.body_versions)
        eng._ver_refs = dict(self._ver_refs)
        return eng

    # -- key plumbing

    def _mint_keyring(self, ident: Identity) -> KeyRing:
        enc_ref, dec_key = self.binding.make_enc_keys(self.provider, ident)
        ver_ref, sig_key = self.binding.make_sig_keys(self.provider, ident)
        return KeyRing(enc_ref, dec_key, ver_ref, sig_key)

    def _keyring_of(self, name: str) -> KeyRing:
        return self.su if name == SUPERUSER else self.users[name]

    def _ver_ref_of(self, ident: Identity) -> object:
        """``ident``'s verification reference, or None for a signer the
        engine does not know."""
        if ident.kind == "role":
            rec = self.roles.get(ident.name)
            return None if rec is None else rec.keys.ver_ref
        return self._ver_refs.get(ident.name)

    def _signed(self, cls: type, sig_key: SymbolicKey, *values):
        """A ``cls`` tuple of ``values``, signed under ``sig_key``."""
        sig = self.binding.sign(
            self.provider, sig_key, (_SIGNED[cls].tag, *values)
        )
        return cls(*values, sig)

    def _valid(self, t) -> bool:
        """Whether ``t``'s signature by its signer covers its fields.  An
        unknown signer makes a bad signature, with no primitive run."""
        tag, fields_of, signer_of, _ = _SIGNED[type(t)]
        ref = self._ver_ref_of(signer_of(t))
        if ref is None:
            return False
        return self.binding.verify(
            self.provider, ref, (tag, *fields_of(t)), t.sig
        )

    def _check_place(self, t, key, holder: Optional[Identity] = None) -> None:
        """Raise unless ``t`` names the store ``key`` it was read from and,
        when ``holder`` is given, names that identity as its (FK) holder."""
        tag, _, _, key_of = _SIGNED[type(t)]
        if key_of(t) != key:
            raise IntegrityError(
                f"{tag} tuple of {key_of(t)!r} stored at {key!r}"
            )
        if holder is not None and t.holder != holder:
            raise IntegrityError(
                f"FK tuple stored at {key!r} is for {t.holder}, not {holder}"
            )

    def _verify(self, t, key, holder: Optional[Identity] = None) -> None:
        """Check that ``t`` belongs at ``key`` (see ``_check_place``), then
        its signature."""
        self._check_place(t, key, holder)
        if not self._valid(t):
            tag, _, signer_of, _ = _SIGNED[type(t)]
            raise IntegrityError(f"bad signature by {signer_of(t)} on {tag}")

    def _sound(self, t, key, holder: Optional[Identity] = None) -> bool:
        """Whether ``t``, read from ``key``, passes ``_verify``."""
        try:
            self._verify(t, key, holder)
        except IntegrityError:
            return False
        return True

    def _issue_rk(self, member: Identity, role: Identity, ct) -> None:
        self.fs.put_rk(self._signed(RkTuple, self.su.sig_key, member, role, ct))

    def _issue_fk(
        self, holder: Identity, fn: str, op: str, version: int, ct
    ) -> None:
        self.fs.put_fk(self._signed(
            FkTuple, self.su.sig_key, holder, fn, op, version, ct, SU_IDENTITY
        ))

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
        if u == SUPERUSER:
            raise RbacError(f"{SUPERUSER!r} is reserved")
        if u in self.users:
            self._warn(f"addU: {u!r} exists")
            return
        ring = self._mint_keyring(user_identity(u))
        self.users[u] = ring
        self._ver_refs[u] = ring.ver_ref

    def del_user(self, u: str) -> None:
        if u not in self.users:
            self._warn(f"delU: {u!r} missing")
            return
        for r in self.fs.member_roles(u):
            self._revoke_user_inner(u, r)
        del self.users[u]

    def add_role(self, r: str) -> None:
        if r == SUPERUSER:
            raise RbacError(f"{SUPERUSER!r} is reserved")
        if r in self.roles:
            self._warn(f"addR: {r!r} exists")
            return
        ident = role_identity(r, 1)
        ring = self._mint_keyring(ident)
        self.roles[r] = RoleRec(1, ring)
        ct = self.binding.enc(
            self.provider,
            self.su.enc_ref,
            ("role-keys", ring.dec_key, ring.sig_key),
        )
        self._issue_rk(SU_IDENTITY, ident, ct)

    def del_role(self, r: str) -> None:
        if r not in self.roles:
            self._warn(f"delR: {r!r} missing")
            return
        files = self._held_files(r)
        rec = self.roles.pop(r)
        self.fs.delete_rk_role_version(r, rec.version)
        for fn in files:
            self._revoke_perm_full(r, fn)

    def add_file(self, uploader: str, fn: str, body: bytes) -> None:
        if fn in self.files:
            self._warn(f"addP: {fn!r} exists")
            return
        if uploader != SUPERUSER and uploader not in self.users:
            raise RbacError(f"addP: no user {uploader!r}")
        ring = self._keyring_of(uploader)
        wident = user_identity(uploader)
        k = self.provider.sym_gen()
        body_ct = self.provider.sym_enc(k, body)
        ftup = self._signed(FTuple, ring.sig_key, fn, 1, body_ct, wident)
        kct = self.binding.enc(self.provider, self.su.enc_ref, k)
        fktup = self._signed(
            FkTuple, ring.sig_key, SU_IDENTITY, fn, RW, 1, kct, wident
        )
        with self.provider.scope(REFERENCE_MONITOR):
            self._verify(ftup, fn)
            self._verify(fktup, (SUPERUSER, fn, 1), SU_IDENTITY)
        self.files[fn] = 1
        self.body_versions[fn] = 1
        self.fs.put_f(ftup)
        self.fs.put_fk(fktup)

    def del_file(self, fn: str) -> None:
        if fn not in self.files:
            self._warn(f"delP: {fn!r} missing")
            return
        del self.files[fn]
        del self.body_versions[fn]
        self.fs.del_f(fn)
        self.fs.delete_fk_file(fn)

    def assign_user(self, u: str, r: str) -> None:
        if u not in self.users:
            raise RbacError(f"assignU: no user {u!r}")
        if r not in self.roles:
            raise RbacError(f"assignU: no role {r!r}")
        v = self.roles[r].version
        if (u, r, v) in self.fs.rk:
            self._warn(f"assignU: {u!r} already in {r!r}")
            return
        key = (SUPERUSER, r, v)
        sut = self.fs.rk.get(key)
        if sut is None:
            raise IntegrityError(f"assignU: missing SU's RK tuple of {r!r}")
        self._verify(sut, key)
        payload = self.binding.dec(self.provider, self.su.dec_key, sut.ct)
        ct = self.binding.enc(self.provider, self.users[u].enc_ref, payload)
        self._issue_rk(user_identity(u), role_identity(r, v), ct)

    def revoke_user(self, u: str, r: str) -> None:
        if u not in self.users:
            raise RbacError(f"revokeU: no user {u!r}")
        if r not in self.roles:
            raise RbacError(f"revokeU: no role {r!r}")
        if (u, r, self.roles[r].version) not in self.fs.rk:
            self._warn(f"revokeU: {u!r} not in {r!r}")
            return
        self._revoke_user_inner(u, r)

    def _held_files(self, r: str) -> list[str]:
        """The files role ``r`` holds FK tuples for.  A tuple of a file the
        engine does not know (a replay of a deleted file's) raises before
        any primitive runs."""
        files = self.fs.holder_files(r)
        for fn in files:
            if fn not in self.files:
                raise IntegrityError(
                    f"FK tuple of {r!r} for unknown file {fn!r}"
                )
        return files

    def _revoke_user_inner(self, u: str, r: str) -> None:
        files = self._held_files(r)
        rec = self.roles[r]
        v = rec.version
        new_ident = role_identity(r, v + 1)
        new_ring = self._mint_keyring(new_ident)
        payload = ("role-keys", new_ring.dec_key, new_ring.sig_key)
        for m in self.fs.rk_members(r, v):
            if m == u:
                continue
            self._verify(self.fs.rk[(m, r, v)], (m, r, v))
            ct = self.binding.enc(
                self.provider, self._keyring_of(m).enc_ref, payload
            )
            self._issue_rk(user_identity(m), new_ident, ct)
        self.roles[r] = RoleRec(v + 1, new_ring)
        for fn in files:
            # roll the role's own wrapped file keys onto the new role keys
            self._rewrap_fks(r, rec.keys.dec_key, fn, r)
            self._issue_new_file_key(fn)
        self.fs.delete_rk_role_version(r, v)

    def _wrap_target(self, h: str) -> tuple[Identity, object]:
        """The identity an FK tuple for holder ``h`` names and the reference
        its key is encrypted under: SU's, or role ``h``'s current record's.
        A holder that is neither raises ``IntegrityError``."""
        if h == SUPERUSER:
            return SU_IDENTITY, self.su.enc_ref
        rec = self.roles.get(h)
        if rec is None:
            raise IntegrityError(f"FK tuple for unknown holder {h!r}")
        return role_identity(h, rec.version), rec.keys.enc_ref

    def _issue_new_file_key(self, fn: str) -> None:
        """Mint a fresh file key and wrap it for every current holder, at the
        next file-key version; then make that version current."""
        vfn = self.files[fn]
        k2 = self.provider.sym_gen()
        for h in self.fs.fk_holders_at(fn, vfn):
            key = (h, fn, vfn)
            old = self.fs.fk[key]
            ident, ref = self._wrap_target(h)
            self._verify(old, key, ident)
            ct = self.binding.enc(self.provider, ref, k2)
            self._issue_fk(ident, fn, old.op, vfn + 1, ct)
        self.files[fn] = vfn + 1

    def _rewrap_fks(self, src: str, dec_key, fn: str, dst: str, op=None) -> None:
        """Open ``src``'s key for ``fn`` at every version it holds with
        ``dec_key``, whose owner each tuple must name, and issue it to holder
        ``dst``; each version keeps its op unless ``op`` is given."""
        ident, ref = self._wrap_target(dst)
        for vv in self.fs.fk_versions(src, fn):
            key = (src, fn, vv)
            old = self.fs.fk[key]
            self._verify(old, key, dec_key.owner)
            k = self.binding.dec(self.provider, dec_key, old.ct)
            ct = self.binding.enc(self.provider, ref, k)
            self._issue_fk(ident, fn, op or old.op, vv, ct)

    def _set_fk_op(self, r: str, fn: str, op: str) -> None:
        """Re-sign role ``r``'s key for ``fn`` at every version with ``op``."""
        ident = self._wrap_target(r)[0]
        for vv in self.fs.fk_versions(r, fn):
            key = (r, fn, vv)
            old = self.fs.fk[key]
            self._verify(old, key, ident)
            self._issue_fk(ident, fn, op, vv, old.ct)

    def assign_perm(self, r: str, fn: str, op: str) -> None:
        if op not in (READ, RW):
            raise RbacError(f"assignP: bad op {op!r}")
        if r not in self.roles:
            raise RbacError(f"assignP: no role {r!r}")
        if fn not in self.files:
            raise RbacError(f"assignP: no file {fn!r}")
        cur = self.fs.fk.get((r, fn, self.files[fn]))
        held = cur.op if cur is not None else None
        if held == RW or held == op:
            self._warn(f"assignP: {r!r} already holds {held} on {fn!r}")
            return
        if held == READ:
            # add write to existing read: re-sign each version in place
            self._set_fk_op(r, fn, RW)
            return
        # fresh grant: copy SU's wrapped key at every version
        versions = range(1, self.files[fn] + 1)
        if any((SUPERUSER, fn, v) not in self.fs.fk for v in versions):
            raise IntegrityError(f"assignP: missing SU's FK tuples of {fn!r}")
        self._rewrap_fks(SUPERUSER, self.su.dec_key, fn, r, op)

    def revoke_perm(self, r: str, fn: str, op: str) -> None:
        if op not in (WRITE, RW):
            raise RbacError(f"revokeP: bad op {op!r}")
        if r not in self.roles:
            raise RbacError(f"revokeP: no role {r!r}")
        if fn not in self.files:
            raise RbacError(f"revokeP: no file {fn!r}")
        cur = self.fs.fk.get((r, fn, self.files[fn]))
        held = cur.op if cur is not None else None
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
        self.fs.delete_fk_holder_file(r, fn)
        self._issue_new_file_key(fn)

    # -- data path

    def _qualifying_roles(self, u: str, fn: str, version: int, write: bool):
        out = []
        for rn in self.fs.member_roles(u):
            rec = self.roles.get(rn)
            if rec is None or (u, rn, rec.version) not in self.fs.rk:
                continue
            t = self.fs.fk.get((rn, fn, version))
            if t is None or (write and t.op != RW):
                continue
            out.append(rn)
        return out

    def _open_file_key(self, verb: str, u: str, fn: str):
        """The data path up to the file key: check the request (``verb`` is
        "read" or "write"), take the lexicographically least qualifying role,
        and unwrap its role keys and its key for ``fn``.  Returns the role,
        the role's signing key, the FK tuple and the file key."""
        if u not in self.users:
            raise RbacError(f"{verb}: no user {u!r}")
        if fn not in self.files:
            raise RbacError(f"{verb}: no file {fn!r}")
        write = verb == "write"
        if write:
            version = self.files[fn]
        else:
            if fn not in self.fs.f:
                raise IntegrityError(f"missing body of {fn!r}")
            self._check_place(self.fs.f[fn], fn)
            version = self.fs.f[fn].version
            if version != self.body_versions[fn]:
                raise IntegrityError(f"replayed stale body of {fn!r}")
        roles = self._qualifying_roles(u, fn, version, write)
        if not roles:
            raise AuthorizationError(f"{u!r} may not {verb} {fn!r}")
        r = roles[0]
        rk_key = (u, r, self.roles[r].version)
        rkt = self.fs.rk[rk_key]
        self._verify(rkt, rk_key)
        _, role_dec, role_sig = self.binding.dec(
            self.provider, self.users[u].dec_key, rkt.ct
        )
        fkt = self.fs.fk[(r, fn, version)]
        self._verify(fkt, (r, fn, version), role_dec.owner)
        k = self.binding.dec(self.provider, role_dec, fkt.ct)
        return r, role_sig, fkt, k

    def read_file(self, u: str, fn: str) -> bytes:
        k = self._open_file_key("read", u, fn)[3]
        return self.provider.sym_dec(k, self.fs.f[fn].body)

    def write_file(self, u: str, fn: str, body: bytes) -> None:
        r, role_sig, fkt, k = self._open_file_key("write", u, fn)
        vfn = self.files[fn]
        body_ct = self.provider.sym_enc(k, body)
        wident = role_identity(r, self.roles[r].version)
        ftup = self._signed(FTuple, role_sig, fn, vfn, body_ct, wident)
        with self.provider.scope(REFERENCE_MONITOR):
            if ftup.version != self.files[fn]:
                raise IntegrityError(f"stale write to {fn!r}")
            self._verify(ftup, fn)
            self._verify(fkt, (r, fn, vfn), wident)
        self.body_versions[fn] = vfn
        self.fs.put_f(ftup)

    # -- counted query forms

    def query_member(self, u: str, r: str) -> bool:
        rec = self.roles.get(r)
        if rec is None:
            return False
        key = (u, r, rec.version)
        t = self.fs.rk.get(key)
        return t is not None and self._sound(t, key)

    def query_holds(self, r: str, fn: str, op: str) -> bool:
        rec = self.roles.get(r)
        if rec is None or fn not in self.files:
            return False
        key = (r, fn, self.files[fn])
        t = self.fs.fk.get(key)
        if t is None or t.op != op or t.issuer != SU_IDENTITY:
            return False
        return self._sound(t, key, role_identity(r, rec.version))

    def query_role(self, r: str) -> bool:
        return r in self.roles

    def query_auth(self, u: str, fn: str, op: str) -> bool:
        if fn not in self.files:
            return False
        vfn = self.files[fn]
        for rn in self.fs.member_roles(u):
            rec = self.roles.get(rn)
            if rec is None:
                continue
            key = (rn, fn, vfn)
            t = self.fs.fk.get(key)
            if t is None or not grants(t.op, op) or t.issuer != SU_IDENTITY:
                continue
            ident = role_identity(rn, rec.version)
            if self.query_member(u, rn) and self._sound(t, key, ident):
                return True
        return False

    # -- instrumentation (uncounted index walks)

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
            (h, fn, t.op)
            for (h, fn, v), t in self.fs.fk.items()
            if h != SUPERUSER and h in roles and files.get(fn) == v
        )
        return RbacState(
            frozenset(self.users), frozenset(roles), frozenset(files), ur, pa
        )

    def auth_facts(self) -> frozenset[tuple]:
        return rbac.auth_facts(self.state())

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
    """Apply one label and return the primitive-operation delta it caused."""
    before = engine.provider.snapshot()
    engine.apply_label(label)
    return engine.provider.diff_since(before)
