"""The faults of a store trusted only for availability.

A hostile store can commit six faults against an ``Engine``'s tuples:

* ``tamper``: change one field that the tuple's signature covers;
* ``drop``: delete a tuple;
* ``replay``: put back a tuple the store held earlier, under a key it no
  longer holds (a retired role or file-key version, a departed holder), or
  a body older than the stored one;
* ``swap``: store two tuples of one kind each under the other's key;
* ``replay_same``: put back an older body at the stored body's version;
* ``forge``: put an FK tuple wrapping a key of the forger's choosing, validly
  signed by a principal the engine knows (a user or a role) that is not the
  tuple's expected signer, and naming it as the issuer.

The tuple kinds, their store maps and signed fields are read off
``engine._SIGNED``: a tuple tagged ``FK`` lives in ``fs.fk`` and goes
through ``fs.put_fk`` and ``fs.del_fk``, and so on.  Every tuple built with
a changed field and its old signature comes from ``altered``.
"""

import dataclasses

from rolecrypt.crypto import (
    SU_IDENTITY, Identity, SymbolicCiphertext, role_identity, user_identity,
)
from rolecrypt.engine import _SIGNED
from rolecrypt.rbac import READ, RW

KINDS = ("tamper", "drop", "replay", "swap", "replay_same", "forge")
GHOST = user_identity("ghost")  # a signer no engine knows
#: each tag's signed fields: the fields of its body record
FIELDS = {
    layout.tag: [f.name for f in dataclasses.fields(body)]
    for body, layout in _SIGNED.items()
}


def stored(eng, tag) -> dict:
    return getattr(eng.fs, tag.lower())


def _call(eng, verb, tag, *args) -> None:
    getattr(eng.fs, f"{verb}_{tag.lower()}")(*args)


def others(v) -> list:
    """Values of ``v``'s type that a tamperer could put in its place."""
    if type(v) is Identity:
        alts = [SU_IDENTITY, GHOST] if v.kind != "role" else [
            role_identity(v.name, v.version + 1)
        ]
    elif type(v) is SymbolicCiphertext:
        alts = [dataclasses.replace(v, payload=("junk", v.payload))]
    elif type(v) is int:
        alts = [v - 1, v + 1]
    else:
        alts = [{READ: RW, RW: READ}.get(v, v + "x")]
    return [a for a in alts if a != v]


def altered(t, field, value):
    """``t`` with its body's ``field`` set to ``value`` and its signature
    kept: the body is a new record, so a verify compares it by value."""
    return type(t)(dataclasses.replace(t.fields, **{field: value}), t.sig)


def tamper(eng, tag, key, field, value) -> None:
    """Put the tuple at ``key`` with ``field`` set to ``value``; the store
    files it under the key its fields name."""
    _call(eng, "put", tag, altered(stored(eng, tag)[key], field, value))


def forge(eng, key, signer):
    """Put the FK tuple at ``key`` wrapping a fresh key for its holder, signed
    by ``signer``, a user or a role identity ``eng`` knows; returns that key,
    which the forger knows."""
    t = stored(eng, "FK")[key]
    if signer.kind == "role":
        sig_key = eng.roles[signer.name].keys.sig_key
    else:
        sig_key = eng.users[signer.name].sig_key
    k = eng.provider.sym_gen()
    ct = eng.provider.enc(eng._wrap_target(key[0])[1], k)
    body = dataclasses.replace(t.fields, ct=ct, issuer=signer)
    eng.fs.put_fk(type(t)(body, eng.provider.sign(sig_key, body)))
    return k


def drop(eng, tag, key) -> None:
    _call(eng, "del", tag, *(key if tag != "F" else (key,)))


def replay(eng, tag, t) -> None:
    _call(eng, "put", tag, t)


def swap(eng, tag, a, b) -> None:
    s = stored(eng, tag)
    s[a], s[b] = s[b], s[a]


class History:
    """Every tuple a store has held, by tag and key, oldest first."""

    def __init__(self) -> None:
        self.held = {tag: {} for tag in FIELDS}

    def record(self, eng) -> None:
        for tag, held in self.held.items():
            for key, t in stored(eng, tag).items():
                ts = held.setdefault(key, [])
                if t not in ts[-1:]:
                    ts.append(t)

    def replays(self, eng, same_version=False) -> list:
        """The ``(tag, key, tuple)`` replays against ``eng``'s store, by key
        and oldest first: held tuples whose key the store lacks and older
        bodies, or with ``same_version`` older bodies at the stored one's."""
        out = []
        for tag in sorted(self.held):
            for key in sorted(self.held[tag]):
                cur = stored(eng, tag).get(key)
                for t in self.held[tag][key]:
                    if cur is None or (tag == "F" and t != cur):
                        same = cur is not None and (
                            t.fields.version == cur.fields.version
                        )
                        if same == same_version:
                            out.append((tag, key, t))
        return out


def draw(rng, eng, history, kind):
    """A random fault of ``kind`` against ``eng``'s store, or None if there is
    nothing to commit it on: a description that names the keys it touches,
    and a function that commits it on ``eng`` or a fork of it."""
    if kind == "forge":
        keys = sorted(stored(eng, "FK"))
        if not keys:
            return None
        key = rng.choice(keys)
        signers = [user_identity(u) for u in sorted(eng.users)] + [
            role_identity(r, rec.version) for r, rec in sorted(eng.roles.items())
        ]
        signers = [s for s in signers if s != eng._fk_signer(key)[0]]
        if not signers:
            return None
        signer = rng.choice(signers)
        desc = (kind, "FK", key, signer.kind, signer.name)
        return desc, lambda e: forge(e, key, signer)
    if kind.startswith("replay"):
        cands = history.replays(eng, kind == "replay_same")
        if not cands:
            return None
        tag, key, t = rng.choice(cands)
        return (kind, tag, key), lambda e: replay(e, tag, t)
    need = 2 if kind == "swap" else 1
    tags = [t for t in sorted(FIELDS) if len(stored(eng, t)) >= need]
    if not tags:
        return None
    tag = rng.choice(tags)
    keys = sorted(stored(eng, tag))
    if kind == "swap":
        a, b = rng.sample(keys, 2)
        return (kind, tag, a, b), lambda e: swap(e, tag, a, b)
    key = rng.choice(keys)
    if kind == "drop":
        return (kind, tag, key), lambda e: drop(e, tag, key)
    field = rng.choice(FIELDS[tag])
    value = rng.choice(others(getattr(stored(eng, tag)[key].fields, field)))
    desc = (kind, tag, key, field, repr(value))
    return desc, lambda e: tamper(e, tag, key, field, value)
