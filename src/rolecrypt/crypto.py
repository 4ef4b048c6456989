"""Symbolic cryptography with per-principal operation counting.

Keys, ciphertexts and signatures are inert terms rather than bitstrings, in
the Dolev-Yao style.  Encryption is deterministic (equal inputs give equal
terms); decryption succeeds only when the presented key matches the
ciphertext's recipient exactly, and a mismatch raises and is recorded as an
unauthorized-decryption event.  A signature is the term ``sig(k, m)``: it
carries the signer and the signed message itself, and verifying it is a
syntactic comparison of that message with the presented one.  A caller that
signs a term record, as the engine signs each stored tuple's body, presents
the very object it signed, so an honest verify ends at an identity check;
any other message is compared by value.  Every primitive invocation
increments a named counter attributed to the provider's current
``principal`` (``invoker`` unless a ``reference_monitor`` scope is open).

``CryptoProvider`` holds what the families share: the counters, the
principal scopes, serials and the symmetric primitives (sym_*).  Each
binding is a subclass that defines its asymmetric family as the six
primitives the engine calls (``enc_keys``, ``sig_keys``, ``enc``, ``dec``,
``sign`` and ``verify``): ``IbeProvider`` encrypts and verifies against an
identity (IBE/IBS), ``PkiProvider`` against a generated public key object
(PKE/signatures).  Each counts under its family's names (ibe_*/ibs_* or
pke_*/sig_*), so one engine runs against either.
"""

from __future__ import annotations

import operator
import struct
from collections import defaultdict
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, TypeVar

INVOKER = "invoker"
REFERENCE_MONITOR = "reference_monitor"

PRINCIPALS = (INVOKER, REFERENCE_MONITOR)

_T = TypeVar("_T")

# Counter names by family; a public-key name pairs with the identity-based
# name in the same position.
_IBE = (
    "ibe_keygen", "ibe_enc", "ibe_dec", "ibs_keygen", "ibs_sign", "ibs_ver",
)
_PKI = ("pke_gen", "pke_enc", "pke_dec", "sig_gen", "sig_sign", "sig_ver")
_SYM = ("sym_gen", "sym_enc", "sym_dec")

OP_NAMES = _IBE + _PKI + _SYM

#: The counters the cost model prices both variants in.
MODEL_OPS = _IBE + _SYM

#: Counter renaming that maps identity-based measurements onto the
#: conventional public-key family (used for cross-variant comparisons).
IBE_TO_PKI = dict(zip(_IBE, _PKI))


def record(cls: type, checked: bool = False) -> type:
    """``dataclass(frozen=True, slots=True)`` with an ``__init__`` that sets
    each slot through its member descriptor rather than through
    ``object.__setattr__``, at about half the cost; the signature, the
    defaults and the ``__post_init__`` call are the dataclass's own, and its
    file name, ``<record Name>``, tells the types apart in a profile.  A
    ``checked`` record first passes each field that is neither an ASCII
    string nor of a ``_SETTLED`` type through ``_frozen``, so it raises
    where ``canonical_bytes`` would and holds no list from then on."""
    cls = dataclass(frozen=True, slots=True)(cls)
    env: dict[str, object] = {}
    params, body = [], []
    for f in fields(cls):
        n = f.name
        env[f"_set_{n}"] = getattr(cls, n).__set__
        if f.default is MISSING:
            params.append(n)
        else:
            env[f"_default_{n}"] = f.default
            params.append(f"{n}=_default_{n}")
        if checked:
            body.append(f"_t = type({n})\n  if (not {n}.isascii()) if _t is "
                        f"str else _t not in _SETTLED: {n} = _frozen({n})")
        body.append(f"_set_{n}(self, {n})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    made: dict[str, object] = {}
    exec(compile(f"def make({', '.join(env)}):\n"  # _SETTLED, _frozen late
                 f" def __init__(self, {', '.join(params)}):\n  "
                 + "\n  ".join(body) + "\n return __init__",
                 f"<record {cls.__qualname__}>", "exec"), globals(), made)
    init = made["make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


_RECORDS: dict = {}  # each term type's tag and the getter of its fields

#: The types whose values ``_frozen`` returns without a walk: the atoms but
#: ``str``, and the term records, which check their own fields when built.
_SETTLED = {int, bool, bytes, type(None)}


def term(tag: bytes) -> Callable[[type], type]:
    """A ``checked`` record registered as a term under ``tag``, one byte
    that no other type's encoding starts with: checked and frozen when it is
    built, so ``_frozen`` returns it without a walk, and encoded by
    ``canonical_bytes`` as ``tag`` and its fields in declared order."""
    def register(cls: type) -> type:
        cls = record(cls, checked=True)
        names = [f.name for f in fields(cls)]
        _RECORDS[cls] = (tag, operator.attrgetter(*names))
        _SETTLED.add(cls)
        return cls
    return register


@term(b"D")
class Identity:
    """A principal a key can be derived for: a user, a role version, or SU."""

    kind: str  # "user" | "role" | "superuser"
    name: str
    version: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("user", "role", "superuser"):
            raise ValueError(f"bad identity kind {self.kind!r}")
        if (self.kind == "role") != (self.version is not None):
            raise ValueError("exactly role identities carry a version")

    def __str__(self) -> str:
        if self.kind == "role":
            return f"({self.name},v{self.version})"
        return self.name


@term(b"K")
class SymbolicKey:
    """A key record.  alg is one of:
    ibe-dec, ibs-sign (identity-derived private keys);
    pke-pub, pke-priv, sig-ver, sig-sign (generated pairs, matched by serial);
    sym (fresh symmetric keys, matched by serial).
    """

    alg: str
    owner: Optional[Identity] = None
    serial: Optional[int] = None


@term(b"C")
class SymbolicCiphertext:
    """Deterministic ciphertext: recipient reference plus structural payload."""

    alg: str  # "ibe" | "pke" | "sym"
    recipient: object  # Identity (ibe), SymbolicKey pke-pub (pke) or sym (sym)
    payload: object


@term(b"G")
class SymbolicSignature:
    """The term sig(k, m): the signing key's owner and serial, and m."""

    alg: str  # "ibs" | "sig"
    signer: Identity
    key_serial: Optional[int]  # None for ibs
    fields: object  # m: a term held as signed, or a value with lists frozen


class UnauthorizedDecrypt(Exception):
    """Decryption was attempted with a key that does not match the recipient."""


class CostVector:
    """An immutable bag of (principal, op) counts with exact arithmetic.

    The counts live in a plain dict that holds no zero.  ``+`` keeps
    ``Counter``'s rule: a count whose sum is not positive drops out.  ``-``
    keeps negative counts, so ``measured - predicted`` shows an excess and a
    shortfall alike."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[tuple[str, str], int]] = None):
        self._counts = {k: v for k, v in counts.items() if v} if counts else {}

    @classmethod
    def _of(cls, counts: dict[tuple[str, str], int]) -> "CostVector":
        """A vector owning ``counts``, which must hold no zero."""
        cv = object.__new__(cls)
        cv._counts = counts
        return cv

    def get(self, op: str, principal: Optional[str] = None) -> int:
        if principal is not None:
            return self._counts.get((principal, op), 0)
        return sum(v for (_, o), v in self._counts.items() if o == op)

    def by_principal(self, principal: str) -> dict[str, int]:
        return {
            o: v for (p, o), v in sorted(self._counts.items()) if p == principal
        }

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, o), v in self._counts.items():
            out[o] = out.get(o, 0) + v
        return dict(sorted(out.items()))

    def items(self) -> list[tuple[tuple[str, str], int]]:
        return sorted(self._counts.items())

    def renamed(self, mapping: Mapping[str, str]) -> "CostVector":
        c: dict[tuple[str, str], int] = {}
        for (p, o), v in self._counts.items():
            k = (p, mapping.get(o, o))
            c[k] = c.get(k, 0) + v
        return CostVector(c)

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector.sum((self, other))

    @classmethod
    def sum(cls, vectors: Iterable["CostVector"]) -> "CostVector":
        """Sum ``vectors`` in one dict, as a fold of ``+`` when none is negative."""
        c: dict[tuple[str, str], int] = {}
        for v in vectors:
            for k, n in v._counts.items():
                c[k] = c.get(k, 0) + n
        return cls._of({k: n for k, n in c.items() if n > 0})

    def __sub__(self, other: "CostVector") -> "CostVector":
        c = dict(self._counts)
        for k, v in other._counts.items():
            c[k] = c.get(k, 0) - v
        return CostVector(c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CostVector) and self._counts == other._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        parts = [f"{p}.{o}={v}" for (p, o), v in self.items()]
        return f"CostVector({', '.join(parts)})"


# --- canonical serialization --------------------------------------------------
#
# Every term has one canonical byte form: a one-byte type tag, a 4-byte
# big-endian length, then the body, recursively for structured fields, fields
# concatenated in declared order.  Two terms are equal exactly when their
# canonical bytes are (so True is not 1, "a" is not b"a", and a list equals
# the tuple with the same items).

_u32 = struct.Struct(">I").pack  # the 4-byte big-endian length


def canonical_bytes(v: object) -> bytes:
    """The encoding, dispatched on exact type (a subclass of a serializable
    type is rejected, so no value has two encodings)."""
    t = type(v)
    if t is str:
        body = v.encode()
        return b"S" + _u32(len(body)) + body
    if t is tuple or t is list:
        body = b"".join([canonical_bytes(x) for x in v])
        return b"T" + _u32(len(body)) + body
    if v is None:
        return b"N\x00\x00\x00\x00"
    if t is int:
        body = str(v).encode()
        return b"I" + _u32(len(body)) + body
    if t is bool:
        return b"O\x00\x00\x00\x01" + (b"\x01" if v else b"\x00")
    if t is bytes:
        return b"B" + _u32(len(v)) + v
    record = _RECORDS.get(t)
    if record is None:
        raise TypeError(f"cannot serialize {t.__name__}")
    tag, fields_of = record
    body = b"".join([canonical_bytes(x) for x in fields_of(v)])
    return tag + _u32(len(body)) + body


def _frozen(v: object) -> object:
    """``v`` with every list turned into a tuple, and ``v`` itself when it
    holds none; raises where ``canonical_bytes`` would (``TypeError``, or
    ``UnicodeEncodeError`` for a string with a lone surrogate).  Only the
    bare tuples, lists and strings around records are walked."""
    t = type(v)
    if t is tuple:
        for x in v:
            tx = type(x)
            if tx is str:
                if not x.isascii():
                    x.encode()
            elif tx not in _SETTLED and _frozen(x) is not x:
                return tuple([_frozen(y) for y in v])
        return v
    if t is list:
        return tuple([_frozen(x) for x in v])
    if t is str:
        if not v.isascii():
            v.encode()
    elif t not in _SETTLED:
        raise TypeError(f"cannot serialize {t.__name__}")
    return v


def _same_term(a: object, b: object) -> bool:
    """``canonical_bytes(a) == canonical_bytes(b)``, for an ``a`` that
    ``canonical_bytes`` can encode, without encoding either."""
    if a is b:
        return True
    t, tb = type(a), type(b)
    if t is tuple or t is list:
        if not (tb is tuple or tb is list) or len(a) != len(b):
            return False
        pairs = zip(a, b)
    elif t is not tb:
        return False
    else:
        record = _RECORDS.get(t)
        if record is None:
            return a == b
        pairs = zip(record[1](a), record[1](b))
    for x, y in pairs:
        if x is not y and not _same_term(x, y):
            return False
    return True


SU_IDENTITY = Identity("superuser", "SU")


# The two constructors below intern their terms (hash-consing): every call
# with the same arguments, compared by value and exact type, returns one
# shared ``Identity``, so a store holding thousands of tuples for one role
# version holds one identity object for it.  ``typed=True`` keeps
# ``role_identity("r", True)`` apart from ``role_identity("r", 1)``, which
# are different terms.


@lru_cache(maxsize=None, typed=True)
def user_identity(name: str) -> Identity:
    return SU_IDENTITY if name == "SU" else Identity("user", name)


@lru_cache(maxsize=None, typed=True)
def role_identity(name: str, version: int) -> Identity:
    return Identity("role", name, version)


class CryptoProvider:
    """Counts primitive invocations and evaluates the symmetric family; a
    binding subclass adds its asymmetric family.  Each primitive bumps
    ``_tally``, the current principal's tally, read when it runs: ``scope``
    and ``measure`` swap it."""

    def __init__(self) -> None:
        # each principal's counts by op; _tally is the current principal's
        self._tallies = {p: defaultdict(int) for p in PRINCIPALS}
        self.principal = INVOKER  # charged for every primitive
        self._tally = self._tallies[INVOKER]
        self._next_serial = 1
        self.unauthorized_events: list[tuple] = []

    def fork(self) -> "CryptoProvider":
        """An independent provider of the same class, with the same counts,
        next serial and unauthorized-decryption events, and no open scope."""
        p = type(self)()
        for principal, tally in self._tallies.items():
            p._tallies[principal].update(tally)
        p._next_serial = self._next_serial
        p.unauthorized_events = list(self.unauthorized_events)
        return p

    def _serial(self) -> int:
        n = self._next_serial
        self._next_serial = n + 1
        return n

    # -- scopes and accounting

    def scope(self, principal: str) -> "_Swap":
        """A context that charges ``principal`` for the primitives inside."""
        if principal not in PRINCIPALS:
            raise ValueError(f"unknown principal {principal!r}")
        return _Swap(self, principal)

    def snapshot(self) -> CostVector:
        return CostVector._of({
            (p, op): n
            for p, tally in self._tallies.items() for op, n in tally.items()
        })

    def measure(self, call: Callable[..., _T], *args) -> tuple[CostVector, _T]:
        """``call(*args)``'s primitives and its result.  The call counts on
        fresh tallies, which join the totals when it returns or raises."""
        totals = self._tallies
        fresh = {p: defaultdict(int) for p in PRINCIPALS}
        self._tallies, self._tally = fresh, fresh[self.principal]
        try:
            out = call(*args)
        finally:
            self._tallies, self._tally = totals, totals[self.principal]
            counts = {}
            for p, tally in fresh.items():
                total = totals[p]
                for op, n in tally.items():
                    total[op] += n
                    counts[p, op] = n
        return CostVector._of(counts), out

    # -- symmetric family

    def sym_gen(self) -> SymbolicKey:
        self._tally["sym_gen"] += 1
        return SymbolicKey("sym", serial=self._serial())

    def sym_enc(self, key: SymbolicKey, payload: object) -> SymbolicCiphertext:
        self._tally["sym_enc"] += 1
        if key.alg != "sym":
            raise TypeError("sym_enc requires a sym key")
        return SymbolicCiphertext("sym", key, payload)

    def sym_dec(self, key: SymbolicKey, ct: SymbolicCiphertext) -> object:
        self._tally["sym_dec"] += 1
        if ct.alg != "sym" or key is not ct.recipient and key != ct.recipient:
            self.unauthorized_events.append(("sym_dec", key, ct))
            raise UnauthorizedDecrypt("wrong symmetric key")
        return ct.payload


class _Swap:
    """``CryptoProvider.scope``'s context: entering and leaving each swap the
    provider's principal with the one held here (a generator would cost
    more than a primitive per upload check)."""

    __slots__ = ("provider", "principal")

    def __init__(self, provider: CryptoProvider, principal: str) -> None:
        self.provider, self.principal = provider, principal

    def __enter__(self) -> None:
        p = self.provider
        p.principal, self.principal = self.principal, p.principal
        p._tally = p._tallies[p.principal]

    def __exit__(self, *exc) -> None:
        self.__enter__()


class IbeProvider(CryptoProvider):
    """Identity-based keys (IBE/IBS): encryption and verification address
    identities directly; private keys are derived by the administrator (who
    holds the master secret, the escrow the scheme is chosen for)."""

    name = "ibe"

    def enc_keys(self, ident: Identity) -> tuple[Identity, SymbolicKey]:
        self._tally["ibe_keygen"] += 1
        return ident, SymbolicKey("ibe-dec", owner=ident)

    def sig_keys(self, ident: Identity) -> tuple[Identity, SymbolicKey]:
        self._tally["ibs_keygen"] += 1
        return ident, SymbolicKey("ibs-sign", owner=ident)

    def enc(self, ident: Identity, payload: object) -> SymbolicCiphertext:
        self._tally["ibe_enc"] += 1
        return SymbolicCiphertext("ibe", ident, payload)

    def dec(self, key: SymbolicKey, ct: SymbolicCiphertext) -> object:
        self._tally["ibe_dec"] += 1
        ok = ct.alg == "ibe" and key.alg == "ibe-dec"
        if not ok or key.owner is not ct.recipient and key.owner != ct.recipient:
            self.unauthorized_events.append(("ibe_dec", key, ct))
            raise UnauthorizedDecrypt(
                f"key for {key.owner} cannot open ciphertext to {ct.recipient}"
            )
        return ct.payload

    def sign(self, key: SymbolicKey, fields: object) -> SymbolicSignature:
        self._tally["ibs_sign"] += 1
        if key.alg != "ibs-sign":
            raise TypeError("ibs_sign requires an ibs-sign key")
        return SymbolicSignature("ibs", key.owner, None, fields)

    def verify(
        self, ident: Identity, fields: object, sig: SymbolicSignature
    ) -> bool:
        self._tally["ibs_ver"] += 1
        return (
            sig.alg == "ibs"
            and (sig.signer is ident or sig.signer == ident)
            and _same_term(sig.fields, fields)
        )


class PkiProvider(CryptoProvider):
    """Conventional key pairs (PKE/signatures): a fresh pair per principal
    and per role version, matched by serial, the public halves published in
    the metadata records.  In add_user the pair is generated client-side by
    the joining user; the counters are charged to the invoker either way."""

    name = "pki"

    def enc_keys(self, owner: Identity) -> tuple[SymbolicKey, SymbolicKey]:
        self._tally["pke_gen"] += 1
        n = self._serial()
        return (
            SymbolicKey("pke-pub", owner=owner, serial=n),
            SymbolicKey("pke-priv", owner=owner, serial=n),
        )

    def sig_keys(self, owner: Identity) -> tuple[SymbolicKey, SymbolicKey]:
        self._tally["sig_gen"] += 1
        n = self._serial()
        return (
            SymbolicKey("sig-ver", owner=owner, serial=n),
            SymbolicKey("sig-sign", owner=owner, serial=n),
        )

    def enc(self, pub: SymbolicKey, payload: object) -> SymbolicCiphertext:
        self._tally["pke_enc"] += 1
        if pub.alg != "pke-pub":
            raise TypeError("pke_enc requires a pke-pub key")
        return SymbolicCiphertext("pke", pub, payload)

    def dec(self, priv: SymbolicKey, ct: SymbolicCiphertext) -> object:
        self._tally["pke_dec"] += 1
        ok = (
            ct.alg == "pke"
            and priv.alg == "pke-priv"
            and isinstance(ct.recipient, SymbolicKey)
            and priv.serial == ct.recipient.serial
        )
        if not ok:
            self.unauthorized_events.append(("pke_dec", priv, ct))
            raise UnauthorizedDecrypt(
                f"key {priv.serial} cannot open ciphertext to {ct.recipient}"
            )
        return ct.payload

    def sign(self, key: SymbolicKey, fields: object) -> SymbolicSignature:
        self._tally["sig_sign"] += 1
        if key.alg != "sig-sign":
            raise TypeError("sig_sign requires a sig-sign key")
        return SymbolicSignature("sig", key.owner, key.serial, fields)

    def verify(
        self, ver: SymbolicKey, fields: object, sig: SymbolicSignature
    ) -> bool:
        self._tally["sig_ver"] += 1
        return (
            sig.alg == "sig"
            and ver.alg == "sig-ver"
            and sig.key_serial == ver.serial
            and _same_term(sig.fields, fields)
        )
