"""Symbolic provider: counting, scopes, key matching, canonical bytes."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rolecrypt.crypto import (
    IBE_TO_PKI,
    INVOKER,
    OP_NAMES,
    PRINCIPALS,
    REFERENCE_MONITOR,
    CostVector,
    CryptoProvider,
    IbeProvider,
    Identity,
    PkiProvider,
    SU_IDENTITY,
    SymbolicCiphertext,
    SymbolicKey,
    SymbolicSignature,
    UnauthorizedDecrypt,
    _frozen,
    canonical_bytes,
    role_identity,
    user_identity,
)


# -- counter names

# the inverse renaming, public-key names back to identity-based ones
_PKI_TO_IBE = {v: k for k, v in IBE_TO_PKI.items()}


def test_counter_names_and_family_maps_are_pinned():
    # bench fingerprints and per-layer metric names follow this order
    assert OP_NAMES == (
        "ibe_keygen", "ibe_enc", "ibe_dec", "ibs_keygen", "ibs_sign", "ibs_ver",
        "pke_gen", "pke_enc", "pke_dec", "sig_gen", "sig_sign", "sig_ver",
        "sym_gen", "sym_enc", "sym_dec",
    )
    assert list(IBE_TO_PKI.items()) == [
        ("ibe_keygen", "pke_gen"),
        ("ibe_enc", "pke_enc"),
        ("ibe_dec", "pke_dec"),
        ("ibs_keygen", "sig_gen"),
        ("ibs_sign", "sig_sign"),
        ("ibs_ver", "sig_ver"),
    ]


# -- identities


def test_identity_version_rules():
    Identity("role", "r", 3)
    with pytest.raises(ValueError):
        Identity("role", "r")  # roles are always versioned
    with pytest.raises(ValueError):
        Identity("user", "u", 1)
    with pytest.raises(ValueError):
        Identity("thing", "x")


def test_identity_helpers():
    assert user_identity("SU") is SU_IDENTITY
    assert user_identity("u").kind == "user"
    r = role_identity("r", 2)
    assert str(r) == "(r,v2)"
    assert str(SU_IDENTITY) == "SU"


def test_identities_are_interned_by_exact_type():
    assert role_identity("r", 1) is role_identity("r", 1)
    assert user_identity("u") is user_identity("u")
    one, true = role_identity("r", 1), role_identity("r", True)
    # 1 == True in Python, but they are different terms: the cache keys on
    # the argument types too
    assert true is not one
    assert type(true.version) is bool and type(one.version) is int
    assert canonical_bytes(true) != canonical_bytes(one)


# -- counting and scopes


def test_counts_attribute_to_scope():
    p = IbeProvider()
    p.enc_keys(user_identity("u"))
    with p.scope(REFERENCE_MONITOR):
        sig = p.sign(p.sig_keys(SU_IDENTITY)[1], ("x",))
        p.verify(SU_IDENTITY, ("x",), sig)
    c = p.snapshot()
    assert c.get("ibe_keygen", INVOKER) == 1
    assert c.get("ibs_ver", REFERENCE_MONITOR) == 1
    assert c.get("ibs_ver", INVOKER) == 0
    # keygen and sign above also ran inside the monitor scope
    assert c.get("ibs_keygen", REFERENCE_MONITOR) == 1
    assert c.get("ibs_sign", REFERENCE_MONITOR) == 1


def test_scope_nesting_restores():
    p = CryptoProvider()
    with p.scope(INVOKER):
        with p.scope(REFERENCE_MONITOR):
            assert p.principal == REFERENCE_MONITOR
        assert p.principal == INVOKER
    assert p.principal == INVOKER


def test_scope_rejects_unknown_principal():
    p = CryptoProvider()
    with pytest.raises(ValueError):
        with p.scope("eve"):
            pass


def test_snapshot_difference():
    p = CryptoProvider()
    p.sym_gen()
    snap = p.snapshot()
    p.sym_gen()
    p.sym_gen()
    assert (p.snapshot() - snap).get("sym_gen") == 2


# -- identity-based family


def test_ibe_round_trip_and_determinism():
    p = IbeProvider()
    u = user_identity("u")
    _, k = p.enc_keys(u)
    ct1 = p.enc(u, ("hello", 1))
    ct2 = p.enc(u, ("hello", 1))
    assert ct1 == ct2  # symbolic encryption is deterministic
    assert p.dec(k, ct1) == ("hello", 1)


def test_ibe_wrong_key_raises_and_records():
    p = IbeProvider()
    _, k_eve = p.enc_keys(user_identity("eve"))
    ct = p.enc(user_identity("u"), "secret")
    with pytest.raises(UnauthorizedDecrypt):
        p.dec(k_eve, ct)
    assert len(p.unauthorized_events) == 1
    assert p.snapshot().get("ibe_dec") == 1  # the attempt still counts


def test_ibs_sign_verify():
    p = IbeProvider()
    _, k = p.sig_keys(SU_IDENTITY)
    sig = p.sign(k, ("F", "fn", 1))
    assert p.verify(SU_IDENTITY, ("F", "fn", 1), sig)
    assert not p.verify(SU_IDENTITY, ("F", "fn", 2), sig)
    assert not p.verify(user_identity("u"), ("F", "fn", 1), sig)


def test_ibs_sign_requires_signing_key():
    p = IbeProvider()
    with pytest.raises(TypeError):
        p.sign(p.enc_keys(SU_IDENTITY)[1], ("x",))


# -- conventional public-key family


def test_pke_round_trip_and_mismatch():
    p = PkiProvider()
    pub1, priv1 = p.enc_keys(user_identity("u"))
    pub2, priv2 = p.enc_keys(user_identity("w"))
    assert pub1.serial == priv1.serial != pub2.serial
    ct = p.enc(pub1, "payload")
    assert p.dec(priv1, ct) == "payload"
    with pytest.raises(UnauthorizedDecrypt):
        p.dec(priv2, ct)
    with pytest.raises(TypeError):
        p.enc(priv1, "x")  # encrypting to a private key is a type error


def test_sig_sign_verify():
    p = PkiProvider()
    ver1, sign1 = p.sig_keys(user_identity("u"))
    ver2, _ = p.sig_keys(user_identity("u"))
    sig = p.sign(sign1, ("body",))
    assert p.verify(ver1, ("body",), sig)
    assert not p.verify(ver2, ("body",), sig)  # different pair, same owner
    assert not p.verify(ver1, ("other",), sig)
    with pytest.raises(TypeError):
        p.sign(ver1, ("body",))


# -- symmetric family


def test_sym_round_trip_and_mismatch():
    p = IbeProvider()
    k1, k2 = p.sym_gen(), p.sym_gen()
    assert k1 != k2
    ct = p.sym_enc(k1, b"data")
    assert p.sym_dec(k1, ct) == b"data"
    with pytest.raises(UnauthorizedDecrypt):
        p.sym_dec(k2, ct)
    with pytest.raises(TypeError):
        p.sym_enc(p.enc_keys(SU_IDENTITY)[1], b"x")


# -- the two bindings


@pytest.mark.parametrize(
    "cls, name", [(IbeProvider, "ibe"), (PkiProvider, "pki")]
)
def test_binding_provider_runs_its_familys_primitives(cls, name):
    # one call of each of the engine's six primitives counts each of the
    # family's six counters once, under the names reconcile maps between
    p = cls()
    alice = user_identity("alice")
    enc_ref, dec_key = p.enc_keys(alice)
    ver_ref, sig_key = p.sig_keys(alice)
    assert p.dec(dec_key, p.enc(enc_ref, b"m")) == b"m"
    assert p.verify(ver_ref, b"m", p.sign(sig_key, b"m"))
    names = IBE_TO_PKI.values() if name == "pki" else IBE_TO_PKI
    assert p.snapshot() == CostVector({(INVOKER, op): 1 for op in names})
    assert p.name == name
    fork = p.fork()
    assert type(fork) is cls and fork.snapshot() == p.snapshot()


_ENGINE_PRIMITIVES = {"enc_keys", "sig_keys", "enc", "dec", "sign", "verify"}
_SHARED = {
    "sym_gen", "sym_enc", "sym_dec", "fork", "measure", "scope", "snapshot",
}


def _family_names(obj):
    """The attributes of ``obj`` named for an asymmetric family's counters."""
    return {
        n for n in dir(obj)
        if n.split("_")[0] in ("ibe", "ibs", "pke", "sig") and n != "sig_keys"
    }


@pytest.mark.parametrize("cls", [IbeProvider, PkiProvider])
def test_each_binding_is_pinned_to_its_own_family(cls):
    # the six engine primitives are the class's own methods, none an alias
    # of another class's, beside only the shared parts of CryptoProvider
    own = {n: f for n, f in vars(cls).items() if callable(f)}
    assert set(own) == _ENGINE_PRIMITIVES
    for n, f in own.items():
        assert f.__qualname__ == f"{cls.__name__}.{n}"
    p = cls()
    assert type(p).__init__ is CryptoProvider.__init__
    public = {
        n for n in dir(p) if not n.startswith("_") and callable(getattr(p, n))
    }
    assert public == _ENGINE_PRIMITIVES | _SHARED
    assert not _family_names(p)
    assert not _family_names(CryptoProvider)
    assert not _ENGINE_PRIMITIVES & set(dir(CryptoProvider))


# -- cost vectors


def test_cost_vector_arithmetic():
    a = CostVector({(INVOKER, "ibe_enc"): 2, (INVOKER, "ibs_sign"): 1})
    b = CostVector({(INVOKER, "ibe_enc"): 1})
    assert (a + b).get("ibe_enc") == 3
    assert (a - b).get("ibe_enc") == 1
    assert a - a == CostVector()
    assert not (a - a)  # zero vector is falsy
    assert a


def test_cost_vector_drops_zero_entries():
    v = CostVector({(INVOKER, "ibe_enc"): 0, (INVOKER, "sym_gen"): 1})
    assert v.items() == [((INVOKER, "sym_gen"), 1)]


def test_cost_vector_views():
    v = CostVector({
        (INVOKER, "ibe_enc"): 2,
        (REFERENCE_MONITOR, "ibs_ver"): 3,
        (INVOKER, "ibs_ver"): 1,
    })
    assert v.get("ibs_ver") == 4
    assert v.get("ibs_ver", INVOKER) == 1
    assert v.by_principal(REFERENCE_MONITOR) == {"ibs_ver": 3}
    assert v.totals() == {"ibe_enc": 2, "ibs_ver": 4}


def test_cost_vector_renaming_merges():
    v = CostVector({(INVOKER, "ibe_enc"): 2, (INVOKER, "pke_enc"): 3})
    merged = v.renamed(IBE_TO_PKI)
    assert merged.get("pke_enc") == 5
    assert merged.get("ibe_enc") == 0
    # the renaming is one-to-one, so its inverse renames back
    assert len(_PKI_TO_IBE) == len(IBE_TO_PKI)
    assert merged.renamed(_PKI_TO_IBE) == CostVector({(INVOKER, "ibe_enc"): 5})


class _CounterCostVector:
    """The ``Counter``-backed ``CostVector`` that the dict-backed one
    replaced, kept as the reference it must agree with."""

    def __init__(self, counts=None):
        c = Counter()
        if counts:
            for k, v in counts.items():
                if v:
                    c[k] = v
        self._counts = c

    def get(self, op, principal=None):
        if principal is not None:
            return self._counts.get((principal, op), 0)
        return sum(v for (_, o), v in self._counts.items() if o == op)

    def by_principal(self, principal):
        return {
            o: v for (p, o), v in sorted(self._counts.items()) if p == principal
        }

    def totals(self):
        out = Counter()
        for (_, o), v in self._counts.items():
            out[o] += v
        return dict(sorted(out.items()))

    def items(self):
        return sorted(self._counts.items())

    def renamed(self, mapping):
        c = Counter()
        for (p, o), v in self._counts.items():
            c[(p, mapping.get(o, o))] += v
        return _CounterCostVector(c)

    def __add__(self, other):
        return _CounterCostVector(self._counts + other._counts)

    def __sub__(self, other):
        c = Counter(self._counts)
        c.subtract(other._counts)
        return _CounterCostVector(c)

    def __eq__(self, other):
        return self._counts == other._counts

    def __bool__(self):
        return any(self._counts.values())


_OPS = ("ibe_enc", "ibs_ver", "pke_enc", "sym_gen")
_bags = st.dictionaries(
    st.tuples(st.sampled_from(PRINCIPALS), st.sampled_from(_OPS)),
    st.integers(-3, 3),
)


def _agree(v, ref):
    assert v.items() == ref.items()
    assert bool(v) == bool(ref)
    assert v.totals() == ref.totals()
    for principal in PRINCIPALS:
        assert v.by_principal(principal) == ref.by_principal(principal)
    for op in _OPS:
        assert v.get(op) == ref.get(op)
        for principal in PRINCIPALS:
            assert v.get(op, principal) == ref.get(op, principal)


@given(_bags, _bags, _bags)
def test_cost_vector_matches_counter_reference(a, b, c):
    va, vb, vc = CostVector(a), CostVector(b), CostVector(c)
    ra, rb, rc = (_CounterCostVector(x) for x in (a, b, c))
    _agree(va, ra)
    _agree(va + vb, ra + rb)
    _agree(va - vb, ra - rb)
    _agree((va - vb) + vc, (ra - rb) + rc)
    _agree((va + vb) - vc, (ra + rb) - rc)
    assert (va == vb) == (ra == rb)
    assert (va + vb == vc) == (ra + rb == rc)
    assert (va - vb == vc - vb) == (ra - rb == rc - rb)
    for mapping in (IBE_TO_PKI, _PKI_TO_IBE):
        _agree(va.renamed(mapping), ra.renamed(mapping))
        _agree(va.renamed(mapping) - vb, ra.renamed(mapping) - rb)


def test_provider_attributes_counts_through_scopes_and_forks():
    p = IbeProvider()
    p.sym_gen()
    with p.scope(REFERENCE_MONITOR):
        p.sym_gen()
        with p.scope(INVOKER):
            p.sym_gen()
            p.sym_gen()
        p.sym_gen()
        snap = p.snapshot()
        q = p.fork()  # same counts, no open scope
        q.sym_gen()
    p.sym_gen()
    both = {(INVOKER, "sym_gen"): 4, (REFERENCE_MONITOR, "sym_gen"): 2}
    assert snap == CostVector({**both, (INVOKER, "sym_gen"): 3})
    assert p.snapshot() == q.snapshot() == CostVector(both)
    q.enc_keys(SU_IDENTITY)
    assert p.snapshot() == CostVector(both)  # the fork is independent
    k = p.sym_gen()
    ct = p.sym_enc(p.sym_gen(), "x")
    with pytest.raises(UnauthorizedDecrypt):
        with p.scope(REFERENCE_MONITOR):
            p.sym_dec(k, ct)
    p.sym_gen()  # the scope closed on the raise: the invoker pays again
    assert p.snapshot() - CostVector(both) == CostVector({
        (INVOKER, "sym_gen"): 3,
        (INVOKER, "sym_enc"): 1,
        (REFERENCE_MONITOR, "sym_dec"): 1,
    })


# -- canonical serialization


def test_canonical_bytes_distinguishes_types():
    seen = set()
    for v in (None, False, True, 0, 1, "", "0", b"", b"0", (), (0,), ("",)):
        bs = canonical_bytes(v)
        assert bs not in seen
        seen.add(bs)


def test_canonical_bytes_framing():
    # concatenation cannot be confused with nesting
    assert canonical_bytes(("ab",)) != canonical_bytes(("a", "b"))
    assert canonical_bytes((("a",), "b")) != canonical_bytes(("a", ("b",)))


def test_canonical_bytes_structured_values():
    p = IbeProvider()
    ident = role_identity("r", 1)
    _, k = p.enc_keys(ident)
    ct = p.enc(ident, ("x", 1))
    sig = p.sign(p.sig_keys(SU_IDENTITY)[1], ("y",))
    for v in (ident, k, ct, sig):
        assert canonical_bytes(v) == canonical_bytes(v)
    assert canonical_bytes(ident) != canonical_bytes(role_identity("r", 2))
    with pytest.raises(TypeError):
        canonical_bytes(1.5)


# Every signature is taken over these bytes, so any change to the encoding,
# even one that stays injective, must fail here.
_GOLDEN = {
    "fk": (
        "54000000955300000002464b44000000165300000004726f6c65530000000272"
        "314900000001325300000002703153000000025257490000000133430000003b"
        "530000000369626544000000165300000004726f6c6553000000027231490000"
        "0001324b00000013530000000373796d4e00000000490000000137440000001a"
        "5300000009737570657275736572530000000253554e00000000"
    ),
    "rk": (
        "54000000f35300000002524b4400000015530000000475736572530000000275"
        "314e0000000044000000165300000004726f6c65530000000272314900000001"
        "3143000000b25300000003706b654b0000002c5300000007706b652d70756244"
        "00000015530000000475736572530000000275314e0000000049000000013454"
        "000000745300000009726f6c652d6b6579734b0000002e5300000008706b652d"
        "7072697644000000165300000004726f6c655300000002723149000000013149"
        "00000001354b0000002e53000000087369672d7369676e440000001653000000"
        "04726f6c6553000000027231490000000131490000000136"
    ),
    "f": (
        "540000006353000000014653000000027031490000000131430000002c530000"
        "000373796d4b00000013530000000373796d4e00000000490000000133420000"
        "000766696c653a7031440000001a530000000973757065727573657253000000"
        "0253554e00000000"
    ),
    "sig": (
        "47000000365300000003736967440000001a5300000009737570657275736572"
        "530000000253554e00000000490000000132420000000400010203"
    ),
    "lst": (
        "54000000115300000001614900000001314e00000000"
    ),
    "scal": (
        "540000002d4f00000001014f00000001004e0000000049000000013049000000"
        "022d35420000000053000000005400000000"
    ),
}


def test_canonical_bytes_golden():
    r1v1, r1v2 = role_identity("r1", 1), role_identity("r1", 2)
    u1 = user_identity("u1")
    values = {
        "fk": (
            "FK", r1v2, "p1", "RW", 3,
            SymbolicCiphertext("ibe", r1v2, SymbolicKey("sym", serial=7)),
            SU_IDENTITY,
        ),
        "rk": (
            "RK", u1, r1v1,
            SymbolicCiphertext(
                "pke",
                SymbolicKey("pke-pub", owner=u1, serial=4),
                (
                    "role-keys",
                    SymbolicKey("pke-priv", owner=r1v1, serial=5),
                    SymbolicKey("sig-sign", owner=r1v1, serial=6),
                ),
            ),
        ),
        "f": (
            "F", "p1", 1,
            SymbolicCiphertext(
                "sym", SymbolicKey("sym", serial=3), b"file:p1"
            ),
            SU_IDENTITY,
        ),
        "sig": SymbolicSignature("sig", SU_IDENTITY, 2, bytes(range(4))),
        "lst": ["a", 1, None],
        "scal": (True, False, None, 0, -5, b"", "", ()),
    }
    for name, v in values.items():
        assert canonical_bytes(v).hex() == _GOLDEN[name], name


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.text(alphabet="ab", max_size=3),
    st.binary(max_size=3),
)
_values = st.recursive(
    _scalars, lambda s: st.tuples(s) | st.tuples(s, s), max_leaves=6
)


@given(_values, _values)
def test_canonical_bytes_injective(a, b):
    if canonical_bytes(a) == canonical_bytes(b):
        assert a == b


# -- signatures are terms: verify compares by canonical bytes


def _ibs_family():
    p = IbeProvider()
    _, k = p.sig_keys(SU_IDENTITY)
    return (
        lambda fields: p.sign(k, fields),
        lambda fields, sig: p.verify(SU_IDENTITY, fields, sig),
    )


def _sig_family():
    p = PkiProvider()
    ver, sk = p.sig_keys(SU_IDENTITY)
    return (
        lambda fields: p.sign(sk, fields),
        lambda fields, sig: p.verify(ver, fields, sig),
    )


_FAMILIES = pytest.mark.parametrize(
    "family", [_ibs_family, _sig_family], ids=["ibs", "sig"]
)

_terms = st.recursive(
    _scalars
    | st.builds(user_identity, st.text(alphabet="ab", max_size=2))
    | st.builds(lambda n: SymbolicKey("sym", serial=n), st.integers(1, 2)),
    lambda s: (
        st.tuples(s) | st.tuples(s, s) | st.lists(s, max_size=2)
        | st.builds(lambda p: SymbolicCiphertext("sym", None, p), s)
        | st.builds(lambda f: SymbolicSignature("sig", SU_IDENTITY, 1, f), s)
    ),
    max_leaves=6,
)


@_FAMILIES
@given(_terms, _terms)
def test_verify_holds_iff_canonical_bytes_equal(family, a, b):
    sign, verify = family()
    sig = sign(a)
    assert verify(a, sig)
    assert verify(b, sig) == (canonical_bytes(a) == canonical_bytes(b))


@_FAMILIES
@pytest.mark.parametrize("a, b", [
    (True, 1), (0, False), ("a", b"a"), (None, ()), ([1], 1), ((), [()]),
    (role_identity("r", 1), role_identity("r", True)),
])
def test_verify_is_exact_type(family, a, b):
    sign, verify = family()
    k = SymbolicKey("sym", serial=1)
    for x, y in ((a, b), (b, a)):
        for wrap in (lambda v: v, lambda v: SymbolicCiphertext("sym", k, v)):
            sig = sign(("F", wrap(x)))
            assert verify(("F", wrap(x)), sig)
            assert not verify(("F", wrap(y)), sig)


@_FAMILIES
def test_signed_term_cannot_change_after_signing(family):
    # sign freezes the bare fields it is given; a term freezes its own
    # fields when it is built
    sign, verify = family()
    body = ["a"]
    fields = ("F", body)
    sig = sign(fields)
    body.append("b")
    assert not verify(fields, sig)
    assert verify(("F", ("a",)), sig)
    payload = ["a"]
    ct = SymbolicCiphertext("sym", None, payload)
    payload.append("b")
    assert ct.payload == ("a",)


_BAD = (1.5, "\ud800", "\xe9\ud800", {"a": 1}, [1.5], ("a", ["\ud800"]))


def _raises_as_canonical_bytes(bad, build) -> None:
    """``build()`` raises the exception ``canonical_bytes(bad)`` raises."""
    with pytest.raises((TypeError, UnicodeEncodeError)) as want:
        canonical_bytes(bad)
    with pytest.raises(want.type) as got:
        build()
    assert str(got.value) == str(want.value)


@_FAMILIES
def test_sign_raises_where_canonical_bytes_does(family):
    # bare fields are checked when they are signed, and a term's fields when
    # the term is built, so no term holds a value canonical_bytes rejects
    sign, _ = family()
    for bad in _BAD:
        _raises_as_canonical_bytes(("F", bad), lambda: sign(("F", bad)))
    for bad, build in (
        ([1.5], lambda: SymbolicCiphertext("sym", None, [1.5])),
        (1.5, lambda: role_identity("r", 1.5)),
        ("\xe9\ud800", lambda: user_identity("\xe9\ud800")),
    ):
        _raises_as_canonical_bytes(bad, build)


def _walk(v):
    """``v`` and every value inside it, the fields of records included."""
    yield v
    if type(v) is tuple or type(v) is list:
        for x in v:
            yield from _walk(x)
    elif dataclasses.is_dataclass(v):
        for f in dataclasses.fields(v):
            yield from _walk(getattr(v, f.name))


def _with_lists(v):
    """``v`` built again through the constructors, every tuple a list."""
    if type(v) is tuple or type(v) is list:
        return [_with_lists(x) for x in v]
    if dataclasses.is_dataclass(v):
        return type(v)(
            *[_with_lists(getattr(v, f.name)) for f in dataclasses.fields(v)]
        )
    return v


@_FAMILIES
@given(_terms, _terms)
def test_terms_are_checked_and_frozen_when_built(family, a, b):
    sign, verify = family()
    fields = ("F", a)
    sig = sign(fields)
    for term in (a, _with_lists(a)):
        for r in _walk(term):
            if dataclasses.is_dataclass(r):
                assert _frozen(r) is r
                assert list not in map(type, _walk(r))
                assert _with_lists(r) == r
        assert canonical_bytes(term) == canonical_bytes(a)
    # ("F", a) is a fresh tuple with the very items signed
    for other in (("F", a), ("F", b), ("F", _with_lists(a))):
        want = canonical_bytes(other) == canonical_bytes(fields)
        assert verify(other, sig) == want
