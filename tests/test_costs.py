"""Closed-form pricing: scheme unit costs, prediction formulas, reconciliation."""

from collections import Counter
from fractions import Fraction

import hashlib
import random

import pytest

from rolecrypt.costmodel import (
    HEADLINE_PROFILES,
    algebraic_cost,
    all_scheme_pairs,
    data_op_cost,
    format_units,
    load_scheme_data,
    reconcile,
    scheme_profile,
    static_cost_table,
)
from rolecrypt.crypto import CostVector, INVOKER, REFERENCE_MONITOR
from rolecrypt.engine import Engine, measure_label
from rolecrypt.equivalence import TraceBuilder
from rolecrypt.rbac import (
    Label, RbacState, READ, RW, SUPERUSER, WRITE, apply_label,
)

F = Fraction


# -- unit costs of the published schemes


def test_group_operation_ratios():
    data = load_scheme_data()["ratios"]
    assert data == {"g1_mult": 1, "g2_mult": 4.5, "gt_exp": 9, "pairing": 9}


@pytest.mark.parametrize(
    "pair, kg_e, enc, dec, kg_s, sign, ver",
    [
        ("BF+CC", F(9, 2), 11, 9, 1, 2, 19),
        ("BB1+PS", 9, 12, 18, F(11, 2), F(13, 2), 27),
        ("LW+PS", 27, 16, 54, F(11, 2), F(13, 2), 27),
    ],
)
def test_headline_scheme_unit_costs(pair, kg_e, enc, dec, kg_s, sign, ver):
    p = scheme_profile(pair)
    assert p.op_costs["ibe_keygen"] == kg_e
    assert p.op_costs["ibe_enc"] == enc
    assert p.op_costs["ibe_dec"] == dec
    assert p.op_costs["ibs_keygen"] == kg_s
    assert p.op_costs["ibs_sign"] == sign
    assert p.op_costs["ibs_ver"] == ver


def test_all_pairs_enumerate_and_price():
    pairs = all_scheme_pairs()
    assert len(pairs) == 40  # eight encryption x five signature schemes
    for pair in pairs:
        p = scheme_profile(pair)
        assert all(isinstance(c, Fraction) and c > 0 for c in p.op_costs.values())


def test_profile_caching_and_unknown_names():
    assert scheme_profile("BF+CC") is scheme_profile("BF+CC")
    with pytest.raises(KeyError):
        scheme_profile("BF+XX")
    with pytest.raises(KeyError):
        scheme_profile("nope")


def test_unit_cost_prices_only_the_model_counters():
    # prices are written in the identity-based names for both variants; a
    # public-key or unknown name is a caller's error, not a free primitive
    p = scheme_profile("BF+CC")
    assert p.unit_cost("ibe_enc") == 11
    assert p.unit_cost("sym_enc") == 0
    for op in ("pke_enc", "sig_ver", "bogus"):
        with pytest.raises(KeyError):
            p.unit_cost(op)
    v = CostVector({
        (INVOKER, "ibe_enc"): 2,
        (INVOKER, "sym_gen"): 5,
        (REFERENCE_MONITOR, "ibs_ver"): 1,
    })
    assert p.units_of(v) == 2 * 11 + 19
    assert p.units_of(v, INVOKER) == 22
    assert p.units_of(v, REFERENCE_MONITOR) == 19
    with pytest.raises(KeyError):
        p.units_of(CostVector({(INVOKER, "pke_enc"): 1}))


def test_all_scheme_profiles_are_pinned():
    # every unit cost of all 40 pairs, as the transcribed table prices them
    rows = sorted(
        (pair, op, cost)
        for pair in all_scheme_pairs()
        for op, cost in scheme_profile(pair).op_costs.items()
    )
    assert len(rows) == 40 * 6
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "07ca981a2bffb6e359e1b006ef764a7eab50caf36c7ebf49e012a76544c22c07"
    )


def test_format_units():
    assert format_units(F(41)) == "41"
    assert format_units(F(11, 2)) == "5.5"


# -- prediction formulas on concrete states


def state_with(users=(), roles=(), files=(), ur=(), pa=()):
    return RbacState(
        frozenset(users), frozenset(roles), frozenset(files),
        frozenset(ur), frozenset(pa),
    )


def totals(label, state, versions):
    return algebraic_cost(label, state, versions).totals()


def test_constant_rows():
    s = RbacState()
    assert totals(Label("addU", user="u"), s, {}) == {
        "ibe_keygen": 1, "ibs_keygen": 1,
    }
    assert totals(Label("addR", role="r"), s, {}) == {
        "ibe_keygen": 1, "ibs_keygen": 1, "ibe_enc": 1, "ibs_sign": 1,
    }
    c = algebraic_cost(Label("addP", file="f"), s, {})
    assert c.by_principal(INVOKER) == {
        "ibe_enc": 1, "ibs_sign": 2, "sym_enc": 1, "sym_gen": 1,
    }
    assert c.by_principal(REFERENCE_MONITOR) == {"ibs_ver": 2}
    assert not algebraic_cost(Label("delP", file="f"), s, {})


def test_duplicate_adds_predict_zero():
    s = state_with(users=["u"], roles=["r"], files=["f"])
    v = {"f": 1}
    assert not algebraic_cost(Label("addU", user="u"), s, v)
    assert not algebraic_cost(Label("addR", role="r"), s, v)
    assert not algebraic_cost(Label("addP", file="f"), s, v)


def test_assign_perm_scales_with_key_versions():
    s = state_with(roles=["r"], files=["f"])
    v = {"f": 3}
    assert totals(Label("assignP", role="r", file="f", op=READ), s, v) == {
        "ibs_ver": 3, "ibe_dec": 3, "ibe_enc": 3, "ibs_sign": 3,
    }
    s2 = state_with(roles=["r"], files=["f"], pa=[("r", "f", READ)])
    assert totals(Label("assignP", role="r", file="f", op=RW), s2, v) == {
        "ibs_ver": 3, "ibs_sign": 3,
    }
    # already satisfied grants cost nothing
    assert not algebraic_cost(
        Label("assignP", role="r", file="f", op=READ), s2, v
    )


def test_revoke_perm_formulas():
    s = state_with(
        roles=["r1", "r2"], files=["f"],
        pa=[("r1", "f", RW), ("r2", "f", READ)],
    )
    v = {"f": 2}
    assert totals(Label("revokeP", role="r1", file="f", op=WRITE), s, v) == {
        "ibs_ver": 2, "ibs_sign": 2,
    }
    assert totals(Label("revokeP", role="r1", file="f", op=RW), s, v) == {
        "sym_gen": 1, "ibs_ver": 2, "ibe_enc": 2, "ibs_sign": 2,
    }
    # revoking write from a read-only holder is a warning, not a downgrade
    assert not algebraic_cost(
        Label("revokeP", role="r2", file="f", op=WRITE), s, v
    )


def test_revoke_user_formula():
    s = state_with(
        users=["u", "v", "w", "z"], roles=["r"], files=["f"],
        ur=[("u", "r"), ("v", "r"), ("w", "r")], pa=[("r", "f", RW)],
    )
    v = {"f": 1}
    assert totals(Label("revokeU", user="u", role="r"), s, v) == {
        "ibe_keygen": 1, "ibs_keygen": 1,
        "ibe_enc": 6, "ibs_sign": 6, "ibs_ver": 6,
        "ibe_dec": 1, "sym_gen": 1,
    }
    assert not algebraic_cost(Label("revokeU", user="z", role="r"), s, v)


def test_delete_user_tracks_evolving_state():
    # u sits in two roles sharing one file: the second revocation must see
    # the version bump and the membership change made by the first
    s = state_with(
        users=["u", "x", "y"], roles=["r1", "r2"], files=["f"],
        ur=[("u", "r1"), ("x", "r1"), ("u", "r2"), ("y", "r2")],
        pa=[("r1", "f", RW), ("r2", "f", READ)],
    )
    v = {"f": 1}
    got = totals(Label("delU", user="u"), s, dict(v))
    # r1: 2 membership re-issues, 1 version rolled, fresh key to 3;
    # r2: 2 membership re-issues, 2 versions rolled, fresh key to 3
    assert got == {
        "ibe_keygen": 2, "ibs_keygen": 2,
        "ibe_enc": 13, "ibs_sign": 13, "ibs_ver": 13,
        "ibe_dec": 3, "sym_gen": 2,
    }
    # and the engine agrees exactly on the same state
    eng = Engine()
    for u in ("u", "x", "y"):
        eng.add_user(u)
    eng.add_file(SUPERUSER, "f", b"f")
    for r in ("r1", "r2"):
        eng.add_role(r)
    for u, r in (("u", "r1"), ("x", "r1"), ("u", "r2"), ("y", "r2")):
        eng.assign_user(u, r)
    eng.assign_perm("r1", "f", RW)
    eng.assign_perm("r2", "f", READ)
    assert (eng.state(), eng.files) == (s, v)
    assert measure_label(eng, Label("delU", user="u")).totals() == got


def test_delete_role_formula():
    s = state_with(
        roles=["r1", "r2"], files=["f"],
        pa=[("r1", "f", RW), ("r2", "f", RW)],
    )
    v = {"f": 1}
    assert totals(Label("delR", role="r1"), s, v) == {
        "sym_gen": 1, "ibs_ver": 2, "ibe_enc": 2, "ibs_sign": 2,
    }
    assert not algebraic_cost(Label("delR", role="zz"), s, v)


def test_pricing_rolls_the_versions_it_prices():
    # random traces of every label kind, no-ops included, in both bindings:
    # pricing a label leaves the versions at the engine's, and its sym_gen
    # counts exactly the versions it added, a dropped file's given back
    kinds, rolled = Counter(), 0
    for binding in ("ibe", "pki"):
        for seed in range(8):
            labels = TraceBuilder(random.Random(seed)).build(80)
            eng, state, versions = Engine(binding), RbacState(), {}
            for lbl in labels:
                eng.apply_label(lbl)
                before = dict(versions)
                price = algebraic_cost(lbl, state, versions)
                state = apply_label(state, lbl)
                assert versions == eng.files, lbl
                dropped = sum(before[fn] for fn in before.keys() - versions)
                added = sum(versions.values()) - sum(before.values())
                assert price.totals().get("sym_gen", 0) == added + dropped, lbl
                kinds[lbl.kind] += 1
                rolled = max(rolled, *versions.values(), 0)
    assert set(kinds) == {
        "addU", "delU", "addP", "delP", "addR", "delR",
        "assignU", "revokeU", "assignP", "revokeP",
    }
    assert rolled > 1


def test_data_op_costs():
    r = data_op_cost("read")
    assert r.by_principal(INVOKER) == {"ibs_ver": 2, "ibe_dec": 2, "sym_dec": 1}
    w = data_op_cost("write")
    assert w.by_principal(INVOKER) == {
        "ibs_ver": 2, "ibe_dec": 2, "sym_enc": 1, "ibs_sign": 1,
    }
    assert w.by_principal(REFERENCE_MONITOR) == {"ibs_ver": 2}
    with pytest.raises(AssertionError):
        data_op_cost("stat")


# -- the static table


def test_static_table_shape_and_spot_values():
    rows = static_cost_table(HEADLINE_PROFILES)
    assert [(party, op) for party, op, _ in rows] == [
        ("invoker", "addU"), ("invoker", "addP"), ("invoker", "addR"),
        ("invoker", "assignU"), ("invoker", "assignP"),
        ("invoker", "read"), ("invoker", "write"),
        ("monitor", "addP"), ("monitor", "write"),
    ]
    cells = {(party, op): c for party, op, c in rows}
    assert cells[("invoker", "assignU")]["BF+CC"] == 41
    assert cells[("invoker", "addU")]["BB1+PS"] == F(29, 2)
    assert cells[("monitor", "write")]["LW+PS"] == 54
    # grants price identically to membership changes in every profile
    for p in HEADLINE_PROFILES:
        assert cells[("invoker", "assignP")][p] == cells[("invoker", "assignU")][p]


def test_static_table_accepts_any_profile():
    rows = static_cost_table(("BB2+BLMQ",))
    assert all(isinstance(c["BB2+BLMQ"], Fraction) for _, _, c in rows)


# -- reconciliation


def test_reconcile_zero_on_exact_match():
    eng = Engine()
    lbl = Label("addU", user="u1")
    state, versions = eng.state(), dict(eng.files)
    measured = measure_label(eng, lbl)
    assert not reconcile(measured, algebraic_cost(lbl, state, versions))


def test_reconcile_flags_discrepancies():
    eng = Engine()
    lbl = Label("addU", user="u1")
    state, versions = eng.state(), dict(eng.files)
    measured = measure_label(eng, lbl)
    predicted = algebraic_cost(lbl, state, versions)
    doctored = measured + CostVector({(INVOKER, "ibe_enc"): 1})
    diff = reconcile(doctored, predicted)
    assert diff and diff.get("ibe_enc") == 1
    short = measured - CostVector({(INVOKER, "ibe_keygen"): 1})
    assert reconcile(short, predicted).get("ibe_keygen") == -1


def test_reconcile_renames_for_pki():
    eng = Engine("pki")
    lbl = Label("addR", role="r1")
    state, versions = eng.state(), dict(eng.files)
    measured = measure_label(eng, lbl)
    predicted = algebraic_cost(lbl, state, versions)
    assert not reconcile(measured, predicted, variant="pki")
    # names differ
    assert reconcile(measured, predicted, variant="ibe")
