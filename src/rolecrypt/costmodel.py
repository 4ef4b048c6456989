"""Closed-form pricing of enforcement operations.

Two layers:

* A combinatorial layer predicts, from the model state before the label and
  the current key version of each file, the exact multiset of symbolic
  primitives a label will cost (``algebraic_cost``).  Membership, grants and
  holders come from the state's UR and PA; the key versions are the one fact
  the model does not hold.  This is what the differential harness reconciles
  against measured counters.  Revocations are priced in closed form from
  sums over the role's F files, with M its members, V = Σ versions[fn] and
  H = Σ (|holders(fn)| + 1): ``revokeU`` costs M + V + H each of ``ibs_ver``,
  ``ibe_enc`` and ``ibs_sign``, V ``ibe_dec``, F ``sym_gen`` and one of each
  keygen; ``delR``, one ``revokeP(RW)`` per file, costs H - F each of
  those three and F ``sym_gen``; ``delU`` costs one ``revokeU`` per role of
  the user, in name order, each rolling the file-key versions forward for
  the next.  Pricing a label also rolls the key versions past it, so with
  ``rbac.apply_label`` carrying the state, a caller prices a whole trace
  without an engine, as ``simulate`` does.
* A unit-cost layer prices each primitive in elliptic-curve multiplication
  units for a chosen pair of published IBE/IBS schemes (``scheme_profile``
  builds a ``SchemeProfile``): an operation's group-operation counts times
  the relative cost of each group operation, in exact rational arithmetic.

Scheme data lives in ``data/schemes.json``: per-operation group-operation
counts for eight identity-based encryption schemes and five identity-based
signature schemes, plus the relative cost of each group operation.
Symmetric primitives are treated as free.  Prices use the identity-based
counter names for both variants; only ``reconcile`` renames them, to compare
with a ``pki`` engine's counters.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from typing import Collection, Mapping, Optional

from .crypto import (
    CostVector, IBE_TO_PKI, INVOKER, MODEL_OPS, REFERENCE_MONITOR,
)
from .rbac import Label, RbacState, READ, RW, WRITE

HEADLINE_PROFILES = ("BF+CC", "BB1+PS", "LW+PS")


# --- primitive-count prediction -------------------------------------------------

_Bag = dict  # (principal, op) -> count


def _add(bag: _Bag, op: str, n: int = 1, principal: str = INVOKER) -> None:
    if n:
        k = (principal, op)
        bag[k] = bag.get(k, 0) + n


def _reissue(bag: _Bag, n: int, opened: bool = False) -> None:
    """Replace ``n`` signed tuples: verify each old one, open its key when
    ``opened``, wrap the key for the recipient and sign the new tuple."""
    _add(bag, "ibs_ver", n)
    _add(bag, "ibe_dec", n if opened else 0)
    _add(bag, "ibe_enc", n)
    _add(bag, "ibs_sign", n)


def _roll(
    bag: _Bag, versions: dict[str, int], files: Collection[str]
) -> None:
    """Count a fresh key for each of ``files`` and roll each to its next
    version in ``versions``."""
    _add(bag, "sym_gen", len(files))
    for fn in files:
        versions[fn] += 1


def _revoke_user_cost(
    bag: _Bag, r: str, state: RbacState, versions: dict[str, int]
) -> None:
    """Price revoking one member of ``r`` at the file-key ``versions``, by
    the closed form in the module docstring, and roll the role's files."""
    files = state.files_of(r)
    v = sum(map(versions.__getitem__, files))
    h = sum(map(len, map(state.holders_of, files))) + len(files)
    _add(bag, "ibe_keygen", 1)
    _add(bag, "ibs_keygen", 1)
    _reissue(bag, len(state.members_of(r)) + v + h)
    _add(bag, "ibe_dec", v)
    _roll(bag, versions, files)


def algebraic_cost(
    label: Label, state: RbacState, versions: dict[str, int]
) -> CostVector:
    """Predict the primitive counts of applying ``label`` to ``state``, whose
    files are at the key versions ``versions`` (file -> current version),
    and advance ``versions`` in place past the label: each fresh file key
    (``sym_gen``) rolls its file to the next version, ``addP`` adds a file
    at version 1 and ``delP`` drops it.  Labels that the enforcement engine
    would reduce to a warning (duplicate adds, absent deletes, redundant
    grants) cost and roll nothing."""
    bag: _Bag = {}
    k = label.kind
    if k == "addU":
        if label.user not in state.users:
            _add(bag, "ibe_keygen", 1)
            _add(bag, "ibs_keygen", 1)
    elif k == "addR":
        if label.role not in state.roles:
            _add(bag, "ibe_keygen", 1)
            _add(bag, "ibs_keygen", 1)
            _add(bag, "ibe_enc", 1)
            _add(bag, "ibs_sign", 1)
    elif k == "addP":
        if label.file not in state.perms:
            _add(bag, "sym_gen", 1)
            _add(bag, "sym_enc", 1)
            _add(bag, "ibe_enc", 1)
            _add(bag, "ibs_sign", 2)
            _add(bag, "ibs_ver", 2, REFERENCE_MONITOR)
            versions[label.file] = 1
    elif k == "delP":
        versions.pop(label.file, None)  # costs nothing: tuple deletion only
    elif k == "assignU":
        if label.role not in state.roles_of(label.user):
            _reissue(bag, 1, opened=True)
    elif k == "revokeU":
        if label.role in state.roles_of(label.user):
            _revoke_user_cost(bag, label.role, state, versions)
    elif k == "delU":
        if label.user in state.users:
            for r in sorted(state.roles_of(label.user)):
                _revoke_user_cost(bag, r, state, versions)
    elif k == "assignP":
        held = state.pa_op(label.role, label.file)
        vfn = versions.get(label.file, 0)
        if held is None:
            # copy the superuser's wrapped key at every version
            _reissue(bag, vfn, opened=True)
        elif held == READ and label.op == RW:
            # add write: re-sign each version in place
            _add(bag, "ibs_ver", vfn)
            _add(bag, "ibs_sign", vfn)
    elif k == "revokeP":
        held = state.pa_op(label.role, label.file)
        if held is not None:
            if label.op == WRITE:
                if held == RW:
                    vfn = versions[label.file]
                    _add(bag, "ibs_ver", vfn)
                    _add(bag, "ibs_sign", vfn)
            else:
                # a fresh file key for the other holders plus the superuser
                _roll(bag, versions, (label.file,))
                _reissue(bag, len(state.holders_of(label.file)))
    elif k == "delR":
        if label.role in state.roles:
            # a fresh key per file for its other holders plus the superuser
            files = state.files_of(label.role)
            _roll(bag, versions, files)
            _reissue(bag, sum(map(len, map(state.holders_of, files))))
    else:
        raise AssertionError(k)
    return CostVector(bag)


def data_op_cost(kind: str) -> CostVector:
    """Primitive counts of the two data-path requests (state independent)."""
    bag: _Bag = {}
    if kind == "read":
        _add(bag, "ibs_ver", 2)
        _add(bag, "ibe_dec", 2)
        _add(bag, "sym_dec", 1)
    elif kind == "write":
        _add(bag, "ibs_ver", 2)
        _add(bag, "ibe_dec", 2)
        _add(bag, "sym_enc", 1)
        _add(bag, "ibs_sign", 1)
        _add(bag, "ibs_ver", 2, REFERENCE_MONITOR)
    else:
        raise AssertionError(kind)
    return CostVector(bag)


# --- unit costs ----------------------------------------------------------------


#: The columns of a cost row in ``data/schemes.json``, and the names of the
#: ratios that price them.
_Row = namedtuple("_Row", ("g1_mult", "g2_mult", "gt_exp", "pairing"))


@dataclass(frozen=True)
class SchemeProfile:
    """A pairing of one encryption scheme with one signature scheme, priced in
    G-multiplication units.  ``op_costs`` prices the six identity-based
    counters; symmetric ones cost zero, any other name raises ``KeyError``."""

    name: str
    op_costs: Mapping[str, Fraction]

    def unit_cost(self, op: str) -> Fraction:
        if op not in MODEL_OPS:
            raise KeyError(op)
        return self.op_costs.get(op, Fraction(0))

    def units_of(self, cost: CostVector, principal: Optional[str] = None) -> Fraction:
        total = Fraction(0)
        for (p, op), n in cost.items():
            if principal is None or p == principal:
                total += n * self.unit_cost(op)
        return total


@cache
def load_scheme_data() -> dict:
    """``data/schemes.json``, parsed once per process: do not mutate it."""
    ref = resources.files("rolecrypt.data").joinpath("schemes.json")
    with ref.open(encoding="utf-8") as fh:
        return json.load(fh)


@cache
def scheme_profile(pair: str) -> SchemeProfile:
    """Build a profile from a name like ``BF+CC`` (encryption+signature)."""
    data = load_scheme_data()
    ratios = _Row(*(Fraction(str(data["ratios"][k])) for k in _Row._fields))

    def units(row: list[int]) -> Fraction:
        return sum(n * r for n, r in zip(_Row(*row), ratios))

    enc_name, _, sig_name = pair.partition("+")
    if not sig_name:
        raise KeyError(pair)
    enc = data["encryption"][enc_name]
    sig = data["signature"][sig_name]
    return SchemeProfile(pair, {
        "ibe_keygen": units(enc["keygen"]),
        "ibe_enc": units(enc["enc"]),
        "ibe_dec": units(enc["dec"]),
        "ibs_keygen": units(sig["keygen"]),
        "ibs_sign": units(sig["sign"]),
        "ibs_ver": units(sig["ver"]),
    })


def all_scheme_pairs() -> list[str]:
    data = load_scheme_data()
    return [
        f"{e}+{s}" for e in data["encryption"] for s in data["signature"]
    ]


# --- the static per-operation price table --------------------------------------

_UNIT_FILE = "f"
_UNIT_ROLE = "r"
_UNIT_USER = "u"


def static_cost_table(
    profiles: tuple[str, ...] = HEADLINE_PROFILES,
) -> list[tuple[str, str, dict[str, Fraction]]]:
    """Rows of (party, operation, {profile: units}) for every operation whose
    cost does not depend on the state: the additive administrative commands
    (permission grants priced per file-key version) and the two data requests."""
    # one role and one single-version file the role does not yet hold:
    # constant-cost rows price identically in any state
    state = RbacState(
        roles=frozenset({_UNIT_ROLE}), perms=frozenset({_UNIT_FILE})
    )
    versions = {_UNIT_FILE: 1}

    def cost(label: Label) -> CostVector:
        return algebraic_cost(label, state, dict(versions))

    add_file = cost(Label("addP", file="f2"))
    write = data_op_cost("write")
    rows: list[tuple[str, str, CostVector]] = [
        ("invoker", "addU", cost(Label("addU", user=_UNIT_USER))),
        ("invoker", "addP", add_file),
        ("invoker", "addR", cost(Label("addR", role="r2"))),
        (
            "invoker",
            "assignU",
            cost(Label("assignU", user=_UNIT_USER, role=_UNIT_ROLE)),
        ),
        (
            "invoker",
            "assignP",
            cost(Label("assignP", role=_UNIT_ROLE, file=_UNIT_FILE, op=READ)),
        ),
        ("invoker", "read", data_op_cost("read")),
        ("invoker", "write", write),
        ("monitor", "addP", add_file),
        ("monitor", "write", write),
    ]
    out = []
    for party, opname, cost in rows:
        principal = INVOKER if party == "invoker" else REFERENCE_MONITOR
        cells = {
            p: scheme_profile(p).units_of(cost, principal) for p in profiles
        }
        out.append((party, opname, cells))
    return out


def format_units(x: Fraction) -> str:
    """Render an exact unit count the way a cost table reads: integers bare,
    halves and other fractions as decimals."""
    if x.denominator == 1:
        return str(x.numerator)
    return str(float(x))


# --- reconciliation -------------------------------------------------------------

#: ``IBE_TO_PKI``, and each public-key name to None, which names no count
_TO_PKI = dict(IBE_TO_PKI, **dict.fromkeys(IBE_TO_PKI.values()))


def reconcile(
    measured: CostVector, predicted: CostVector, variant: str = "ibe"
) -> CostVector:
    """Difference between an engine of ``variant``'s counters, in its own
    names, and ``predicted``, the ``algebraic_cost`` of the same label; zero
    (falsy) when the two match exactly."""
    if variant == "pki":  # match by lookup; rename only on a mismatch
        got, want = measured._counts, predicted._counts
        if len(got) == len(want) and list(want.values()) == [
            got.get((p, _TO_PKI.get(o, o))) for p, o in want
        ]:
            return CostVector()
        predicted = predicted.renamed(IBE_TO_PKI)
    if measured == predicted:
        return CostVector()
    return measured - predicted
