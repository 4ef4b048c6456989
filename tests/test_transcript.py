"""A pinned transcript of the engine: an honest main line and hostile probes.

For each binding, a fixed corpus drives one engine through ``TraceBuilder``
labels, with reads and writes drawn from a second rng, so the label traces
stay the pinned ones.  After each label, one probe per fault kind commits a
fault from ``faults`` on a fork, runs one operation there and drops the
fork, so the main line stays honest.  The forge probes draw from a third
rng, so the other records are the ones pinned before forge existed.  Each
step records its outcome (applied, warned, or the exception's type and
message); a step that succeeds adds its ``CostVector`` items, a digest of
``repr(canonicalize(...))`` of its engine and any read result.  ``dump()``
would not do: its frozensets repr in an order that follows
``PYTHONHASHSEED``.  A failing probe's cost and its fork's end state stay
out of the record, because making operations all-or-nothing changes both on
purpose.

The pin may change only with a deliberate change to the engine's behaviour,
whose CHANGES.md entry gives the old and the new digest.
"""

import hashlib
import random
from collections import Counter

import pytest

import faults
from rolecrypt.engine import BINDINGS, Engine
from rolecrypt.equivalence import TraceBuilder, canonicalize
from rolecrypt.rbac import READ, RW, WRITE, Label

PINNED_SHA256 = {
    "ibe": "d75c4729134b216c588f5235105dd5abeb9db6c865333d29491cfc1769e4bd2f",
    "pki": "b32b2b739303194a942313560754c8f9bd56662f1d8230f377eaa288037ea23f",
}
TRACES, LABELS = 10, 50
CAPS = dict(max_users=5, max_roles=3, max_files=5, version_cap=4)
REQUESTS = ("read", "write")
PROBES = REQUESTS + (
    "assignU", "revokeU", "delU", "assignP", "revokeP", "delR",
)
# the outcomes that show no fault: a success, or a refusal of the request
DONE = ("applied", "warned", "AuthorizationError", "RbacError")


def _run(eng, op):
    """``op``'s outcome on ``eng``: the exception's type and message, or
    applied or warned, with its cost, a digest of its end state and any
    result."""
    warnings, before = eng.warnings, eng.provider.snapshot()
    try:
        out = op(eng)
    except Exception as e:  # a hostile store may provoke any error
        return type(e).__name__, str(e)
    outcome = "warned" if eng.warnings > warnings else "applied"
    cost = tuple((eng.provider.snapshot() - before).items())
    state = hashlib.sha256(repr(canonicalize(eng)).encode()).hexdigest()
    return (outcome, cost, state) + (() if out is None else (out,))


def _pick(rng, *pools):
    """A draw from the first pool that is not empty, or None."""
    pool = next((p for p in pools if p), ())
    return rng.choice(sorted(pool)) if pool else None


def _operation(rng, eng, kind, names=frozenset()):
    """A ``kind`` operation that touches ``names`` where it can.  Its role is
    among them, else holds a file among them, else holds a file and has a
    member; its file is among them, else one the role holds; a request's
    user is among them, else a member of the role.  A grant draws the role,
    if none is named, and the user from all."""
    def current(r):  # the files r holds at their current key version
        return {
            fn for h, fn, v in eng.fs.fk if h == r and eng.files.get(fn) == v
        }

    def members(r):
        v = eng.roles[r].version
        return eng.users.keys() & {
            m for m, rr, vv in eng.fs.rk if (rr, vv) == (r, v)
        }

    grant, request = kind in ("assignU", "assignP"), kind in REQUESTS
    files, roles = eng.files.keys() & names, eng.roles.keys() & names
    r = _pick(
        rng, roles,
        not grant and {r for r in eng.roles if current(r) & files},
        not grant and {r for r in eng.roles if current(r) and members(r)},
        eng.roles,
    )
    fn = _pick(rng, files, r and current(r), eng.files)
    if fn is None or not eng.users:
        return None
    u = _pick(rng, request and eng.users.keys() & names,
              not grant and r and members(r), eng.users)
    if kind == "read":
        return (kind, u, fn), lambda e: e.read_file(u, fn)
    if kind == "write":
        body = b"w%d" % rng.randrange(1 << 30)
        return (kind, u, fn, body), lambda e: e.write_file(u, fn, body)
    if r is None:
        return None
    op = rng.choice((WRITE, RW) if kind == "revokeP" else (READ, RW))
    lbl = Label(kind, user=u, role=r, file=fn, op=op)
    return (kind, u, r, fn, op), lambda e: e.apply_label(lbl)


def _transcript(binding):
    """The corpus's records for ``binding``, and a tally by fault kind of
    probes run, probes that raised on a fault, and reads of another body."""
    records, tally = [], Counter()
    for seed in range(TRACES):
        rng = random.Random(f"requests/{seed}")
        forge_rng = random.Random(f"forge/{seed}")
        eng, history = Engine(binding), faults.History()
        for lbl in TraceBuilder(random.Random(seed), **CAPS).build(LABELS):
            steps = [(str(lbl), lambda e, lbl=lbl: e.apply_label(lbl))]
            for _ in range(rng.randrange(3)):
                steps.append(_operation(rng, eng, rng.choice(REQUESTS)))
            for desc, op in filter(None, steps):
                records.append((desc, _run(eng, op)))
            history.record(eng)
            for kind in faults.KINDS:
                krng = forge_rng if kind == "forge" else rng
                fault = faults.draw(krng, eng, history, kind)
                if fault is None:
                    continue
                desc, commit = fault
                fork = eng.fork()
                commit(fork)
                names = {
                    x for k in desc for x in (k if type(k) is tuple else (k,))
                }
                probe = _operation(krng, fork, krng.choice(PROBES), names)
                if probe is None:
                    continue
                result = _run(fork, probe[1])
                records.append((desc, probe[0], result))
                tally[kind] += 1
                tally[kind, "raised"] += result[0] not in DONE
                if probe[0][0] == "read" and result[0] == "applied":
                    body = eng.fs.f[probe[0][2]].fields.body.payload
                    tally[kind, "other body"] += result[-1] != body
    return records, tally


@pytest.mark.parametrize("binding", sorted(BINDINGS))
def test_transcript_is_pinned(binding):
    records, tally = _transcript(binding)
    assert len(records) >= 2000
    for kind in faults.KINDS:
        assert tally[kind], kind
        assert tally[kind, "raised"] or kind == "replay_same", kind
    # a same-version replay goes unseen: some read returns the older body
    assert tally["replay_same", "other body"]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == PINNED_SHA256[binding]
