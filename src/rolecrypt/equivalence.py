"""Lockstep checking of the enforcement engines against the reference model.

Four pieces:

* ``sigma`` maps model to engine: it builds the enforcement image of an
  abstract state directly, by replaying its contents in sorted order onto a
  fresh engine.  The image has every version counter at 1 and the superuser
  as uploader of every file.  ``Engine.state()`` maps back, so
  ``sigma(s).state() == s``.
* ``canonicalize`` reduces an engine state to a version-free, handle-free
  normal form.  Two states are *congruent* when their normal forms are equal:
  same users, roles, files, memberships, grants, and plaintexts, ignoring how
  many times keys have been rolled and which opaque key handles were drawn.
* ``Lockstep`` advances the reference model and an engine together, label
  by label, and checks each step in the size of the step.  The engine's
  change stream (every tuple put or deleted and every record edit, see
  ``engine``) keeps a view of the UR and PA its state has, so the envelope
  re-derives the grants of only the (user, file) pairs a change can move.
  The model's side of a step is the label's edits, which the successor
  state holds (see ``rbac``), so the theory check compares only the UR and
  PA entries the changes or the edits touched and the roles they name, as
  the counting algorithm maintains a view from its deltas alone (Gupta,
  Mumick & Subrahmanian, SIGMOD 1993).  Every entry either side changed is
  among them, so UR and PA, sizes included, agree after a step that passes.
  Every checker steps it, with the envelope on: the differential check,
  the ``simulate --check-costs`` audit and cost reconciliation.
* ``run_differential`` steps a trace from the empty state, and checks at its
  end that the engine is congruent to the image of the model's state.  That
  comparison, and ``Lockstep.check_whole_state`` at the end of every
  audited run, are the whole-state checks: each runs once, not per step.

Normal form details: stale file-key tuples (below the file's current version)
are dropped, role versions are erased, signatures reduce to their signer, and
file bodies compare by plaintext and writer.  One walk of each entry yields
its serial-free projection, in which every generated key serial is a fixed
marker, and the serials it erased, in walk order.  Entries are sorted by the
``repr`` of the projection alone, and serials are renumbered by first
occurrence in that order.  A canonical entry is its projection followed by the tuple of its
renumbered serials.  Every entry is uniquely keyed by its projection and
renumbering is idempotent, so the normal form is well defined and a fixed
point of ``canonicalize``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .costmodel import algebraic_cost, reconcile
from .crypto import (
    CostVector,
    Identity,
    SymbolicCiphertext,
    SymbolicKey,
    SymbolicSignature,
)
from .engine import Engine, default_content, measure_label
from .rbac import (
    Label,
    RbacError,
    RbacState,
    READ,
    RW,
    SUPERUSER,
    WRITE,
    _LEVEL_OPS,
    _granted,
    apply_label,
    theory,
)

CanonicalState = tuple


def sigma(state: RbacState, binding: str = "ibe") -> Engine:
    """The enforcement image of an abstract state: all versions 1, every file
    uploaded by the superuser."""
    eng = Engine(binding=binding)
    for u in sorted(state.users):
        eng.add_user(u)
    for fn in sorted(state.perms):
        eng.add_file(SUPERUSER, fn, default_content(fn))
    for r in sorted(state.roles):
        eng.add_role(r)
    for u, r in sorted(state.ur):
        eng.assign_user(u, r)
    for r, fn, op in sorted(state.pa):
        eng.assign_perm(r, fn, op)
    return eng


# --- canonical form -------------------------------------------------------------


def _canon(v: object, serials: list) -> object:
    """Structural reduction: erase role versions, reduce signatures to their
    signer, replace each generated serial by the marker ``("h",)`` and
    append it to ``serials`` in walk order.  Dispatched on exact type: the
    terms' record types have no subclasses, and a term holds no tuple
    subclass."""
    t = type(v)
    if t is Identity:
        return ("id", v.kind, v.name)
    if t is SymbolicKey:
        key = ("key", v.alg, _canon(v.owner, serials))
        if v.serial is None:
            return key
        serials.append(v.serial)
        return key + (("h",),)
    if t is SymbolicCiphertext:
        recipient = _canon(v.recipient, serials)
        return ("ct", v.alg, recipient, _canon(v.payload, serials))
    if t is SymbolicSignature:
        return ("sig", _canon(v.signer, serials))
    if t is tuple:
        return ("tup",) + tuple([_canon(x, serials) for x in v])
    return v


def _entry(names: tuple, *terms: object) -> tuple[tuple, list]:
    """An entry's projection, its tag and store names followed by its terms
    reduced, with the serials they erased."""
    serials: list = []
    return names + tuple([_canon(x, serials) for x in terms]), serials


def _entries(eng: Engine) -> list[tuple[tuple, list]]:
    out: list[tuple[tuple, list]] = []
    for u, ring in eng.users.items():
        out.append(_entry(("U", u), ring.enc_ref, ring.ver_ref))
    for r, rec in eng.roles.items():
        out.append(_entry(("R", r), rec.keys.enc_ref, rec.keys.ver_ref))
    for fn in eng.files:
        out.append((("P", fn), []))
    for (m, rn, _v), t in eng.fs.rk.items():
        out.append(_entry(("RK", m, rn), t.fields.ct, t.sig))
    for (h, fn, v), t in eng.fs.fk.items():
        if v != eng.files.get(fn):
            continue  # superseded file-key versions do not count
        b = t.fields
        out.append(_entry(("FK", h, fn), b.op, b.ct, b.issuer, t.sig))
    for fn, t in eng.fs.f.items():
        b = t.fields
        out.append(_entry(("F", fn), b.body.payload, b.writer, t.sig))
    return out


def canonicalize(obj: Union[Engine, CanonicalState]) -> CanonicalState:
    """Version-free, handle-free normal form of an engine state.  Accepts an
    engine or an already-canonical value; a fixed point either way."""
    if isinstance(obj, Engine):
        entries = _entries(obj)
    else:
        entries = [(e[:-1], e[-1]) for e in obj]
    # repr is injective on the tuples, strings, bytes, ints, bools and None
    # that a projection holds
    entries.sort(key=lambda e: repr(e[0]))
    numbers: dict = {}
    return tuple(
        proj + (tuple([numbers.setdefault(n, len(numbers)) for n in s]),)
        for proj, s in entries
    )


def congruent(
    a: Union[Engine, CanonicalState], b: Union[Engine, CanonicalState]
) -> bool:
    return canonicalize(a) == canonicalize(b)


# --- lockstep -------------------------------------------------------------------


_NO_OPS: dict[str, str] = {}


def _add(index: dict[str, set[str]], key: str, name: str) -> None:
    names = index.get(key)
    if names is None:
        index[key] = {name}
    else:
        names.add(name)


def _outside(view, pre: RbacState, post: RbacState, pairs) -> Optional[str]:
    """The envelope violation among the (user, file) ``pairs``, worded as
    the whole-state check words it, or None.  Envelope and grants are
    nested, so each pair compares three levels."""
    extra, missing = [], []
    for u, fn in set(pairs):
        cur = _granted(view, u, fn)
        a, b = _granted(pre, u, fn), _granted(post, u, fn)
        lo, hi = (a, b) if a <= b else (b, a)
        extra += [("auth", u, fn, op) for op in _LEVEL_OPS[hi:cur]]
        missing += [("auth", u, fn, op) for op in _LEVEL_OPS[cur:lo]]
    if extra or missing:
        return f"outside envelope +{sorted(extra)} -{sorted(missing)}"
    return None


def _worded(got: RbacState, want: RbacState) -> str:
    got_t, want_t = theory(got), theory(want)
    return f"+{sorted(got_t - want_t)} -{sorted(want_t - got_t)}"


class _EngineView:
    """UR and PA as ``Engine.state()`` reads them, kept from the engine's
    change stream instead of re-read.  One scan of the store's keys builds
    it, reading each UR pair and PA entry a key names as ``changed`` does.
    Then ``changed``, the store's hook while a step runs, recomputes only
    the entries a change can move, each as ``Engine.state()`` reads it,
    from the engine's record and one store lookup:

    * an RK tuple put or deleted at (m, r, v): the UR pair (m, r);
    * an FK tuple put or deleted at (h, fn, v): the PA entry (h, fn);
    * a user edit: the user's UR pairs; a role edit: the role's UR pairs
      and PA entries; a file edit: the file's PA entries.

    A record edit's entries come from a shadow of the store's keys: the
    (member, role) pairs of the RK keys and the (holder, file) pairs of the
    FK keys it has seen, by either name, the superuser's left out.  The
    shadow only grows; every entry it names is read back from the store.
    Since ``begin``, ``touched_*`` collect the UR pairs, PA entries and
    roles that changed, and ``violation`` the first envelope violation."""

    def __init__(self, eng: Engine) -> None:
        self.engine = eng
        self.ur_roles: dict[str, set[str]] = {}  # user -> roles
        self.ur_members: dict[str, set[str]] = {}  # role -> users
        self.pa_ops: dict[str, dict[str, str]] = {}  # role -> {file: op}
        self.touched_ur: set[tuple[str, str]] = set()
        self.touched_pa: set[tuple[str, str]] = set()
        self.touched_roles: set[str] = set()
        self.envelope: Optional[tuple[RbacState, RbacState]] = None
        self.violation: Optional[str] = None
        self._rk_roles: dict[str, set[str]] = {}  # member -> roles
        self._rk_members: dict[str, set[str]] = {}  # role -> members
        self._fk_files: dict[str, set[str]] = {}  # holder -> files
        self._fk_holders: dict[str, set[str]] = {}  # file -> holders
        for m, r, _ in eng.fs.rk:
            if m != SUPERUSER:
                _add(self._rk_roles, m, r)
                _add(self._rk_members, r, m)
                self._follow_ur(m, r)
        for h, fn, _ in eng.fs.fk:
            if h != SUPERUSER:
                _add(self._fk_files, h, fn)
                _add(self._fk_holders, fn, h)
                self._follow_pa(h, fn)

    def roles_of(self, u: str):
        return self.ur_roles.get(u, ())

    def files_of(self, r: str) -> dict[str, str]:
        return self.pa_ops.get(r, _NO_OPS)

    def begin(self, pre: RbacState, post: RbacState) -> None:
        """Start a step: clear ``touched_*`` and ``violation``, and check
        the changes to come against the envelope of ``pre`` and ``post``."""
        self.touched_ur.clear()
        self.touched_pa.clear()
        self.touched_roles.clear()
        self.envelope, self.violation = (pre, post), None

    def changed(self, store: dict, key) -> None:
        """The store's hook: follow one change of the stream, check the
        (user, file) pairs whose grant it may have moved against the
        envelope, and keep the first violation.  The superuser's
        tuples, and a tuple at a version that is not current, hold no fact
        before the change or after it."""
        eng = self.engine
        if store is eng.fs.fk:
            h, fn, v = key
            if h == SUPERUSER:
                return
            files = self._fk_files.get(h)
            if files is None or fn not in files:
                _add(self._fk_files, h, fn)
                _add(self._fk_holders, fn, h)
            if v != eng.files.get(fn):
                return
            pairs = [(u, fn) for u in self._follow_pa(h, fn)]
        elif store is eng.fs.rk:
            m, r, v = key
            if m == SUPERUSER:
                return
            roles = self._rk_roles.get(m)
            if roles is None or r not in roles:
                _add(self._rk_roles, m, r)
                _add(self._rk_members, r, m)
            rec = eng.roles.get(r)
            if rec is None or v != rec.version:
                return
            pairs = [(m, fn) for fn in self._follow_ur(m, r)]
        else:  # a record edit; a body holds no fact
            pairs = []
            if store is eng.roles:
                self.touched_roles.add(key)
                for m in self._rk_members.get(key, ()):
                    pairs += [(m, fn) for fn in self._follow_ur(m, key)]
                for fn in self._fk_files.get(key, ()):
                    pairs += [(u, fn) for u in self._follow_pa(key, fn)]
            elif store is eng.users:
                for r in self._rk_roles.get(key, ()):
                    pairs += [(key, fn) for fn in self._follow_ur(key, r)]
            elif store is eng.files:
                for h in self._fk_holders.get(key, ()):
                    pairs += [(u, key) for u in self._follow_pa(h, key)]
        if pairs and self.violation is None:
            self.violation = _outside(self, *self.envelope, pairs)

    def _follow_ur(self, m: str, r: str) -> Iterable[str]:
        """Re-read the UR pair (m, r); if it changed, the files whose grant
        to m it moves, which the caller reads before the next change."""
        eng = self.engine
        rec = eng.roles.get(r)
        now = (
            rec is not None and m in eng.users
            and (m, r, rec.version) in eng.fs.rk
        )
        roles = self.ur_roles.get(m)
        if now == (roles is not None and r in roles):
            return ()
        if now:
            _add(self.ur_roles, m, r)
            _add(self.ur_members, r, m)
        else:
            roles.discard(r)
            self.ur_members[r].discard(m)
        self.touched_ur.add((m, r))
        return self.pa_ops.get(r, _NO_OPS)

    def _follow_pa(self, h: str, fn: str) -> Iterable[str]:
        """Re-read the PA entry (h, fn) of a holder other than SU; if it
        changed, the users whose grant on fn it moves, which the caller
        reads before the next change."""
        eng = self.engine
        v = eng.files.get(fn)
        t = None
        if v is not None and h in eng.roles:
            t = eng.fs.fk.get((h, fn, v))
        now = None if t is None else t.fields.op
        ops = self.pa_ops.get(h, _NO_OPS)
        if now == ops.get(fn):
            return ()
        if now is None:
            del ops[fn]
        else:
            if ops is _NO_OPS:
                ops = self.pa_ops[h] = {}
            ops[fn] = now
        self.touched_pa.add((h, fn))
        return self.ur_members.get(h, ())


class Lockstep:
    """The reference model and an engine advanced together, one label at a
    time.  The engine must hold ``sigma(state)``.  With ``costs``,
    ``versions`` holds the file-key versions the stepper prices each label
    at, which start at that image's, every file at 1, and which each price
    advances; without, it is None.

    ``step`` applies a label to both and returns the first failed check as
    ``(kind, detail)``, or None.  Each check reads only what the step
    changed: the engine's change stream (see ``engine``) keeps an
    ``_EngineView`` of the UR and PA ``Engine.state()`` would read, which
    construction builds from one scan of the store's keys, and the model's
    side comes from the label's edits, which the post-state holds.  The
    kinds, in the order checked:

    * ``unauthorized``: the engine decrypted with a mismatched key;
    * ``error-mismatch``: the engine raised where the model did not, or
      anything but an ``RbacError`` where the model raised one;
    * ``safety``: after a change in the stream, a (user, file) pair whose
      grant the change moved left the envelope of the pre- and post-states;
      pairs no change moved keep their pre-state grant, which is inside;
    * ``cost``, with ``costs``: measured primitives differ from
      ``algebraic_cost`` of the model's pre-state and versions;
    * ``theory``: a UR pair or PA entry that the step's changes or the
      label's edits touched, the existence of a role either touched, or the
      number of roles differs from the model's post-state.  The edits are
      all of the model's changes, and entries neither side touched were
      equal before the step, so they still are, and so are the sizes of UR
      and PA.  Only a mismatch reads the whole ``eng.state()``, to word it
      as the difference of the two theories.

    ``check_whole_state`` compares the whole ``eng.state()`` with the
    model's state, which sees what the stream did not carry (a record or
    store map written around ``Engine._edit`` and ``FileStore``); callers
    run it once, at the end of a trace or run.

    ``error`` holds the exception the engine raised on the last step and
    ``price`` the step's ``algebraic_cost``, each None if there was none.
    A failed step leaves the stepper spent."""

    def __init__(
        self, engine: Engine, state: RbacState = RbacState(), *,
        costs: bool = True,
    ) -> None:
        self.engine, self.state = engine, state
        self.versions = dict.fromkeys(state.perms, 1) if costs else None
        self.error: Optional[Exception] = None
        self.price: Optional[CostVector] = None
        self._view = _EngineView(engine)

    def step(self, label: Label) -> Optional[tuple[str, str]]:
        eng, pre, view = self.engine, self.state, self._view
        self.error = self.price = None
        try:
            post, model_err = apply_label(pre, label), None
        except RbacError as e:
            post, model_err = pre, e
        view.begin(pre, post)
        eng.fs.on_mutation = view.changed
        try:
            measured = measure_label(eng, label)
        except Exception as e:  # any engine failure is a finding
            self.error = e
        finally:
            eng.fs.on_mutation = None
        if eng.provider.unauthorized_events:
            return "unauthorized", repr(eng.provider.unauthorized_events[0])
        if not (
            self.error is None if model_err is None
            else isinstance(self.error, RbacError)
        ):
            return "error-mismatch", (
                f"model {model_err!r} vs engine {self.error!r}"
            )
        if view.violation is not None:
            return "safety", view.violation
        if self.versions is not None and model_err is None:
            self.price = algebraic_cost(label, pre, self.versions)
            diff = reconcile(measured, self.price, eng.provider.name)
            if diff:
                return "cost", f"measured-predicted {diff!r}"
        if not self._theory_holds(label, pre, post):
            return "theory", _worded(eng.state(), post)
        self.state = post
        return None

    def _theory_holds(
        self, label: Label, pre: RbacState, post: RbacState
    ) -> bool:
        """The ``theory`` check of one step.  The model's changes are
        ``post``'s edits, none if the label left ``pre`` as it was: the
        indexes ``post`` answers from are ``pre``'s with exactly those
        edits made.  The view changes only where it records a touched entry,
        so every entry either side changed is compared, and UR and PA need
        no size check of their own.  ``len(eng.roles)`` reads the live
        record, so it also sees a role edited around ``Engine._edit``."""
        eng, view = self.engine, self._view
        if len(eng.roles) != len(post.roles):
            return False
        r = label.role
        if r is not None and (r in eng.roles) != (r in post.roles):
            return False
        for r in view.touched_roles:
            if (r in eng.roles) != (r in post.roles):
                return False
        edits = RbacState.edits if post is pre else post.edits
        ur_gone, ur_new, pa_gone, pa_new = edits
        for u, r in chain(ur_gone, ur_new, view.touched_ur):
            if (r in view.roles_of(u)) != (r in post.roles_of(u)):
                return False
        for r, fn, *_ in chain(pa_gone, pa_new, view.touched_pa):
            if view.files_of(r).get(fn) != post.pa_op(r, fn):
                return False
        return True

    def check_whole_state(self) -> Optional[tuple[str, str]]:
        """``("theory", detail)`` if the whole ``eng.state()`` differs from
        the model's state in its roles, UR or PA, else None.  Equal
        ``(roles, ur, pa)`` triples mean equal theories, so both are built
        only to word a mismatch."""
        got, want = self.engine.state(), self.state
        if (got.roles, got.ur, got.pa) != (want.roles, want.ur, want.pa):
            return "theory", _worded(got, want)
        return None


# --- differential harness -------------------------------------------------------


@dataclass
class DifferentialReport:
    ok: bool
    steps: int
    failure_kind: Optional[str] = None  # a Lockstep kind or congruence
    failure_index: Optional[int] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def run_differential(
    labels: Sequence[Label],
    binding: str = "ibe",
    *,
    check_costs: bool = False,
    step_congruence: bool = False,
) -> DifferentialReport:
    """Replay ``labels`` from the empty state through a ``Lockstep`` of the
    reference model and one engine, with the cost check as ``check_costs``
    says; the model's side comes from the label's edits.  Stops at the first
    divergence; the engine's exceptions are reported, never raised.  The
    engine must end congruent to ``sigma`` of the model's state, and with
    ``step_congruence`` after every label."""
    labels = list(labels)
    eng = Engine(binding=binding)
    lock = Lockstep(eng, costs=check_costs)
    for i, lbl in enumerate(labels):
        failure = lock.step(lbl)
        if failure is None and step_congruence and not congruent(
            eng, sigma(lock.state, binding)
        ):
            failure = "congruence", "not congruent to mapped state"
        if failure is not None:
            kind, detail = failure
            return DifferentialReport(
                False, i, kind, i, f"label {i} {lbl}: {detail}"
            )
    if not congruent(eng, sigma(lock.state, binding)):
        return DifferentialReport(
            False, len(labels), failure_kind="congruence",
            failure_index=len(labels) - 1 if labels else None,
            detail="final state not congruent to mapped state",
        )
    return DifferentialReport(True, len(labels))


def minimize_counterexample(
    labels: Sequence[Label], binding: str = "ibe", **kwargs
) -> list[Label]:
    """Greedily drop labels while the trace still fails the differential
    check.  Returns a (locally) minimal failing trace."""

    def fails(ls: list[Label]) -> bool:
        return not run_differential(ls, binding=binding, **kwargs).ok

    current = list(labels)
    if not fails(current):
        raise ValueError("trace does not fail; nothing to minimize")
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current)):
            cand = current[:i] + current[i + 1 :]
            if fails(cand):
                current = cand
                shrunk = True
                break
    return current


# --- random reachable traces ----------------------------------------------------


class TraceBuilder:
    """Grows a random trace of valid labels while tracking enough shadow
    state to respect size and version caps.  About one label in twenty is a
    deliberate no-op (duplicate add, redundant grant, absent revoke).

    The shadow state is a few plain sets and maps, updated in place by each
    move, and not an ``RbacState`` stepped by ``rbac.apply_label``.  A
    prototype that stepped the model built the same traces 1.5 to 1.9 times
    as slowly, and building traces is the whole set-up of the benchmark's
    check-small workload."""

    NOOP_RATE = 1 / 20

    def __init__(
        self,
        rng: random.Random,
        max_users: int = 15,
        max_roles: int = 8,
        max_files: int = 20,
        version_cap: int = 3,
    ) -> None:
        self.rng = rng
        self.max_users = max_users
        self.max_roles = max_roles
        self.max_files = max_files
        self.version_cap = version_cap
        self.users: set[str] = set()
        self.roles: set[str] = set()
        self.ur: set[tuple[str, str]] = set()
        self.pa: dict[tuple[str, str], str] = {}
        self.versions: dict[str, int] = {}
        self._next_id = 1

    # shadow helpers

    def _fresh(self, prefix: str) -> str:
        name = f"{prefix}{self._next_id}"
        self._next_id += 1
        return name

    def _files_of(self, r: str) -> list[str]:
        return [fn for (rr, fn) in self.pa if rr == r]

    def _roles_of(self, u: str) -> list[str]:
        return [r for (uu, r) in self.ur if uu == u]

    def _can_bump(self, fns: list[str]) -> bool:
        counts: dict[str, int] = {}
        for fn in fns:
            counts[fn] = counts.get(fn, 0) + 1
        return all(
            self.versions[fn] + n <= self.version_cap
            for fn, n in counts.items()
        )

    def _bump(self, fns: list[str]) -> None:
        for fn in fns:
            self.versions[fn] += 1

    # candidate moves; each returns a Label or None if unavailable

    def _mv_addU(self) -> Optional[Label]:
        if len(self.users) >= self.max_users:
            return None
        u = self._fresh("u")
        self.users.add(u)
        return Label("addU", user=u)

    def _mv_addR(self) -> Optional[Label]:
        if len(self.roles) >= self.max_roles:
            return None
        r = self._fresh("r")
        self.roles.add(r)
        return Label("addR", role=r)

    def _mv_addP(self) -> Optional[Label]:
        if len(self.versions) >= self.max_files:
            return None
        fn = self._fresh("f")
        self.versions[fn] = 1
        return Label("addP", file=fn)

    def _mv_assignU(self) -> Optional[Label]:
        cands = [
            (u, r)
            for u in self.users
            for r in self.roles
            if (u, r) not in self.ur
        ]
        if not cands:
            return None
        u, r = self.rng.choice(sorted(cands))
        self.ur.add((u, r))
        return Label("assignU", user=u, role=r)

    def _mv_revokeU(self) -> Optional[Label]:
        cands = [
            (u, r) for (u, r) in self.ur if self._can_bump(self._files_of(r))
        ]
        if not cands:
            return None
        u, r = self.rng.choice(sorted(cands))
        self.ur.discard((u, r))
        self._bump(self._files_of(r))
        return Label("revokeU", user=u, role=r)

    def _mv_assignP(self) -> Optional[Label]:
        fresh = [
            (r, fn)
            for r in self.roles
            for fn in self.versions
            if (r, fn) not in self.pa
        ]
        upgrades = [k for k, op in self.pa.items() if op == READ]
        cands = [(k, "fresh") for k in fresh] + [
            (k, "up") for k in upgrades
        ]
        if not cands:
            return None
        (r, fn), kind = self.rng.choice(sorted(cands))
        op = self.rng.choice((READ, RW)) if kind == "fresh" else RW
        self.pa[(r, fn)] = op
        return Label("assignP", role=r, file=fn, op=op)

    def _mv_revokeP_write(self) -> Optional[Label]:
        cands = [k for k, op in self.pa.items() if op == RW]
        if not cands:
            return None
        r, fn = self.rng.choice(sorted(cands))
        self.pa[(r, fn)] = READ
        return Label("revokeP", role=r, file=fn, op=WRITE)

    def _mv_revokeP_full(self) -> Optional[Label]:
        cands = [
            (r, fn)
            for (r, fn) in self.pa
            if self.versions[fn] < self.version_cap
        ]
        if not cands:
            return None
        r, fn = self.rng.choice(sorted(cands))
        del self.pa[(r, fn)]
        self.versions[fn] += 1
        return Label("revokeP", role=r, file=fn, op=RW)

    def _mv_delU(self) -> Optional[Label]:
        cands = []
        for u in self.users:
            fns = [
                fn for r in self._roles_of(u) for fn in self._files_of(r)
            ]
            if self._can_bump(fns):
                cands.append(u)
        if not cands:
            return None
        u = self.rng.choice(sorted(cands))
        for r in self._roles_of(u):
            self._bump(self._files_of(r))
        self.users.discard(u)
        self.ur = {(uu, r) for (uu, r) in self.ur if uu != u}
        return Label("delU", user=u)

    def _mv_delR(self) -> Optional[Label]:
        cands = [
            r for r in self.roles if self._can_bump(self._files_of(r))
        ]
        if not cands:
            return None
        r = self.rng.choice(sorted(cands))
        for fn in self._files_of(r):
            self.versions[fn] += 1
        self.roles.discard(r)
        self.ur = {(u, rr) for (u, rr) in self.ur if rr != r}
        self.pa = {k: op for k, op in self.pa.items() if k[0] != r}
        return Label("delR", role=r)

    def _mv_delP(self) -> Optional[Label]:
        if not self.versions:
            return None
        fn = self.rng.choice(sorted(self.versions))
        del self.versions[fn]
        self.pa = {k: op for k, op in self.pa.items() if k[1] != fn}
        return Label("delP", file=fn)

    def _mv_noop(self) -> Optional[Label]:
        opts: list[Label] = []
        if self.users:
            u = self.rng.choice(sorted(self.users))
            opts.append(Label("addU", user=u))
            rs = [r for r in self.roles if (u, r) not in self.ur]
            if rs:
                opts.append(
                    Label("revokeU", user=u, role=self.rng.choice(sorted(rs)))
                )
        if self.roles and self.versions:
            r = self.rng.choice(sorted(self.roles))
            fn = self.rng.choice(sorted(self.versions))
            if (r, fn) not in self.pa:
                opts.append(Label("revokeP", role=r, file=fn, op=RW))
            elif self.pa[(r, fn)] == RW:
                opts.append(Label("assignP", role=r, file=fn, op=READ))
        if not opts:
            return None
        return self.rng.choice(opts)

    _GROW = ("addU", "addR", "addP", "assignU", "assignP")
    _ALL = _GROW + ("revokeU", "revokeP_write", "revokeP_full",
                    "delU", "delR", "delP")
    # favor growth so traces reach interesting states before churning
    _WEIGHTS = dict.fromkeys(_ALL, 1) | dict.fromkeys(_GROW, 3)

    def step(self) -> Optional[Label]:
        if self.rng.random() < self.NOOP_RATE:
            lbl = self._mv_noop()
            if lbl is not None:
                return lbl
        kinds = list(self._ALL)
        while kinds:
            k = self.rng.choices(
                kinds, weights=[self._WEIGHTS[k] for k in kinds]
            )[0]
            lbl = getattr(self, f"_mv_{k}")()
            if lbl is not None:
                return lbl
            kinds.remove(k)
        return None

    def build(self, n: int) -> list[Label]:
        out = []
        for _ in range(n):
            lbl = self.step()
            if lbl is None:
                break
            out.append(lbl)
        return out
