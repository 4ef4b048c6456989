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
  by label, and checks each step in the size of the step.  It is the one
  class that follows the engine's change stream (every tuple put or deleted
  and every record edit, see ``engine``), from which it keeps its own copy
  of the UR and PA the engine's state has, so the envelope re-derives the
  grants of only the (user, file) pairs a change can move.
  The model's side of a step is the label's edits, which the successor
  state holds (see ``rbac``), so the theory check compares only the UR and
  PA entries the changes or the edits touched and the roles they name, as
  the counting algorithm maintains a view from its deltas alone (Gupta,
  Mumick & Subrahmanian, SIGMOD 1993).  Every entry either side changed is
  among them, so UR and PA, sizes included, agree after a step that passes.
  Every checker steps it, with the envelope on: the differential check,
  the ``simulate --check-costs`` audit and cost reconciliation.
* ``run_differential`` steps a trace from the empty state, and checks at its
  end that the engine is congruent to the image of the model's state, once
  per state: a trace checked after every label is not checked again.  That
  comparison, and ``Lockstep.check_whole_state`` at the end of every
  audited run, are the whole-state checks: each runs once, not per step.

Normal form details: stale file-key tuples (below the file's current version)
are dropped, role versions are erased, signatures reduce to their signer, and
file bodies compare by plaintext and writer.  One walk of each entry yields
its serial-free projection, in which every generated key serial is a fixed
marker, and the serials it erased, in walk order.  Entries are in the order
of their projections' ``repr``, and serials are renumbered by first
occurrence in that order.  The sort reads only the ``repr`` of the tag and
store names (``("FK", holder, file)``, ``("U", user)``, ...): no string's
``repr`` is a prefix of another's, so entries with distinct names compare
there as their projections do.  If two entries share their names (RK tuples
of one member and role at two versions) or a name is not a string, the
projection's ``repr`` is the key.  A canonical entry is its projection
followed by the tuple of its renumbered serials.  Every entry is uniquely
keyed by its projection and renumbering is idempotent, so the normal form is
well defined and a fixed point of ``canonicalize``.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Optional, Sequence, Union

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

#: How many leading fields of a canonical entry are its tag and store names
_NAMES = {"U": 2, "R": 2, "P": 2, "F": 2, "RK": 3, "FK": 3}


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
    names = [e[0][:_NAMES[e[0][0]]] for e in entries]
    by_names = dict(zip(map(repr, names), entries))
    str_only = {str}.issuperset(map(type, chain(*names)))
    if str_only and len(by_names) == len(entries):
        entries = [by_names[k] for k in sorted(by_names)]
    else:
        # repr is injective on the tuples, strings, bytes, ints, bools and
        # None that a projection holds
        entries.sort(key=lambda e: repr(e[0]))
    numbers: dict = {}
    return tuple([
        proj + (tuple([numbers.setdefault(n, len(numbers)) for n in s]),)
        for proj, s in entries
    ])


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


def _outside(lock, pre: RbacState, post: RbacState, pairs) -> Optional[str]:
    """The envelope violation among the (user, file) ``pairs`` of the
    ``Lockstep`` ``lock``'s engine, worded as the whole-state check words
    it, or None.  Envelope and grants are nested, so each pair compares
    three levels."""
    extra, missing = [], []
    for u, fn in set(pairs):
        cur = _granted(lock, u, fn)
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


class Lockstep:
    """The reference model and an engine advanced together, one label at a
    time.  The engine must hold ``sigma(state)``.  With ``costs``,
    ``versions`` holds the file-key versions the stepper prices each label
    at, which start at that image's, every file at 1, and which each price
    advances; without, it is None.

    ``step`` applies a label to both and returns the first failed check as
    ``(kind, detail)``, or None.  Each check reads only what the step
    changed.  The model's side comes from the label's edits, which the
    post-state holds.  The engine's side is UR and PA as ``Engine.state()``
    reads them, which ``roles_of`` and ``files_of`` answer from, kept from
    the engine's change stream (see ``engine``) instead of re-read.
    Construction builds them from one scan of the store's keys, reading
    each UR pair and PA entry a key names as a change would.  While a step
    runs, the store's hook recomputes only the entries a change can move,
    each as ``Engine.state()`` reads it, from the engine's record and one
    store lookup:

    * an RK tuple put or deleted at (m, r, v): the UR pair (m, r);
    * an FK tuple put or deleted at (h, fn, v): the PA entry (h, fn);
    * a user edit: the user's UR pairs; a role edit: the role's UR pairs
      and PA entries; a file edit: the file's PA entries.

    A record edit's entries come from a shadow of the store's keys: the
    (member, role) pairs of the RK keys and the (holder, file) pairs of the
    FK keys it has seen, by either name, the superuser's left out.  The
    shadow only grows; every entry it names is read back from the store.
    A step's ``_touched_*`` collect the UR pairs, PA entries and roles that
    changed.  The kinds, in the order checked:

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
        self._ur_roles: dict[str, set[str]] = {}  # user -> roles
        self._ur_members: dict[str, set[str]] = {}  # role -> users
        self._pa_ops: dict[str, dict[str, str]] = {}  # role -> {file: op}
        self._touched_ur: set[tuple[str, str]] = set()
        self._touched_pa: set[tuple[str, str]] = set()
        self._touched_roles: set[str] = set()
        self._envelope: Optional[tuple[RbacState, RbacState]] = None
        self._violation: Optional[str] = None
        self._rk_roles: dict[str, set[str]] = {}  # member -> roles
        self._rk_members: dict[str, set[str]] = {}  # role -> members
        self._fk_files: dict[str, set[str]] = {}  # holder -> files
        self._fk_holders: dict[str, set[str]] = {}  # file -> holders
        for m, r, _ in engine.fs.rk:
            if m != SUPERUSER:
                _add(self._rk_roles, m, r)
                _add(self._rk_members, r, m)
                self._follow_ur(m, r)
        for h, fn, _ in engine.fs.fk:
            if h != SUPERUSER:
                _add(self._fk_files, h, fn)
                _add(self._fk_holders, fn, h)
                self._follow_pa(h, fn)

    def roles_of(self, u: str):
        return self._ur_roles.get(u, ())

    def files_of(self, r: str) -> dict[str, str]:
        return self._pa_ops.get(r, _NO_OPS)

    def step(self, label: Label) -> Optional[tuple[str, str]]:
        eng, pre = self.engine, self.state
        self.error = self.price = None
        try:
            post, model_err = apply_label(pre, label), None
        except RbacError as e:
            post, model_err = pre, e
        self._touched_ur.clear()
        self._touched_pa.clear()
        self._touched_roles.clear()
        self._envelope, self._violation = (pre, post), None
        eng.fs.on_mutation = self._changed
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
        if self._violation is not None:
            return "safety", self._violation
        if self.versions is not None and model_err is None:
            self.price = algebraic_cost(label, pre, self.versions)
            diff = reconcile(measured, self.price, eng.provider.name)
            if diff:
                return "cost", f"measured-predicted {diff!r}"
        if not self._theory_holds(label, pre, post):
            return "theory", _worded(eng.state(), post)
        self.state = post
        return None

    def _changed(self, store: dict, key) -> None:
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
                self._touched_roles.add(key)
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
        if pairs and self._violation is None:
            self._violation = _outside(self, *self._envelope, pairs)

    def _follow_ur(self, m: str, r: str) -> Iterable[str]:
        """Re-read the UR pair (m, r); if it changed, the files whose grant
        to m it moves, which the caller reads before the next change."""
        eng = self.engine
        rec = eng.roles.get(r)
        now = (
            rec is not None and m in eng.users
            and (m, r, rec.version) in eng.fs.rk
        )
        roles = self._ur_roles.get(m)
        if now == (roles is not None and r in roles):
            return ()
        if now:
            _add(self._ur_roles, m, r)
            _add(self._ur_members, r, m)
        else:
            roles.discard(r)
            self._ur_members[r].discard(m)
        self._touched_ur.add((m, r))
        return self._pa_ops.get(r, _NO_OPS)

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
        ops = self._pa_ops.get(h, _NO_OPS)
        if now == ops.get(fn):
            return ()
        if now is None:
            del ops[fn]
        else:
            if ops is _NO_OPS:
                ops = self._pa_ops[h] = {}
            ops[fn] = now
        self._touched_pa.add((h, fn))
        return self._ur_members.get(h, ())

    def _theory_holds(
        self, label: Label, pre: RbacState, post: RbacState
    ) -> bool:
        """The ``theory`` check of one step.  The model's changes are
        ``post``'s edits, none if the label left ``pre`` as it was: the
        indexes ``post`` answers from are ``pre``'s with exactly those
        edits made.  The engine's side changes only where a touched entry is
        recorded, so every entry either side changed is compared, and UR and
        PA need no size check of their own.  ``len(eng.roles)`` reads the live
        record, so it also sees a role edited around ``Engine._edit``."""
        eng = self.engine
        if len(eng.roles) != len(post.roles):
            return False
        r = label.role
        if r is not None and (r in eng.roles) != (r in post.roles):
            return False
        for r in self._touched_roles:
            if (r in eng.roles) != (r in post.roles):
                return False
        edits = RbacState.edits if post is pre else post.edits
        ur_gone, ur_new, pa_gone, pa_new = edits
        for u, r in chain(ur_gone, ur_new, self._touched_ur):
            if (r in self.roles_of(u)) != (r in post.roles_of(u)):
                return False
        for r, fn, *_ in chain(pa_gone, pa_new, self._touched_pa):
            if self.files_of(r).get(fn) != post.pa_op(r, fn):
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
    ``step_congruence`` be so after every label, the last label's check
    being the final one; an exception raised while ``sigma`` maps the state
    or while the two are compared is a ``congruence`` failure naming it."""
    labels = list(labels)
    eng = Engine(binding=binding)
    lock = Lockstep(eng, costs=check_costs)

    def incongruence() -> Optional[str]:
        # mapping the model's state steps a fresh engine, whose exceptions
        # are findings too
        try:
            if congruent(eng, sigma(lock.state, binding)):
                return None
        except Exception as e:
            return f"congruence check raised {e!r}"
        return "not congruent to mapped state"

    for i, lbl in enumerate(labels):
        failure = lock.step(lbl)
        if failure is None and step_congruence:
            why = incongruence()
            if why is not None:
                failure = "congruence", why
        if failure is not None:
            kind, detail = failure
            return DifferentialReport(
                False, i, kind, i, f"label {i} {lbl}: {detail}"
            )
    if not (step_congruence and labels):
        why = incongruence()
        if why is not None:
            return DifferentialReport(
                False, len(labels), failure_kind="congruence",
                failure_index=len(labels) - 1 if labels else None,
                detail=f"final state {why}",
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


def _draw(random: Callable[[], float], cum: Sequence[int]) -> int:
    """The index ``Random.choices`` draws for the cumulative weights
    ``cum``, by the same one call of ``random`` and the same arithmetic, so
    ``rng.choices(xs, cum_weights=cum)[0]`` is ``xs[_draw(rng.random,
    cum)]`` and leaves the same ``rng.getstate()`` (Python 3.10 to 3.13)."""
    return bisect(cum, random() * (cum[-1] + 0.0), 0, len(cum) - 1)


class TraceBuilder:
    """Grows a random trace of valid labels while tracking enough shadow
    state to respect size and version caps.  About one label in twenty is a
    deliberate no-op (duplicate add, redundant grant, absent revoke).

    The shadow state is a few plain sets and maps, updated in place by each
    move, and not an ``RbacState`` stepped by ``rbac.apply_label``: the
    users, the roles, file -> key version, and the two relations as maps,
    ``ur`` user -> roles and ``pa`` role -> {file: op}, so a move reads a
    user's roles or a role's files without a scan of every pair.  A prototype
    that stepped the model built the same traces 1.5 to 1.9 times as slowly,
    and building traces is the whole set-up of the benchmark's check-small
    workload.

    A step costs about what its draws cost: the move kind comes from a
    cumulative-weight table built once (``_draw``; rebuilt only when a kind
    proves unavailable), the move from a table of functions, and each move
    lists its candidates already in sorted order.  The benchmark's seed-1
    check corpus (680 traces, 27,200 labels) takes 0.16-0.23 s of process
    time to build on a 2-vCPU VM under Python 3.11, 6 to 8.5 µs a label."""

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
        self.ur: dict[str, set[str]] = {}  # user -> roles
        self.pa: dict[str, dict[str, str]] = {}  # role -> {file: op}
        self.versions: dict[str, int] = {}
        self._next_id = 1

    # shadow helpers

    def _fresh(self, prefix: str) -> str:
        name = f"{prefix}{self._next_id}"
        self._next_id += 1
        return name

    def _can_bump(self, roles: Iterable[str]) -> bool:
        """Whether every file stays within the version cap when each of
        ``roles`` rolls the keys of all its files, one version per role."""
        counts: dict[str, int] = {}
        for r in roles:
            for fn in self.pa[r]:
                counts[fn] = counts.get(fn, 0) + 1
        return all(
            self.versions[fn] + n <= self.version_cap
            for fn, n in counts.items()
        )

    def _bump(self, roles: Iterable[str]) -> None:
        for r in roles:
            for fn in self.pa[r]:
                self.versions[fn] += 1

    # candidate moves; each returns a Label or None if unavailable, and
    # lists its candidates in sorted order, so a draw never hangs on set order

    def _mv_addU(self) -> Optional[Label]:
        if len(self.users) >= self.max_users:
            return None
        u = self._fresh("u")
        self.users.add(u)
        self.ur[u] = set()
        return Label("addU", user=u)

    def _mv_addR(self) -> Optional[Label]:
        if len(self.roles) >= self.max_roles:
            return None
        r = self._fresh("r")
        self.roles.add(r)
        self.pa[r] = {}
        return Label("addR", role=r)

    def _mv_addP(self) -> Optional[Label]:
        if len(self.versions) >= self.max_files:
            return None
        fn = self._fresh("f")
        self.versions[fn] = 1
        return Label("addP", file=fn)

    def _mv_assignU(self) -> Optional[Label]:
        roles = sorted(self.roles)
        cands = [
            (u, r)
            for u in sorted(self.users)
            for r in roles
            if r not in self.ur[u]
        ]
        if not cands:
            return None
        u, r = self.rng.choice(cands)
        self.ur[u].add(r)
        return Label("assignU", user=u, role=r)

    def _mv_revokeU(self) -> Optional[Label]:
        ok = {r for r in self.roles if self._can_bump((r,))}
        cands = [
            (u, r)
            for u in sorted(self.users)
            for r in sorted(self.ur[u])
            if r in ok
        ]
        if not cands:
            return None
        u, r = self.rng.choice(cands)
        self.ur[u].discard(r)
        self._bump((r,))
        return Label("revokeU", user=u, role=r)

    def _mv_assignP(self) -> Optional[Label]:
        # a fresh grant or an upgrade of a Read, never both for one pair
        files = sorted(self.versions)
        cands = []
        for r in sorted(self.roles):
            held = self.pa[r]
            for fn in files:
                op = held.get(fn)
                if op is None or op == READ:
                    cands.append((r, fn, op is None))
        if not cands:
            return None
        r, fn, fresh = self.rng.choice(cands)
        op = self.rng.choice((READ, RW)) if fresh else RW
        self.pa[r][fn] = op
        return Label("assignP", role=r, file=fn, op=op)

    def _mv_revokeP_write(self) -> Optional[Label]:
        cands = [
            (r, fn)
            for r in sorted(self.roles)
            for fn, op in sorted(self.pa[r].items())
            if op == RW
        ]
        if not cands:
            return None
        r, fn = self.rng.choice(cands)
        self.pa[r][fn] = READ
        return Label("revokeP", role=r, file=fn, op=WRITE)

    def _mv_revokeP_full(self) -> Optional[Label]:
        cands = [
            (r, fn)
            for r in sorted(self.roles)
            for fn in sorted(self.pa[r])
            if self.versions[fn] < self.version_cap
        ]
        if not cands:
            return None
        r, fn = self.rng.choice(cands)
        del self.pa[r][fn]
        self.versions[fn] += 1
        return Label("revokeP", role=r, file=fn, op=RW)

    def _mv_delU(self) -> Optional[Label]:
        cands = [u for u in sorted(self.users) if self._can_bump(self.ur[u])]
        if not cands:
            return None
        u = self.rng.choice(cands)
        self._bump(self.ur.pop(u))
        self.users.discard(u)
        return Label("delU", user=u)

    def _mv_delR(self) -> Optional[Label]:
        cands = [r for r in sorted(self.roles) if self._can_bump((r,))]
        if not cands:
            return None
        r = self.rng.choice(cands)
        self._bump((r,))
        self.roles.discard(r)
        del self.pa[r]
        for roles in self.ur.values():
            roles.discard(r)
        return Label("delR", role=r)

    def _mv_delP(self) -> Optional[Label]:
        if not self.versions:
            return None
        fn = self.rng.choice(sorted(self.versions))
        del self.versions[fn]
        for held in self.pa.values():
            held.pop(fn, None)
        return Label("delP", file=fn)

    def _mv_noop(self) -> Optional[Label]:
        # the options are Label fields, so only the label drawn is built
        opts: list[tuple] = []
        if self.users:
            u = self.rng.choice(sorted(self.users))
            opts.append(("addU", u))
            rs = sorted(self.roles - self.ur[u])
            if rs:
                opts.append(("revokeU", u, self.rng.choice(rs)))
        if self.roles and self.versions:
            r = self.rng.choice(sorted(self.roles))
            fn = self.rng.choice(sorted(self.versions))
            op = self.pa[r].get(fn)
            if op is None:
                opts.append(("revokeP", None, r, fn, RW))
            elif op == RW:
                opts.append(("assignP", None, r, fn, READ))
        if not opts:
            return None
        return Label(*self.rng.choice(opts))

    #: The moves by kind, each with its weight: growth is favoured, so
    #: traces reach interesting states before churning.
    _MOVES = (
        _mv_addU, _mv_addR, _mv_addP, _mv_assignU, _mv_assignP,
        _mv_revokeU, _mv_revokeP_write, _mv_revokeP_full,
        _mv_delU, _mv_delR, _mv_delP,
    )
    _WEIGHTS = (3, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1)
    _CUM = tuple(accumulate(_WEIGHTS))

    def step(self) -> Optional[Label]:
        random = self.rng.random
        if random() < self.NOOP_RATE:
            lbl = self._mv_noop()
            if lbl is not None:
                return lbl
        moves, weights, cum = self._MOVES, self._WEIGHTS, self._CUM
        while True:
            i = _draw(random, cum)
            lbl = moves[i](self)
            if lbl is not None:
                return lbl
            if len(moves) == 1:
                return None
            moves = moves[:i] + moves[i + 1:]
            weights = weights[:i] + weights[i + 1:]
            cum = list(accumulate(weights))

    def build(self, n: int) -> list[Label]:
        out = []
        for _ in range(n):
            lbl = self.step()
            if lbl is None:
                break
            out.append(lbl)
        return out
