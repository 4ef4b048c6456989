"""The whole-state lockstep, the reference the stream-fed checks of
``equivalence.Lockstep`` are compared against.

``WholeStateLockstep`` makes the same checks in the same order, each by
re-reading the engine's whole state: the envelope compares
``auth_facts(eng.state())`` with the pre- and post-states after every change
the store's hook reports, and the theory check compares ``eng.state()`` with
the model's post-state after every label.  It costs a whole-state read per
change, so it runs only here.
"""

from rolecrypt.costmodel import algebraic_cost, reconcile
from rolecrypt.engine import measure_label
from rolecrypt.equivalence import congruent, sigma
from rolecrypt.rbac import RbacError, RbacState, apply_label, auth_facts, theory


class WholeStateLockstep:
    """``Lockstep``'s interface and checks, each over the whole state."""

    def __init__(self, engine, state=RbacState(), *, costs=True):
        self.engine, self.state = engine, state
        self.versions = dict.fromkeys(state.perms, 1) if costs else None
        self.error = self.price = None
        self._auth = auth_facts(state)

    def step(self, label):
        eng, pre = self.engine, self.state
        self.error = self.price = None
        try:
            post, model_err = apply_label(pre, label), None
        except RbacError as e:
            post, model_err = pre, e
        violations = []
        post_auth = auth_facts(post)
        lower, upper = self._auth & post_auth, self._auth | post_auth

        def hook(store, key):
            cur = auth_facts(eng.state())
            if not (lower <= cur <= upper):
                extra, missing = sorted(cur - upper), sorted(lower - cur)
                violations.append(f"outside envelope +{extra} -{missing}")

        eng.fs.on_mutation = hook
        try:
            measured = measure_label(eng, label)
        except Exception as e:
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
        if violations:
            return "safety", violations[0]
        if self.versions is not None and model_err is None:
            self.price = algebraic_cost(label, pre, self.versions)
            diff = reconcile(measured, self.price, eng.provider.name)
            if diff:
                return "cost", f"measured-predicted {diff!r}"
        got = eng.state()
        if (got.roles, got.ur, got.pa) != (post.roles, post.ur, post.pa):
            got, want = theory(got), theory(post)
            return "theory", f"+{sorted(got - want)} -{sorted(want - got)}"
        self.state, self._auth = post, post_auth
        return None


def differential(labels, engine_cls, binding="ibe", *, check_costs=False):
    """``run_differential``'s verdict on ``labels`` as ``(kind, index,
    detail)``, or ``(None, None, "")``, with an ``engine_cls`` engine
    stepped by ``WholeStateLockstep``."""
    eng = engine_cls(binding=binding)
    lock = WholeStateLockstep(eng, costs=check_costs)
    for i, label in enumerate(labels):
        failure = lock.step(label)
        if failure is not None:
            return failure[0], i, f"label {i} {label}: {failure[1]}"
    if not congruent(eng, sigma(lock.state, binding)):
        return (
            "congruence", len(labels) - 1 if labels else None,
            "final state not congruent to mapped state",
        )
    return None, None, ""
