"""Per-layer tracing of the rolecrypt package, installed from outside it.

``Tracer.install()`` replaces every public function of the seven modules, and
every public method of the classes they define, with a wrapper that records a
span around the call.  Functions re-exported into other modules (for example
``canonical_bytes`` imported by ``equivalence``) are replaced there too, so a
call is traced whichever module it goes through.  ``Tracer.uninstall()`` puts
the originals back.

Spans are kept in memory as per-name aggregates: call count, inclusive time
and self time (the span's duration minus the time its child spans cover).
``per_layer_metrics`` turns them into the named per-layer metrics.  It gives
each time as a share of the traced pass's wall time, which moves less with
the machine's speed than seconds do; multiply by ``trace.traced_s`` for
seconds.
"""

from __future__ import annotations

import functools
import sys
import time
import types

from rolecrypt.crypto import OP_NAMES
from rolecrypt.rbac import LABEL_KINDS

LAYERS = ("cli", "workload", "engine", "crypto", "costmodel", "equivalence", "rbac")

_PUTS = ("engine.FileStore.put_rk", "engine.FileStore.put_fk", "engine.FileStore.put_f")
_DELETES = ("engine.FileStore.del_rk", "engine.FileStore.del_fk", "engine.FileStore.del_f")
_SCANS = tuple(
    f"engine.FileStore.{m}"
    for m in ("fk_versions", "fk_holders_at", "holder_files", "rk_members", "member_roles")
)
_CSV_WRITERS = ("workload.write_runs_csv", "workload.write_summary_csv", "workload.write_events_csv")
_CANONICAL = "crypto.canonical_bytes"


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({
        "workload.seed_engine.calls": "count",
        "workload.seed_engine.share": "ratio",
        "workload.sample_events.share": "ratio",
        "workload.run_simulation.self_share": "ratio",
        "workload.skipped_share": "ratio",
        "workload.csv_write.share": "ratio",
    })
    for kind in LABEL_KINDS:
        units[f"engine.apply_label.{kind}.calls"] = "count"
        units[f"engine.apply_label.{kind}.share"] = "ratio"
    units.update({
        "engine.read_file.calls": "count",
        "engine.read_file.share": "ratio",
        "engine.write_file.calls": "count",
        "engine.write_file.share": "ratio",
        "engine.filestore.puts": "count",
        "engine.filestore.deletes": "count",
        "engine.filestore.scan.calls": "count",
        "engine.filestore.scan.share": "ratio",
        "engine.filestore.rk_tuples": "count",
        "engine.filestore.fk_tuples": "count",
        "engine.filestore.f_tuples": "count",
        "engine.warnings_share": "ratio",
        "engine.stats.share": "ratio",
    })
    for op in OP_NAMES:
        units[f"crypto.count.{op}"] = "count"
    units.update({
        "crypto.digest_fields.calls": "count",
        "crypto.digest_fields.share": "ratio",
        "crypto.canonical_bytes.calls": "count",
        "crypto.canonical_bytes.share": "ratio",
        "crypto.canonical_bytes.bytes": "B",
        "costmodel.reconcile.calls": "count",
        "costmodel.reconcile.share": "ratio",
        "costmodel.algebraic_cost.share": "ratio",
        "equivalence.envelope_checks": "count",
        "equivalence.run_differential.share": "ratio",
        "equivalence.canonicalize.share": "ratio",
        "equivalence.sigma.share": "ratio",
        "rbac.apply_label.share": "ratio",
        "rbac.theory.share": "ratio",
        "rbac.auth_facts.share": "ratio",
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


LAYER_UNITS = _per_layer_units()


class Tracer:
    """Span aggregates for one traced pass.  Not thread-safe: the package is
    driven by a single thread."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.kinds: dict[str, list] = {}  # label kind -> [calls, inclusive s]
        self.canonical_bytes = 0
        self.labels = 0
        self.warnings = 0
        self.arrivals = 0
        self.skipped = 0
        self.envelope_checks = 0
        self.last_engine = None  # engine most recently given a label
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span(self, name: str, fn, after=None):
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        return span

    def _wrap(self, name: str, fn):
        if name == _CANONICAL:
            return self._wrap_canonical(fn)
        if name == "engine.Engine.apply_label":
            return self._wrap_apply_label(fn)
        if name == "workload.sample_events":
            return self._span(name, fn, after=self._count_arrivals)
        if name == "engine.Engine.auth_facts":
            return self._span(name, fn, after=self._count_envelope_check)
        return self._span(name, fn)

    def _wrap_canonical(self, fn):
        # canonical_bytes recurses through the module global: only the
        # outermost call of a nest is a span.
        stack = self._stack

        def count(args, result) -> None:
            self.canonical_bytes += len(result)

        outer = self._span(_CANONICAL, fn, after=count)

        @functools.wraps(fn)
        def canonical_bytes(value):
            if stack and stack[-1][0] == _CANONICAL:
                return fn(value)
            return outer(value)

        return canonical_bytes

    def _wrap_apply_label(self, fn):
        spanned = self._span("engine.Engine.apply_label", fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def apply_label(engine, label):
            warnings = engine.warnings
            t0 = clock()
            try:
                return spanned(engine, label)
            finally:
                kind = self.kinds.setdefault(label.kind, [0, 0.0])
                kind[0] += 1
                kind[1] += clock() - t0
                self.labels += 1
                self.warnings += engine.warnings - warnings
                self.last_engine = engine

        return apply_label

    def _count_arrivals(self, args, events) -> None:
        self.arrivals += len(events)
        self.skipped += sum(1 for ev in events if ev.label is None)

    def _count_envelope_check(self, args, result) -> None:
        # the differential harness calls auth_facts from the store's
        # mutation hook, i.e. from inside a FileStore put or delete
        if self._stack and self._stack[-1][0] in _PUTS + _DELETES:
            self.envelope_checks += 1

    # -- installing

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: sys.modules[f"rolecrypt.{layer}"] for layer in LAYERS}
        namespaces = [sys.modules["rolecrypt"], *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, name, wrapper)
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            self._patch(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading

    def _sum(self, names, field: int):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[field] for n in names)

    def per_layer_metrics(self, providers, wall_s: float) -> dict[str, float]:
        """Every metric of ``LAYER_UNITS`` except the ``trace.*`` ones,
        which the caller measures.  ``providers`` are the crypto providers
        of every engine the pass created; ``wall_s`` is the pass's wall
        time, of which every span time is reported as a share."""
        m: dict[str, float] = {}
        for layer in LAYERS:
            mine = [n for n in self.spans if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_share"] = self._sum(mine, 2) / wall_s
            m[f"{layer}.calls"] = self._sum(mine, 0)

        def calls(*names):
            return self._sum(names, 0)

        def share(*names):
            return self._sum(names, 1) / wall_s

        m["workload.seed_engine.calls"] = calls("workload.seed_engine")
        m["workload.seed_engine.share"] = share("workload.seed_engine")
        m["workload.sample_events.share"] = share("workload.sample_events")
        m["workload.run_simulation.self_share"] = self._sum(["workload.run_simulation"], 2) / wall_s
        m["workload.skipped_share"] = self.skipped / self.arrivals if self.arrivals else 0.0
        m["workload.csv_write.share"] = share(*_CSV_WRITERS)
        for kind in LABEL_KINDS:
            n, s = self.kinds.get(kind, (0, 0.0))
            m[f"engine.apply_label.{kind}.calls"] = n
            m[f"engine.apply_label.{kind}.share"] = s / wall_s
        for op in ("read_file", "write_file"):
            m[f"engine.{op}.calls"] = calls(f"engine.Engine.{op}")
            m[f"engine.{op}.share"] = share(f"engine.Engine.{op}")
        m["engine.filestore.puts"] = calls(*_PUTS)
        m["engine.filestore.deletes"] = calls(*_DELETES)
        m["engine.filestore.scan.calls"] = calls(*_SCANS)
        m["engine.filestore.scan.share"] = share(*_SCANS)
        fs = self.last_engine.fs if self.last_engine is not None else None
        m["engine.filestore.rk_tuples"] = len(fs.rk) if fs else 0
        m["engine.filestore.fk_tuples"] = len(fs.fk) if fs else 0
        m["engine.filestore.f_tuples"] = len(fs.f) if fs else 0
        m["engine.warnings_share"] = self.warnings / self.labels if self.labels else 0.0
        m["engine.stats.share"] = share("engine.Engine.stats")
        totals: dict[str, int] = {}
        for p in providers:
            for op, n in p.snapshot().totals().items():
                totals[op] = totals.get(op, 0) + n
        for op in OP_NAMES:
            m[f"crypto.count.{op}"] = totals.get(op, 0)
        m["crypto.digest_fields.calls"] = calls("crypto.digest_fields")
        m["crypto.digest_fields.share"] = share("crypto.digest_fields")
        m["crypto.canonical_bytes.calls"] = calls(_CANONICAL)
        m["crypto.canonical_bytes.share"] = share(_CANONICAL)
        m["crypto.canonical_bytes.bytes"] = self.canonical_bytes
        m["costmodel.reconcile.calls"] = calls("costmodel.reconcile")
        m["costmodel.reconcile.share"] = share("costmodel.reconcile")
        m["costmodel.algebraic_cost.share"] = share("costmodel.algebraic_cost")
        m["equivalence.envelope_checks"] = self.envelope_checks
        for fn in ("run_differential", "canonicalize", "sigma"):
            m[f"equivalence.{fn}.share"] = share(f"equivalence.{fn}")
        for fn in ("apply_label", "theory", "auth_facts"):
            m[f"rbac.{fn}.share"] = share(f"rbac.{fn}")
        return m

    def table(self) -> str:
        """Human-readable span table, by self time."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<44} {'calls':>10} {'incl_s':>10} {'self_s':>10}"]
        for name, (n, incl, own) in rows:
            if n:
                lines.append(f"{name:<44} {n:>10} {incl:>10.4f} {own:>10.4f}")
        return "\n".join(lines)
