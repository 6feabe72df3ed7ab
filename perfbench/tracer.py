"""Outside-in tracer for sepsym, installed in memory from the benchmark.

Nothing in sepsym is edited.  ``Tracer.install`` rebinds the public
boundaries of each layer to timing wrappers:

- public module functions, in every ``sepsym.*`` namespace that imported
  them by name (so calls through module globals are seen too);
- the check functions in ``checks.CHECKS`` (one span per check);
- ``NonlinearOperator.apply`` and ``.derivative``;
- the kernels of operators returned by the public ``operators.*_op``
  factories;
- the kernels of the sliced operators returned by ``hierarchy.lift_J``;
- the callable returned by ``symmetry.index_flow``.

Every wrapped call pushes a frame on one stack.  On return it adds its
duration to its parent's child time, so self time (duration minus the
time its instrumented children cover) is exact in integer nanoseconds.
Calls of ``HOT`` layers are timed and counted but leave no span record:
at ~570k ``mixedpow`` calls per index-flow pass, one record per call
would dominate both the tracing cost and the trace size.  Span records
(id, parent, check id, name, start, end, self) stay in memory and are
written once, by ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import replace

# layers whose calls are aggregated without per-call span records
HOT = ("mixedpow",)

# modules whose public functions are wrapped; operators is handled through
# its factories, checks through CHECKS
MODULES = ("cli", "scenario", "checks", "symmetry", "evolution", "mixedpow",
           "hierarchy", "opcalc", "obstruction", "space")

_MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stack: list[list] = []  # [name_id, start_ns, child_ns, span_id, check_id]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.flow_points: set[tuple[int, float]] = set()  # (flow serial, t)
        self._next_flow = 0
        self._next_span = 1
        self._next_check = 1

    # -- span machinery -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, measure=None, new_check: bool = False):
        """Wrap ``fn`` so each call is a span called ``name``.

        ``measure(args, kwargs, result)`` may add to ``self.counts``.
        """
        nid = self._name_id(name)
        record = not name.startswith(HOT)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if new_check:
                check_id = self._next_check
                self._next_check += 1
            else:
                check_id = parent[4] if parent else 0
            span_id = 0
            if record:
                span_id = self._next_span
                self._next_span += 1
            frame = [nid, 0, 0, span_id, check_id]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += own
                if parent is not None:
                    parent[2] += dur
                    self.edges[(self.names[parent[0]], name)] += 1
                if record:
                    self.spans.append((span_id, parent[3] if parent else 0, check_id,
                                       nid, frame[1], end, own))
            if measure is not None:
                measure(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def count(self, key: str, fn):
        """Wrap ``fn`` to count its calls only (no timing, no frame)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- operator wrapping ----------------------------------------------

    def _measure_kernel(self, args, kwargs, result):
        arrays = [a for a in args[1:] if hasattr(a, "nbytes")]
        self.counts["operators.kernel.elems"] += int(arrays[0].size) if arrays else 0
        self.counts["operators.kernel.bytes"] += (
            sum(int(a.nbytes) for a in arrays) + int(getattr(result, "nbytes", 0))
        )

    def wrap_kernels(self, op, name: str, measure=None):
        """Return ``op`` with its kernels wrapped as ``name`` spans."""
        fields = {}
        for attr in ("eval_fn", "derivative_fn", "second_derivative_fn"):
            fn = getattr(op, attr)
            if fn is not None and not getattr(fn, _MARK, False):
                fields[attr] = self.span(name, fn, measure)
        return replace(op, **fields) if fields else op

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        import sepsym.cli  # noqa: F401  (imports every layer)
        from sepsym import checks, hierarchy, mixedpow, opcalc, operators, symmetry

        mods = {m: sys.modules[f"sepsym.{m}"] for m in MODULES}
        namespaces = [m for k, m in sys.modules.items()
                      if k == "sepsym" or k.startswith("sepsym.")]
        check_fns = {fn for fn, _ in checks.CHECKS.values()}

        def rebind(orig, wrapped):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapped)

        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or fn in check_fns):
                    continue
                if (layer, attr) in (("hierarchy", "lift_J"), ("symmetry", "index_flow")):
                    continue
                measure = self._measure_rk4 if attr == "rk4_trajectory" else None
                rebind(fn, self.span(f"{layer}.{attr}", fn, measure))

        for attr, fn in list(vars(operators).items()):
            if attr.endswith("_op") and inspect.isfunction(fn) \
                    and fn.__module__ == operators.__name__:
                rebind(fn, self._factory(fn))

        rebind(hierarchy.lift_J, self._lift(hierarchy.lift_J))
        rebind(symmetry.index_flow, self._index_flow(symmetry.index_flow))

        for name, (fn, desc) in list(checks.CHECKS.items()):
            checks.CHECKS[name] = (self.span(f"checks.{name}", fn, new_check=True), desc)

        op_cls = opcalc.NonlinearOperator
        op_cls.apply = self.span("opcalc.apply", op_cls.apply)
        op_cls.derivative = self.span("opcalc.derivative", op_cls.derivative,
                                      self._measure_derivative)
        pair_cls = mixedpow.IndexPair
        pair_cls.__post_init__ = self.count("mixedpow.index_pairs", pair_cls.__post_init__)
        return self

    def _factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.wrap_kernels(factory(*args, **kwargs), "operators.kernel",
                                     self._measure_kernel)
        return wrapper

    def _lift(self, lift_J):
        @functools.wraps(lift_J)
        def wrapper(op, J, m):
            lifted = lift_J(op, J, m)
            if lifted.eval_fn is op.eval_fn:
                return lifted  # identity or pointwise lifting: no slicing happens
            return self.wrap_kernels(lifted, "hierarchy.lift")
        return wrapper

    def _index_flow(self, index_flow):
        @functools.wraps(index_flow)
        def wrapper(*args, **kwargs):
            flow = index_flow(*args, **kwargs)
            key = self._next_flow
            self._next_flow += 1
            points = self.flow_points

            def mark(call_args, call_kwargs, result):
                points.add((key, float(call_args[0])))

            return self.span("symmetry.index_flow", flow, mark)
        return wrapper

    def _measure_rk4(self, args, kwargs, result):
        steps = args[4] if len(args) > 4 else kwargs["n_steps"]
        self.counts["evolution.rk4.steps"] += int(steps)
        parent = self.stack[-1] if self.stack else None
        if parent is not None and self.names[parent[0]] == "symmetry.index_flow":
            self.counts["symmetry.index_flow.steps"] += int(steps)

    def _measure_derivative(self, args, kwargs, result):
        op = args[0]
        fd_step = args[4] if len(args) > 4 else kwargs.get("fd_step")
        if op.derivative_fn is None or fd_step is not None:
            self.counts["opcalc.derivative.fd_calls"] += 1

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name aggregates and counters; every entry is deterministic
        except the ``*_ns`` timings."""
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
            "counts": {**self.counts,
                       "symmetry.index_flow.distinct_points": len(self.flow_points)},
            "hot_layers": list(HOT),
        }

    def dump(self, path: str) -> None:
        doc = {
            "fields": ["id", "parent", "check", "name", "start_ns", "end_ns", "self_ns"],
            "names": self.names,
            "spans": self.spans,
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
